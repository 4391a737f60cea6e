/**
 * @file
 * Tests for the host KV tier (kv/kv_tier.h) and the roofline-guided
 * swap-vs-recompute decision built on it: store semantics (budget,
 * LRU, stale entries, owner isolation), the exact decision boundary
 * at which a faster host link flips recompute into swap, and the twin
 * property — a tiered engine run decides bit-identically to an
 * untiered one, differing only in timing and KV statistics.
 */

#include <gtest/gtest.h>

#include "core/engine.h"
#include "kv/kv_cache.h"
#include "kv/kv_session.h"
#include "kv/kv_tier.h"
#include "util/units.h"

namespace fasttts
{
namespace
{

// 1 byte per token, 16-token blocks: budgets and entry sizes read as
// token counts.
constexpr double kTokenByte = 1.0;
constexpr int kBlockTokens = 16;

// --- HostKvTier store semantics ---

TEST(HostKvTier, SwapOutTakeRoundTrip)
{
    HostKvTier tier(1024, 8.0);
    const uint64_t owner = tier.registerOwner();
    ASSERT_TRUE(tier.swapOut(owner, 7, 96, 96));
    EXPECT_TRUE(tier.contains(owner, 7));
    EXPECT_EQ(tier.entryCount(), 1);
    EXPECT_DOUBLE_EQ(tier.residentBytes(), 96);

    // take() consumes the entry: the second restore must miss.
    EXPECT_TRUE(tier.take(owner, 7, 96));
    EXPECT_FALSE(tier.contains(owner, 7));
    EXPECT_FALSE(tier.take(owner, 7, 96));
    EXPECT_DOUBLE_EQ(tier.residentBytes(), 0);
    EXPECT_EQ(tier.stats().swappedInNodes, 1u);
    EXPECT_EQ(tier.stats().swappedInTokens, 96u);
}

TEST(HostKvTier, TakeMissesAndDropsStaleEntryOnTokenMismatch)
{
    HostKvTier tier(1024, 8.0);
    const uint64_t owner = tier.registerOwner();
    ASSERT_TRUE(tier.swapOut(owner, 3, 64, 64));

    // The node regrew after its snapshot: restoring 64 tokens of KV
    // for an 80-token node would resurrect wrong-length state.
    EXPECT_FALSE(tier.take(owner, 3, 80));
    EXPECT_EQ(tier.stats().staleNodes, 1u);
    // The stale entry is gone entirely — not even the original token
    // count can restore it now.
    EXPECT_FALSE(tier.contains(owner, 3));
    EXPECT_FALSE(tier.take(owner, 3, 64));
}

TEST(HostKvTier, BudgetEvictsLeastRecentlySwappedFirst)
{
    HostKvTier tier(256, 8.0);
    const uint64_t owner = tier.registerOwner();
    ASSERT_TRUE(tier.swapOut(owner, 1, 100, 100));
    ASSERT_TRUE(tier.swapOut(owner, 2, 100, 100));
    // Admitting a third 100-byte entry exceeds the 256-byte budget;
    // the oldest swap (node 1) is evicted to make room.
    ASSERT_TRUE(tier.swapOut(owner, 3, 100, 100));
    EXPECT_FALSE(tier.contains(owner, 1));
    EXPECT_TRUE(tier.contains(owner, 2));
    EXPECT_TRUE(tier.contains(owner, 3));
    EXPECT_EQ(tier.stats().evictedNodes, 1u);
    EXPECT_DOUBLE_EQ(tier.residentBytes(), 200);
    EXPECT_DOUBLE_EQ(tier.peakBytes(), 200);
}

TEST(HostKvTier, OversizedOfferIsRefusedOutright)
{
    HostKvTier tier(128, 8.0);
    const uint64_t owner = tier.registerOwner();
    ASSERT_TRUE(tier.swapOut(owner, 1, 64, 64));
    // An entry larger than the whole budget is refused without
    // disturbing what is already stored.
    EXPECT_FALSE(tier.swapOut(owner, 2, 200, 200));
    EXPECT_EQ(tier.stats().rejectedNodes, 1u);
    EXPECT_TRUE(tier.contains(owner, 1));
    EXPECT_DOUBLE_EQ(tier.residentBytes(), 64);
}

TEST(HostKvTier, ReofferReplacesLiveEntry)
{
    HostKvTier tier(1024, 8.0);
    const uint64_t owner = tier.registerOwner();
    ASSERT_TRUE(tier.swapOut(owner, 5, 32, 32));
    ASSERT_TRUE(tier.swapOut(owner, 5, 48, 48));
    EXPECT_EQ(tier.entryCount(), 1);
    EXPECT_DOUBLE_EQ(tier.residentBytes(), 48);
    // Only the latest snapshot restores.
    EXPECT_FALSE(tier.take(owner, 5, 32));
    EXPECT_FALSE(tier.contains(owner, 5)); // Stale miss dropped it.
}

TEST(HostKvTier, ReleaseOwnerIsolatesManagers)
{
    HostKvTier tier(1024, 8.0);
    const uint64_t a = tier.registerOwner();
    const uint64_t b = tier.registerOwner();
    ASSERT_NE(a, b);
    ASSERT_TRUE(tier.swapOut(a, 1, 50, 50));
    ASSERT_TRUE(tier.swapOut(b, 1, 60, 60));
    tier.releaseOwner(a);
    // Owner a's entry is gone; owner b's identically-numbered node is
    // untouched.
    EXPECT_FALSE(tier.contains(a, 1));
    EXPECT_TRUE(tier.contains(b, 1));
    EXPECT_DOUBLE_EQ(tier.residentBytes(), 60);
}

TEST(HostKvTier, TransferSecondsIsBytesOverBandwidth)
{
    HostKvTier tier(1 * GiB, 16.0 * GBps);
    EXPECT_DOUBLE_EQ(tier.transferSeconds(16e9), 1.0);
    EXPECT_DOUBLE_EQ(tier.transferSeconds(0), 0.0);
}

// --- The roofline decision boundary ---
//
// With T resident tokens of B bytes and a recompute rate of r seconds
// per token, suspend() swaps iff B / bandwidth < r * T — so the
// boundary bandwidth is exactly B / (r * T), and crossing it must
// flip the decision while landing on it must not (ties go to
// recompute).

class TierDecisionBoundary : public ::testing::Test
{
  protected:
    // 96 resident tokens at 1 byte/token, rate 1 s/token: recompute
    // costs 96 s, so the boundary bandwidth is exactly 1 byte/s.
    static constexpr int kTokens = 96;
    static constexpr double kRate = 1.0;

    long runSuspend(double bandwidth_bytes_per_s, KvSessionStats *out)
    {
        KvCacheManager kv(1024, kTokenByte, kBlockTokens);
        HostKvTier tier(1 * GiB, bandwidth_bytes_per_s);
        kv.attachHostTier(&tier);
        const int a = kv.createChild(KvCacheManager::kRoot, 1, 64);
        const int b = kv.createChild(a, 2, 32);
        kv.retain(b);
        EXPECT_TRUE(kv.ensureResident(b, 1).ok);
        EXPECT_EQ(kv.residentTokens(), kTokens);

        KvSession session(kv);
        const long evicted = session.suspend(2, kRate);
        const long resumed = session.resume(3);
        (void)resumed;
        *out = session.stats();
        return evicted;
    }
};

TEST_F(TierDecisionBoundary, FasterLinkSwapsAndRestores)
{
    KvSessionStats stats;
    // Just above the boundary: transfer 95.99… s < recompute 96 s.
    const long evicted = runSuspend(1.0 + 1e-6, &stats);
    EXPECT_EQ(evicted, kTokens);
    EXPECT_EQ(stats.swappedOutTokens, kTokens);
    EXPECT_EQ(stats.restoredTokens, kTokens);
    EXPECT_EQ(stats.recomputedTokens, 0);
}

TEST_F(TierDecisionBoundary, BoundaryTieChoosesRecompute)
{
    KvSessionStats stats;
    // Exactly on the boundary: transfer == recompute == 96 s. The
    // strict inequality must leave the legacy evict-and-recompute
    // path byte-identical.
    const long evicted = runSuspend(1.0, &stats);
    EXPECT_EQ(evicted, kTokens);
    EXPECT_EQ(stats.swappedOutTokens, 0);
    EXPECT_EQ(stats.restoredTokens, 0);
    EXPECT_EQ(stats.recomputedTokens, kTokens);
}

TEST_F(TierDecisionBoundary, SlowerLinkChoosesRecompute)
{
    KvSessionStats stats;
    const long evicted = runSuspend(1.0 - 1e-6, &stats);
    EXPECT_EQ(evicted, kTokens);
    EXPECT_EQ(stats.swappedOutTokens, 0);
    EXPECT_EQ(stats.recomputedTokens, kTokens);
}

TEST(TierDecision, NegativeRateKeepsLegacyBehaviour)
{
    KvCacheManager kv(1024, kTokenByte, kBlockTokens);
    HostKvTier tier(1 * GiB, 1e12); // Effectively instant link.
    kv.attachHostTier(&tier);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 48);
    kv.retain(a);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);

    // The default rate (-1) means "no roofline information": suspend
    // must not swap even over an infinitely fast link.
    KvSession session(kv);
    session.suspend(2);
    EXPECT_EQ(session.stats().swappedOutTokens, 0);
    EXPECT_EQ(tier.entryCount(), 0);
}

// --- Twin property: tiering never changes what the search decides ---

TEST(TierTwinProperty, TieredRunDecidesIdenticallyToUntiered)
{
    const DatasetProfile profile = *datasetByName("AMC");
    ModelConfig models = *modelConfigByLabel("1.5B+1.5B");
    // Squeeze the KV budget to the engine floor so the run evicts and
    // re-prefills constantly — the regime where a tier, if it could
    // change decisions, would.
    models.memoryFraction =
        (models.generator.weightBytes() + models.verifier.weightBytes())
        / rtx4090().usableBytes();

    for (uint64_t seed : {11u, 23u, 47u}) {
        const Problem problem = makeProblems(profile, 1, seed)[0];
        auto algo = *makeAlgorithm("beam_search", 8, 4);

        FastTtsEngine plain(FastTtsConfig::fastTts(), models, rtx4090(),
                            profile, *algo);
        const RequestResult base = plain.runRequest(problem);

        HostKvTier tier(1 * GiB, 16.0 * GBps);
        auto algo2 = *makeAlgorithm("beam_search", 8, 4);
        FastTtsEngine tiered(FastTtsConfig::fastTts(), models,
                             rtx4090(), profile, *algo2);
        tiered.attachHostTier(&tier);
        const RequestResult swap = tiered.runRequest(problem);

        // The tier must actually have engaged, or this proves nothing.
        ASSERT_GT(base.kvStats.reprefilledTokens, 0u) << "seed " << seed;
        ASSERT_GT(swap.kvStats.swappedOutTokens, 0u) << "seed " << seed;
        ASSERT_GT(swap.kvStats.swappedInTokens, 0u) << "seed " << seed;

        // Bit-identical decisions: same solutions, same tokens.
        ASSERT_EQ(base.solutions.size(), swap.solutions.size())
            << "seed " << seed;
        for (size_t i = 0; i < base.solutions.size(); ++i) {
            EXPECT_EQ(base.solutions[i].answer, swap.solutions[i].answer);
            EXPECT_DOUBLE_EQ(base.solutions[i].score,
                             swap.solutions[i].score);
            EXPECT_EQ(base.solutions[i].tokens, swap.solutions[i].tokens);
        }
        EXPECT_EQ(base.verifiedTokens, swap.verifiedTokens);
        EXPECT_EQ(base.generatedTokens, swap.generatedTokens);
        // The floor budget must not reach the hang guard.
        EXPECT_EQ(base.defensiveExits, 0) << "seed " << seed;
        EXPECT_EQ(swap.defensiveExits, 0) << "seed " << seed;

        // Only timing and KV statistics may differ: the tiered run
        // replaced recompute with transfers.
        EXPECT_LT(swap.kvStats.reprefilledTokens,
                  base.kvStats.reprefilledTokens)
            << "seed " << seed;
        EXPECT_GT(swap.transferTime, base.transferTime) << "seed " << seed;
    }
}

} // namespace
} // namespace fasttts
