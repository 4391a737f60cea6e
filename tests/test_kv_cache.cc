/**
 * @file
 * Tests for the radix-tree KV cache manager: structure, refcounting,
 * residency, LRU eviction and the invariants the engine relies on.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kv/kv_cache.h"
#include "util/rng.h"

namespace fasttts
{
namespace
{

// 1 byte per token, 16-token blocks: a budget of B bytes is B tokens.
constexpr double kTokenByte = 1.0;

KvCacheManager
makeCache(double budget_tokens, int block_tokens = 16)
{
    return KvCacheManager(budget_tokens, kTokenByte, block_tokens);
}

TEST(KvCache, RootExistsAndIsResident)
{
    auto kv = makeCache(1024);
    EXPECT_TRUE(kv.isResident(KvCacheManager::kRoot));
    EXPECT_EQ(kv.pathTokens(KvCacheManager::kRoot), 0);
    EXPECT_EQ(kv.nodeCount(), 0);
}

TEST(KvCache, CreateChildBuildsPath)
{
    auto kv = makeCache(1024);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 100);
    const int b = kv.createChild(a, 2, 50);
    EXPECT_EQ(kv.pathTokens(b), 150);
    EXPECT_EQ(kv.nodeTokens(b), 50);
    EXPECT_EQ(kv.parentOf(b), a);
    EXPECT_EQ(kv.parentOf(a), KvCacheManager::kRoot);
    EXPECT_EQ(kv.childOf(KvCacheManager::kRoot, 1), a);
    EXPECT_EQ(kv.childOf(KvCacheManager::kRoot, 99),
              KvCacheManager::kInvalid);
    EXPECT_EQ(kv.nodeCount(), 2);
}

TEST(KvCache, NewNodesStartNonResident)
{
    auto kv = makeCache(1024);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 100);
    EXPECT_FALSE(kv.isResident(a));
    EXPECT_EQ(kv.residentNodeCount(), 0);
}

TEST(KvCache, EnsureResidentMaterialisesWholePath)
{
    auto kv = makeCache(1024);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 100);
    const int b = kv.createChild(a, 2, 60);
    const auto touch = kv.ensureResident(b, 1);
    EXPECT_TRUE(touch.ok);
    EXPECT_EQ(touch.cachedTokens, 0);
    EXPECT_EQ(touch.recomputeTokens, 160);
    EXPECT_TRUE(kv.isResident(a));
    EXPECT_TRUE(kv.isResident(b));
    EXPECT_EQ(kv.residentTokens(), 160);
    // 100 tokens -> 7 blocks, 60 tokens -> 4 blocks.
    EXPECT_EQ(kv.allocator().used(), 11u);
}

TEST(KvCache, SecondTouchIsAHit)
{
    auto kv = makeCache(1024);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 100);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    const auto touch = kv.ensureResident(a, 2);
    EXPECT_TRUE(touch.ok);
    EXPECT_EQ(touch.cachedTokens, 100);
    EXPECT_EQ(touch.recomputeTokens, 0);
    EXPECT_EQ(kv.stats().hitTokens, 100u);
}

TEST(KvCache, SharedPrefixCountedOnce)
{
    auto kv = makeCache(4096);
    const int trunk = kv.createChild(KvCacheManager::kRoot, 1, 200);
    const int left = kv.createChild(trunk, 2, 50);
    const int right = kv.createChild(trunk, 3, 50);
    ASSERT_TRUE(kv.ensureResident(left, 1).ok);
    const auto touch = kv.ensureResident(right, 2);
    // The trunk is already resident: only the right leaf misses.
    EXPECT_EQ(touch.cachedTokens, 200);
    EXPECT_EQ(touch.recomputeTokens, 50);
    EXPECT_EQ(kv.residentTokens(), 300);
}

TEST(KvCache, RefCountingAlongPath)
{
    auto kv = makeCache(1024);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 10);
    const int b = kv.createChild(a, 2, 10);
    kv.retain(b);
    EXPECT_EQ(kv.refCount(b), 1);
    EXPECT_EQ(kv.refCount(a), 1);
    kv.retain(a);
    EXPECT_EQ(kv.refCount(a), 2);
    kv.release(b);
    EXPECT_EQ(kv.refCount(a), 1);
    EXPECT_EQ(kv.refCount(b), 0);
    kv.release(a);
    EXPECT_EQ(kv.refCount(a), 0);
}

TEST(KvCache, EvictionFreesUnreferencedLru)
{
    // Pool of 8 blocks = 128 tokens.
    auto kv = makeCache(128);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 64);
    const int b = kv.createChild(KvCacheManager::kRoot, 2, 64);
    const int c = kv.createChild(KvCacheManager::kRoot, 3, 64);
    EXPECT_TRUE(kv.ensureResident(a, 1).ok);
    EXPECT_TRUE(kv.ensureResident(b, 2).ok);
    // Pool is full; touching c must evict a (the LRU victim).
    EXPECT_TRUE(kv.ensureResident(c, 3).ok);
    EXPECT_FALSE(kv.isResident(a));
    EXPECT_TRUE(kv.isResident(b));
    EXPECT_TRUE(kv.isResident(c));
    EXPECT_GE(kv.stats().evictions, 1u);
    EXPECT_EQ(kv.stats().evictedTokens, 64u);
}

TEST(KvCache, PinnedNodesAreNotEvicted)
{
    auto kv = makeCache(128);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 64);
    const int b = kv.createChild(KvCacheManager::kRoot, 2, 64);
    const int c = kv.createChild(KvCacheManager::kRoot, 3, 64);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    kv.retain(a); // Pin.
    ASSERT_TRUE(kv.ensureResident(b, 2).ok);
    EXPECT_TRUE(kv.ensureResident(c, 3).ok);
    EXPECT_TRUE(kv.isResident(a));  // Pinned survived.
    EXPECT_FALSE(kv.isResident(b)); // Unpinned LRU evicted.
}

TEST(KvCache, EnsureResidentFailsWhenEverythingPinned)
{
    auto kv = makeCache(128);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 128);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    kv.retain(a);
    const int b = kv.createChild(KvCacheManager::kRoot, 2, 64);
    const auto touch = kv.ensureResident(b, 2);
    EXPECT_FALSE(touch.ok);
}

TEST(KvCache, ParentsEvictOnlyAfterChildren)
{
    auto kv = makeCache(160);
    const int trunk = kv.createChild(KvCacheManager::kRoot, 1, 80);
    const int leaf = kv.createChild(trunk, 2, 80);
    ASSERT_TRUE(kv.ensureResident(leaf, 1).ok);
    // A new competing path forces eviction; the leaf must go before
    // the trunk (top-closed residency).
    const int other = kv.createChild(KvCacheManager::kRoot, 3, 80);
    EXPECT_TRUE(kv.ensureResident(other, 2).ok);
    if (kv.isResident(leaf)) {
        EXPECT_TRUE(kv.isResident(trunk));
    }
}

TEST(KvCache, ReTouchAfterEvictionRecomputes)
{
    auto kv = makeCache(128);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 64);
    const int b = kv.createChild(KvCacheManager::kRoot, 2, 64);
    const int c = kv.createChild(KvCacheManager::kRoot, 3, 64);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    ASSERT_TRUE(kv.ensureResident(b, 2).ok);
    ASSERT_TRUE(kv.ensureResident(c, 3).ok); // Evicts a.
    const auto touch = kv.ensureResident(a, 4);
    EXPECT_TRUE(touch.ok);
    EXPECT_EQ(touch.recomputeTokens, 64);
    EXPECT_EQ(kv.stats().recomputedTokens, 64u + 192u);
}

TEST(KvCache, AppendTokensGrowsBlocks)
{
    auto kv = makeCache(1024);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 0);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    EXPECT_EQ(kv.allocator().used(), 0u);
    EXPECT_TRUE(kv.appendTokens(a, 16, 2));
    EXPECT_EQ(kv.allocator().used(), 1u);
    EXPECT_TRUE(kv.appendTokens(a, 1, 3));
    EXPECT_EQ(kv.allocator().used(), 2u);
    EXPECT_EQ(kv.nodeTokens(a), 17);
    EXPECT_EQ(kv.residentTokens(), 17);
}

TEST(KvCache, AppendToNonResidentNodeTracksTokensOnly)
{
    auto kv = makeCache(1024);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 0);
    EXPECT_TRUE(kv.appendTokens(a, 100, 1));
    EXPECT_EQ(kv.nodeTokens(a), 100);
    EXPECT_EQ(kv.allocator().used(), 0u);
    EXPECT_EQ(kv.residentTokens(), 0);
}

TEST(KvCache, AppendNoEvictFailsInsteadOfEvicting)
{
    auto kv = makeCache(128);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 112);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    const int b = kv.createChild(KvCacheManager::kRoot, 2, 0);
    ASSERT_TRUE(kv.ensureResident(b, 2).ok);
    // One free block: a 16-token append fits, the next does not.
    EXPECT_TRUE(kv.appendTokens(b, 16, 3, /*allow_evict=*/false));
    EXPECT_FALSE(kv.appendTokens(b, 16, 4, /*allow_evict=*/false));
    EXPECT_TRUE(kv.isResident(a)); // Nothing was evicted.
    // With eviction allowed the same append succeeds by evicting a.
    EXPECT_TRUE(kv.appendTokens(b, 16, 5, /*allow_evict=*/true));
    EXPECT_FALSE(kv.isResident(a));
}

TEST(KvCache, TruncateReleasesBlocks)
{
    auto kv = makeCache(1024);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 100);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    const size_t before = kv.allocator().used();
    kv.truncateTokens(a, 10);
    EXPECT_EQ(kv.nodeTokens(a), 10);
    EXPECT_LT(kv.allocator().used(), before);
    EXPECT_EQ(kv.residentTokens(), 10);
}

TEST(KvCache, TruncateToZeroKeepsNodeValid)
{
    auto kv = makeCache(1024);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 50);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    kv.truncateTokens(a, 0);
    EXPECT_EQ(kv.nodeTokens(a), 0);
    EXPECT_EQ(kv.allocator().used(), 0u);
    EXPECT_TRUE(kv.isResident(a));
    EXPECT_TRUE(kv.appendTokens(a, 5, 2));
}

TEST(KvCache, ResidentPrefixTokens)
{
    auto kv = makeCache(128);
    const int trunk = kv.createChild(KvCacheManager::kRoot, 1, 64);
    const int leaf = kv.createChild(trunk, 2, 64);
    EXPECT_EQ(kv.residentPrefixTokens(leaf), 0);
    ASSERT_TRUE(kv.ensureResident(trunk, 1).ok);
    EXPECT_EQ(kv.residentPrefixTokens(leaf), 64);
    ASSERT_TRUE(kv.ensureResident(leaf, 2).ok);
    EXPECT_EQ(kv.residentPrefixTokens(leaf), 128);
}

TEST(KvCache, BudgetResizeAffectsCapacity)
{
    auto kv = makeCache(160);
    EXPECT_EQ(kv.allocator().total(), 10u);
    kv.setBudgetBytes(320);
    EXPECT_EQ(kv.allocator().total(), 20u);
    EXPECT_NEAR(kv.budgetBytes(), 320, 1e-9);
}

TEST(KvCache, BlocksForRounding)
{
    auto kv = makeCache(1024, 16);
    EXPECT_EQ(kv.blocksFor(0), 0u);
    EXPECT_EQ(kv.blocksFor(1), 1u);
    EXPECT_EQ(kv.blocksFor(16), 1u);
    EXPECT_EQ(kv.blocksFor(17), 2u);
}

TEST(KvCache, UnsharedTokensCountsPerReference)
{
    auto kv = makeCache(4096);
    const int trunk = kv.createChild(KvCacheManager::kRoot, 1, 100);
    const int l1 = kv.createChild(trunk, 2, 10);
    const int l2 = kv.createChild(trunk, 3, 10);
    kv.retain(l1);
    kv.retain(l2);
    // Without sharing both beams would hold a private copy of the
    // trunk: 2 x 100 + 10 + 10.
    EXPECT_EQ(kv.unsharedTokens(), 220);
    kv.release(l2);
    EXPECT_EQ(kv.unsharedTokens(), 110);
}

TEST(KvCache, ReTouchedVictimKeepsLruOrderViaLazyRefresh)
{
    // Pool of 8 blocks = 128 tokens. a and b become eviction
    // candidates; re-touching a makes its queued heap entry stale. The
    // heap must still evict b (the true LRU), count the stale entry,
    // and keep exactly one entry per node.
    auto kv = makeCache(128);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 64);
    const int b = kv.createChild(KvCacheManager::kRoot, 2, 64);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    ASSERT_TRUE(kv.ensureResident(b, 2).ok);
    ASSERT_TRUE(kv.ensureResident(a, 3).ok); // Hit: refreshes a's lastUse past b's.
    const int c = kv.createChild(KvCacheManager::kRoot, 3, 64);
    EXPECT_TRUE(kv.ensureResident(c, 4).ok);
    EXPECT_TRUE(kv.isResident(a));
    EXPECT_FALSE(kv.isResident(b));
    EXPECT_GE(kv.stats().staleVictimEntries, 1u);
}

TEST(KvCache, StatsAccumulate)
{
    auto kv = makeCache(4096);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 32);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    ASSERT_TRUE(kv.ensureResident(a, 2).ok);
    EXPECT_EQ(kv.stats().missTokens, 32u);
    EXPECT_EQ(kv.stats().hitTokens, 32u);
}

// --- Prefix-cache mounts (setRootTokens) ---

TEST(KvCache, SetRootTokensMountsASharedPrefixWithoutBlocks)
{
    auto kv = makeCache(1024);
    kv.setRootTokens(96);
    // The mount lengthens every path but costs this manager nothing:
    // the bytes live in (and are charged by) the global PrefixIndex.
    EXPECT_EQ(kv.pathTokens(KvCacheManager::kRoot), 96);
    EXPECT_EQ(kv.residentTokens(), 0);
    EXPECT_EQ(kv.allocator().used(), 0u);

    const int a = kv.createChild(KvCacheManager::kRoot, 1, 50);
    EXPECT_EQ(kv.pathTokens(a), 146);
    const auto touch = kv.ensureResident(a, 1);
    EXPECT_TRUE(touch.ok);
    // Only the suffix is recomputed; the mounted prefix is neither a
    // recompute nor a per-touch hit (the serving layer accounts it
    // once as prefixHitTokens).
    EXPECT_EQ(touch.recomputeTokens, 50);
    EXPECT_EQ(touch.cachedTokens, 0);
    EXPECT_EQ(kv.residentTokens(), 50);
    EXPECT_EQ(kv.allocator().used(), kv.blocksFor(50));
}

TEST(KvCache, ForceEvictAllNeverDropsTheMountedRoot)
{
    auto kv = makeCache(1024);
    kv.setRootTokens(64);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 32);
    ASSERT_TRUE(kv.ensureResident(a, 1).ok);
    EXPECT_EQ(kv.forceEvictAll(), 32);
    EXPECT_TRUE(kv.isResident(KvCacheManager::kRoot));
    EXPECT_FALSE(kv.isResident(a));
    // The mount survives preemption: path lengths are unchanged and a
    // re-touch recomputes only the suffix.
    EXPECT_EQ(kv.pathTokens(a), 96);
    const auto touch = kv.ensureResident(a, 2);
    EXPECT_TRUE(touch.ok);
    EXPECT_EQ(touch.recomputeTokens, 32);
}

TEST(KvCache, MountedRootTokensCountTowardTheUnsharedCounterfactual)
{
    // unsharedTokens() is the footprint *without* prefix sharing:
    // each retained beam would privately re-store the whole path,
    // mounted prefix included — that gap is exactly the sharing win
    // fig05 reports. The root's permanent constructor-time reference
    // still contributes nothing on its own.
    auto kv = makeCache(1024);
    kv.setRootTokens(100);
    EXPECT_EQ(kv.unsharedTokens(), 0);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 10);
    kv.retain(a);
    EXPECT_EQ(kv.unsharedTokens(), 110);
    const int b = kv.createChild(KvCacheManager::kRoot, 2, 10);
    kv.retain(b);
    EXPECT_EQ(kv.unsharedTokens(), 220);
    kv.release(a);
    kv.release(b);
    EXPECT_EQ(kv.unsharedTokens(), 0);
}

// --- Reference implementations: fresh walks over the public API, used
// to validate the cached/counter-backed accounting. ---

int
freshPathTokens(const KvCacheManager &kv, int node)
{
    int total = 0;
    for (int id = node; id != KvCacheManager::kInvalid;
         id = kv.parentOf(id))
        total += kv.nodeTokens(id);
    return total;
}

int
freshResidentPrefixTokens(const KvCacheManager &kv, int node)
{
    int non_resident = 0;
    int id = node;
    while (id != KvCacheManager::kInvalid && !kv.isResident(id)) {
        non_resident += kv.nodeTokens(id);
        id = kv.parentOf(id);
    }
    return freshPathTokens(kv, node) - non_resident;
}

long
freshUnsharedTokens(const KvCacheManager &kv,
                    const std::vector<int> &nodes)
{
    long total = 0;
    for (int id : nodes) {
        if (id != KvCacheManager::kRoot)
            total += static_cast<long>(kv.nodeTokens(id))
                * kv.refCount(id);
    }
    return total;
}

/**
 * Cached path-token invariants: after randomized createChild / append /
 * truncate / evict / re-resident / retain / release sequences
 * (including appends and truncations on interior nodes, which must
 * propagate to every descendant's cached prefix), the O(1) accessors
 * must agree with a fresh walk of the public API. The small budget
 * keeps eviction and re-materialisation cycles frequent.
 */
class KvCachePathCacheProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(KvCachePathCacheProperty, CachedAccountingMatchesFreshWalk)
{
    Rng rng(0x9e3779b9ull
            + static_cast<uint64_t>(GetParam()) * 0x85ebca6bull);
    auto kv = makeCache(1024, 16);
    std::vector<int> nodes = {KvCacheManager::kRoot};
    std::vector<int> pinned;
    uint64_t seg = 1000;
    int created = 0;

    for (int op = 0; op < 800; ++op) {
        const int kind = rng.uniformInt(0, 6);
        const int node = nodes[static_cast<size_t>(
            rng.uniformInt(0, static_cast<int>(nodes.size()) - 1))];
        switch (kind) {
          case 0:
          case 1: // Bias toward growth so trees get deep and bushy.
            nodes.push_back(
                kv.createChild(node, seg++, rng.uniformInt(0, 70)));
            ++created;
            break;
          case 2:
            (void)kv.ensureResident(node, static_cast<uint64_t>(op));
            break;
          case 3:
            if (node != KvCacheManager::kRoot) {
                kv.retain(node);
                pinned.push_back(node);
            }
            break;
          case 4:
            if (!pinned.empty()) {
                const size_t pick = static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int>(pinned.size()) - 1));
                kv.release(pinned[pick]);
                pinned.erase(pinned.begin()
                             + static_cast<long>(pick));
            }
            break;
          case 5: // Interior-node appends must shift descendants.
            if (node != KvCacheManager::kRoot)
                (void)kv.appendTokens(node, rng.uniformInt(0, 50),
                                      static_cast<uint64_t>(op));
            break;
          case 6:
            if (node != KvCacheManager::kRoot)
                kv.truncateTokens(node,
                                  rng.uniformInt(0, kv.nodeTokens(node)));
            break;
        }

        // Spot-check one random node every op; full sweep periodically.
        const int probe = nodes[static_cast<size_t>(
            rng.uniformInt(0, static_cast<int>(nodes.size()) - 1))];
        ASSERT_EQ(kv.pathTokens(probe), freshPathTokens(kv, probe));
        ASSERT_EQ(kv.residentPrefixTokens(probe),
                  freshResidentPrefixTokens(kv, probe));
        if (op % 50 == 0) {
            for (int id : nodes) {
                ASSERT_EQ(kv.pathTokens(id), freshPathTokens(kv, id))
                    << "node " << id << " after op " << op;
                ASSERT_EQ(kv.residentPrefixTokens(id),
                          freshResidentPrefixTokens(kv, id));
            }
            ASSERT_EQ(kv.nodeCount(), created);
            ASSERT_EQ(kv.unsharedTokens(),
                      freshUnsharedTokens(kv, nodes));
        }
    }
    for (int id : nodes) {
        ASSERT_EQ(kv.pathTokens(id), freshPathTokens(kv, id));
        ASSERT_EQ(kv.residentPrefixTokens(id),
                  freshResidentPrefixTokens(kv, id));
    }
    ASSERT_EQ(kv.nodeCount(), created);
    ASSERT_EQ(kv.unsharedTokens(), freshUnsharedTokens(kv, nodes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvCachePathCacheProperty,
                         ::testing::Range(1, 9));

/** Property sweep: under random workloads, block accounting and the
 *  resident-token counter never diverge, and residency stays
 *  top-closed. */
class KvCacheProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(KvCacheProperty, InvariantsUnderRandomWorkload)
{
    const int seed = GetParam();
    Rng rng(static_cast<uint64_t>(seed));
    auto kv = makeCache(2048, 16);
    std::vector<int> leaves = {KvCacheManager::kRoot};
    std::vector<int> pinned;
    uint64_t seg = 100;
    long expected_resident = -1;

    for (int op = 0; op < 600; ++op) {
        const int kind = rng.uniformInt(0, 5);
        const int pick = rng.uniformInt(
            0, static_cast<int>(leaves.size()) - 1);
        const int node = leaves[static_cast<size_t>(pick)];
        switch (kind) {
          case 0:
            leaves.push_back(
                kv.createChild(node, seg++, rng.uniformInt(0, 90)));
            break;
          case 1:
            (void)kv.ensureResident(node, static_cast<uint64_t>(op));
            break;
          case 2:
            if (node != KvCacheManager::kRoot) {
                kv.retain(node);
                pinned.push_back(node);
            }
            break;
          case 3:
            if (!pinned.empty()) {
                kv.release(pinned.back());
                pinned.pop_back();
            }
            break;
          case 4:
            if (node != KvCacheManager::kRoot)
                (void)kv.appendTokens(node, rng.uniformInt(0, 40),
                                      static_cast<uint64_t>(op));
            break;
          case 5:
            if (node != KvCacheManager::kRoot && kv.isResident(node)) {
                const int keep =
                    rng.uniformInt(0, kv.nodeTokens(node));
                kv.truncateTokens(node, keep);
            }
            break;
        }
        // Invariant: used blocks never exceed the pool.
        ASSERT_LE(kv.allocator().used(), kv.allocator().total());
        // Invariant: resident tokens fit in the allocated blocks.
        ASSERT_LE(kv.residentTokens(),
                  static_cast<long>(kv.allocator().used()) * 16);
        // Invariant: residency is top-closed (resident node implies
        // resident parent).
        for (int leaf : leaves) {
            if (leaf == KvCacheManager::kRoot)
                continue;
            if (kv.isResident(leaf)) {
                const int parent = kv.parentOf(leaf);
                ASSERT_TRUE(parent == KvCacheManager::kRoot
                            || kv.isResident(parent));
            }
        }
        (void)expected_resident;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvCacheProperty,
                         ::testing::Range(1, 13));

/**
 * Victim-heap maintenance property: interleaving explicit
 * compactVictims() calls into a randomized create / evict /
 * re-resident / pin churn must never change what the cache does —
 * compaction is pure maintenance (drop stale entries, rebuild the
 * heap), so a compacted twin and an untouched twin running the
 * identical op stream stay observably identical, while the tight
 * budget keeps evictions (and therefore stale heap entries and the
 * reclaim()-side defensive rebuild) frequent.
 */
class KvCacheCompactionProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(KvCacheCompactionProperty, CompactVictimsIsObservablyInert)
{
    const uint64_t seed = static_cast<uint64_t>(GetParam());
    auto plain = makeCache(512, 16);
    auto compacted = makeCache(512, 16);
    Rng rng_a(seed);
    Rng rng_b(seed);
    std::vector<int> nodes_a = {KvCacheManager::kRoot};
    std::vector<int> nodes_b = {KvCacheManager::kRoot};
    std::vector<int> pinned_a;
    std::vector<int> pinned_b;
    uint64_t seg_a = 1;
    uint64_t seg_b = 1;

    auto step = [](KvCacheManager &kv, std::vector<int> &nodes,
                   std::vector<int> &pinned, Rng &rng, uint64_t &seg,
                   uint64_t tick) -> bool {
        const int op = rng.uniformInt(0, 5);
        const int node = nodes[static_cast<size_t>(
            rng.uniformInt(0, static_cast<int>(nodes.size()) - 1))];
        switch (op) {
        case 0: // Grow: new segments compete for the small pool.
            nodes.push_back(
                kv.createChild(node, seg++, rng.uniformInt(1, 60)));
            return true;
        case 1: // Re-resident: the evict/re-touch cycle under test.
        case 2:
            return kv.ensureResident(node, tick).ok;
        case 3: // Pin: turns queued victim entries stale.
            if (node != KvCacheManager::kRoot) {
                kv.retain(node);
                pinned.push_back(node);
            }
            return true;
        case 4: // Unpin: the node becomes evictable again.
            if (!pinned.empty()) {
                const size_t at = static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int>(pinned.size()) - 1));
                kv.release(pinned[at]);
                pinned.erase(pinned.begin() + static_cast<long>(at));
            }
            return true;
        default: // Touch refresh: stales the old heap entry's key.
            return kv.ensureResident(node, tick).ok;
        }
    };

    for (int op = 0; op < 400; ++op) {
        const uint64_t tick = static_cast<uint64_t>(op) + 1;
        const bool ok_a =
            step(plain, nodes_a, pinned_a, rng_a, seg_a, tick);
        const bool ok_b =
            step(compacted, nodes_b, pinned_b, rng_b, seg_b, tick);
        // Only one twin gets maintenance calls.
        if (op % 23 == 22)
            compacted.compactVictims();

        ASSERT_EQ(ok_a, ok_b) << "op " << op;
        ASSERT_EQ(nodes_a.size(), nodes_b.size());
        ASSERT_EQ(plain.allocator().used(), compacted.allocator().used())
            << "op " << op;
        ASSERT_EQ(plain.residentTokens(), compacted.residentTokens());
        ASSERT_EQ(plain.residentNodeCount(),
                  compacted.residentNodeCount());
        for (size_t i = 0; i < nodes_a.size(); ++i)
            ASSERT_EQ(plain.isResident(nodes_a[i]),
                      compacted.isResident(nodes_b[i]))
                << "node " << i << " after op " << op;
    }

    // LRU outcomes matched step-for-step above; the maintenance
    // counters must show the machinery actually ran: the churn stales
    // entries on both twins, and the explicit calls are counted (on
    // top of any defensive rebuilds reclaim() triggered on its own).
    EXPECT_GT(plain.stats().evictions, 0u);
    EXPECT_GT(plain.stats().staleVictimEntries, 0u);
    EXPECT_GT(compacted.stats().staleVictimEntries, 0u);
    EXPECT_GE(compacted.stats().victimCompactions, 400u / 23u);

    // And compaction right before teardown is still inert.
    compacted.compactVictims();
    EXPECT_EQ(plain.allocator().used(), compacted.allocator().used());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvCacheCompactionProperty,
                         ::testing::Range(1, 9));

/** A random tree as KvCacheProperty grows it, with each node's child
 *  count so a test can find leaves. */
struct RandomTree
{
    std::vector<int> nodes = {KvCacheManager::kRoot};
    std::vector<int> children = {0};
    std::vector<int> pinned;
};

RandomTree
growRandomTree(KvCacheManager &kv, uint64_t seed, int ops)
{
    Rng rng(seed);
    RandomTree tree;
    uint64_t seg = 100;
    for (int op = 0; op < ops; ++op) {
        const uint64_t tick = static_cast<uint64_t>(op) + 1;
        const int kind = rng.uniformInt(0, 4);
        const int node = tree.nodes[static_cast<size_t>(rng.uniformInt(
            0, static_cast<int>(tree.nodes.size()) - 1))];
        switch (kind) {
        case 0:
            tree.nodes.push_back(
                kv.createChild(node, seg++, rng.uniformInt(0, 90)));
            tree.children.push_back(0);
            ++tree.children[static_cast<size_t>(node)];
            break;
        case 1:
            (void)kv.ensureResident(node, tick);
            break;
        case 2:
            if (node != KvCacheManager::kRoot) {
                kv.retain(node);
                tree.pinned.push_back(node);
            }
            break;
        case 3:
            if (!tree.pinned.empty()) {
                kv.release(tree.pinned.back());
                tree.pinned.pop_back();
            }
            break;
        default:
            if (node != KvCacheManager::kRoot)
                (void)kv.appendTokens(node, rng.uniformInt(0, 40), tick);
            break;
        }
    }
    return tree;
}

/** Everything a caller of the manager can observe about its state. */
void
expectSameState(const KvCacheManager &a, const KvCacheManager &b,
                const std::vector<int> &nodes, const std::string &where)
{
    const KvStats &x = a.stats();
    const KvStats &y = b.stats();
    EXPECT_EQ(x.evictions, y.evictions) << where;
    EXPECT_EQ(x.evictedTokens, y.evictedTokens) << where;
    EXPECT_EQ(x.recomputedTokens, y.recomputedTokens) << where;
    EXPECT_EQ(x.reprefilledTokens, y.reprefilledTokens) << where;
    EXPECT_EQ(x.hitTokens, y.hitTokens) << where;
    EXPECT_EQ(x.missTokens, y.missTokens) << where;
    EXPECT_EQ(x.staleVictimEntries, y.staleVictimEntries) << where;
    EXPECT_EQ(x.victimCompactions, y.victimCompactions) << where;
    EXPECT_EQ(x.preemptEvictions, y.preemptEvictions) << where;
    EXPECT_EQ(x.preemptEvictedTokens, y.preemptEvictedTokens) << where;
    EXPECT_EQ(a.freeBlocks(), b.freeBlocks()) << where;
    EXPECT_EQ(a.residentTokens(), b.residentTokens()) << where;
    EXPECT_EQ(a.unsharedTokens(), b.unsharedTokens()) << where;
    for (int node : nodes) {
        EXPECT_EQ(a.pathTokens(node), b.pathTokens(node))
            << where << ", node " << node;
        EXPECT_EQ(a.isResident(node), b.isResident(node))
            << where << ", node " << node;
    }
}

/**
 * The engine defers a decoding leaf's appends while they need no block
 * and lands them in one call at the member's next event. On a retained
 * leaf of a random tree, appending a block-free `a` tokens at t1 and
 * then `b` at t2 must leave the state one append of a + b at t2
 * leaves. When that append is refused, the refused call followed by
 * appending `a` at t1 must leave the state the refused `b` leaves
 * after `a` landed at t1. Afterwards every pin is dropped and fresh
 * segments are touched one by one, so the victim order of the forced
 * reclaims (which ranks the leaf by its LRU stamp) must match too.
 * Both kinds of decode member are covered: a standard beam's append
 * may evict, a speculative branch's (allow_evict false) may not.
 */
class KvCacheDeferredAppend : public ::testing::TestWithParam<int>
{
};

TEST_P(KvCacheDeferredAppend, OneLateAppendEqualsTheStepwiseAppends)
{
    constexpr int kOps = 300;
    constexpr uint64_t t1 = kOps / 2; // Inside the tree's own ticks.
    constexpr uint64_t t2 = kOps + 1;
    int refused_after_deferral[2] = {0, 0}; // By allow_evict.
    int crossed_after_deferral[2] = {0, 0};
    for (int run = 0; run < 32; ++run) {
        const int scenario = run / 2;
        const bool allow_evict = run % 2 == 0;
        const uint64_t seed =
            static_cast<uint64_t>(GetParam()) * 1000 + scenario;
        auto stepwise = makeCache(2048, 16);
        auto deferred = makeCache(2048, 16);
        const RandomTree tree = growRandomTree(stepwise, seed, kOps);
        (void)growRandomTree(deferred, seed, kOps);
        const std::string where = "seed " + std::to_string(seed)
            + (allow_evict ? ", may evict" : ", free blocks only");

        // A childless segment, pinned and materialised like a beam the
        // engine admits to its decode set.
        Rng rng = Rng(seed).fork(0xdefe);
        std::vector<int> leaves;
        for (size_t i = 1; i < tree.nodes.size(); ++i)
            if (tree.children[i] == 0)
                leaves.push_back(tree.nodes[i]);
        if (leaves.empty())
            continue;
        const int leaf = leaves[static_cast<size_t>(
            rng.uniformInt(0, static_cast<int>(leaves.size()) - 1))];
        const bool resident_a = stepwise.ensureResident(leaf, kOps).ok;
        const bool resident_b = deferred.ensureResident(leaf, kOps).ok;
        ASSERT_EQ(resident_a, resident_b) << where;
        stepwise.retain(leaf);
        deferred.retain(leaf);

        // `a` fills the leaf's last block at most; `b` is either a
        // decode-sized step or large enough to be refused.
        const int tokens = stepwise.nodeTokens(leaf);
        const int room = static_cast<int>(stepwise.blocksFor(tokens)) * 16
            - tokens;
        const int a = rng.uniformInt(0, room);
        const int b = rng.bernoulli(0.5) ? rng.uniformInt(1, 40)
                                         : rng.uniformInt(1, 2048);
        ASSERT_EQ(stepwise.blocksFor(tokens + a), stepwise.blocksFor(tokens));

        ASSERT_TRUE(stepwise.appendTokens(leaf, a, t1, allow_evict))
            << where;
        const bool ok_stepwise =
            stepwise.appendTokens(leaf, b, t2, allow_evict);
        const bool ok_deferred =
            deferred.appendTokens(leaf, a + b, t2, allow_evict);
        if (!ok_deferred) {
            ASSERT_TRUE(deferred.appendTokens(leaf, a, t1, allow_evict))
                << where;
        }
        ASSERT_EQ(ok_stepwise, ok_deferred) << where;
        expectSameState(stepwise, deferred, tree.nodes, where);
        if (resident_a && a > 0) {
            if (!ok_stepwise)
                ++refused_after_deferral[allow_evict];
            else if (stepwise.blocksFor(tokens + a + b)
                     > stepwise.blocksFor(tokens + a))
                ++crossed_after_deferral[allow_evict];
        }

        // Victim order. The tree's pins go too, so the leaf ranks
        // against nodes last used between t1 and t2 (after a refusal
        // that may evict, every victim is already gone). Each fresh
        // 4-block segment forces a reclaim.
        stepwise.release(leaf);
        deferred.release(leaf);
        for (int node : tree.pinned) {
            stepwise.release(node);
            deferred.release(node);
        }
        std::vector<int> nodes = tree.nodes;
        for (int k = 0; k < 40; ++k) {
            const uint64_t seg = 1000000 + static_cast<uint64_t>(k);
            const int fresh_a =
                stepwise.createChild(KvCacheManager::kRoot, seg, 64);
            const int fresh_b =
                deferred.createChild(KvCacheManager::kRoot, seg, 64);
            ASSERT_EQ(fresh_a, fresh_b);
            nodes.push_back(fresh_a);
            const uint64_t tick = t2 + 1 + static_cast<uint64_t>(k);
            ASSERT_EQ(stepwise.ensureResident(fresh_a, tick).ok,
                      deferred.ensureResident(fresh_b, tick).ok)
                << where << ", touch " << k;
            expectSameState(stepwise, deferred, nodes,
                            where + ", touch " + std::to_string(k));
        }
    }
    // Both paths the engine takes after deferring were exercised, for
    // both kinds of member.
    for (const bool allow_evict : {true, false}) {
        EXPECT_GT(refused_after_deferral[allow_evict], 0) << allow_evict;
        EXPECT_GT(crossed_after_deferral[allow_evict], 0) << allow_evict;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvCacheDeferredAppend,
                         ::testing::Range(1, 9));

} // namespace
} // namespace fasttts
