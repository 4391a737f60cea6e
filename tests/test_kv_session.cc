/**
 * @file
 * Tests for the shared KV budget ledger: cross-manager budget
 * enforcement, byte-exact charges and refunds, and the whole-request
 * force-eviction the online server's preemption relies on.
 */

#include <gtest/gtest.h>

#include "kv/kv_cache.h"
#include "kv/kv_session.h"
#include "util/fault_injector.h"

namespace fasttts
{
namespace
{

// 1 byte per token, 16-token blocks: a budget of B bytes is B tokens.
constexpr double kTokenByte = 1.0;
constexpr int kBlockTokens = 16;

TEST(KvBudgetLedger, ChargeAndReleaseTrackOccupancy)
{
    KvBudgetLedger ledger(1000);
    EXPECT_EQ(ledger.totalBytes(), 1000);
    EXPECT_EQ(ledger.usedBytes(), 0);
    EXPECT_TRUE(ledger.charge(600));
    EXPECT_EQ(ledger.usedBytes(), 600);
    EXPECT_EQ(ledger.freeBytes(), 400);
    ledger.release(200);
    EXPECT_EQ(ledger.usedBytes(), 400);
    EXPECT_EQ(ledger.peakUsedBytes(), 600);
}

TEST(KvBudgetLedger, FailedChargeLeavesStateUnchanged)
{
    KvBudgetLedger ledger(100);
    EXPECT_TRUE(ledger.charge(80));
    EXPECT_FALSE(ledger.charge(30));
    EXPECT_EQ(ledger.usedBytes(), 80);
    EXPECT_EQ(ledger.failedCharges(), 1u);
    // Release clamps at zero occupancy.
    ledger.release(500);
    EXPECT_EQ(ledger.usedBytes(), 0);
}

TEST(KvBudgetLedger, ManagerChargesExactlyItsResidentBytes)
{
    KvBudgetLedger ledger(4096);
    KvCacheManager kv(2048, kTokenByte, kBlockTokens);
    kv.attachLedger(&ledger);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 100);
    const int b = kv.createChild(a, 2, 50);
    ASSERT_TRUE(kv.ensureResident(b, 1).ok);
    EXPECT_GT(ledger.usedBytes(), 0);
    EXPECT_DOUBLE_EQ(ledger.usedBytes(), kv.residentBytes());
    ASSERT_TRUE(kv.appendTokens(b, 40, 2));
    EXPECT_DOUBLE_EQ(ledger.usedBytes(), kv.residentBytes());
    kv.truncateTokens(b, 10);
    EXPECT_DOUBLE_EQ(ledger.usedBytes(), kv.residentBytes());
}

TEST(KvBudgetLedger, ManagerDestructionRefundsItsCharge)
{
    KvBudgetLedger ledger(4096);
    {
        KvCacheManager kv(2048, kTokenByte, kBlockTokens);
        kv.attachLedger(&ledger);
        const int a = kv.createChild(KvCacheManager::kRoot, 1, 200);
        (void)kv.ensureResident(a, 1);
        EXPECT_GT(ledger.usedBytes(), 0);
    }
    EXPECT_EQ(ledger.usedBytes(), 0);
}

TEST(KvBudgetLedger, SharedBudgetBindsAcrossManagers)
{
    // Two managers with roomy local pools share a ledger that can
    // only hold one of their working sets: the second must evict its
    // own cache or fail, never exceed the shared budget.
    KvBudgetLedger ledger(256);
    KvCacheManager a(1024, kTokenByte, kBlockTokens);
    KvCacheManager b(1024, kTokenByte, kBlockTokens);
    a.attachLedger(&ledger);
    b.attachLedger(&ledger);

    const int leaf_a = a.createChild(KvCacheManager::kRoot, 1, 192);
    a.retain(leaf_a); // Pinned: b cannot steal it back.
    EXPECT_TRUE(a.ensureResident(leaf_a, 1).ok);

    const int leaf_b = b.createChild(KvCacheManager::kRoot, 1, 192);
    b.retain(leaf_b);
    // 192 + 192 > 256: the shared pool cannot hold both.
    EXPECT_FALSE(b.ensureResident(leaf_b, 2).ok);
    EXPECT_LE(ledger.usedBytes(), ledger.totalBytes());
    // b's local pool has plenty of room: only the shared ledger can
    // be what stopped it.
    EXPECT_GT(b.allocator().free(), b.blocksFor(192));
    EXPECT_EQ(b.freeBlocks(), 4u); // (256-192+0.5)/16 rounded down.

    // Releasing a's pin and force-evicting it frees the budget for b.
    a.release(leaf_a);
    a.forceEvictAll();
    EXPECT_TRUE(b.ensureResident(leaf_b, 4).ok);
    EXPECT_LE(ledger.usedBytes(), ledger.totalBytes());
}

TEST(KvSession, SuspendDropsEverythingAndCountsIt)
{
    // A parked request's KV is dropped whole by forceEvictAll().
    KvCacheManager kv(2048, kTokenByte, kBlockTokens);
    const int a = kv.createChild(KvCacheManager::kRoot, 1, 100);
    const int b = kv.createChild(a, 2, 60);
    kv.retain(b); // Pins survive suspension (logical references).
    ASSERT_TRUE(kv.ensureResident(b, 1).ok);
    ASSERT_TRUE(kv.isResident(b));

    const long dropped = kv.forceEvictAll();
    EXPECT_EQ(dropped, 160);
    EXPECT_FALSE(kv.isResident(a));
    EXPECT_FALSE(kv.isResident(b));
    EXPECT_TRUE(kv.isResident(KvCacheManager::kRoot));
    EXPECT_EQ(kv.allocator().used(), 0u);
    EXPECT_EQ(kv.residentTokens(), 0);
    EXPECT_EQ(kv.stats().preemptEvictedTokens, 160u);
    EXPECT_EQ(kv.refCount(b), 1); // The pin is still logical.
}

// --- Fault injection at the ledger ---

TEST(KvBudgetLedger, InjectedAllocFaultRefusesChargeWithoutStateChange)
{
    KvBudgetLedger ledger(1000);
    FaultInjector injector(FaultPlan::uniform(1.0), 9);
    ledger.attachFaultInjector(&injector);
    EXPECT_FALSE(ledger.charge(100)); // Budget is free; fault refuses.
    EXPECT_DOUBLE_EQ(ledger.usedBytes(), 0.0);
    EXPECT_EQ(ledger.failedCharges(), 1u);
    EXPECT_EQ(injector.stats(FaultSite::kKvAlloc).injected, 1);
    ledger.attachFaultInjector(nullptr);
    EXPECT_TRUE(ledger.charge(100));
    EXPECT_DOUBLE_EQ(ledger.usedBytes(), 100.0);
}

} // namespace
} // namespace fasttts
