/**
 * @file
 * Shared KV memory budget and per-request KV session save/restore.
 *
 * A single edge device has one KV pool; when several requests are in
 * flight their caches must *contend* for it rather than each enjoying
 * a private device's worth of memory. Two pieces make that honest:
 *
 *  - KvBudgetLedger: one byte-denominated budget shared by any number
 *    of KvCacheManager instances (generator and verifier trees of
 *    every in-flight request). Attached managers charge the ledger for
 *    every block they allocate and release it on eviction, so the
 *    ledger's occupancy is exactly the total resident KV across all
 *    requests, and an exhausted ledger fails allocations even when a
 *    manager's own pool still has room — forcing local eviction, beam
 *    preemption, or (at the serving layer) preemption of a whole
 *    request.
 *
 *  - KvSession: the save/restore handle for one request's cache.
 *    suspend() snapshots the resident frontier (the deepest resident
 *    node of every cached path) and force-evicts every block back to
 *    the shared pool; resume() re-materialises the snapshot, counting
 *    the tokens that must be re-prefilled as recompute. A preempted
 *    request may also skip resume() entirely and let the engine's
 *    lazy ensureResident() path recompute paths as beams re-touch
 *    them — either way the recompute volume lands in KvStats.
 */

#ifndef FASTTTS_KV_KV_SESSION_H
#define FASTTTS_KV_KV_SESSION_H

#include <cstdint>
#include <vector>

#include "kv/kv_cache.h"

namespace fasttts
{

class FaultInjector;

/**
 * One device-wide KV byte budget shared by several KvCacheManagers.
 *
 * Pure accounting: charge() fails (without changing state) when the
 * request would exceed the budget. Charges are exact byte amounts
 * (block count x block bytes of the charging manager), so occupancy
 * equals the total resident KV bytes across every attached manager.
 */
class KvBudgetLedger
{
  public:
    explicit KvBudgetLedger(double total_bytes);

    /**
     * Probe `injector` at FaultSite::kKvAlloc on every charge; an
     * injected fault refuses the charge as if the budget were
     * exhausted (an allocation brownout). Pass nullptr to detach; the
     * injector must outlive the ledger while attached.
     */
    void attachFaultInjector(FaultInjector *injector)
    {
        faults_ = injector;
    }

    /** Try to charge `bytes`; false (no change) when over budget. */
    [[nodiscard]] bool charge(double bytes);

    /** Return `bytes` to the pool (clamped at zero occupancy). */
    void release(double bytes);

    [[nodiscard]] double totalBytes() const { return total_; }
    [[nodiscard]] double usedBytes() const { return used_; }
    [[nodiscard]] double freeBytes() const { return total_ - used_; }

    /** Highest simultaneous occupancy seen. */
    [[nodiscard]] double peakUsedBytes() const { return peak_; }

    /** Charges refused for lack of budget. */
    [[nodiscard]] uint64_t failedCharges() const { return failed_; }

  private:
    double total_;
    double used_ = 0;
    double peak_ = 0;
    uint64_t failed_ = 0;
    FaultInjector *faults_ = nullptr;
};

/** Counters of one session's suspend/resume history. */
struct KvSessionStats
{
    int suspends = 0;
    int resumes = 0;
    long evictedTokens = 0;    //!< Tokens force-evicted by suspend().
    long recomputedTokens = 0; //!< Tokens re-prefilled by resume().
};

/**
 * Save/restore handle over one KvCacheManager.
 *
 * Non-owning: the manager must outlive the session. A session is
 * either live (no snapshot) or suspended (snapshot taken, all device
 * blocks released); suspend() and resume() alternate.
 */
class KvSession
{
  public:
    explicit KvSession(KvCacheManager &kv) : kv_(&kv) {}

    /**
     * Probe `injector` at FaultSite::kKvRestore per frontier leaf on
     * resume(); a faulted leaf is skipped (stays cold) and recomputes
     * lazily on first touch. Pass nullptr to detach.
     */
    void attachFaultInjector(FaultInjector *injector)
    {
        faults_ = injector;
    }

    /**
     * Snapshot the resident frontier and force-evict every resident
     * node (the root stays), returning all blocks to the allocator
     * (and the shared ledger, if attached). Reference counts are
     * untouched: pins stay logical, so the tree structure survives
     * and any later touch recomputes.
     * @return Tokens whose KV was dropped.
     */
    long suspend(uint64_t tick);

    /**
     * Re-materialise the snapshot taken by suspend(), best-effort:
     * paths are restored in snapshot order until the budget runs out;
     * whatever could not be restored is recomputed lazily when next
     * touched. Re-prefilled tokens are counted in the manager's
     * KvStats (recomputedTokens) exactly as lazy recompute would.
     * @return Tokens that had to be re-prefilled.
     */
    long resume(uint64_t tick);

    /** Whether suspend() ran without a matching resume(). */
    [[nodiscard]] bool suspended() const { return suspended_; }

    [[nodiscard]] const KvSessionStats &stats() const { return stats_; }

  private:
    KvCacheManager *kv_;
    std::vector<KvCacheManager::NodeId> frontier_;
    bool suspended_ = false;
    KvSessionStats stats_;
    FaultInjector *faults_ = nullptr;
};

} // namespace fasttts

#endif // FASTTTS_KV_KV_SESSION_H
