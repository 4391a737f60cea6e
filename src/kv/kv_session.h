/**
 * @file
 * The shared KV memory budget of one device.
 *
 * A single edge device has one KV pool; when several requests are in
 * flight their caches must *contend* for it rather than each enjoying
 * a private device's worth of memory. KvBudgetLedger is one
 * byte-denominated budget shared by any number of KvCacheManager
 * instances (generator and verifier trees of every in-flight
 * request). Attached managers charge the ledger for every block they
 * allocate and release it on eviction, so the ledger's occupancy is
 * exactly the total resident KV across all requests, and an exhausted
 * ledger fails allocations even when a manager's own pool still has
 * room — forcing local eviction, beam preemption, or (at the serving
 * layer) preemption of a whole request, whose KV
 * KvCacheManager::forceEvictAll() drops and the engine recomputes
 * lazily when its beams next touch it.
 */

#ifndef FASTTTS_KV_KV_SESSION_H
#define FASTTTS_KV_KV_SESSION_H

#include <cstdint>

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

} // namespace fasttts

#endif // FASTTTS_KV_KV_SESSION_H
