#include "kv/kv_session.h"

#include <algorithm>

#include "util/fault_injector.h"

namespace fasttts
{

KvBudgetLedger::KvBudgetLedger(double total_bytes)
    : total_(std::max(0.0, total_bytes))
{
}

bool
KvBudgetLedger::charge(double bytes)
{
    // Half a byte of slack absorbs accumulated floating-point error in
    // the byte sums (charges are KB-scale block multiples, so genuine
    // overshoot is orders of magnitude larger).
    if (used_ + bytes > total_ + 0.5) {
        ++failed_;
        return false;
    }
    // An injected allocation brownout refuses exactly like budget
    // exhaustion; callers already handle refusal (eviction, deferral).
    if (faults_ != nullptr
        && faults_->shouldFault(FaultSite::kKvAlloc)) {
        ++failed_;
        return false;
    }
    used_ += bytes;
    peak_ = std::max(peak_, used_);
    return true;
}

void
KvBudgetLedger::release(double bytes)
{
    used_ = std::max(0.0, used_ - bytes);
}

long
KvSession::suspend(uint64_t tick)
{
    (void)tick;
    frontier_ = kv_->residentFrontier();
    const long evicted = kv_->forceEvictAll();
    suspended_ = true;
    ++stats_.suspends;
    stats_.evictedTokens += evicted;
    return evicted;
}

long
KvSession::resume(uint64_t tick)
{
    long recomputed = 0;
    for (const KvCacheManager::NodeId leaf : frontier_) {
        // An injected restore failure leaves this leaf cold; it
        // recomputes lazily on first touch, like a budget shortfall.
        if (faults_ != nullptr
            && faults_->shouldFault(FaultSite::kKvRestore))
            continue;
        const auto touch = kv_->ensureResident(leaf, tick);
        recomputed += touch.recomputeTokens;
        if (!touch.ok)
            break; // Budget exhausted: the rest recomputes lazily.
    }
    frontier_.clear();
    suspended_ = false;
    ++stats_.resumes;
    stats_.recomputedTokens += recomputed;
    return recomputed;
}

} // namespace fasttts
