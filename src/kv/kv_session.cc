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

} // namespace fasttts
