/**
 * @file
 * Deterministic, schedule-driven fault injection.
 *
 * The serving stack has three injection sites threaded through its
 * layers; a FaultInjector decides — reproducibly — whether each
 * probed operation fails. A fault plan is a list of rules, each
 * selecting along **four axes**:
 *
 *  1. **Site** — where in the stack the fault strikes:
 *     - `kWaveStep`: a transient device error during an engine wave
 *       step. The serving layer kills the affected in-flight request
 *       with `StatusCode::kUnavailable` (retryable).
 *     - `kKvAlloc`: a KV allocation brownout. The probed
 *       `KvBudgetLedger::charge` refuses as if the budget were
 *       exhausted; the engine's existing refusal path (deferred
 *       first-touch recompute) absorbs it.
 *     - `kPrefixAcquire`: prefix-cache corruption. The probed
 *       `PrefixIndex::acquire` reports a miss (zero matched tokens),
 *       forcing a full prompt prefill.
 *  2. **Sim-time window** — `[windowStart, windowEnd)` in simulated
 *     seconds; the ambient time is supplied via setNow() by whoever
 *     owns the clock (the online serve loop). Rules outside the
 *     window are dormant.
 *  3. **Request id** — a specific online request id, or -1 to match
 *     any. Deep sites (ledger, prefix index) probe without a request
 *     id and only any-request rules apply to them.
 *  4. **Rate** — per-probe fault probability in [0, 1]. When several
 *     rules arm the same probe the combined probability is
 *     1 - prod(1 - rate_i), i.e. independent failure sources.
 *
 * Determinism contract: all randomness comes from one dedicated RNG
 * stream forked off the serving seed, and a probe draws from it
 * *only* when at least one rule is armed for that probe. Replaying
 * the same plan against the same deterministic simulation therefore
 * reproduces the fault sequence bit-for-bit — the property the
 * online_fault_tolerance benchmark and the differential
 * `--faults off` byte-identity test both rely on. Fault paths must
 * never touch `rand()`/`std::random_device` (enforced by the
 * fault-rand lint rule).
 */

#ifndef FASTTTS_UTIL_FAULT_INJECTOR_H
#define FASTTTS_UTIL_FAULT_INJECTOR_H

#include <limits>
#include <string>
#include <vector>

#include "api/status.h"
#include "util/rng.h"

namespace fasttts
{

/** Where in the serving stack a fault rule strikes. */
enum class FaultSite {
    kWaveStep = 0,  //!< Engine wave step: transient device error.
    kKvAlloc = 1,   //!< KvBudgetLedger::charge: allocation refusal.
    kPrefixAcquire = 2, //!< PrefixIndex::acquire: forced cache miss.
};

/** Number of distinct FaultSite values (for stats arrays). */
inline constexpr int kNumFaultSites = 3;

/** The plan-JSON name of a site ("wave_step", "kv_alloc", ...). */
const char *faultSiteName(FaultSite site);

/** Parse a plan-JSON site name; kNotFound for unknown names. */
StatusOr<FaultSite> faultSiteFromName(const std::string &name);

/**
 * One arming rule of a fault plan: at `site`, within the sim-time
 * window [windowStart, windowEnd), for `requestId` (-1 = any), fail
 * each probe with probability `rate`.
 */
struct FaultRule {
    FaultSite site = FaultSite::kWaveStep;
    double rate = 0.0;
    double windowStart = 0.0;
    double windowEnd = std::numeric_limits<double>::infinity();
    long requestId = -1; //!< -1 matches every request (and no-id probes).
};

/**
 * A deterministic fault schedule: the rule list a FaultInjector
 * evaluates on every probe.
 */
struct FaultPlan {
    std::vector<FaultRule> rules;

    /**
     * Parse the `--fault-plan` JSON text:
     *
     *   {"rules": [{"site": "wave_step", "rate": 0.05,
     *               "start": 0, "end": 1e9, "request": -1}, ...]}
     *
     * "site" and "rate" are required per rule; "start" (default 0),
     * "end" (default +inf) and "request" (default -1 = any) are
     * optional.
     */
    static StatusOr<FaultPlan> fromJsonText(const std::string &text);

    /** All three sites armed at `rate` for all time, any request. */
    static FaultPlan uniform(double rate);
};

/** Probe/injection counters for one site. */
struct FaultSiteStats {
    long probes = 0;   //!< shouldFault() calls at this site.
    long injected = 0; //!< Probes that came back faulted.
};

/**
 * Seeded, schedule-driven fault decision source. Constructed once
 * per online trace (only when `--faults plan`); the serve loop keeps
 * its ambient sim time current via setNow() and every instrumented
 * layer probes shouldFault() at its injection site.
 */
class FaultInjector
{
  public:
    /**
     * `seed` is the serving master seed; the injector forks its own
     * stream so fault draws never perturb problem-set or engine
     * randomness.
     */
    FaultInjector(FaultPlan plan, uint64_t seed)
        : plan_(std::move(plan)), rng_(Rng::mix(seed, 0xFA17))
    {}

    /** Advance the ambient sim time used for window matching. */
    void setNow(double now) { now_ = now; }

    [[nodiscard]] double now() const { return now_; }

    /**
     * Decide whether the probed operation faults. Draws from the
     * dedicated RNG only when at least one rule is armed (site
     * matches, now() inside the window, and the rule's requestId is
     * -1 or equals `request_id`); unarmed probes consume no
     * randomness, so `--faults off` runs and out-of-window spans are
     * bit-identical to a build without the injector.
     */
    [[nodiscard]] bool shouldFault(FaultSite site, long request_id = -1);

    /** Counters for one site. */
    [[nodiscard]] const FaultSiteStats &
    stats(FaultSite site) const
    {
        return stats_[static_cast<int>(site)];
    }

    /** Total faults injected across all sites. */
    [[nodiscard]] long injectedCount() const;

    /** Total probes across all sites. */
    [[nodiscard]] long probeCount() const;

  private:
    FaultPlan plan_;
    Rng rng_;
    double now_ = 0.0;
    FaultSiteStats stats_[kNumFaultSites];
};

} // namespace fasttts

#endif // FASTTTS_UTIL_FAULT_INJECTOR_H
