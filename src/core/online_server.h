/**
 * @file
 * Online serving front-end: queued TTS requests on one edge device.
 *
 * The paper's deployment model is interactive (batch size 1,
 * Sec. 6.1), but the serving system must stay responsive when new
 * requests arrive: the two-phase scheduler's speculative phase is
 * fully preemptible, so pending work never waits behind speculation
 * (Sec. 4.1.2). This front-end simulates a request queue with a
 * deterministic arrival process and reports per-request queueing
 * delay, device time, end-to-end latency and SLO attainment — the
 * level at which a downstream user would deploy the library.
 *
 * The server owns exactly ONE ServingSystem — one engine, one device,
 * one shared KV budget — no matter how many requests are in flight.
 * In-flight requests share the engine through the async facade's
 * suspend()/resume(): a parked request keeps its entire engine state
 * (beams, clocks, KV trees) in a SuspendedEngineRequest. All resident
 * KV is charged to one shared KvBudgetLedger, so concurrent requests
 * genuinely contend for device memory; under pressure a suspended
 * request's KV is force-evicted back to the pool and re-prefilled
 * (counted as recompute) — or, with a host tier, swapped back — when
 * it next runs.
 *
 * One serve loop drives every configuration. Each turn it:
 *
 *  1. takes in arrivals and backed-off retries whose timer expired;
 *  2. drops queued requests their clients cancelled, and aborts every
 *     request older than the watchdog's requestTimeout (queued,
 *     backing off or in flight);
 *  3. admits queued requests into up to maxInflight slots: the
 *     registry-backed QueuePolicy (sched/queue_policy.h; "fifo",
 *     "priority", "sjf", "edf") picks, shedDoomed sheds requests whose
 *     predicted finish already exceeds their deadline, and under a
 *     kvBudgetGiB the memory gate holds back requests the budget
 *     cannot fit beside the in-flight working sets;
 *  4. idles to the next arrival or retry when nothing is in flight;
 *  5. prepares the wave; under a kvBudgetGiB it force-evicts suspended
 *     KV while the ledger is short of headroom — in the batching
 *     mode's own order, or cheapest-to-restore first under
 *     victimSelect "cost" (rankEvictionVictims());
 *  6. probes the fault injector for every request about to decode,
 *     killing faulted attempts (retried after backoff or failed);
 *  7. runs one engine wave and accounts every request it completed.
 *
 * OnlineServerOptions::batching changes exactly three of those steps:
 *
 *  - Admission: "continuous" submits a new flight at once and parks it
 *    with its prompt deferred; "off" (time slicing) leaves it
 *    unsubmitted until its first mount.
 *  - Wave preparation: "continuous" evicts and benches the youngest
 *    members first, the oldest always runs, and pickBenchReturn()
 *    returns at most one benched member per wave; "off" mounts the
 *    one request the preempt mode picks — "off" runs to completion,
 *    "slice" round-robins one engine iteration at a time, "policy"
 *    lets QueuePolicy::shouldPreempt take the engine for a more
 *    urgent request — and evicts the others oldest first.
 *  - The wave: "continuous" fuses decode across every unbenched member
 *    under a maxBatchedTokens budget (sched/batch_scheduler.h), long
 *    prompts fed in prefillChunk-token slices; "off" advances the
 *    mounted request one engine iteration, its wall clock being its
 *    engine clock offset by the slices the device spent elsewhere.
 *
 * kvTier "host" attaches a budgeted host-side tier (kv/kv_tier.h)
 * behind a finite-bandwidth link, so every preemption eviction makes
 * the roofline swap-vs-recompute call per victim. With the defaults
 * ("fifo", maxInflight 1, batching "off") the server is exactly the
 * legacy run-to-completion FIFO queue.
 */

#ifndef FASTTTS_CORE_ONLINE_SERVER_H
#define FASTTTS_CORE_ONLINE_SERVER_H

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/status.h"
#include "core/serving.h"
#include "kv/kv_session.h"
#include "kv/kv_tier.h"
#include "sched/queue_policy.h"
#include "util/fault_injector.h"

namespace fasttts
{

/** One served request's timing record. */
struct OnlineRequestRecord
{
    int problemId = 0;
    double arrival = 0;   //!< Arrival time (s).
    double start = 0;     //!< Service start (s): first time slice in
                          //!< "off"/"policy" preempt modes; admission
                          //!< into the round-robin in "slice" mode
                          //!< (the legacy definition).
    double finish = 0;    //!< Completion (s).
    int priority = 0;     //!< Admission priority the request carried.
    double deadline = std::numeric_limits<double>::infinity();
                          //!< Absolute SLO deadline (s); infinity when
                          //!< the request carried no SLO.

    /** Engine time actually spent on this request (decode, verify,
     *  recompute — including re-prefill after a preemption eviction).
     *  Unlike serviceTime(), never counts slices the device spent on
     *  other requests, so utilization and cost models built on it do
     *  not over-count under interleaving. */
    double activeTime = 0;

    /** Times this request was suspended off the engine mid-run —
     *  every context switch counts, including routine "slice"-mode
     *  round-robin rotation, not only policy-driven preemption. */
    int preemptions = 0;

    [[nodiscard]] double queueDelay() const { return start - arrival; }

    /** Wall time between service start and completion. Under
     *  interleaving this includes slices the device spent on other
     *  requests — use activeTime for device-time accounting. */
    [[nodiscard]] double serviceTime() const { return finish - start; }

    [[nodiscard]] double latency() const { return finish - arrival; }

    [[nodiscard]] bool hasDeadline() const
    {
        return std::isfinite(deadline);
    }
    [[nodiscard]] bool missedDeadline() const
    {
        return hasDeadline() && finish > deadline;
    }
};

/** Aggregate results of an online trace. */
struct OnlineTraceResult
{
    std::vector<OnlineRequestRecord> records; //!< Completion order.
    double meanLatency = 0;
    double p50Latency = 0;
    double p95Latency = 0;
    double p99Latency = 0;
    double meanQueueDelay = 0;
    double makespan = 0;     //!< Finish time of the last request.
    double utilization = 0;  //!< Busy fraction of the makespan.

    /**
     * Fraction of deadline-bearing requests that finished within
     * their SLO; 1 when no request carried a deadline (vacuous).
     * Under fault injection the serve loop folds deadline-bearing
     * requests that never completed (fault-failed or timed out) into
     * the denominator as misses, so a fault cannot improve attainment
     * by removing its victim from the population.
     */
    double sloAttainment = 1.0;
    int deadlineMisses = 0;  //!< Requests that blew their deadline.
    int cancelled = 0;       //!< Requests abandoned while queued.
    int shedRequests = 0;    //!< Doomed requests shed at admission.
    int contextSwitches = 0; //!< Mid-run suspensions across the trace
                             //!< (any cause, slice rotation included).
    int preemptions = 0;     //!< Policy-driven takeovers only: the
                             //!< QueuePolicy displaced the running
                             //!< victim for a more urgent request
                             //!< ("policy" preempt mode).
    long recomputedTokens = 0; //!< KV tokens re-prefilled (all causes,
                               //!< preemption eviction included).
    long preemptEvictedTokens = 0; //!< KV tokens force-evicted from
                                   //!< suspended requests.
    long verifiedTokens = 0; //!< Tokens surviving in verified paths
                             //!< across completed requests; divided by
                             //!< the makespan this is trace goodput.
    long prefixHitTokens = 0; //!< Prompt tokens served from the
                              //!< cross-request prefix cache instead
                              //!< of being prefilled (0 with
                              //!< --prefix-cache off): the trace's
                              //!< saved recompute volume.
    double batchOccupancy = 0; //!< Mean decode members per engine wave
                               //!< (1 under time-slicing, > 1 when
                               //!< continuous batching fuses requests).

    long reprefilledTokens = 0; //!< Subset of recomputedTokens that is
                                //!< genuine re-prefill after an
                                //!< eviction — the volume host tiering
                                //!< can absorb (KvStats doc).

    // --- Host KV tiering (all zero when kvTier == "off"). Summed
    //     over completed requests, like recomputedTokens. ---
    long swappedOutTokens = 0; //!< KV tokens preemption parked on the
                               //!< host tier instead of dropping.
    long swappedInTokens = 0;  //!< KV tokens restored over the host
                               //!< link instead of being recomputed.
    double swapTransferTime = 0; //!< Sim seconds of host-link copies
                                 //!< (both directions).

    // --- Fault tolerance (all zero when faults == "off"). ---
    long injectedFaults = 0; //!< Faults the injector fired this trace,
                             //!< summed across all sites.
    int retries = 0;         //!< Attempt re-queues after retryable
                             //!< fault kills (each backoff counted).
    int timeouts = 0;        //!< Requests aborted by the watchdog
                             //!< (kDeadlineExceeded; never retried).
    int failedRequests = 0;  //!< Requests terminally failed by faults
                             //!< after exhausting their retry budget.
    long faultWastedTokens = 0; //!< Decode tokens of killed attempts —
                                //!< the trace's wasted recompute. Each
                                //!< fault- or watchdog-killed attempt
                                //!< counts only the tokens it decoded
                                //!< itself, mounted or suspended, in
                                //!< both batching modes.
    long degradedWaves = 0;  //!< Engine waves run in degraded mode
                             //!< (speculation disabled, admission
                             //!< halved).
    double degradedTime = 0; //!< Sim seconds spent degraded.
    int degradedEpisodes = 0; //!< Times degradation engaged; with
                              //!< degradedTime this yields mean
                              //!< time-to-recovery.
};

/**
 * Aggregate per-request records into trace statistics.
 * @param busy_time Total device-busy seconds across the records.
 * Safe on an empty record set: every statistic stays zero (no NaN or
 * division by zero). The cancelled count is the caller's to fill in.
 *
 * Population contract: latency statistics (mean, p50/p95/p99, queue
 * delay, SLO attainment) are computed over COMPLETED requests only —
 * `records` must contain one entry per completion, and the serve loop
 * never creates a record for a shed or cancelled request, in either
 * batching mode. Shed/cancelled volumes are reported solely through
 * the shedRequests/cancelled counters, so a trace that sheds cannot
 * skew its percentiles.
 */
[[nodiscard]] OnlineTraceResult
aggregateTrace(std::vector<OnlineRequestRecord> records, double busy_time);

/**
 * Benching hysteresis rule of continuous batching, exposed as a pure
 * function so the "at most one return per wave" contract is
 * unit-testable. `members` is the oldest-first in-flight wave as
 * (benched, required KV bytes) pairs. The front member always runs:
 * when `front_returned` is true (the front entered the wave benched —
 * the oldest member completed and promoted it — and was
 * force-returned) that forced return is the progress guarantee, NOT a
 * hysteresis return, and the front's flag must be cleared exactly
 * once — this function never picks index 0 again in that wave.
 * Beyond it, at most ONE member returns per wave: the OLDEST benched
 * one, and only with restore headroom to spare (its KV demand plus
 * twice the benching headroom), the hysteresis gap that stops
 * bench/unbench thrash. An ineligible oldest blocks younger benched
 * members from skipping ahead of it.
 * @return Index of the member to unbench, or -1 for none.
 */
[[nodiscard]] int
pickBenchReturn(const std::vector<std::pair<bool, double>> &members,
                double free_bytes, double headroom, bool front_returned);

/** One suspended request the memory-pressure sweep may evict:
 *  everything the cost-aware victim ranking sees. */
struct VictimCandidate
{
    double kvBytes = 0;   //!< Resident device KV the eviction frees.
    double lastRunAt = 0; //!< Sim time the victim last held the engine.

    /** Cost of restoring the working set by host-link copy (seconds);
     *  infinity when no host tier is attached. */
    double transferSeconds = std::numeric_limits<double>::infinity();

    /** Cost of restoring the working set by re-prefill (seconds). */
    double recomputeSeconds = 0;
};

/**
 * Cost-aware eviction order of the memory-pressure sweep
 * (--victim-select cost), exposed as a pure function so the ranking
 * contract is unit-testable. Victims are ordered cheapest-to-restore
 * first — by min(transferSeconds, recomputeSeconds) ascending, the
 * price actually paid when the victim next runs (the engine swaps
 * exactly when the copy is strictly cheaper) — so the sweep frees
 * memory where re-admission costs least. Ties go to the
 * least-recently-run victim (coldest KV first), then to the smaller
 * index (admission order, the legacy sweep).
 * @return Indices into `candidates` in eviction order.
 */
[[nodiscard]] std::vector<size_t>
rankEvictionVictims(const std::vector<VictimCandidate> &candidates);

/** Queueing/scheduling configuration of an OnlineServer. */
struct OnlineServerOptions
{
    std::string policy = "fifo"; //!< queuePolicyRegistry() name.
    int maxInflight = 1;         //!< Interleaved requests (1-64).
    double slo = 0;              //!< Default per-request latency budget
                                 //!< (s); 0 disables SLO tracking.

    /** Preemption mode: "off" (run-to-completion), "slice"
     *  (round-robin time slices; the default, and the legacy PR3
     *  interleaving), or "policy" (QueuePolicy::shouldPreempt decides
     *  when a higher-urgency in-flight request takes the engine). */
    std::string preempt = "slice";

    /** Shared KV budget (GiB) all in-flight requests contend for;
     *  also enables memory-aware admission. 0 = legacy accounting
     *  (each in-flight slot gets a full engine budget). */
    double kvBudgetGiB = 0;

    /** Host KV tier: "off" (the default — device-only KV, preemption
     *  evicts and recomputes, bit-identical to the pre-tier server)
     *  or "host" (a budgeted host-side store behind a finite-
     *  bandwidth link; every preemption eviction makes the roofline
     *  swap-vs-recompute call per victim, kv/kv_tier.h). */
    std::string kvTier = "off";

    /** Byte budget of the host tier in GiB; <= 0 defaults to twice
     *  the device KV budget. Ignored when kvTier == "off". */
    double hostKvBudgetGiB = 0;

    /** Host link bandwidth in GB/s (decimal, vendor-style): the rate
     *  swapped KV moves in either direction. Ignored when
     *  kvTier == "off". */
    double hostBandwidthGBs = 16;

    /** Memory-pressure victim order: "admission" (the legacy sweep —
     *  earliest-admitted suspended request evicted first) or "cost"
     *  (cheapest-to-restore first via rankEvictionVictims(), with
     *  EWMA-calibrated working-set prediction for admission). */
    std::string victimSelect = "admission";

    /** Shed queued requests whose predicted finish already exceeds
     *  their deadline instead of serving them doomed (counted in
     *  OnlineTraceResult::shedRequests). */
    bool shedDoomed = false;

    /** Wave scheduling: "off" time-slices (one request decodes per
     *  engine wave, rotated by `preempt`); "continuous" co-schedules
     *  decode across all in-flight requests in fused waves under
     *  maxBatchedTokens. `preempt` is ignored under "continuous" —
     *  every in-flight request advances every wave it is planned
     *  into, so there is no victim to rotate off the engine. */
    std::string batching = "off";

    /** Per-wave token budget for continuous batching: decode demand
     *  is packed first, leftover budget becomes prompt-prefill
     *  chunks. Ignored when batching == "off". */
    int maxBatchedTokens = 2048;

    /** Largest prompt slice one request prefills per wave under
     *  continuous batching (chunked prefill). Ignored when
     *  batching == "off". */
    int prefillChunk = 512;

    /** Cross-request prefix cache (kv/prefix_index.h): "off" (the
     *  default; bit-identical to a server without the cache) or "on"
     *  (requests mount the longest cached prompt prefix instead of
     *  prefilling it, and publish their prompt back on completion;
     *  saved tokens land in OnlineTraceResult::prefixHitTokens). */
    std::string prefixCache = "off";

    /** Byte budget of the prefix cache in GiB; <= 0 defaults to 1/8
     *  of the shared KV budget. Cached bytes are charged to the same
     *  ledger as in-flight KV (they contend with --kv-budget).
     *  Ignored when prefixCache == "off". */
    double prefixCacheBudgetGiB = 0;

    /** Fault injection: "off" (the default — the injector is never
     *  constructed and no site consumes randomness, so every trace
     *  replays bit-identically to a build without faults) or "plan"
     *  (deterministic schedule-driven faults per faultPlan). */
    std::string faults = "off";

    /** Fault plan JSON (schema in util/fault_injector.h). Required
     *  non-empty when faults == "plan"; ignored otherwise. */
    std::string faultPlan;

    /** Retry budget per request: how many times an attempt killed by
     *  a retryable fault (kUnavailable) is re-queued, in [0, 16].
     *  0 fails the request on its first fault. */
    int retryMax = 0;

    /** Base retry backoff in sim seconds: attempt k re-queues
     *  retryBackoff * min(2^(k-1), 8) after its kill (capped
     *  exponential). The retried request keeps its original arrival
     *  time, so backoff shows up as queue delay. */
    double retryBackoff = 0.05;

    /** Watchdog deadline in sim seconds: any request older than this
     *  (queued, backing off or in flight) is aborted with
     *  kDeadlineExceeded and its KV/ledger/prefix pins refunded
     *  exactly. Timeouts are terminal — kDeadlineExceeded is not
     *  retryable (the request already burned its time budget).
     *  0 disables the watchdog. */
    double requestTimeout = 0;
};

/** One request of an explicit online trace (serveRequests()). */
struct OnlineRequest
{
    int problemId = -1;  //!< Index into the system's problem set;
                         //!< -1 cycles through it by submission order.
    double arrival = 0;  //!< Arrival time (s); must be finite.
    int priority = 0;    //!< Higher = more important ("priority").
    double slo = -1;     //!< Latency budget (s): < 0 uses the server
                         //!< default, 0 means none, > 0 sets
                         //!< deadline = arrival + slo.
    double cancelAt = -1; //!< Client abandons the request if it is
                          //!< still queued at this time; < 0 = never.
    //!< Per-request prompt override for prefix-cache traces
    //!< (multi-turn sessions): when non-empty the request is served
    //!< against a copy of its problem with these token identities
    //!< (promptTokens = size()). Empty = use the problem as-is.
    std::vector<int32_t> promptIds;
};

/**
 * Policy-driven online server multiplexing one simulated device.
 *
 * Requests are admitted by the configured QueuePolicy into up to
 * maxInflight in-flight slots that time-share ONE engine through
 * suspend/resume, under one shared KV budget. Move-only; obtain
 * instances through create().
 */
class OnlineServer
{
  public:
    /** Legacy construction: FIFO admission, one request in flight. */
    static StatusOr<OnlineServer> create(const ServingOptions &options);

    /**
     * Build the shared serving system and resolve the queue policy;
     * fails on invalid options, unknown policy/preempt names
     * (kNotFound, listing the registered names) and maxInflight
     * outside [1, 64].
     */
    static StatusOr<OnlineServer> create(const ServingOptions &options,
                                         const OnlineServerOptions &online);

    /**
     * Serve a Poisson-arrival trace of num_requests problems.
     * @param arrival_rate Requests per second (lambda).
     * @param seed Arrival-process seed.
     */
    [[nodiscard]] OnlineTraceResult
    serveTrace(int num_requests, double arrival_rate, uint64_t seed);

    /** Serve requests with explicit arrival times (sorted ascending),
     *  cycling through the problem set with the server-default SLO.
     *  Non-finite arrival times yield the empty trace. */
    [[nodiscard]] OnlineTraceResult
    serveArrivals(const std::vector<double> &arrivals);

    /**
     * Serve an explicit request trace (the most general entry point:
     * per-request problems, priorities, SLOs and client cancellation).
     * Requests may be given in any order; they are served by arrival
     * time (negative arrivals queue from the trace start).
     * kInvalidArgument on non-finite arrivals or out-of-range problem
     * ids.
     */
    StatusOr<OnlineTraceResult>
    serveRequests(const std::vector<OnlineRequest> &requests);

    /**
     * Serve the first num_problems of the system's problem set as an
     * all-arrive-at-zero online trace and aggregate their results —
     * a thin adapter over serveRequests(), so batch-style serving and
     * online serving share ONE serve loop (admission policy, batching
     * mode and KV budget all apply).
     */
    [[nodiscard]] BatchResult serveProblems(int num_problems);

    /** The single shared serving system (all in-flight requests). */
    ServingSystem &system() { return system_; }

    /** The shared KV budget every in-flight request charges. */
    [[nodiscard]] const KvBudgetLedger &kvLedger() const
    {
        return *ledger_;
    }

    /** The queueing/scheduling configuration. */
    [[nodiscard]] const OnlineServerOptions &onlineOptions() const
    {
        return online_;
    }

    /** The admission policy instance. */
    [[nodiscard]] const QueuePolicy &policy() const { return *policy_; }

    /** The host KV tier (nullptr when kvTier == "off"). */
    [[nodiscard]] const HostKvTier *hostTier() const
    {
        return hostTier_.get();
    }

  private:
    OnlineServer(ServingSystem system,
                 std::unique_ptr<KvBudgetLedger> ledger,
                 std::unique_ptr<HostKvTier> tier,
                 std::unique_ptr<FaultInjector> faults,
                 OnlineServerOptions online,
                 std::unique_ptr<QueuePolicy> policy,
                 RooflineModel roofline, DatasetProfile profile);

    /** The one serve loop; results_sink (optional) collects each
     *  completed request's engine result in completion order. */
    StatusOr<OnlineTraceResult>
    serveRequestsImpl(const std::vector<OnlineRequest> &requests,
                      std::vector<RequestResult> *results_sink);

    // Declared before ledger_ and system_: both hold borrowed
    // pointers to the injector, so it must outlive them (members
    // destruct in reverse declaration order). Null when
    // online_.faults == "off".
    std::unique_ptr<FaultInjector> faults_;
    // Declared before system_: the engine's KV managers release their
    // ledger charge on destruction, so the ledger must outlive the
    // system (members destruct in reverse declaration order).
    std::unique_ptr<KvBudgetLedger> ledger_;
    // Declared before system_ for the same reason: the engine's KV
    // managers release their tier entries on destruction. Null when
    // online_.kvTier == "off".
    std::unique_ptr<HostKvTier> hostTier_;
    ServingSystem system_; //!< The one engine + device + problem set.
    OnlineServerOptions online_;
    std::unique_ptr<QueuePolicy> policy_;
    RooflineModel roofline_;   //!< For SJF cost prediction.
    DatasetProfile profile_;
};

/**
 * Poisson arrival process: n exponential inter-arrival gaps of rate
 * `rate` (the stream serveTrace() serves).
 */
[[nodiscard]] std::vector<double> poissonArrivalTrace(int n, double rate,
                                                      uint64_t seed);

/**
 * Heavy-tailed (bursty) arrival process: Pareto inter-arrival gaps
 * (alpha = 1.5) with the same mean rate — long silences separating
 * bursts of closely spaced requests, the regime where admission
 * policy choice matters most.
 */
[[nodiscard]] std::vector<double> burstyArrivalTrace(int n, double rate,
                                                     uint64_t seed);

/**
 * Arrival-process factory by mode name: "poisson" or "bursty".
 * Unknown modes, n < 0 and non-positive rates are kInvalidArgument.
 */
StatusOr<std::vector<double>>
makeArrivalTrace(const std::string &mode, int n, double rate,
                 uint64_t seed);

} // namespace fasttts

#endif // FASTTTS_CORE_ONLINE_SERVER_H
