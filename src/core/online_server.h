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
 * Every admitted request is parked in the engine at once, its prompt
 * deferred: a parked request keeps its entire engine state (beams,
 * clocks, KV trees) in a SuspendedEngineRequest, and every wave mounts
 * its members through ServingSystem::stepBatch(). All resident KV is
 * charged to one shared KvBudgetLedger, so concurrent requests
 * genuinely contend for device memory; under pressure a parked
 * request's KV is force-evicted back to the pool and re-prefilled
 * (counted as recompute) when it next runs.
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
 *     predicted finish already exceeds their deadline, and the memory
 *     gate holds back requests the shared budget cannot fit beside the
 *     in-flight predicted working sets;
 *  4. idles to the next arrival or retry when nothing is in flight;
 *  5. chooses the wave's members by continuous batching: every
 *     unbenched member runs. While the ledger is short of headroom the
 *     youngest-admitted members are force-evicted and benched first,
 *     the oldest always runs, and pickBenchReturn() returns at most one
 *     benched member per wave;
 *  6. probes the fault injector for every member, killing faulted
 *     attempts (retried after backoff or failed);
 *  7. runs one fused engine wave — one BatchScheduler plan over the
 *     members under maxBatchedTokens, long prompts fed in
 *     prefillChunk-token slices, then one stepBatch() — and accounts
 *     every request it completed.
 *
 * A request's wall time is the sum of the waves it ran in, and device
 * busy time is the sum of all waves. With the defaults ("fifo",
 * maxInflight 1) every wave has one member, so the server is a
 * run-to-completion FIFO queue.
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
#include "sched/queue_policy.h"
#include "util/fault_injector.h"

namespace fasttts
{

/** One served request's timing record. */
struct OnlineRequestRecord
{
    int problemId = 0;
    double arrival = 0;   //!< Arrival time (s).
    double start = 0;     //!< Service start (s): the start of the
                          //!< request's first wave.
    double finish = 0;    //!< Completion (s).
    int priority = 0;     //!< Admission priority the request carried.
    double deadline = std::numeric_limits<double>::infinity();
                          //!< Absolute SLO deadline (s); infinity when
                          //!< the request carried no SLO.

    /** Engine time actually spent on this request (decode, verify,
     *  recompute — including re-prefill after a preemption eviction).
     *  Unlike serviceTime(), it counts only this request's share of
     *  each fused wave it ran in, so utilization and cost models built
     *  on it do not over-count when requests share waves. */
    double activeTime = 0;

    [[nodiscard]] double queueDelay() const { return start - arrival; }

    /** Wall time between service start and completion. It includes
     *  the other members' shares of fused waves and the waves the
     *  request sat out benched — use activeTime for device-time
     *  accounting. */
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
    long recomputedTokens = 0; //!< KV tokens re-prefilled (all causes,
                               //!< preemption eviction included).
    long preemptEvictedTokens = 0; //!< KV tokens force-evicted from
                                   //!< suspended requests.
    long verifiedTokens = 0; //!< Tokens surviving in verified paths
                             //!< across completed requests; divided by
                             //!< the makespan this is trace goodput.
    long generatedTokens = 0; //!< Tokens completed requests decoded,
                              //!< speculation included; summed like
                              //!< verifiedTokens.
    long prefixHitTokens = 0; //!< Prompt tokens served from the
                              //!< cross-request prefix cache instead
                              //!< of being prefilled (0 with
                              //!< --prefix-cache off): the trace's
                              //!< saved recompute volume.
    double batchOccupancy = 0; //!< Mean decode members per engine wave
                               //!< (> 1 when a wave fuses requests;
                               //!< a wave that only prefills decodes
                               //!< nothing; 0 when no wave ran).

    long reprefilledTokens = 0; //!< Subset of recomputedTokens that is
                                //!< genuine re-prefill after an LRU
                                //!< or preemption eviction (KvStats
                                //!< doc).

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
                                //!< itself.

    long blockedSteps = 0; //!< Decode steps that yielded blocked on
                           //!< memory: the shared ledger refused the
                           //!< member while other requests held its
                           //!< bytes, so the server freed some before
                           //!< the step resumed.

    /** Hang-guard exits this trace took: engine generation phases
     *  cut at safety_cap plus the serve loop's "nothing can ever run"
     *  break. Any nonzero count is a simulator defect. */
    int defensiveExits = 0;
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
 * never creates a record for a shed or cancelled request. Shed and
 * cancelled volumes are reported solely through the
 * shedRequests/cancelled counters, so a trace that sheds cannot skew
 * its percentiles.
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

/** Queueing/scheduling configuration of an OnlineServer. */
struct OnlineServerOptions
{
    std::string policy = "fifo"; //!< queuePolicyRegistry() name.
    int maxInflight = 1;         //!< Interleaved requests (1-64).
    double slo = 0;              //!< Default per-request latency budget
                                 //!< (s); 0 disables SLO tracking.

    /** Shared KV budget (GiB) all in-flight requests contend for,
     *  which also gates admission; 0 means the engine's own device KV
     *  budget. */
    double kvBudgetGiB = 0;

    /** Shed queued requests whose predicted finish already exceeds
     *  their deadline instead of serving them doomed (counted in
     *  OnlineTraceResult::shedRequests). */
    bool shedDoomed = false;

    /** Wave scheduling. "continuous", the only value validate()
     *  accepts, co-schedules decode across all in-flight requests in
     *  fused waves under maxBatchedTokens. The field remains so that
     *  existing configurations that name the mode keep building. */
    std::string batching = "continuous";

    /** Per-wave token budget: decode demand is packed first, leftover
     *  budget becomes prompt-prefill chunks. Size it to fuse every
     *  in-flight request's decode work: maxInflight x beams x
     *  expected step tokens. */
    int maxBatchedTokens = 2048;

    /** Largest prompt slice one request prefills per wave (chunked
     *  prefill). */
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

    /**
     * kInvalidArgument on a knob out of range or an unknown mode name
     * (batching accepts only "continuous"); a faultPlan that does not
     * parse returns its parse status. The policy name is resolved by
     * OnlineServer::create() (kNotFound).
     */
    [[nodiscard]] Status validate() const;
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
 * maxInflight in-flight slots that share ONE engine wave by wave
 * (ServingSystem::stepBatch()), under one shared KV budget. Move-only;
 * obtain instances through create().
 */
class OnlineServer
{
  public:
    /** Legacy construction: FIFO admission, one request in flight. */
    static StatusOr<OnlineServer> create(const ServingOptions &options);

    /**
     * Build the shared serving system and resolve the queue policy;
     * fails on invalid options (OnlineServerOptions::validate()) and
     * on an unknown policy name (kNotFound, listing the registered
     * names).
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
     * @param results When non-null, each completed request's engine
     *        result is appended, in OnlineTraceResult::records order.
     */
    StatusOr<OnlineTraceResult>
    serveRequests(const std::vector<OnlineRequest> &requests,
                  std::vector<RequestResult> *results = nullptr);

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

  private:
    OnlineServer(ServingSystem system,
                 std::unique_ptr<KvBudgetLedger> ledger,
                 std::unique_ptr<FaultInjector> faults,
                 OnlineServerOptions online,
                 std::unique_ptr<QueuePolicy> policy,
                 RooflineModel roofline, DatasetProfile profile);

    // Declared before ledger_ and system_: both hold borrowed
    // pointers to the injector, so it must outlive them (members
    // destruct in reverse declaration order). Null when
    // online_.faults == "off".
    std::unique_ptr<FaultInjector> faults_;
    // Declared before system_: the engine's KV managers release their
    // ledger charge on destruction, so the ledger must outlive the
    // system (members destruct in reverse declaration order).
    std::unique_ptr<KvBudgetLedger> ledger_;
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
