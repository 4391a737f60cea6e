/**
 * @file
 * ServingSystem: the request-level public API of the library.
 *
 * Mirrors the paper's deployment model (Sec. 5): pick a device, a
 * generator+verifier configuration, a dataset workload and a TTS
 * search strategy, then serve requests. Construction is fallible and
 * exception-free: ServingSystem::create() resolves every name through
 * the extensible registries (deviceRegistry(), datasetRegistry(),
 * algorithmRegistry(), modelConfigRegistry()) and returns a Status
 * with the valid names on any unknown name — never a silent default.
 *
 * Two serving styles share one engine:
 *
 *  - Batch: serve(problem) runs one request to completion;
 *    serveProblems(n) serves a prefix of the dataset's deterministic
 *    problem set and aggregates metrics.
 *  - Request-level async: submit(problem, callbacks) enqueues a
 *    request and returns a RequestId; each step() call advances the
 *    in-flight request by one TTS iteration, firing per-request
 *    onStep/onComplete callbacks; cancel(id) aborts a queued or
 *    running request. Queueing policy (e.g. OnlineServer's FIFO
 *    arrival queue) is thereby decoupled from engine pumping.
 *    suspend(id)/resume(id) give true request-level preemption: the
 *    running request's whole engine state is parked (beams, clocks,
 *    KV trees) so another request can take the engine, and
 *    evictSuspendedKv(id) drops a parked request's KV back to the
 *    shared pool (rebuilt lazily as recompute). startSuspended(id)
 *    parks a request from the start and stepBatch() runs parked
 *    requests in one fused wave — the mechanism OnlineServer shares
 *    one device with, one wave at a time.
 *
 * Typical use (see examples/quickstart.cc; string-friendly
 * configuration via EngineArgs in api/engine_args.h):
 *
 *   ServingOptions opts;
 *   opts.algorithmName = "beam_search";
 *   opts.numBeams = 32;
 *   auto system = ServingSystem::create(opts);
 *   if (!system.ok()) { ... system.status().message() ... }
 *   BatchResult out = system->serveProblems(8);
 */

#ifndef FASTTTS_CORE_SERVING_H
#define FASTTTS_CORE_SERVING_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/status.h"
#include "core/config.h"
#include "core/engine.h"
#include "kv/prefix_index.h"
#include "metrics/request_metrics.h"
#include "model/model_spec.h"
#include "model/workload.h"
#include "sim/device.h"

namespace fasttts
{

class FaultInjector;

/** Everything needed to stand up one serving stack. */
struct ServingOptions
{
    FastTtsConfig config = FastTtsConfig::fastTts();
    ModelConfig models = config1_5Bplus1_5B();
    std::string deviceName = "RTX4090";
    std::string datasetName = "AIME";
    std::string algorithmName = "beam_search";
    int numBeams = 32;       //!< Search width n.
    int branchFactor = 4;    //!< B for tree-search methods.
    uint64_t seed = 2026;    //!< Master seed for the problem set.
    int problemCount = 256;  //!< Size of the generated problem set.
};

/** Batch-level aggregation over served problems. */
struct BatchResult
{
    std::vector<RequestResult> requests;

    double meanGoodput = 0;        //!< Precise Goodput (tokens/s).
    double meanLatency = 0;        //!< Completion time (s).
    double meanGeneratorTime = 0;
    double meanVerifierTime = 0;
    double top1Accuracy = 0;       //!< Majority-vote accuracy.
    double passAt1 = 0;
    double passAtNHalf = 0;        //!< Pass@(n/2).
    double passAtNAccuracy = 0;    //!< Pass@n.
};

/** Identity of one submitted request (process-unique, never reused). */
using RequestId = uint64_t;

/** Lifecycle state of a submitted request. */
enum class RequestState {
    Queued,    //!< Submitted, not yet started.
    Running,   //!< In flight on the engine.
    Suspended, //!< Preempted mid-flight; resume() continues it.
    Completed, //!< Finished; result() is available.
    Cancelled, //!< Aborted by cancel(); no result.
};

/** Progress notification delivered after each engine iteration. */
struct StepEvent
{
    RequestId id = 0;
    int iteration = 0;   //!< Iterations completed so far (1-based).
    int activeBeams = 0; //!< Beams still active after the iteration.
    double clock = 0;    //!< Engine-internal time (s) so far.
};

/** Per-request observers; default-constructed means "no callbacks". */
struct RequestCallbacks
{
    /** Fired after every engine iteration of this request. */
    std::function<void(const StepEvent &)> onStep;

    /** Fired once when the request completes (not when cancelled). */
    std::function<void(RequestId, const RequestResult &)> onComplete;
};

/**
 * What one wave advance accomplished — the first-class result of
 * ServingSystem::step()/stepBatch() so callers no longer re-derive
 * progress from engine counters. Contextually convertible to bool
 * ("is there more work?"), so `while (system.step())` keeps working.
 */
struct ScheduleOutcome
{
    bool moreWork = false;    //!< Queued or running work remains.
    int requestsAdvanced = 0; //!< Requests that ran this wave.
    int requestsSuspended = 0; //!< Wave participants still parked
                               //!< (stepBatch(); 0 for step()).
    long tokensDecoded = 0;   //!< Generator tokens drawn this wave.
    int prefillChunks = 0;    //!< Chunked-prefill slices executed.
    double waveTime = 0;      //!< Device time consumed by the wave (s).

    explicit operator bool() const { return moreWork; }
};

/** Result of one co-scheduled batch wave (stepBatch). */
struct BatchStepOutcome
{
    ScheduleOutcome schedule;
    /** Per-member outcome, parallel to the id list passed in. */
    std::vector<BatchMemberOutcome> members;
};

/** Batch-planning view of a suspended request (suspendedInfo()). */
struct SuspendedRequestInfo
{
    int promptTokensPending = 0; //!< Prompt left to chunk-prefill.
    int activeBeams = 0;         //!< Beams a decode wave advances.
    double residentKvBytes = 0;  //!< Device bytes its KV still holds.
    uint64_t prefixKey = 0;      //!< PrefixIndex node mounted at
                                 //!< admission (0 = none): equal
                                 //!< nonzero keys share prefix KV
                                 //!< (scheduler affinity tiebreak).
};

/**
 * One configured serving stack (device + models + search).
 *
 * Move-only; obtain instances through create().
 */
class ServingSystem
{
  public:
    /**
     * Build a serving stack, resolving every name in the options
     * through the registries. Unknown names and out-of-range widths
     * are errors (kNotFound / kInvalidArgument).
     */
    static StatusOr<ServingSystem> create(const ServingOptions &options);

    ~ServingSystem();

    ServingSystem(const ServingSystem &) = delete;
    ServingSystem &operator=(const ServingSystem &) = delete;
    ServingSystem(ServingSystem &&) = default;
    ServingSystem &operator=(ServingSystem &&) = default;

    // --- Batch serving ---

    /**
     * Serve one problem to completion (synchronous). The engine runs
     * one request at a time, so any pending async work is drained
     * first — a sync call can never corrupt an in-flight request.
     */
    [[nodiscard]] RequestResult serve(const Problem &problem);

    /**
     * Serve the first num_problems of the dataset's problem set
     * (implemented on the async submit/step path) and aggregate.
     */
    [[nodiscard]] BatchResult serveProblems(int num_problems);

    // --- Request-level async serving ---

    /**
     * Enqueue a request. Requests start in submission order; the
     * engine serves one request at a time (a TTS request is itself a
     * device-filling parallel job).
     */
    [[nodiscard]] RequestId submit(const Problem &problem,
                     RequestCallbacks callbacks = {});

    /**
     * Advance serving by one engine iteration: admit the next queued
     * request if none is running, run one iteration, fire callbacks.
     * The running request has no one to yield to, so a beam the
     * shared ledger refuses even alone is force-killed
     * (FastTtsEngine::stepRequest()) — also while a suspended request
     * holds the ledger's bytes: step() never evicts a parked request's
     * KV on its own (evictSuspendedKv() does).
     * @return A ScheduleOutcome that is truthy while queued or
     *         running work remains, carrying what the wave did.
     */
    ScheduleOutcome step();

    /**
     * Start a queued request directly into the Suspended state: the
     * engine begins it (prompt KV node created) and immediately parks
     * the context, leaving the engine idle. OnlineServer mounts such
     * parked contexts wave by wave via stepBatch(). With
     * defer_prompt true the prompt prefill is NOT charged up front —
     * the batch scheduler feeds it in chunks instead.
     * @return kNotFound for unknown ids, kFailedPrecondition unless
     *         the request is queued and the engine is idle.
     */
    Status startSuspended(RequestId id, bool defer_prompt);

    /**
     * Advance every listed suspended request in one fused engine wave
     * according to `plan` (sched/batch_scheduler.h). Members that
     * finish are completed (onComplete fires; per-iteration onStep
     * callbacks do NOT fire from batched waves) and their KV is
     * released, refunding its shared-ledger charge before the call
     * returns; the rest stay Suspended. A member the shared ledger
     * refuses while other requests hold its bytes reports
     * BatchMemberOutcome::blocked: its iteration is not counted and
     * resumes on its next decode entry, so the caller should free
     * ledger bytes first (evictSuspendedKv()). Plan entries index
     * into `ids`.
     * @return kFailedPrecondition unless every id is Suspended.
     */
    StatusOr<BatchStepOutcome>
    stepBatch(const std::vector<RequestId> &ids, const BatchPlan &plan);

    /**
     * Scheduling view of a suspended request — what a batch scheduler
     * needs to build its BatchCandidate.
     * @return kNotFound for unknown ids, kFailedPrecondition unless
     *         the request is suspended.
     */
    StatusOr<SuspendedRequestInfo> suspendedInfo(RequestId id) const;

    /** step() until no submitted request remains unfinished. */
    void drain();

    /**
     * Preempt the running request: its entire engine state (beams,
     * clock, KV trees) is parked and the engine becomes free for
     * another request. The parked KV stays resident — and keeps its
     * shared-budget charge — until the serving layer evicts it
     * (evictSuspendedKv) or the request is resumed/cancelled.
     * @return kNotFound for unknown ids, kFailedPrecondition unless
     *         the request is the one currently running.
     */
    Status suspend(RequestId id);

    /**
     * Continue a suspended request where it left off. The engine must
     * be idle (suspend or finish the current request first); the
     * resumed request runs on the next step().
     * @return kNotFound for unknown ids, kFailedPrecondition when the
     *         request is not suspended or another request is running.
     */
    Status resume(RequestId id);

    /**
     * Drop a suspended request's KV from the device (both trees),
     * returning every block to the allocator and shared ledger. The
     * request remains resumable: evicted paths are re-prefilled
     * lazily when next touched, counted as recompute in its KvStats.
     * @return Tokens whose KV was dropped; kFailedPrecondition unless
     *         the request is suspended.
     */
    StatusOr<long> evictSuspendedKv(RequestId id);

    /**
     * Abort a queued, running or suspended request. Running requests
     * abandon their active beams immediately; no onComplete fires.
     * The prompt is NOT published to the prefix cache and the
     * request's prefix pin is released on every path, so an aborted
     * request never leaves pinned (uncollectable) index nodes behind.
     * @return kNotFound for unknown ids, kFailedPrecondition when the
     *         request already completed.
     */
    Status cancel(RequestId id);

    /**
     * cancel() with an attributed failure: `reason` (non-ok, e.g.
     * kDeadlineExceeded for a watchdog abort or kUnavailable for an
     * injected device error) is stored and surfaced by result() in
     * place of the generic was-cancelled error, so callers can branch
     * on Status::isRetryable().
     */
    Status cancelWith(RequestId id, Status reason);

    /** Lifecycle state of a submitted request (kNotFound if unknown). */
    StatusOr<RequestState> requestState(RequestId id) const;

    /**
     * Result of a completed request (kFailedPrecondition while it is
     * queued/running, kNotFound for unknown or cancelled ids; a
     * request aborted via cancelWith() returns its stored reason).
     */
    StatusOr<RequestResult> result(RequestId id) const;

    /** Submitted requests not yet completed or cancelled. */
    [[nodiscard]] size_t pendingRequests() const;

    /**
     * Drop the record of a completed or cancelled request (its result
     * becomes unavailable). Long-lived systems should release
     * requests they are done with; records are otherwise kept so
     * result() stays answerable. kFailedPrecondition while the
     * request is still queued/running (cancel it first), kNotFound
     * for unknown ids.
     */
    Status release(RequestId id);

    // --- Introspection ---

    /**
     * Attach a shared KV byte budget (kv/kv_session.h) that every
     * subsequently started request charges — the single-device memory
     * model OnlineServer serves under. The ledger must outlive the
     * system.
     */
    void attachKvLedger(KvBudgetLedger *ledger)
    {
        engine_->attachKvLedger(ledger);
    }

    /**
     * Enable the global cross-request prefix cache
     * (kv/prefix_index.h): one radix index, owned by this system,
     * that every subsequently started request queries (mounting the
     * longest cached prompt prefix instead of prefilling it) and
     * publishes back to on completion. `budget_bytes` caps the
     * index's resident KV; with `ledger` non-null the cached bytes
     * are additionally charged to that shared budget, so cached
     * prefixes and in-flight KV contend for the same device memory.
     * Call at most once, before any request starts; the ledger must
     * outlive this system.
     */
    void enablePrefixCache(double budget_bytes, KvBudgetLedger *ledger);

    /**
     * Thread a deterministic fault injector
     * (util/fault_injector.h) through the system's layers: currently
     * the prefix index (FaultSite::kPrefixAcquire). Call order with
     * enablePrefixCache() does not matter; the injector must outlive
     * the system. Pass nullptr to detach.
     */
    void attachFaultInjector(FaultInjector *injector);

    /** The prefix cache (nullptr when not enabled). */
    [[nodiscard]] const PrefixIndex *prefixIndex() const
    {
        return prefixIndex_.get();
    }

    /** The options the system was built with. */
    [[nodiscard]] const ServingOptions &options() const
    {
        return options_;
    }

    /** Underlying engine (introspection for benches). */
    FastTtsEngine &engine() { return *engine_; }
    const FastTtsEngine &engine() const { return *engine_; }

    /** The deterministic problem set this system serves. */
    [[nodiscard]] const std::vector<Problem> &problems() const
    {
        return problems_;
    }

  private:
    struct Request
    {
        Problem problem;
        RequestCallbacks callbacks;
        RequestState state = RequestState::Queued;
        RequestResult result;
        Status failure; //!< Abort reason (cancelWith); ok otherwise.
        int iterations = 0;
        SuspendedEngineRequest suspended; //!< Parked engine context
                                          //!< while state==Suspended.
    };

    ServingSystem(const ServingOptions &options, DatasetProfile dataset,
                  std::unique_ptr<SearchAlgorithm> algorithm,
                  const DeviceSpec &device);

    /** Pop cancelled entries and begin the next queued request. */
    void admitNext();

    ServingOptions options_;
    DatasetProfile dataset_;
    std::unique_ptr<SearchAlgorithm> algorithm_;
    //!< Declared before engine_ and requests_: suspended contexts
    //!< release their prefix pins on destruction, so the index must
    //!< be destroyed last.
    std::unique_ptr<PrefixIndex> prefixIndex_;
    std::unique_ptr<FastTtsEngine> engine_;
    std::vector<Problem> problems_;
    FaultInjector *faultInjector_ = nullptr; //!< Borrowed (optional).

    // --- Async state ---
    std::unordered_map<RequestId, Request> requests_;
    std::deque<RequestId> queue_;
    RequestId running_ = 0; //!< 0 = none (ids start at 1).
    RequestId nextId_ = 1;
};

/** Aggregate a set of request results into a BatchResult. Safe on an
 *  empty set: every aggregate field stays zero. */
[[nodiscard]] BatchResult
aggregateResults(std::vector<RequestResult> requests, int num_beams);

} // namespace fasttts

#endif // FASTTTS_CORE_SERVING_H
