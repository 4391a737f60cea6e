/**
 * @file
 * The TTS serving engine: baseline vLLM-style loop + FastTTS
 * optimizations.
 *
 * One engine implements the paper's generalized two-stage loop
 * (Sec. 3.1): a Generation phase that decodes one thinking step per
 * active beam, and a Verification phase that scores the new steps and
 * selects/branches survivors. The FastTtsConfig toggles:
 *
 *  - S: Speculative Beam Extension (Algorithm 1) — freed decode slots
 *    are filled with speculative child branches of finished beams,
 *    chosen by the SelectSPEC score-bin policy; LookAhead Verification
 *    merges a completed speculative step into the current verifier
 *    request. Duplicates truncate speculative tokens ~ N(R*len).
 *  - P: Dynamic Prefix-Aware Scheduling — generation (and hence
 *    verification) order groups sibling beams to minimise KV eviction.
 *  - M: Asymmetric Multi-Model Memory Allocation — roofline-guided
 *    split of the KV budget between generator and verifier, with the
 *    optional offloading strategy.
 *
 * Speculation and scheduling affect only *when* tokens materialise,
 * never *what* a beam samples (see trajectory.h), so the engine is
 * algorithmically equivalent to the baseline by construction.
 *
 * The Generation phase runs in waves. planWave() admits queued beams
 * into the decode batch, fills free slots with speculative branches,
 * and picks dt, the fewest tokens any member has left in its step;
 * when the pool cannot take dt more tokens per member, all
 * speculation is dropped first. applyWave() then decodes dt tokens
 * for each member, standard beams first, then speculative branches.
 * A member's KV append, standard or speculative, is deferred while it
 * needs no new block: only a member whose step ends or whose next
 * block fills appends, its deferred tokens and dt in one call, and a
 * member whose append is refused leaves the wave. Every other way out
 * of the decode set or the running branches lands the deferred tokens
 * first. The clock is charged once per wave, as one decode step of
 * the members that decoded, repeated dt times; a wave in which no
 * member decoded costs nothing.
 */

#ifndef FASTTTS_CORE_ENGINE_H
#define FASTTTS_CORE_ENGINE_H

#include <memory>
#include <vector>

#include "alloc/memory_planner.h"
#include "core/config.h"
#include "core/speculative.h"
#include "core/trajectory.h"
#include "kv/kv_cache.h"
#include "metrics/request_metrics.h"
#include "model/generator.h"
#include "model/model_spec.h"
#include "model/verifier.h"
#include "model/workload.h"
#include "sched/batch_scheduler.h"
#include "sched/scheduler.h"
#include "search/beam.h"
#include "search/search_algorithm.h"
#include "sim/roofline.h"
#include "sim/timeline.h"

namespace fasttts
{

class SuspendedEngineRequest;
class PrefixIndex;

/** Per-iteration snapshot for the cache/scheduling figures (5, 18). */
struct IterationStats
{
    int iteration = 0;
    int activeBeams = 0;
    long residentNodes = 0;    //!< Unique resident segments (shared).
    long residentTokens = 0;   //!< Unique resident tokens.
    long uniqueTokens = 0;     //!< Active working set with sharing.
    long unsharedTokens = 0;   //!< Footprint without prefix sharing.
    uint64_t evictions = 0;    //!< Cumulative generator evictions.
    uint64_t recomputedTokens = 0; //!< Cumulative recompute volume.
    double clock = 0;          //!< Time at iteration end.
    int decodeBatch = 0;       //!< Planned B_dec this iteration.
    int prefillBatch = 0;      //!< Planned B_pre this iteration.
};

/** One request's share of a fused batch wave (see stepBatch()). */
struct BatchMemberOutcome
{
    bool participated = false; //!< The plan scheduled this member.
    bool moreWork = true;      //!< stepRequest()'s verdict after a
                               //!< decode turn (prefill leaves true).
    long decodedTokens = 0;    //!< Tokens decoded this wave.
    int prefilledTokens = 0;   //!< Prompt tokens prefilled this wave.
    double activeDelta = 0;    //!< Device time attributed to this
                               //!< member under the fused wave clock.
    bool blocked = false;      //!< The shared ledger refused every beam
                               //!< while other requests hold its bytes:
                               //!< the step yielded mid-iteration and
                               //!< the next decode entry resumes it.
};

/** What one fused engine wave did across all planned members. */
struct BatchWaveResult
{
    double waveTime = 0;    //!< Shared device-clock advance (s): the
                            //!< fused decode time plus the serial
                            //!< verification/transfer/prefill parts.
    long tokensDecoded = 0; //!< Decode tokens across members.
    int prefillChunks = 0;  //!< Prompt chunks prefilled.
    std::vector<BatchMemberOutcome> outcomes; //!< One per context
                                              //!< passed to stepBatch.
};

/**
 * Serving engine for one generator+verifier pair on one device.
 *
 * runRequest() simulates one TTS request end-to-end and returns its
 * metrics; the engine is reusable across requests (the clock and KV
 * state reset each run).
 *
 * Every piece of per-request state — beams, speculative running set,
 * clocks, KV trees, counters — lives in a RequestContext, and exactly
 * one context is mounted on the engine at a time. suspendRequest()
 * unmounts the live context into a SuspendedEngineRequest handle
 * (cheap: no KV movement) and resumeRequest() mounts it back, so one
 * engine serves many interleaved requests with true preemption; a
 * suspended request's KV can additionally be force-evicted to the
 * shared pool (SuspendedEngineRequest::evictKv) and is then rebuilt
 * lazily — charged as recompute — when the request next runs.
 *
 * stepBatch() is the continuous-batching entry point: it advances
 * every request named by a BatchPlan in ONE fused device wave —
 * decode work from different requests shares the weight-read so the
 * wave is sublinear in the member count (RooflineModel::decodeStepTime
 * is sublinear in batch), while each member's beams, KV trees,
 * counters and RNG streams stay fully isolated in its own context.
 */
class FastTtsEngine
{
  public:
    /** All per-request engine state (opaque; defined in engine.cc). */
    struct RequestContext;
    /**
     * @param config Optimization toggles and substrate knobs.
     * @param models Generator/verifier pair + memory fraction.
     * @param device Edge GPU.
     * @param dataset Workload profile the requests come from.
     * @param algorithm Search method (not owned; must outlive engine).
     */
    FastTtsEngine(const FastTtsConfig &config, const ModelConfig &models,
                  const DeviceSpec &device, const DatasetProfile &dataset,
                  const SearchAlgorithm &algorithm);

    ~FastTtsEngine();

    FastTtsEngine(const FastTtsEngine &) = delete;
    FastTtsEngine &operator=(const FastTtsEngine &) = delete;

    /** Serve one problem with search width algorithm().beamWidth(). */
    [[nodiscard]] RequestResult runRequest(const Problem &problem);

    // --- Incremental request lifecycle (the async serving facade in
    //     core/serving.h drives these; runRequest() is begin + step
    //     loop + finish) ---

    /**
     * Reset engine state and admit the problem's initial beams.
     * @param defer_prompt_prefill Leave the prompt unprefilled so a
     *        batch scheduler can feed it in chunks (prefillPending();
     *        stepBatch()'s PrefillChunk entries); false reproduces
     *        the legacy pay-the-whole-prompt-up-front behaviour
     *        bit-for-bit.
     */
    void beginRequest(const Problem &problem,
                      bool defer_prompt_prefill = false);

    /**
     * Advance the in-flight request by one TTS iteration (replan,
     * generation, verification, selection). A generation wave that
     * decodes nothing costs no time; run alone like this, a request
     * with nothing to yield to force-kills the beam that cannot fit
     * (forcedTerminations()), so the call always terminates.
     * @return true while further iterations remain; false once every
     *         beam completed (or the step hard cap was reached), after
     *         which finishRequest() collects the result.
     */
    [[nodiscard]] bool stepRequest();

    /**
     * Abandon any still-active beams and build the request's metrics.
     * Also serves as cancellation: callable after any number of
     * stepRequest() calls.
     */
    RequestResult finishRequest();

    /**
     * Abandon the mounted request WITHOUT publishing its prompt to
     * the prefix cache: beams are pruned, the prefix pin is dropped,
     * and no result is built. This is the abnormal-exit counterpart
     * of finishRequest() — cancellation, shedding and watchdog
     * timeouts must not advertise a prompt the request never finished
     * serving. KV trees stay mounted until releaseFinishedKv() or the
     * next beginRequest(), exactly like finishRequest().
     */
    void abortRequest();

    /**
     * Advance every request the plan names in one fused device wave
     * (continuous batching). Decode entries run one full TTS
     * iteration of their context; PrefillChunk entries prefill up to
     * `tokens` prompt tokens. The generation-side time of all decode
     * members is re-priced as ONE fused decode batch (sublinear in
     * the member count); verification and transfer stay serial, as do
     * prefill chunks. Per-member KV trees, beams, counters and RNG
     * streams are untouched by batch composition, so each member's
     * results are identical to a solo run.
     *
     * A decode member whose beams the shared ledger refuses while
     * other requests hold its bytes does not spin: its step ends
     * blocked on memory (BatchMemberOutcome::blocked), out of the
     * fused decode batch, and its next decode entry resumes the same
     * iteration once the caller has freed ledger bytes.
     *
     * The engine must be idle (no mounted in-flight request); the
     * contexts are borrowed for the call and returned untouched in
     * ownership terms. Plan entries whose member index is out of
     * range or whose context is null are skipped.
     */
    [[nodiscard]] BatchWaveResult
    stepBatch(const std::vector<RequestContext *> &contexts,
              const BatchPlan &plan);

    /** Prompt tokens of the mounted request still awaiting chunked
     *  prefill (0 unless beginRequest deferred the prompt). */
    [[nodiscard]] int prefillPending() const;

    /** Tokens the mounted request has decoded so far (cumulative). */
    [[nodiscard]] long generatedTokensSoFar() const;

    /** Expected decode tokens per step of this engine's dataset (the
     *  planning estimate batch schedulers budget with). */
    [[nodiscard]] double expectedStepTokens() const
    {
        return expectedStepTokens_;
    }

    // --- Multi-request contexts (preemption) ---

    /**
     * Unmount the live request context — beams, clocks, KV trees and
     * all — into a movable handle, leaving the engine idle with a
     * fresh empty context. The parked request's KV stays resident
     * (and keeps its shared-ledger charge) until evictKv() is called
     * on the handle or the handle is destroyed.
     */
    [[nodiscard]] SuspendedEngineRequest suspendRequest();

    /**
     * Mount a previously suspended context back on the engine; the
     * request continues exactly where stepRequest() left off (its
     * clock included). The engine must be idle (no in-flight request).
     * Invalid (moved-from) handles are ignored.
     */
    void resumeRequest(SuspendedEngineRequest suspended);

    /** Whether a request is mounted and unfinished (between
     *  beginRequest() and the end of its finishRequest()). */
    [[nodiscard]] bool hasActiveRequest() const;

    /**
     * Drop the idle engine context. After finishRequest() the last
     * request's KV trees stay mounted (and keep their shared-ledger
     * charge) until the next beginRequest()/resumeRequest() replaces
     * them; ServingSystem::stepBatch() calls this after every
     * completion, so a finished request never squats on the shared
     * budget. Also resets the context-backed accessors (clock(),
     * iterationStats(), ...). No-op while a request is mounted.
     */
    void releaseFinishedKv();

    /**
     * Attach a shared KV byte budget (kv/kv_session.h): the KV trees
     * of every subsequent request charge it, so concurrent contexts
     * on one device genuinely contend for memory. Affects requests
     * begun after the call; the ledger must outlive the engine.
     */
    void attachKvLedger(KvBudgetLedger *ledger) { ledger_ = ledger; }

    /**
     * Attach the global cross-request prefix cache
     * (kv/prefix_index.h). Requests begun afterwards look their
     * prompt up first and mount the longest cached prefix instead of
     * prefilling it (saved tokens land in KvStats::prefixHitTokens);
     * finishRequest() publishes the prompt back for later requests.
     * The index must outlive the engine and every suspended request
     * handle. Pass nullptr to detach.
     */
    void attachPrefixIndex(PrefixIndex *index) { prefixIndex_ = index; }

    /** The attached prefix cache (nullptr when disabled). */
    [[nodiscard]] PrefixIndex *prefixIndex() const { return prefixIndex_; }

    /** Combined generator+verifier KV footprint of one cached prompt
     *  token (bytes) — the per-token cost of a mounted prefix. */
    [[nodiscard]] double promptKvBytesPerToken() const;

    /** KV budget shared by the two models (bytes). */
    [[nodiscard]] double kvBudgetBytes() const { return kvBudget_; }

    /** Clock of the last run (utilization trace when recordTrace). */
    [[nodiscard]] const SimClock &clock() const;

    /** Allocation plan of the last iteration. */
    [[nodiscard]] const AllocationPlan &currentPlan() const;

    /** Per-iteration snapshots of the last run. */
    [[nodiscard]] const std::vector<IterationStats> &
    iterationStats() const;

    /** Generator-side KV cache (introspection for benches/tests). */
    [[nodiscard]] const KvCacheManager &generatorKv() const;

    /** Verifier-side KV cache. */
    [[nodiscard]] const KvCacheManager &verifierKv() const;

    /** Step-length histogram access: samples recorded per step index
     *  of the last run (for Fig. 3 right). */
    [[nodiscard]] const std::vector<std::vector<int>> &
    stepTokenSamples() const;

    /** Beams forcibly terminated because they could never fit. */
    [[nodiscard]] int forcedTerminations() const;

    /** Generation phases this engine cut at the hang guard
     *  (safety_cap), over its lifetime; 0 in a healthy simulation. */
    [[nodiscard]] int defensiveExits() const { return defensiveExits_; }

  private:
    struct ActiveBeam;
    struct SpecBranch;
    struct WavePlan;
    struct DecodeMember;
    struct MemberStep;

    // --- Request lifecycle ---
    void resetRequestState(const Problem &problem,
                           bool defer_prompt_prefill);
    bool stepIteration(bool may_yield);
    void replan();
    int prefillPromptChunk(int max_tokens);
    void startGenerationPhase();
    void runGenerationPhase(bool may_yield);
    /** Plan the next wave (see the file comment). `budget_tokens` is
     *  admission's KV capacity; a zero dt means the phase is over. */
    WavePlan planWave(double budget_tokens);
    /** Run the planned wave and charge it for the members that
     *  decoded. @return The standard beam refused last when no member
     *  decoded, else nullptr. */
    ActiveBeam *applyWave(const WavePlan &plan);
    /** Whether every decode-set member and running branch holds its
     *  decoded tokens in its node or as deferred tokens, and both
     *  running path sums match (checked after every wave under
     *  assert). */
    [[nodiscard]] bool deferredAppendsHold() const;
    void runVerificationPhase();
    void runSelectionPhase();

    // --- Generation helpers ---
    bool admitBeam(size_t idx);
    /** The node, decoded count and step length a member decodes:
     *  its beam's own step, or one of the beam's branches. */
    MemberStep stepOf(const DecodeMember &m) const;
    /** Decode-set or running-branch entry of active_[idx] (its
     *  `branch`, or its own step when negative), its node caught up
     *  at decode clock `clock`. */
    DecodeMember decodeMember(size_t idx, int branch, long clock) const;
    /** Bring the member's decoded count and KV node up to decode
     *  clock `clock`, stamping the deferred tokens `tick` (they need
     *  no block). */
    void catchUp(DecodeMember &m, long clock, uint64_t tick);
    /** Catch every member of `set` up to the current decode clock,
     *  stamped with the last wave's tick. */
    void catchUpAll(std::vector<DecodeMember> &set);
    void fillSpeculativeSlots();
    /** SelectSPEC's potentials and candidate order for this phase. */
    void rankSpeculation();
    void finishStandardBeam(size_t idx);
    void forceKill(ActiveBeam &beam);
    bool blockedOnLedger(const ActiveBeam &refused, int dt) const;
    void killAllSpeculation();
    void chargeRecompute(int tokens);

    // --- Bookkeeping ---
    /** A reset beam: a retired one when selection kept one, else new. */
    std::unique_ptr<ActiveBeam> newBeam();
    void completeBeam(ActiveBeam &beam, double score);
    void pruneBeam(ActiveBeam &beam);
    void releaseBranch(SpecBranch &branch);

    FastTtsConfig config_;
    ModelConfig models_;
    DeviceSpec device_;
    DatasetProfile dataset_;
    const SearchAlgorithm &algorithm_;

    RooflineModel roofline_;
    SyntheticGenerator generator_;
    SyntheticVerifier verifier_;
    SpeculativePolicy specPolicy_;
    std::unique_ptr<MemoryPlanner> planner_;
    std::unique_ptr<BeamScheduler> scheduler_;

    double kvBudget_ = 0;
    double expectedStepTokens_ = 0; //!< Cached mean step length.
    int defensiveExits_ = 0; //!< safety_cap exits, all requests.
    KvBudgetLedger *ledger_ = nullptr; //!< Shared KV budget (optional).
    PrefixIndex *prefixIndex_ = nullptr; //!< Cross-request prefix
                                         //!< cache (optional).

    // All per-request state lives here; exactly one context is
    // mounted at a time (suspendRequest/resumeRequest swap it).
    std::unique_ptr<RequestContext> ctx_;
};

/**
 * A request context unmounted from its engine by suspendRequest().
 *
 * Move-only owner of the parked request's entire engine state. The
 * request's KV trees keep their device blocks (and shared-ledger
 * charge) while parked; evictKv() drops them back to the pool, after
 * which the next resume rebuilds resident paths lazily, charged as
 * recompute. Destroying the handle abandons the request and frees
 * everything.
 */
class SuspendedEngineRequest
{
  public:
    SuspendedEngineRequest();
    ~SuspendedEngineRequest();
    SuspendedEngineRequest(SuspendedEngineRequest &&) noexcept;
    SuspendedEngineRequest &operator=(SuspendedEngineRequest &&) noexcept;

    /** Whether this handle holds a parked request. */
    [[nodiscard]] bool valid() const { return ctx_ != nullptr; }

    /** Device bytes the parked request's KV trees still hold. */
    [[nodiscard]] double residentKvBytes() const;

    /** Prompt tokens still awaiting chunked prefill (0 when the
     *  request began with an up-front prompt prefill). */
    [[nodiscard]] int promptTokensPending() const;

    /** Beams still active in the parked request (batch schedulers
     *  budget decode waves with this). */
    [[nodiscard]] int activeBeams() const;

    /** PrefixIndex node the request mounted at beginRequest (0 when
     *  no prefix matched or the cache is off) — requests with equal
     *  nonzero keys share resident prefix KV, which the batch
     *  scheduler uses as a co-scheduling affinity tiebreak. */
    [[nodiscard]] uint64_t prefixKey() const;

    /**
     * Borrow the parked context for FastTtsEngine::stepBatch().
     * Ownership stays with the handle; the pointer is valid until the
     * handle is moved-from, reset or destroyed. Null when !valid().
     */
    [[nodiscard]] FastTtsEngine::RequestContext *context() const
    {
        return ctx_.get();
    }

    /**
     * Force-evict the parked request's KV state
     * (KvCacheManager::forceEvictAll on both trees): every block
     * returns to the allocator and shared ledger; the request's beams
     * keep logical references and recompute their paths — counted in
     * KvStats — when next run. A request part-way through its chunked
     * prompt prefill stops chunking: its first decode touch
     * re-prefills the whole prompt once.
     * @return Tokens whose KV was dropped.
     */
    long evictKv();

  private:
    friend class FastTtsEngine;
    std::unique_ptr<FastTtsEngine::RequestContext> ctx_;
};

} // namespace fasttts

#endif // FASTTTS_CORE_ENGINE_H
