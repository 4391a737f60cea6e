#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "kv/kv_session.h"
#include "kv/prefix_index.h"

namespace fasttts
{

/** One speculative child branch being extended (Sec. 4.1). */
struct FastTtsEngine::SpecBranch
{
    int childIdx = 0;    //!< Which child slot this branch speculates.
    int node = -1;       //!< Generator KV node holding its tokens.
    uint64_t segId = 0;  //!< Segment id of that node.
    int verNode = -1;    //!< Verifier KV node (LookAhead only).
    int decoded = 0;     //!< Tokens generated so far.
    int target = 0;      //!< Full step length (from the child's draw).
    bool complete = false;
    bool scored = false; //!< LookAhead-verified.
    double score = 0;    //!< Verifier score when scored.
    bool retained = false; //!< Holds a KV retention on `node`.
    StepDraw draw;       //!< The child step's content.
};

/** Engine-internal beam state. */
struct FastTtsEngine::ActiveBeam
{
    uint64_t id = 0;
    uint64_t seed = 0;     //!< Lineage stream seed.
    int rootIndex = 0;
    int steps = 0;         //!< Completed verified steps.
    double quality = 0;    //!< After last verified step.
    double score = 0.5;    //!< Last verified step's PRM score.
    double prevScore = 0.5;
    long totalTokens = 0;  //!< Verified tokens in the whole path.
    int prevPos = 0;       //!< Schedule position carry-over.
    double spawnTime = 0;

    int leaf = -1;     //!< Generator KV node of last verified segment.
    int verLeaf = -1;  //!< Verifier KV node of last verified segment.

    // --- Current-step state ---
    bool stepPrepared = false;
    StepDraw draw;
    int targetTokens = 0;
    int decoded = 0;
    int curSeg = -1;       //!< Generator KV node of the in-flight step.
    uint64_t curSegId = 0; //!< Segment id (mirrored in verifier tree).
    int headStart = 0;     //!< Tokens inherited from kept speculation.
    bool pinned = false;   //!< Holds a retention on curSeg.
    bool inDecode = false;
    bool finishedGen = false;
    bool forceKilled = false;

    // --- LookAhead-verified step (child adopted a scored branch) ---
    bool pendingStepDone = false;
    double pendingScore = 0;
    int pendingVerSeg = -1;

    // --- Verification scratch ---
    double newScore = 0;
    int newVerSeg = -1;

    // --- Speculation ---
    std::vector<SpecBranch> branches;
    int branchesStarted = 0;
};

/** One generation wave as planWave() leaves it for applyWave(). */
struct FastTtsEngine::WavePlan
{
    int dt = 0;        //!< Tokens each member decodes; 0: no wave.
    uint64_t tick = 0; //!< LRU stamp of the appends: the planned end.
};

/**
 * A decoding standard beam or running speculative branch. An append
 * that crosses no block boundary needs no block, so it cannot fail,
 * reclaim, charge the ledger or draw a fault; it only moves the
 * node's token count and LRU stamp, which nothing reads while the
 * node is a pinned, childless leaf. So a member appends only when its
 * step ends or its next block fills, and its node then catches up in
 * one append. The counters are stamps on the phase's decode clock
 * (RequestContext::decodeClock_), so a wave that is no event for a
 * member does not write it: at clock c the member has end - c tokens
 * left in its step and c - synced tokens decoded but not yet
 * appended.
 */
struct FastTtsEngine::DecodeMember
{
    size_t idx = 0;  //!< Index into active_.
    int branch = -1; //!< Index into its branches; -1: its own step.
    long end = 0;    //!< Decode clock at which its step ends.
    long next = 0;   //!< Decode clock at which it must append: its
                     //!< step ends or its next block fills.
    long synced = 0; //!< Decode clock its node was last appended at.
};

/** What a decode member decodes into (see stepOf()). */
struct FastTtsEngine::MemberStep
{
    int node = -1;          //!< Generator KV node of its tokens.
    int *decoded = nullptr; //!< Its decoded count, current at events.
    int target = 0;         //!< Its step length.
};

/**
 * Everything that belongs to one in-flight request: mounted on the
 * engine between beginRequest() and finishRequest(), or parked inside
 * a SuspendedEngineRequest. Field names keep the engine-member style
 * (trailing underscore) because the engine code reads them through
 * ctx_->.
 */
struct FastTtsEngine::RequestContext
{
    Problem problem_;
    SimClock clock_;
    AllocationPlan plan_;
    Rng systemRng_{0};
    std::vector<std::unique_ptr<ActiveBeam>> active_;
    std::vector<CompletedSolution> completed_;
    std::vector<IterationStats> iterStats_;
    std::vector<std::vector<int>> stepTokens_;
    std::unique_ptr<KvCacheManager> kvGen_;
    std::unique_ptr<KvCacheManager> kvVer_;
    uint64_t nextBeamId_ = 1;
    uint64_t nextSegId_ = 1;
    int iteration_ = 0;
    int forcedTerminations_ = 0;
    int defensiveExits_ = 0; //!< safety_cap exits of this request.
    int promptNodeGen_ = -1;
    int promptNodeVer_ = -1;
    int promptRemaining_ = 0; //!< Prompt tokens awaiting chunked
                              //!< prefill (deferred-prompt mode).
    int promptChunkTotal_ = 0; //!< Initial chunked-prefill volume
                               //!< (prompt minus mounted prefix); the
                               //!< first chunk starts from it. Evicting
                               //!< the prompt mid-stream ends chunking
                               //!< (evictKv).
    bool inRequest_ = false; //!< Between beginRequest and finish.

    // --- Cross-request prefix cache (kv/prefix_index.h) ---
    PrefixIndex *prefixIndex_ = nullptr; //!< Global index (borrowed).
    PrefixIndex::NodeId prefixNode_ = PrefixIndex::kInvalid;
    int prefixHitTokens_ = 0;        //!< Prompt tokens mounted, not
                                     //!< prefilled (saved recompute).
    std::vector<int32_t> promptIds_; //!< Resolved prompt identities.

    /** Drop the pin acquired at beginRequest; idempotent, so both
     *  finishRequest and abandonment (handle destruction) are safe. */
    void
    releasePrefixPin()
    {
        if (prefixIndex_ != nullptr
            && prefixNode_ != PrefixIndex::kInvalid) {
            prefixIndex_->release(prefixNode_);
            prefixNode_ = PrefixIndex::kInvalid;
        }
    }

    RequestContext() = default;
    ~RequestContext() { releasePrefixPin(); }
    RequestContext(const RequestContext &) = delete;
    RequestContext &operator=(const RequestContext &) = delete;

    // Accumulated request metrics.
    long generatedTokens_ = 0;
    long speculativeTokens_ = 0;
    long wastedSpecTokens_ = 0;

    // Generation-phase state (valid within one iteration). It lives
    // here rather than in runGenerationPhase() so that a phase that
    // yields blocked on memory resumes exactly where it stopped.
    std::vector<size_t> queue_;
    size_t queueHead_ = 0;      //!< Next queue_ entry to admit.
    double pinnedTokens_ = 0;   //!< Admission's pinned working-set
                                //!< estimate (tokens).
    bool specDisabled_ = false; //!< Memory pressure stopped
                                //!< speculation for this iteration.
    bool genBlocked_ = false;   //!< The phase yielded blocked on
                                //!< memory; the next step resumes it
                                //!< without replan().
    std::vector<DecodeMember> decodeSet_;
    long decodeClock_ = 0; //!< Sum of the phase's wave dt: every
                           //!< decode-set member decodes dt per wave.
    uint64_t lastTick_ = 0; //!< LRU tick of the last wave: the stamp
                            //!< of deferred tokens that land late.
    long decodePath_ = 0; //!< Path tokens of the decode-set members,
                          //!< deferred tokens included.
    // Running speculative branches, kept sorted in (beam, branch)
    // order and maintained incrementally (added at creation, dropped
    // at their events, cleared on kill) so the event loop never
    // rescans all beams x branches.
    std::vector<DecodeMember> specRunning_;
    long specPath_ = 0; //!< Path tokens of the running branches,
                        //!< deferred tokens included.
    // SelectSPEC's ranking, which depends only on the previous step's
    // scores: made once per phase, at its first speculative fill.
    bool specRanked_ = false;
    std::vector<double> specScores_; //!< active_ scores (bin edges).
    std::vector<int> specPotential_; //!< Per active_ beam.
    std::vector<size_t> specOrder_;  //!< active_ indices, best first.
    // Beams selection retired, at most a search width, for newBeam().
    std::vector<std::unique_ptr<ActiveBeam>> spareBeams_;
    double meanVerifierSeq_ = 0;  //!< Mean incremental request length.
    double meanVerifierPath_ = 0; //!< Mean full-path length (planning).
    bool specAllowed_ = true;      //!< Memory allows speculation.
    bool lookaheadAllowed_ = true; //!< Verifier cache under pressure.
    std::vector<int> visitMark_; //!< Per generator KV node: 1 + the
                                 //!< last iteration whose unique-token
                                 //!< walk reached it.
};

namespace
{

/** Expected step length of a log-normal profile, for planning. */
double
meanProfileStepTokens(const DatasetProfile &p)
{
    const double mean =
        std::exp(p.stepLenMu + 0.5 * p.stepLenSigma * p.stepLenSigma);
    return std::clamp(mean, static_cast<double>(p.minStepTokens),
                      static_cast<double>(p.maxStepTokens));
}

/**
 * Deterministic prompt token identities for problems that carry none
 * (Problem::promptIds empty): a splitmix64 stream keyed by the
 * problem seed. Repeat servings of the same problem therefore share
 * their full prompt in the PrefixIndex, while distinct seeds diverge
 * at the first token.
 */
std::vector<int32_t>
synthesizedPromptIds(const Problem &problem)
{
    std::vector<int32_t> ids;
    ids.reserve(static_cast<size_t>(std::max(0, problem.promptTokens)));
    uint64_t state = problem.seed ^ 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < problem.promptTokens; ++i) {
        state += 0x9E3779B97F4A7C15ull;
        uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        z ^= z >> 31;
        ids.push_back(static_cast<int32_t>(z & 0x7FFFFFFFu));
    }
    return ids;
}

} // namespace

FastTtsEngine::FastTtsEngine(const FastTtsConfig &config,
                             const ModelConfig &models,
                             const DeviceSpec &device,
                             const DatasetProfile &dataset,
                             const SearchAlgorithm &algorithm)
    : config_(config), models_(models), device_(device), dataset_(dataset),
      algorithm_(algorithm), roofline_(device),
      generator_(models.generator, dataset),
      verifier_(models.verifier),
      specPolicy_(algorithm.branchFactor(), config.truncationRatio)
{
    if (config_.asymmetricAllocation) {
        planner_ = config_.offloadEnabled
            ? makeOffloadPlanner(models_.generator, models_.verifier,
                                 roofline_)
            : makeRooflinePlanner(models_.generator, models_.verifier,
                                  roofline_);
    } else {
        planner_ = makeStaticPlanner(models_.generator, models_.verifier,
                                     roofline_);
    }
    scheduler_ = config_.prefixAwareScheduling
        ? makePrefixAwareScheduler()
        : makeScheduler(config_.baselineScheduler);
    // The dataset profile is fixed for the engine's lifetime; the
    // admission loop asks for this every queue pop, so pay the exp()
    // once.
    expectedStepTokens_ = meanProfileStepTokens(dataset_);

    const double usable = device_.usableBytes() * models_.memoryFraction;
    const double weights = models_.generator.weightBytes()
        + models_.verifier.weightBytes();
    kvBudget_ = std::max(64.0 * MiB,
                         usable - weights - config_.reservedBytes);
    ctx_ = std::make_unique<RequestContext>();
}

FastTtsEngine::~FastTtsEngine() = default;

double
FastTtsEngine::promptKvBytesPerToken() const
{
    // A mounted prompt prefix is root tokens of BOTH trees, so one
    // cached token costs the generator's and the verifier's KV.
    return models_.generator.kvBytesPerToken()
        + models_.verifier.kvBytesPerToken();
}

void
FastTtsEngine::resetRequestState(const Problem &problem,
                                 bool defer_prompt_prefill)
{
    ctx_->problem_ = problem;
    ctx_->clock_ = SimClock();
    ctx_->clock_.setTraceEnabled(config_.recordTrace);
    ctx_->systemRng_ = Rng(config_.systemSeed ^ problem.seed);
    ctx_->active_.clear();
    ctx_->completed_.clear();
    ctx_->iterStats_.clear();
    ctx_->queue_.clear();
    ctx_->genBlocked_ = false;
    ctx_->decodeSet_.clear();
    ctx_->decodeClock_ = 0;
    ctx_->decodePath_ = 0;
    ctx_->specRunning_.clear();
    ctx_->specPath_ = 0;
    ctx_->visitMark_.clear();
    ctx_->stepTokens_.assign(static_cast<size_t>(dataset_.maxSteps) + 1, {});
    ctx_->nextBeamId_ = 1;
    ctx_->nextSegId_ = 1;
    ctx_->iteration_ = 0;
    ctx_->forcedTerminations_ = 0;
    ctx_->defensiveExits_ = 0;
    ctx_->generatedTokens_ = 0;
    ctx_->speculativeTokens_ = 0;
    ctx_->wastedSpecTokens_ = 0;
    ctx_->meanVerifierSeq_ = 0;
    ctx_->meanVerifierPath_ = 0;

    // Fresh KV managers; the plan resizes their budgets each iteration.
    ctx_->kvGen_ = std::make_unique<KvCacheManager>(
        kvBudget_ * 0.5, models_.generator.kvBytesPerToken(),
        config_.blockTokens);
    ctx_->kvVer_ = std::make_unique<KvCacheManager>(
        kvBudget_ * 0.5, models_.verifier.kvBytesPerToken(),
        config_.blockTokens);
    if (ledger_ != nullptr) {
        ctx_->kvGen_->attachLedger(ledger_);
        ctx_->kvVer_->attachLedger(ledger_);
    }

    // Cross-request prefix cache: mount the longest cached prefix of
    // the prompt as root tokens of both trees (the blocks live in the
    // PrefixIndex and stay pinned until finishRequest), so only the
    // unmatched suffix is prefilled.
    ctx_->releasePrefixPin(); // Reused context: drop any stale pin.
    ctx_->prefixIndex_ = prefixIndex_;
    ctx_->prefixHitTokens_ = 0;
    ctx_->promptIds_.clear();
    int prompt_suffix = problem.promptTokens;
    if (prefixIndex_ != nullptr) {
        ctx_->promptIds_ = problem.promptIds.empty()
            ? synthesizedPromptIds(problem)
            : problem.promptIds;
        const PrefixIndex::Match match =
            prefixIndex_->acquire(ctx_->promptIds_);
        ctx_->prefixNode_ = match.node;
        const int mounted =
            std::min(match.matchedTokens, problem.promptTokens);
        ctx_->prefixHitTokens_ = mounted;
        prompt_suffix = problem.promptTokens - mounted;
        ctx_->kvGen_->setRootTokens(mounted);
        ctx_->kvVer_->setRootTokens(mounted);
    }

    // Shared question prompt: prefilled once by the generator; the
    // verifier materialises it lazily at first verification. With a
    // mounted prefix the node holds only the unmatched suffix (and
    // may be empty).
    ctx_->promptNodeGen_ = ctx_->kvGen_->createChild(KvCacheManager::kRoot,
                                         ctx_->nextSegId_, prompt_suffix);
    ctx_->promptNodeVer_ = ctx_->kvVer_->createChild(KvCacheManager::kRoot,
                                         ctx_->nextSegId_, prompt_suffix);
    ++ctx_->nextSegId_;
    ctx_->kvGen_->retain(ctx_->promptNodeGen_);
    ctx_->kvVer_->retain(ctx_->promptNodeVer_);
    ctx_->promptRemaining_ = 0;
    ctx_->promptChunkTotal_ = 0;
    if (defer_prompt_prefill) {
        // Continuous batching: the batch scheduler feeds the prompt
        // in chunks (prefillPromptChunk) from each wave's leftover
        // token budget, so a long prompt never stalls co-resident
        // decoders; the request must not decode until the chunks
        // finish (prefillPending() reaches 0).
        ctx_->promptRemaining_ = prompt_suffix;
        ctx_->promptChunkTotal_ = prompt_suffix;
    } else if (prompt_suffix > 0 || prefixIndex_ == nullptr) {
        // When the shared ledger is exhausted by other in-flight
        // requests the prompt KV cannot be stored yet; charging the
        // prefill now AND the inevitable recompute at first touch
        // would double-count it, so the prefill is deferred to that
        // touch instead.
        const auto prompt_touch =
            ctx_->kvGen_->ensureResident(ctx_->promptNodeGen_, 0);
        if (prompt_touch.ok) {
            ctx_->clock_.advance(
                roofline_.prefillTime(models_.generator, 1,
                                      prompt_suffix),
                Phase::Recompute,
                roofline_.prefillComputeUtil(models_.generator, 1,
                                             prompt_suffix),
                1, 1);
        }
    }

    const int n = algorithm_.beamWidth();
    const int branch = std::max(1, algorithm_.branchFactor());
    ctx_->active_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        std::unique_ptr<ActiveBeam> beam = newBeam();
        beam->id = ctx_->nextBeamId_++;
        beam->seed = rootLineageSeed(problem, i);
        beam->rootIndex = i / branch;
        beam->quality = rootQuality(generator_, problem, i);
        beam->leaf = ctx_->promptNodeGen_;
        beam->verLeaf = ctx_->promptNodeVer_;
        beam->prevPos = i;
        beam->spawnTime = ctx_->clock_.now();
        ctx_->active_.push_back(std::move(beam));
    }
}

void
FastTtsEngine::replan()
{
    WorkloadShape shape;
    // Plan for the full search width n, not the momentarily active
    // count: the speculative phase keeps the execution batch full
    // (Sec. 4.1.2), so capacity must not shrink as paths complete.
    shape.numRequests = algorithm_.beamWidth();
    const int cap = algorithm_.stepTokenCap(ctx_->iteration_);
    shape.decodeLen =
        std::min(expectedStepTokens_, static_cast<double>(cap));
    // The verifier's KV working set is the *full* reasoning path (a
    // discriminative PRM scores the whole path), not the incremental
    // request; plan memory for it.
    shape.verifierSeqLen = ctx_->meanVerifierPath_ > 0
        ? ctx_->meanVerifierPath_
        : ctx_->problem_.promptTokens + (ctx_->iteration_ + 1) * shape.decodeLen;
    shape.verifierReqLen =
        ctx_->meanVerifierSeq_ > 0 ? ctx_->meanVerifierSeq_ : shape.decodeLen;
    double ctx_total = 0;
    for (const auto &b : ctx_->active_)
        ctx_total += ctx_->kvGen_->pathTokens(b->leaf);
    shape.avgCacheLen = shape.decodeLen / 2
        + (ctx_->active_.empty() ? ctx_->problem_.promptTokens
                           : ctx_total / static_cast<double>(
                                 ctx_->active_.size()));
    ctx_->plan_ = planner_->plan(shape, kvBudget_);
    ctx_->kvGen_->setBudgetBytes(ctx_->plan_.generatorKvBytes);
    ctx_->kvVer_->setBudgetBytes(ctx_->plan_.verifierKvBytes);

    // Speculation pays only when memory is not the bottleneck
    // (Sec. 6.5.1): with the working set oversubscribed, speculative
    // KV would displace cache the standard beams still need.
    const double pool_tokens =
        ctx_->plan_.generatorKvBytes / models_.generator.kvBytesPerToken();
    const double working_set =
        shape.numRequests * (shape.avgCacheLen + shape.decodeLen / 2);
    ctx_->specAllowed_ = working_set <= 0.8 * pool_tokens;

    // LookAhead Verification pays when the verifier cache cannot hold
    // the beams' paths between iterations (pre-verifying avoids the
    // full-path re-prefill, Sec. 4.1.3); when the cache comfortably
    // retains prefixes, pre-verifying soon-pruned beams is pure waste.
    const double ver_pool_tokens =
        ctx_->plan_.verifierKvBytes / models_.verifier.kvBytesPerToken();
    const double ver_working_set =
        shape.numRequests * shape.verifierSeqLen;
    ctx_->lookaheadAllowed_ = ver_working_set > ver_pool_tokens;
}

void
FastTtsEngine::chargeRecompute(int tokens)
{
    if (tokens <= 0)
        return;
    // Re-prefill of evicted prefixes piggybacks on the running decode
    // batch (chunked prefill): marginal compute + KV writes only.
    ctx_->clock_.advance(
        roofline_.chunkedRecomputeTime(models_.generator, tokens),
        Phase::Recompute, 0.6, 1, 1);
}

bool
FastTtsEngine::admitBeam(size_t idx)
{
    ActiveBeam &b = *ctx_->active_[idx];
    if (!b.stepPrepared) {
        b.draw = drawStep(generator_, ctx_->problem_, b.seed, b.steps, b.quality,
                          algorithm_.stepTokenCap(b.steps));
        b.targetTokens = b.draw.tokens;
        b.decoded = 0;
        b.stepPrepared = true;
    }
    if (b.curSeg < 0) {
        b.curSegId = ctx_->nextSegId_++;
        b.curSeg = ctx_->kvGen_->createChild(b.leaf, b.curSegId, 0);
    }
    auto touch = ctx_->kvGen_->ensureResident(
        b.curSeg, static_cast<uint64_t>(ctx_->clock_.now() * 1e6));
    if (!touch.ok)
        return false;
    chargeRecompute(touch.recomputeTokens);
    ctx_->kvGen_->retain(b.curSeg);
    b.pinned = true;
    if (b.pendingStepDone || b.decoded >= b.targetTokens) {
        // Step already materialised (kept speculation); nothing to
        // decode — straight to the finished set.
        b.finishedGen = true;
        b.pinned = false;
        ctx_->kvGen_->release(b.curSeg);
        ctx_->stepTokens_[static_cast<size_t>(
                        std::min(b.steps, dataset_.maxSteps))]
            .push_back(b.targetTokens);
    } else {
        b.inDecode = true;
        ctx_->decodeSet_.push_back(decodeMember(idx, -1, ctx_->decodeClock_));
        ctx_->decodePath_ += ctx_->kvGen_->pathTokens(b.curSeg);
    }
    return true;
}

FastTtsEngine::MemberStep
FastTtsEngine::stepOf(const DecodeMember &m) const
{
    ActiveBeam &b = *ctx_->active_[m.idx];
    if (m.branch < 0)
        return {b.curSeg, &b.decoded, b.targetTokens};
    SpecBranch &br = b.branches[static_cast<size_t>(m.branch)];
    return {br.node, &br.decoded, br.target};
}

FastTtsEngine::DecodeMember
FastTtsEngine::decodeMember(size_t idx, int branch, long clock) const
{
    DecodeMember m;
    m.idx = idx;
    m.branch = branch;
    const MemberStep step = stepOf(m);
    const KvCacheManager &kv = *ctx_->kvGen_;
    const int tokens = kv.nodeTokens(step.node);
    const int room =
        static_cast<int>(kv.blocksFor(tokens)) * kv.blockTokens() - tokens;
    m.end = clock + step.target - *step.decoded;
    m.next = std::min(m.end, clock + room + 1);
    m.synced = clock;
    return m;
}

void
FastTtsEngine::catchUp(DecodeMember &m, long clock, uint64_t tick)
{
    const MemberStep step = stepOf(m);
    *step.decoded = step.target - static_cast<int>(m.end - clock);
    const int lag = static_cast<int>(clock - m.synced);
    m.synced = clock;
    if (lag == 0)
        return;
    KvCacheManager &kv = *ctx_->kvGen_;
    const int tokens = kv.nodeTokens(step.node);
    assert(kv.blocksFor(tokens + lag) == kv.blocksFor(tokens));
    const bool appended = kv.appendTokens(step.node, lag, tick);
    assert(appended);
    (void)tokens;
    (void)appended;
}

void
FastTtsEngine::catchUpAll(std::vector<DecodeMember> &set)
{
    for (DecodeMember &m : set)
        catchUp(m, ctx_->decodeClock_, ctx_->lastTick_);
}

bool
FastTtsEngine::deferredAppendsHold() const
{
    const KvCacheManager &kv = *ctx_->kvGen_;
    const long clock = ctx_->decodeClock_;
    const auto holds = [&](const std::vector<DecodeMember> &set,
                           long path_sum) {
        long path = 0;
        for (const DecodeMember &m : set) {
            const MemberStep step = stepOf(m);
            const long deferred = clock - m.synced;
            if (kv.nodeTokens(step.node) + deferred
                != step.target - (m.end - clock))
                return false;
            path += kv.pathTokens(step.node) + deferred;
        }
        return path == path_sum;
    };
    return holds(ctx_->decodeSet_, ctx_->decodePath_)
        && holds(ctx_->specRunning_, ctx_->specPath_);
}

void
FastTtsEngine::finishStandardBeam(size_t idx)
{
    ActiveBeam &b = *ctx_->active_[idx];
    b.inDecode = false;
    b.finishedGen = true;
    if (b.pinned) {
        ctx_->kvGen_->release(b.curSeg);
        b.pinned = false;
    }
    ctx_->stepTokens_[static_cast<size_t>(std::min(b.steps, dataset_.maxSteps))]
        .push_back(b.targetTokens);
}

void
FastTtsEngine::forceKill(ActiveBeam &beam)
{
    // Terminated unverified; selection completes it with a weak score.
    beam.forceKilled = true;
    beam.finishedGen = true;
    ++ctx_->forcedTerminations_;
}

bool
FastTtsEngine::blockedOnLedger(const ActiveBeam &refused, int dt) const
{
    // Blocked on memory: the request's own pool had the blocks the
    // refused append needed, so the shared ledger refused it, and
    // other requests hold ledger bytes the serving layer can free.
    // The prefix cache's bytes are no such holder.
    const KvCacheManager &gen = *ctx_->kvGen_;
    const KvBudgetLedger *ledger = gen.ledger();
    if (ledger == nullptr)
        return false;
    const int tokens = gen.nodeTokens(refused.curSeg);
    const size_t need = gen.blocksFor(tokens + dt) - gen.blocksFor(tokens);
    if (gen.allocator().free() < need)
        return false;
    double others =
        ledger->usedBytes() - gen.residentBytes() - ctx_->kvVer_->residentBytes();
    if (ctx_->prefixIndex_ != nullptr
        && ctx_->prefixIndex_->ledger() == ledger)
        others -= ctx_->prefixIndex_->residentBytes();
    return others > 0.5;
}

void
FastTtsEngine::releaseBranch(SpecBranch &branch)
{
    if (branch.retained && branch.node >= 0) {
        ctx_->kvGen_->release(branch.node);
        branch.retained = false;
    }
    ctx_->wastedSpecTokens_ += branch.decoded;
    branch.decoded = 0;
    branch.complete = false;
    branch.node = -1;
}

void
FastTtsEngine::killAllSpeculation()
{
    // Speculation stays off for the rest of the iteration. Branches
    // are only *marked* dead (node = -1), never erased from their
    // beam. Only the tracked running set needs visiting: completed
    // branches stay alive for selection. A killed branch's deferred
    // tokens land first, so they count as wasted.
    catchUpAll(ctx_->specRunning_);
    for (const DecodeMember &m : ctx_->specRunning_)
        releaseBranch(ctx_->active_[m.idx]->branches[static_cast<size_t>(
            m.branch)]);
    ctx_->specRunning_.clear();
    ctx_->specPath_ = 0;
    ctx_->specDisabled_ = true;
}

void
FastTtsEngine::rankSpeculation()
{
    // Score bins over the active beams' previous-step scores: one
    // O(n) edge scan, then every potential query is O(1). Scores
    // change only at selection, so the potentials and the order hold
    // for the whole phase.
    RequestContext &c = *ctx_;
    const size_t n = c.active_.size();
    c.specScores_.clear();
    for (const auto &b : c.active_)
        c.specScores_.push_back(b->score);
    const SpeculativePolicy::ScoreBins bins =
        specPolicy_.scoreBins(c.specScores_);
    c.specPotential_.resize(n);
    for (size_t i = 0; i < n; ++i)
        c.specPotential_[i] =
            specPolicy_.binnedPotential(c.active_[i]->score, bins);
    // Highest speculative potential first, then score, then beam id.
    c.specOrder_.resize(n);
    std::iota(c.specOrder_.begin(), c.specOrder_.end(), size_t{0});
    std::sort(c.specOrder_.begin(), c.specOrder_.end(),
              [&](size_t a, size_t d) {
                  if (c.specPotential_[a] != c.specPotential_[d])
                      return c.specPotential_[a] > c.specPotential_[d];
                  if (c.active_[a]->score != c.active_[d]->score)
                      return c.active_[a]->score > c.active_[d]->score;
                  return c.active_[a]->id < c.active_[d]->id;
              });
    c.specRanked_ = true;
}

void
FastTtsEngine::fillSpeculativeSlots()
{
    const int capacity = std::max(1, ctx_->plan_.decodeBatch);
    const int running = static_cast<int>(ctx_->specRunning_.size());
    int free_slots =
        capacity - static_cast<int>(ctx_->decodeSet_.size()) - running;
    if (free_slots <= 0)
        return;

    // Memory-headroom gate: speculation must never evict cache the
    // standard beams still need. Only speculate when the generator
    // pool has slack for a typical child step.
    const size_t slack_blocks = ctx_->kvGen_->blocksFor(
        static_cast<int>(expectedStepTokens_) * 4);
    if (ctx_->kvGen_->freeBlocks() < slack_blocks)
        return;

    // planWave() calls this every wave, so the ranking is made once
    // per phase and the candidate filters below run lazily, in rank
    // order. That is exact: a new branch is a 0-token child of a fully
    // resident path, so it needs no block and cannot change another
    // candidate's residency, and the same touches run in the same
    // order.
    if (!ctx_->specRanked_)
        rankSpeculation();
    for (size_t idx : ctx_->specOrder_) {
        if (free_slots == 0)
            break;
        ActiveBeam &b = *ctx_->active_[idx];
        const int potential = ctx_->specPotential_[idx];
        // Candidates: finished, non-terminal beams with branch
        // capacity left.
        if (b.branchesStarted >= potential || !b.finishedGen
            || b.forceKilled || b.draw.terminal
            || b.steps + 1 >= dataset_.maxSteps) {
            continue;
        }
        // Speculating from an evicted path would force a recompute
        // prefill — never worth it for speculative work.
        if (b.curSeg < 0
            || ctx_->kvGen_->residentPrefixTokens(b.curSeg)
                != ctx_->kvGen_->pathTokens(b.curSeg)) {
            continue;
        }
        if (b.branches.empty())
            b.branches.reserve(static_cast<size_t>(potential));
        while (b.branchesStarted < potential && free_slots > 0) {
            const int j = b.branchesStarted;
            SpecBranch br;
            br.childIdx = j;
            const uint64_t child_seed =
                childLineageSeed(b.seed, b.steps + 1, j);
            br.draw = drawStep(generator_, ctx_->problem_, child_seed,
                               b.steps + 1, b.draw.quality,
                               algorithm_.stepTokenCap(b.steps + 1));
            br.target = br.draw.tokens;
            br.segId = ctx_->nextSegId_++;
            br.node = ctx_->kvGen_->createChild(b.curSeg, br.segId, 0);
            auto touch = ctx_->kvGen_->ensureResident(
                br.node, static_cast<uint64_t>(ctx_->clock_.now() * 1e6));
            if (!touch.ok) {
                free_slots = 0; // Memory too tight to speculate at all.
                break;
            }
            chargeRecompute(touch.recomputeTokens);
            ctx_->kvGen_->retain(br.node);
            br.retained = true;
            b.branches.push_back(br);
            const int branch = static_cast<int>(b.branches.size()) - 1;
            ctx_->specRunning_.push_back(
                decodeMember(idx, branch, ctx_->decodeClock_));
            ctx_->specPath_ += ctx_->kvGen_->pathTokens(br.node);
            ++b.branchesStarted;
            --free_slots;
        }
    }
    // Keep the running set in (beam, branch) order: the event loop
    // applies tokens in this order, and allocation-failure behaviour
    // under memory pressure must match the original full rescan.
    std::sort(ctx_->specRunning_.begin(), ctx_->specRunning_.end(),
              [](const DecodeMember &a, const DecodeMember &d) {
                  return a.idx != d.idx ? a.idx < d.idx
                                        : a.branch < d.branch;
              });
}

void
FastTtsEngine::startGenerationPhase()
{
    if (ctx_->plan_.offloadActive && ctx_->plan_.offloadOverhead > 0)
        ctx_->clock_.advance(ctx_->plan_.offloadOverhead * 0.5, Phase::Transfer);

    // --- Scheduling (Sec. 4.2) ---
    std::vector<SchedEntry> entries;
    for (size_t i = 0; i < ctx_->active_.size(); ++i) {
        const ActiveBeam &b = *ctx_->active_[i];
        SchedEntry e;
        e.index = i;
        e.beamId = b.id;
        e.parentBeam = b.prevPos >= 0 ? static_cast<uint64_t>(b.prevPos)
                                      : b.id;
        e.leaf = b.leaf;
        e.pathTokens = ctx_->kvGen_->pathTokens(b.leaf);
        e.prevPosition = b.prevPos;
        entries.push_back(e);
    }
    scheduler_->order(entries, *ctx_->kvGen_, ctx_->systemRng_);
    ctx_->queue_.clear();
    for (size_t pos = 0; pos < entries.size(); ++pos) {
        ctx_->active_[entries[pos].index]->prevPos = static_cast<int>(pos);
        ctx_->queue_.push_back(entries[pos].index);
    }
    ctx_->decodeSet_.clear();
    ctx_->decodeClock_ = 0;
    ctx_->lastTick_ = 0;
    ctx_->decodePath_ = 0;
    // Branches of the previous iteration were caught up at its end
    // and released by selection.
    ctx_->specRunning_.clear();
    ctx_->specPath_ = 0;
    ctx_->specRanked_ = false;
    ctx_->queueHead_ = 0;
    ctx_->pinnedTokens_ = 0;
    ctx_->specDisabled_ = false;
}

void
FastTtsEngine::runGenerationPhase(bool may_yield)
{
    // A phase that yielded blocked on memory resumes where it stopped:
    // its queue, queue head, pinned estimate and speculation flag are
    // still in the context, and its set-up was already paid for.
    if (!ctx_->genBlocked_)
        startGenerationPhase();
    ctx_->genBlocked_ = false;

    // Admission's capacity (tokens) is what this request can actually
    // obtain: the local pool capped by the shared ledger's remaining
    // headroom (equal to the local total whenever no ledger binds), so
    // admission waits under cross-request memory pressure instead of
    // admitting beams the ledger will immediately refuse.
    const double budget_tokens =
        static_cast<double>(ctx_->kvGen_->allocator().used()
                            + ctx_->kvGen_->freeBlocks())
        * config_.blockTokens;
    const int safety_cap =
        static_cast<int>(ctx_->active_.size()) * 4096 + 4096;
    for (int wave = 0; wave < safety_cap; ++wave) {
        const WavePlan plan = planWave(budget_tokens);
        if (plan.dt == 0) {
            // Branches still running keep their partial tokens as
            // head starts at selection.
            catchUpAll(ctx_->specRunning_);
            return;
        }
        ActiveBeam *stuck = applyWave(plan);
        assert(deferredAppendsHold());
        if (stuck == nullptr)
            continue;
        // Nothing decoded, so the wave cost no time. The beam
        // preempted last was refused with every other member already
        // preempted: alone, it does not fit. When only the shared
        // ledger stands in its way and other requests hold ledger
        // bytes, the step yields blocked on memory and resumes here
        // once they are freed. Otherwise (no ledger, its own pool
        // full, or nobody to wait for) it takes admission's "can never
        // run" path, so no wave spins.
        if (may_yield && blockedOnLedger(*stuck, plan.dt)) {
            ctx_->genBlocked_ = true;
            return;
        }
        forceKill(*stuck);
    }
    // Defensive: never hang a simulation. Every wave decodes or kills
    // a beam, so a healthy run never gets here. It is the one exit that
    // leaves members in the decode set, so their nodes catch up here,
    // as do the running branches'.
    catchUpAll(ctx_->decodeSet_);
    catchUpAll(ctx_->specRunning_);
    ++ctx_->defensiveExits_;
    ++defensiveExits_;
}

FastTtsEngine::WavePlan
FastTtsEngine::planWave(double budget_tokens)
{
    // The iteration ends when every standard beam finished its step;
    // in-flight speculation is strictly terminated at that point
    // (partial tokens are kept as head starts).
    size_t &q_head = ctx_->queueHead_;
    if (ctx_->decodeSet_.empty() && q_head >= ctx_->queue_.size())
        return {};

    // --- Continuous Beam Batching admission ---
    const int capacity = std::max(1, ctx_->plan_.decodeBatch);
    while (static_cast<int>(ctx_->decodeSet_.size()) < capacity
           && q_head < ctx_->queue_.size()) {
        const size_t idx = ctx_->queue_[q_head];
        ActiveBeam &b = *ctx_->active_[idx];
        if (b.forceKilled) {
            ++q_head;
            continue;
        }
        // Admission control. With Asymmetric Allocation (M) the
        // planner-informed watermark reserves room for the whole
        // step, preventing mid-decode preemption. The naive
        // baseline admits on *current* free memory only — vLLM's
        // behaviour — and pays preemption/recompute churn when
        // running beams outgrow the pool (Sec. 6.5.1).
        const int remaining = b.stepPrepared
            ? b.targetTokens - b.decoded
            : std::min(static_cast<int>(expectedStepTokens_),
                       algorithm_.stepTokenCap(b.steps));
        const double need = ctx_->kvGen_->pathTokens(b.leaf) + b.decoded
            + remaining;
        if (config_.asymmetricAllocation
            && ctx_->pinnedTokens_ + need > budget_tokens * 0.95
            && !ctx_->decodeSet_.empty()) {
            break; // Wait for running beams to finish.
        }
        // Baseline (M off): admit whenever blocks can be found now
        // — evictable cache counts as allocatable, exactly vLLM's
        // policy — and eat mid-decode preemptions later.
        if (!admitBeam(idx)) {
            // Could not materialise the path: speculation yields first.
            killAllSpeculation();
            if (!admitBeam(idx)) {
                if (!ctx_->decodeSet_.empty())
                    break; // Wait for running beams to finish.
                // Alone it still does not fit: the beam can never run
                // under this budget.
                forceKill(b);
                ++q_head;
                continue;
            }
        }
        if (b.inDecode)
            ctx_->pinnedTokens_ += need;
        ++q_head;
    }

    // --- Speculative extension (preemptible) ---
    if (config_.speculativeExtension && ctx_->specAllowed_
        && !ctx_->specDisabled_ && q_head >= ctx_->queue_.size()) {
        fillSpeculativeSlots();
    }
    if (ctx_->decodeSet_.empty() && ctx_->specRunning_.empty())
        return {};

    // --- Next event: smallest remaining token count ---
    WavePlan plan;
    plan.dt = std::numeric_limits<int>::max();
    for (const DecodeMember &m : ctx_->decodeSet_)
        plan.dt = std::min(plan.dt,
                           static_cast<int>(m.end - ctx_->decodeClock_));
    for (const DecodeMember &m : ctx_->specRunning_)
        plan.dt = std::min(plan.dt,
                           static_cast<int>(m.end - ctx_->decodeClock_));
    const long context = ctx_->decodePath_ + ctx_->specPath_;
    plan.dt = std::max(plan.dt, 1);
    const int members = static_cast<int>(ctx_->decodeSet_.size()
                                         + ctx_->specRunning_.size());
    const double ctx = static_cast<double>(context) / members + plan.dt * 0.5;
    plan.tick = static_cast<uint64_t>(
        (ctx_->clock_.now()
         + plan.dt * roofline_.decodeStepTime(models_.generator, members, ctx))
        * 1e6);

    // Memory pressure from the standard beams preempts speculation
    // *before* any useful cache gets evicted (Sec. 4.1.2: the
    // speculative phase is fully preemptible).
    if (!ctx_->specRunning_.empty()
        && ctx_->kvGen_->freeBlocks()
            < ctx_->kvGen_->blocksFor(plan.dt) * static_cast<size_t>(members))
        killAllSpeculation();
    return plan;
}

FastTtsEngine::ActiveBeam *
FastTtsEngine::applyWave(const WavePlan &plan)
{
    const int dt = plan.dt;
    KvCacheManager &kv = *ctx_->kvGen_;
    DecodeMember *set = ctx_->decodeSet_.data();
    size_t count = ctx_->decodeSet_.size();
    // The decode clock moves only after the wave, so a kill inside it
    // catches branches up to their pre-wave tokens.
    const long clock = ctx_->decodeClock_;
    const long after = clock + dt;
    int members = static_cast<int>(count); // Members that decoded: what
                                           // the wave costs.
    long context = ctx_->decodePath_; // Their path tokens before the wave.
    long finished = 0; // Pre-wave path tokens of members whose step ends.
    ActiveBeam *refused = nullptr; // Last standard beam preempted.
    size_t kept = 0;
    for (size_t i = 0; i < count; ++i) {
        if (after < set[i].next) {
            // Neither its step ends nor its next block fills.
            if (kept != i)
                set[kept] = set[i];
            ++kept;
            continue;
        }
        DecodeMember m = set[i];
        ActiveBeam &b = *ctx_->active_[m.idx];
        const int lag = static_cast<int>(clock - m.synced);
        const int left = static_cast<int>(m.end - clock);
        const int path = kv.pathTokens(b.curSeg) + lag;
        // The deferred tokens and this wave's need exactly the blocks
        // this wave's alone would.
        if (!kv.appendTokens(b.curSeg, lag + dt, plan.tick)) {
            // Refused. The deferred tokens were decoded up to the last
            // wave and need no block, so they land first, stamped with
            // that wave's tick; then memory pressure stops speculation,
            // and the beam itself is preempted if still stuck (vLLM
            // swap semantics).
            catchUp(m, clock, ctx_->lastTick_);
            killAllSpeculation();
            if (!kv.appendTokens(b.curSeg, dt, plan.tick)) {
                kv.release(b.curSeg);
                b.pinned = false;
                b.inDecode = false;
                ctx_->pinnedTokens_ =
                    std::max(0.0, ctx_->pinnedTokens_ - (path + left));
                ctx_->queue_.push_back(m.idx);
                refused = &b;
                --members;
                context -= path;
                continue;
            }
        }
        b.decoded = b.targetTokens - left + dt;
        if (b.decoded >= b.targetTokens) {
            ctx_->pinnedTokens_ = std::max(
                0.0, ctx_->pinnedTokens_ - kv.pathTokens(b.curSeg));
            finished += path;
            finishStandardBeam(m.idx);
        } else {
            set[kept++] = decodeMember(m.idx, -1, after);
        }
    }
    ctx_->decodeSet_.resize(kept);
    ctx_->decodePath_ =
        context - finished + static_cast<long>(dt) * static_cast<long>(kept);
    ctx_->generatedTokens_ += static_cast<long>(dt) * members;

    // Speculative branches defer the same way, after the standard
    // members. Their appends may only take free blocks: they must
    // never evict cache the standard beams will re-touch. A branch
    // that completes or is refused leaves the running set; order is
    // preserved.
    set = ctx_->specRunning_.data();
    count = ctx_->specRunning_.size();
    int branches = static_cast<int>(count); // Branches that decoded.
    long spec_context = ctx_->specPath_;    // Their pre-wave paths.
    finished = 0;
    kept = 0;
    for (size_t i = 0; i < count; ++i) {
        if (after < set[i].next) {
            if (kept != i)
                set[kept] = set[i];
            ++kept;
            continue;
        }
        DecodeMember m = set[i];
        SpecBranch &br =
            ctx_->active_[m.idx]->branches[static_cast<size_t>(m.branch)];
        const int lag = static_cast<int>(clock - m.synced);
        const int left = static_cast<int>(m.end - clock);
        const int path = kv.pathTokens(br.node) + lag;
        if (!kv.appendTokens(br.node, lag + dt, plan.tick,
                             /*allow_evict=*/false)) {
            // Its deferred tokens land as for a standard beam, so they
            // count as wasted.
            catchUp(m, clock, ctx_->lastTick_);
            releaseBranch(br);
            --branches;
            spec_context -= path;
            continue;
        }
        br.decoded = br.target - left + dt;
        if (br.decoded >= br.target) {
            br.complete = true;
            finished += path;
        } else {
            set[kept++] = decodeMember(m.idx, m.branch, after);
        }
    }
    ctx_->specRunning_.resize(kept);
    ctx_->specPath_ = spec_context - finished
        + static_cast<long>(dt) * static_cast<long>(kept);
    ctx_->generatedTokens_ += static_cast<long>(dt) * branches;
    ctx_->speculativeTokens_ += static_cast<long>(dt) * branches;
    members += branches;
    context += spec_context;
    ctx_->decodeClock_ = after;
    ctx_->lastTick_ = plan.tick;

    if (members == 0)
        return refused;
    const double ctx = static_cast<double>(context) / members + dt * 0.5;
    ctx_->clock_.advance(
        dt * roofline_.decodeStepTime(models_.generator, members, ctx),
        Phase::Generation,
        roofline_.decodeComputeUtil(models_.generator, members, ctx),
        members, std::max(1, ctx_->plan_.decodeBatch));
    return nullptr;
}

void
FastTtsEngine::runVerificationPhase()
{
    if (ctx_->plan_.offloadActive && ctx_->plan_.offloadOverhead > 0)
        ctx_->clock_.advance(ctx_->plan_.offloadOverhead * 0.5, Phase::Transfer);

    // Requests follow the generation schedule order (ctx_->queue_), which is
    // what lets Prefix-Aware Scheduling help the verifier cache too.
    struct Request
    {
        size_t beamIdx;
        int tokens;
    };
    std::vector<Request> requests;
    const uint64_t tick = static_cast<uint64_t>(ctx_->clock_.now() * 1e6);

    std::vector<size_t> order = ctx_->queue_;
    // Beams that never entered the queue (pendingStepDone) need their
    // state updated but no verifier request. A membership bitmap makes
    // this O(n) instead of the former O(n^2) std::find sweep.
    std::vector<char> queued(ctx_->active_.size(), 0);
    for (size_t idx : ctx_->queue_) {
        if (idx < queued.size())
            queued[idx] = 1;
    }
    for (size_t i = 0; i < ctx_->active_.size(); ++i) {
        if (!queued[i])
            order.push_back(i);
    }

    std::vector<double> lookaheadScores;
    lookaheadScores.reserve(ctx_->active_.size());
    for (const auto &bp : ctx_->active_)
        lookaheadScores.push_back(bp->score);
    const SpeculativePolicy::ScoreBins lookaheadBins =
        specPolicy_.scoreBins(lookaheadScores);

    std::vector<char> seen(ctx_->active_.size(), 0);
    for (size_t idx : order) {
        if (seen[idx])
            continue; // Suspended beams appear twice in ctx_->queue_.
        seen[idx] = 1;
        ActiveBeam &b = *ctx_->active_[idx];
        if (b.forceKilled)
            continue;
        if (b.pendingStepDone) {
            b.newScore = b.pendingScore;
            b.newVerSeg = b.pendingVerSeg;
            continue;
        }
        // Mirror the new segment into the verifier tree.
        int ver_seg = ctx_->kvVer_->childOf(b.verLeaf, b.curSegId);
        if (ver_seg < 0)
            ver_seg = ctx_->kvVer_->createChild(b.verLeaf, b.curSegId,
                                          b.targetTokens);
        b.newVerSeg = ver_seg;
        int touch_leaf = ver_seg;

        // LookAhead Verification (Sec. 4.1.3): a completed speculative
        // step for child 0 is concatenated into this request. Gated to
        // beams in the top score bin — pre-verifying a beam the search
        // is about to prune wastes verifier compute.
        SpecBranch *ahead = nullptr;
        if (config_.lookaheadVerification && ctx_->lookaheadAllowed_
            && specPolicy_.binnedPotential(b.score, lookaheadBins)
                >= specPolicy_.branchFactor()) {
            for (auto &br : b.branches) {
                if (br.childIdx == 0 && br.node >= 0 && br.complete) {
                    ahead = &br;
                    break;
                }
            }
        }
        if (ahead != nullptr) {
            ahead->verNode = ctx_->kvVer_->createChild(
                ver_seg, static_cast<uint64_t>(ahead->node) | (1ULL << 62),
                ahead->decoded);
            touch_leaf = ahead->verNode;
        }
        auto touch = ctx_->kvVer_->ensureResident(touch_leaf, tick);
        const int req_tokens = touch.ok
            ? touch.recomputeTokens
            : ctx_->kvVer_->pathTokens(touch_leaf); // Budget too small to
                                              // cache: full re-prefill.
        requests.push_back({idx, std::max(req_tokens, 1)});

        b.newScore =
            drawScore(verifier_, b.seed, b.steps, b.draw.quality);
        if (ahead != nullptr) {
            const uint64_t child_seed =
                childLineageSeed(b.seed, b.steps + 1, 0);
            ahead->score = drawScore(verifier_, child_seed, b.steps + 1,
                                     ahead->draw.quality);
            ahead->scored = true;
        }
    }

    // Observed full-path length feeds the next re-plan (verifier
    // working-set estimate).
    double path_total = 0;
    int path_count = 0;
    for (const auto &bp : ctx_->active_) {
        if (bp->newVerSeg >= 0) {
            path_total += ctx_->kvVer_->pathTokens(bp->newVerSeg);
            ++path_count;
        }
    }
    if (path_count > 0)
        ctx_->meanVerifierPath_ = path_total / path_count;

    // Batch the requests at the planned prefill batch size.
    const int b_pre = std::max(1, ctx_->plan_.prefillBatch);
    double seq_total = 0;
    for (size_t i = 0; i < requests.size();) {
        const size_t count =
            std::min<size_t>(b_pre, requests.size() - i);
        double batch_tokens = 0;
        for (size_t k = 0; k < count; ++k)
            batch_tokens += requests[i + k].tokens;
        const double mean_len = batch_tokens / count;
        ctx_->clock_.advance(
            roofline_.prefillTime(models_.verifier,
                                  static_cast<int>(count), mean_len),
            Phase::Verification,
            roofline_.prefillComputeUtil(models_.verifier,
                                         static_cast<int>(count),
                                         mean_len),
            static_cast<int>(count), b_pre);
        seq_total += batch_tokens;
        i += count;
    }
    if (!requests.empty())
        ctx_->meanVerifierSeq_ = seq_total / requests.size();
}

std::unique_ptr<FastTtsEngine::ActiveBeam>
FastTtsEngine::newBeam()
{
    std::vector<std::unique_ptr<ActiveBeam>> &spare = ctx_->spareBeams_;
    if (spare.empty())
        return std::make_unique<ActiveBeam>();
    std::unique_ptr<ActiveBeam> beam = std::move(spare.back());
    spare.pop_back();
    // Reset, keeping the branch vector's capacity.
    std::vector<SpecBranch> branches = std::move(beam->branches);
    branches.clear();
    *beam = ActiveBeam();
    beam->branches = std::move(branches);
    return beam;
}

void
FastTtsEngine::completeBeam(ActiveBeam &beam, double score)
{
    CompletedSolution sol;
    sol.answer = beam.draw.answer;
    sol.score = score;
    sol.tokens = beam.totalTokens;
    sol.finishTime = ctx_->clock_.now();
    ctx_->completed_.push_back(sol);
}

void
FastTtsEngine::pruneBeam(ActiveBeam &beam)
{
    for (auto &br : beam.branches) {
        if (br.node >= 0)
            releaseBranch(br);
    }
    beam.branches.clear();
}

void
FastTtsEngine::runSelectionPhase()
{
    // --- Commit step results ---
    for (auto &bp : ctx_->active_) {
        ActiveBeam &b = *bp;
        if (b.forceKilled) {
            // Unverified forced completion: weak score.
            b.steps += 1;
            b.totalTokens += b.decoded;
            completeBeam(b, 0.05);
            pruneBeam(b);
            continue;
        }
        b.steps += 1;
        b.totalTokens += b.targetTokens;
        b.quality = b.draw.quality;
        b.leaf = b.curSeg;
        b.verLeaf = b.newVerSeg;
        b.prevScore = b.score;
        b.score = b.newScore;
    }

    // --- Collect terminal beams ---
    std::vector<size_t> live;
    for (size_t i = 0; i < ctx_->active_.size(); ++i) {
        ActiveBeam &b = *ctx_->active_[i];
        if (b.forceKilled)
            continue;
        if (b.draw.terminal) {
            completeBeam(b, b.score);
            pruneBeam(b);
        } else {
            live.push_back(i);
        }
    }

    const int target = algorithm_.beamWidth()
        - static_cast<int>(ctx_->completed_.size());

    std::vector<BeamCandidate> candidates;
    for (size_t k = 0; k < live.size(); ++k) {
        const ActiveBeam &b = *ctx_->active_[live[k]];
        BeamCandidate c;
        c.index = k;
        c.score = b.score;
        c.prevScore = b.prevScore;
        c.rootIndex = b.rootIndex;
        c.steps = b.steps;
        c.beamId = b.id;
        candidates.push_back(c);
    }

    std::vector<std::unique_ptr<ActiveBeam>> next;
    if (target > 0 && !candidates.empty()) {
        Rng sel_rng(Rng::mix(ctx_->problem_.seed,
                             0x5e1ec7 + static_cast<uint64_t>(
                                 ctx_->iteration_)));
        const SelectionResult result =
            algorithm_.select(candidates, target, sel_rng);

        std::vector<int> child_count(live.size(), 0);
        for (const auto &[cand_idx, k] : result.expansions)
            child_count[cand_idx] = k;

        for (size_t k = 0; k < live.size(); ++k) {
            ActiveBeam &parent = *ctx_->active_[live[k]];
            const int num_children = child_count[k];
            for (int j = 0; j < num_children; ++j) {
                std::unique_ptr<ActiveBeam> child = newBeam();
                child->id = ctx_->nextBeamId_++;
                child->seed =
                    childLineageSeed(parent.seed, parent.steps, j);
                child->rootIndex = parent.rootIndex;
                child->steps = parent.steps;
                child->quality = parent.quality;
                child->score = parent.score;
                child->prevScore = parent.score;
                child->totalTokens = parent.totalTokens;
                child->leaf = parent.leaf;
                child->verLeaf = parent.verLeaf;
                child->prevPos = parent.prevPos;
                child->spawnTime = ctx_->clock_.now();

                // Adopt the matching speculative branch, if any
                // (Algorithm 1: DuplicateThenTruncate — the original,
                // j == 0, keeps everything; duplicates truncate).
                SpecBranch *branch = nullptr;
                for (auto &br : parent.branches) {
                    if (br.childIdx == j && br.node >= 0) {
                        branch = &br;
                        break;
                    }
                }
                if (branch != nullptr) {
                    int keep = branch->decoded;
                    if (j != 0) {
                        keep = specPolicy_.truncationKeep(
                            branch->decoded, ctx_->systemRng_);
                        ctx_->kvGen_->truncateTokens(branch->node, keep);
                        ctx_->wastedSpecTokens_ += branch->decoded - keep;
                    }
                    child->curSeg = branch->node;
                    child->curSegId = branch->segId;
                    child->decoded = keep;
                    child->headStart = keep;
                    child->draw = branch->draw;
                    child->targetTokens = branch->target;
                    child->stepPrepared = true;
                    if (j == 0 && branch->complete && branch->scored) {
                        child->pendingStepDone = true;
                        child->pendingScore = branch->score;
                        child->pendingVerSeg = branch->verNode;
                    } else if (branch->verNode >= 0) {
                        branch->verNode = -1;
                    }
                    // Transfer the branch's KV retention to nobody:
                    // waiting beams hold no pins (evictable), matching
                    // vLLM semantics.
                    if (branch->retained) {
                        ctx_->kvGen_->release(branch->node);
                        branch->retained = false;
                    }
                    branch->node = -1; // Consumed.
                } else {
                    child->curSeg = -1;
                    child->decoded = 0;
                }
                next.push_back(std::move(child));
            }
            // Unconsumed branches are wasted speculation.
            pruneBeam(parent);
        }
    } else {
        // Width exhausted: prune all remaining candidates.
        for (size_t k = 0; k < live.size(); ++k)
            pruneBeam(*ctx_->active_[live[k]]);
    }

    // Every retired beam was pruned; keep up to a search width of them
    // for the next iteration's children.
    const size_t spare_cap = static_cast<size_t>(algorithm_.beamWidth());
    ctx_->spareBeams_.reserve(spare_cap);
    for (auto &retired : ctx_->active_) {
        if (ctx_->spareBeams_.size() == spare_cap)
            break;
        ctx_->spareBeams_.push_back(std::move(retired));
    }
    ctx_->active_ = std::move(next);
}

RequestResult
FastTtsEngine::runRequest(const Problem &problem)
{
    beginRequest(problem);
    while (stepRequest()) {
    }
    return finishRequest();
}

void
FastTtsEngine::beginRequest(const Problem &problem,
                            bool defer_prompt_prefill)
{
    resetRequestState(problem, defer_prompt_prefill);
    ctx_->inRequest_ = true;
}

int
FastTtsEngine::prefillPromptChunk(int max_tokens)
{
    if (ctx_->promptRemaining_ <= 0 || max_tokens <= 0)
        return 0;
    const int chunk = std::min(max_tokens, ctx_->promptRemaining_);
    if (ctx_->promptRemaining_ == ctx_->promptChunkTotal_) {
        // First chunk (promptChunkTotal_ is the suffix left after any
        // prefix-cache mount; with the cache off it equals the full
        // prompt): materialise the prompt node. Under shared-ledger
        // exhaustion the prompt cannot be stored yet — fall back to
        // paying it as recompute at first decode touch, exactly like
        // the up-front path's ledger deferral (charging chunks AND
        // the inevitable recompute would double-count). The ledger
        // itself stays symmetric either way: allocateBlocks is
        // all-or-nothing, so a refused charge reserves nothing to
        // leak (tests/test_online_server.cc pins occupancy returning
        // to baseline after a tight-budget storm).
        const auto touch = ctx_->kvGen_->ensureResident(
            ctx_->promptNodeGen_,
            static_cast<uint64_t>(ctx_->clock_.now() * 1e6));
        if (!touch.ok) {
            ctx_->promptRemaining_ = 0;
            return 0;
        }
    }
    ctx_->clock_.advance(
        roofline_.prefillTime(models_.generator, 1, chunk),
        Phase::Recompute,
        roofline_.prefillComputeUtil(models_.generator, 1, chunk), 1,
        1);
    ctx_->promptRemaining_ -= chunk;
    return chunk;
}

BatchWaveResult
FastTtsEngine::stepBatch(const std::vector<RequestContext *> &contexts,
                         const BatchPlan &plan)
{
    BatchWaveResult out;
    out.outcomes.resize(contexts.size());
    assert(!hasActiveRequest());

    // Park the engine's own (idle) context; members mount one at a
    // time, borrowed — ownership stays with the caller's handles.
    std::unique_ptr<RequestContext> parked = std::move(ctx_);

    struct DecodeRun
    {
        size_t member = 0;
        double genTime = 0;    //!< Generation+recompute clock delta.
        double serialTime = 0; //!< Everything else (verify, transfer).
        int beams = 1;
        double avgCtx = 0;     //!< Mean resident context (tokens).
    };
    std::vector<DecodeRun> runs;
    runs.reserve(plan.entries.size());

    for (const BatchPlanEntry &entry : plan.entries) {
        if (entry.member >= contexts.size()
            || contexts[entry.member] == nullptr)
            continue;
        ctx_.reset(contexts[entry.member]);
        BatchMemberOutcome &outcome = out.outcomes[entry.member];
        outcome.participated = true;
        if (entry.kind == BatchWorkKind::PrefillChunk) {
            const double before = ctx_->clock_.now();
            outcome.prefilledTokens += prefillPromptChunk(entry.tokens);
            const double delta = ctx_->clock_.now() - before;
            outcome.activeDelta += delta;
            out.waveTime += delta;
            ++out.prefillChunks;
        } else {
            DecodeRun run;
            run.member = entry.member;
            run.beams =
                std::max(1, static_cast<int>(ctx_->active_.size()));
            long path_total = 0;
            for (const auto &b : ctx_->active_)
                path_total += ctx_->kvGen_->pathTokens(b->leaf);
            run.avgCtx = ctx_->active_.empty()
                ? static_cast<double>(ctx_->problem_.promptTokens)
                : static_cast<double>(path_total)
                    / static_cast<double>(ctx_->active_.size());
            const double gen0 =
                ctx_->clock_.phaseTime(Phase::Generation)
                + ctx_->clock_.phaseTime(Phase::Recompute);
            const double t0 = ctx_->clock_.now();
            const long decoded0 = ctx_->generatedTokens_;
            outcome.moreWork = stepIteration(/*may_yield=*/true);
            outcome.blocked = ctx_->genBlocked_;
            run.genTime = ctx_->clock_.phaseTime(Phase::Generation)
                + ctx_->clock_.phaseTime(Phase::Recompute) - gen0;
            run.serialTime = (ctx_->clock_.now() - t0) - run.genTime;
            const long decoded = ctx_->generatedTokens_ - decoded0;
            outcome.decodedTokens += decoded;
            out.tokensDecoded += decoded;
            if (outcome.blocked) {
                // Out of the fused decode batch: what the member ran
                // before it blocked is charged serially.
                const double delta = ctx_->clock_.now() - t0;
                outcome.activeDelta += delta;
                out.waveTime += delta;
            } else {
                runs.push_back(run);
            }
        }
        ctx_.release();
    }

    // Fuse the decode members' generation time: one wave of
    // sum(beams) sequences from all members streams the generator
    // weights ONCE, so the fused step is priced by the roofline at
    // the combined batch and the serial per-member sum scales down
    // proportionally (decodeStepTime is sublinear in batch — the
    // physical basis of continuous batching's goodput win). Each
    // member's own clock keeps its solo time: per-request results
    // stay independent of batch composition; only the wall/device
    // attribution (activeDelta, waveTime) is fused.
    if (!runs.empty()) {
        double solo_sum = 0;
        double weighted_ctx = 0;
        int batch_total = 0;
        for (const DecodeRun &run : runs) {
            solo_sum += roofline_.decodeStepTime(models_.generator,
                                                 run.beams, run.avgCtx);
            batch_total += run.beams;
            weighted_ctx +=
                static_cast<double>(run.beams) * run.avgCtx;
        }
        double scale = 1.0;
        if (runs.size() > 1 && solo_sum > 0) {
            const double fused = roofline_.decodeStepTime(
                models_.generator, batch_total,
                weighted_ctx / static_cast<double>(batch_total));
            scale = std::min(1.0, fused / solo_sum);
        }
        for (const DecodeRun &run : runs) {
            const double share = scale * run.genTime + run.serialTime;
            out.outcomes[run.member].activeDelta += share;
            out.waveTime += share;
        }
    }

    ctx_ = std::move(parked);
    return out;
}

int
FastTtsEngine::prefillPending() const
{
    return ctx_->promptRemaining_;
}

long
FastTtsEngine::generatedTokensSoFar() const
{
    return ctx_->generatedTokens_;
}

bool
FastTtsEngine::stepRequest()
{
    return stepIteration(/*may_yield=*/false);
}

bool
FastTtsEngine::stepIteration(bool may_yield)
{
    const int hard_cap = dataset_.maxSteps + 4;
    if (!ctx_->active_.empty() && ctx_->iteration_ < hard_cap) {
        // A blocked phase resumes under the plan it started with.
        if (!ctx_->genBlocked_)
            replan();
        runGenerationPhase(may_yield);
        if (ctx_->genBlocked_)
            return true; // Yielded mid-iteration; no verification yet.
        runVerificationPhase();

        IterationStats stats;
        stats.iteration = ctx_->iteration_;
        stats.activeBeams = static_cast<int>(ctx_->active_.size());
        stats.residentNodes = ctx_->kvGen_->residentNodeCount();
        stats.residentTokens = ctx_->kvGen_->residentTokens();
        long unshared = 0;
        long unique = 0;
        // Node ids are dense (the tree never erases a node), so marks
        // indexed by id replace a visited set; the iteration number
        // makes every earlier mark stale.
        const int mark = ctx_->iteration_ + 1;
        ctx_->visitMark_.resize(
            static_cast<size_t>(ctx_->kvGen_->nodeCount()) + 1, 0);
        for (const auto &b : ctx_->active_) {
            const int leaf = b->curSeg >= 0 ? b->curSeg : b->leaf;
            unshared += ctx_->kvGen_->pathTokens(leaf);
            for (int id = leaf; id != KvCacheManager::kInvalid;
                 id = ctx_->kvGen_->parentOf(id)) {
                int &seen = ctx_->visitMark_[static_cast<size_t>(id)];
                if (seen == mark)
                    break; // Shared ancestors already counted.
                seen = mark;
                unique += ctx_->kvGen_->nodeTokens(id);
            }
        }
        stats.unsharedTokens = unshared;
        stats.uniqueTokens = unique;
        stats.evictions = ctx_->kvGen_->stats().evictions;
        stats.recomputedTokens = ctx_->kvGen_->stats().recomputedTokens;
        stats.decodeBatch = ctx_->plan_.decodeBatch;
        stats.prefillBatch = ctx_->plan_.prefillBatch;

        runSelectionPhase();
        stats.clock = ctx_->clock_.now();
        ctx_->iterStats_.push_back(stats);
        ++ctx_->iteration_;
    }
    return !ctx_->active_.empty() && ctx_->iteration_ < hard_cap;
}

RequestResult
FastTtsEngine::finishRequest()
{
    // Any beams alive at the hard cap (or at cancellation) are
    // abandoned.
    for (auto &b : ctx_->active_)
        pruneBeam(*b);
    ctx_->active_.clear();

    RequestResult result;
    result.completionTime = ctx_->clock_.now();
    result.generatorTime = ctx_->clock_.phaseTime(Phase::Generation)
        + ctx_->clock_.phaseTime(Phase::Recompute);
    result.verifierTime = ctx_->clock_.phaseTime(Phase::Verification);
    result.transferTime = ctx_->clock_.phaseTime(Phase::Transfer);
    result.generatedTokens = ctx_->generatedTokens_;
    result.speculativeTokens = ctx_->speculativeTokens_;
    result.wastedSpecTokens = ctx_->wastedSpecTokens_;
    result.completedBeams = static_cast<int>(ctx_->completed_.size());
    double token_total = 0;
    double time_total = 0;
    for (const auto &s : ctx_->completed_) {
        token_total += static_cast<double>(s.tokens);
        time_total += s.finishTime;
        result.verifiedTokens += s.tokens;
    }
    if (!ctx_->completed_.empty()) {
        result.avgBeamTokens =
            token_total / static_cast<double>(ctx_->completed_.size());
        result.avgBeamCompletion =
            time_total / static_cast<double>(ctx_->completed_.size());
    }
    result.solutions = ctx_->completed_;
    result.defensiveExits = ctx_->defensiveExits_;
    result.kvStats = ctx_->kvGen_->stats();
    const KvStats &ver = ctx_->kvVer_->stats();
    result.kvStats.evictions += ver.evictions;
    result.kvStats.evictedTokens += ver.evictedTokens;
    result.kvStats.recomputedTokens += ver.recomputedTokens;
    result.kvStats.reprefilledTokens += ver.reprefilledTokens;
    result.kvStats.hitTokens += ver.hitTokens;
    result.kvStats.missTokens += ver.missTokens;
    result.kvStats.preemptEvictions += ver.preemptEvictions;
    result.kvStats.preemptEvictedTokens += ver.preemptEvictedTokens;
    result.kvStats.prefixHitTokens =
        static_cast<uint64_t>(ctx_->prefixHitTokens_);
    // Publish the prompt back to the cross-request prefix cache (the
    // next request with a shared prefix mounts it), then drop the pin
    // taken at beginRequest.
    if (ctx_->prefixIndex_ != nullptr) {
        ctx_->prefixIndex_->insert(ctx_->promptIds_);
        ctx_->releasePrefixPin();
    }
    ctx_->inRequest_ = false;
    return result;
}

void
FastTtsEngine::abortRequest()
{
    for (auto &b : ctx_->active_)
        pruneBeam(*b);
    ctx_->active_.clear();
    // Abnormal exit: drop the pin taken at beginRequest WITHOUT
    // publishing the prompt — a cancelled/shed/timed-out request must
    // not advertise a prefix it never finished serving.
    ctx_->releasePrefixPin();
    ctx_->inRequest_ = false;
}

// --- Multi-request contexts ---

SuspendedEngineRequest
FastTtsEngine::suspendRequest()
{
    SuspendedEngineRequest out;
    out.ctx_ = std::move(ctx_);
    ctx_ = std::make_unique<RequestContext>();
    return out;
}

void
FastTtsEngine::resumeRequest(SuspendedEngineRequest suspended)
{
    if (suspended.ctx_ == nullptr)
        return;
    assert(!hasActiveRequest());
    ctx_ = std::move(suspended.ctx_);
}

bool
FastTtsEngine::hasActiveRequest() const
{
    return ctx_->inRequest_;
}

void
FastTtsEngine::releaseFinishedKv()
{
    if (ctx_->inRequest_)
        return;
    // The context destructor drops any prefix pin; the KV managers'
    // destructors refund their remaining ledger charge byte-for-byte.
    ctx_ = std::make_unique<RequestContext>();
}

// --- Context-backed accessors (RequestContext is engine.cc-private,
//     so these cannot be inline in the header) ---

const SimClock &
FastTtsEngine::clock() const
{
    return ctx_->clock_;
}

const AllocationPlan &
FastTtsEngine::currentPlan() const
{
    return ctx_->plan_;
}

const std::vector<IterationStats> &
FastTtsEngine::iterationStats() const
{
    return ctx_->iterStats_;
}

const KvCacheManager &
FastTtsEngine::generatorKv() const
{
    return *ctx_->kvGen_;
}

const KvCacheManager &
FastTtsEngine::verifierKv() const
{
    return *ctx_->kvVer_;
}

const std::vector<std::vector<int>> &
FastTtsEngine::stepTokenSamples() const
{
    return ctx_->stepTokens_;
}

int
FastTtsEngine::forcedTerminations() const
{
    return ctx_->forcedTerminations_;
}

// --- SuspendedEngineRequest ---

SuspendedEngineRequest::SuspendedEngineRequest() = default;
SuspendedEngineRequest::~SuspendedEngineRequest() = default;
SuspendedEngineRequest::SuspendedEngineRequest(
    SuspendedEngineRequest &&) noexcept = default;
SuspendedEngineRequest &
SuspendedEngineRequest::operator=(SuspendedEngineRequest &&) noexcept =
    default;

int
SuspendedEngineRequest::promptTokensPending() const
{
    return ctx_ != nullptr ? ctx_->promptRemaining_ : 0;
}

int
SuspendedEngineRequest::activeBeams() const
{
    return ctx_ != nullptr ? static_cast<int>(ctx_->active_.size())
                           : 0;
}

uint64_t
SuspendedEngineRequest::prefixKey() const
{
    if (ctx_ == nullptr || ctx_->prefixNode_ <= PrefixIndex::kRoot)
        return 0;
    return static_cast<uint64_t>(ctx_->prefixNode_);
}

double
SuspendedEngineRequest::residentKvBytes() const
{
    if (ctx_ == nullptr)
        return 0;
    double bytes = 0;
    if (ctx_->kvGen_ != nullptr)
        bytes += ctx_->kvGen_->residentBytes();
    if (ctx_->kvVer_ != nullptr)
        bytes += ctx_->kvVer_->residentBytes();
    return bytes;
}

long
SuspendedEngineRequest::evictKv()
{
    if (ctx_ == nullptr)
        return 0;
    long dropped = 0;
    // Skip trees that hold no blocks (O(1)): under sustained budget
    // pressure the serving layer retries eviction every wave,
    // and an already-evicted victim must not pay two full-tree scans
    // per retry.
    if (ctx_->kvGen_ != nullptr && ctx_->kvGen_->residentBytes() > 0)
        dropped += ctx_->kvGen_->forceEvictAll();
    if (ctx_->kvVer_ != nullptr && ctx_->kvVer_->residentBytes() > 0)
        dropped += ctx_->kvVer_->forceEvictAll();
    // The prompt node went with them. A request part-way through its
    // chunked prefill stops chunking, so its first decode touch
    // re-prefills the prompt once, as after a refused first chunk.
    if (ctx_->promptRemaining_ < ctx_->promptChunkTotal_)
        ctx_->promptRemaining_ = 0;
    return dropped;
}

} // namespace fasttts
