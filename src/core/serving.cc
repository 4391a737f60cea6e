#include "core/serving.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/fault_injector.h"

namespace fasttts
{

StatusOr<ServingSystem>
ServingSystem::create(const ServingOptions &options)
{
    if (options.numBeams < 1)
        return Status::invalidArgument(
            "numBeams must be >= 1, got "
            + std::to_string(options.numBeams));
    if (options.branchFactor < 1)
        return Status::invalidArgument(
            "branchFactor must be >= 1, got "
            + std::to_string(options.branchFactor));
    if (options.problemCount < 0)
        return Status::invalidArgument(
            "problemCount must be >= 0, got "
            + std::to_string(options.problemCount));

    auto dataset = datasetByName(options.datasetName);
    if (!dataset.ok())
        return dataset.status();
    auto device = deviceByName(options.deviceName);
    if (!device.ok())
        return device.status();
    auto algorithm = makeAlgorithm(options.algorithmName,
                                   options.numBeams,
                                   options.branchFactor);
    if (!algorithm.ok())
        return algorithm.status();

    return ServingSystem(options, *std::move(dataset),
                         std::move(*algorithm), *device);
}

ServingSystem::ServingSystem(const ServingOptions &options,
                             DatasetProfile dataset,
                             std::unique_ptr<SearchAlgorithm> algorithm,
                             const DeviceSpec &device)
    : options_(options), dataset_(std::move(dataset)),
      algorithm_(std::move(algorithm))
{
    engine_ = std::make_unique<FastTtsEngine>(options.config,
                                              options.models, device,
                                              dataset_, *algorithm_);
    problems_ =
        makeProblems(dataset_, options.problemCount, options.seed);
}

ServingSystem::~ServingSystem() = default;

void
ServingSystem::enablePrefixCache(double budget_bytes,
                                 KvBudgetLedger *ledger)
{
    assert(prefixIndex_ == nullptr);
    prefixIndex_ = std::make_unique<PrefixIndex>(
        budget_bytes, engine_->promptKvBytesPerToken());
    if (ledger != nullptr)
        prefixIndex_->attachLedger(ledger);
    if (faultInjector_ != nullptr)
        prefixIndex_->attachFaultInjector(faultInjector_);
    engine_->attachPrefixIndex(prefixIndex_.get());
}

void
ServingSystem::attachFaultInjector(FaultInjector *injector)
{
    faultInjector_ = injector;
    if (prefixIndex_ != nullptr)
        prefixIndex_->attachFaultInjector(injector);
}

RequestResult
ServingSystem::serve(const Problem &problem)
{
    // The engine serves one request at a time: finish pending async
    // work before taking it over, so the in-flight request's state is
    // never clobbered mid-run.
    drain();
    return engine_->runRequest(problem);
}

BatchResult
ServingSystem::serveProblems(int num_problems)
{
    const int count =
        std::min<int>(num_problems, static_cast<int>(problems_.size()));

    std::vector<RequestResult> results;
    results.reserve(static_cast<size_t>(std::max(0, count)));
    std::vector<RequestId> ids;
    ids.reserve(static_cast<size_t>(std::max(0, count)));
    for (int i = 0; i < count; ++i)
        ids.push_back(submit(problems_[static_cast<size_t>(i)]));
    drain();
    for (const RequestId id : ids) {
        results.push_back(*result(id));
        checkOk(release(id)); // Batch-owned records; don't accumulate.
    }
    return aggregateResults(std::move(results), options_.numBeams);
}

RequestId
ServingSystem::submit(const Problem &problem, RequestCallbacks callbacks)
{
    const RequestId id = nextId_++;
    Request request;
    request.problem = problem;
    request.callbacks = std::move(callbacks);
    requests_.emplace(id, std::move(request));
    queue_.push_back(id);
    return id;
}

void
ServingSystem::admitNext()
{
    while (running_ == 0 && !queue_.empty()) {
        const RequestId id = queue_.front();
        queue_.pop_front();
        auto it = requests_.find(id);
        // Cancelled while queued (possibly already released); skip.
        if (it == requests_.end()
            || it->second.state == RequestState::Cancelled)
            continue;
        it->second.state = RequestState::Running;
        engine_->beginRequest(it->second.problem);
        running_ = id;
    }
}

ScheduleOutcome
ServingSystem::step()
{
    ScheduleOutcome outcome;
    admitNext();
    if (running_ == 0)
        return outcome;

    const RequestId id = running_;
    const double clock0 = engine_->clock().now();
    const long decoded0 = engine_->generatedTokensSoFar();
    const bool more = engine_->stepRequest();
    outcome.requestsAdvanced = 1;
    outcome.tokensDecoded = engine_->generatedTokensSoFar() - decoded0;
    outcome.waveTime = engine_->clock().now() - clock0;
    const int iterations = ++requests_.at(id).iterations;

    // Copy the callback out of the map: the callback itself may
    // cancel() and even release() this request, erasing the map node
    // (and with it the std::function) while it executes.
    const auto on_step = requests_.at(id).callbacks.onStep;
    if (on_step) {
        StepEvent event;
        event.id = id;
        event.iteration = iterations;
        event.activeBeams = engine_->iterationStats().empty()
            ? 0
            : engine_->iterationStats().back().activeBeams;
        event.clock = engine_->clock().now();
        on_step(event);
    }

    // Re-find after the callback: cancel() may have finished the
    // request on the engine, release() may have erased its record.
    auto it = requests_.find(id);
    if (it != requests_.end()
        && it->second.state == RequestState::Running && !more) {
        it->second.result = engine_->finishRequest();
        it->second.state = RequestState::Completed;
        running_ = 0;
        const auto on_complete = it->second.callbacks.onComplete;
        if (on_complete) {
            // Copied so the callback may release(id) its own record.
            const RequestResult result = it->second.result;
            on_complete(id, result);
        }
    }

    outcome.moreWork = running_ != 0 || !queue_.empty();
    return outcome;
}

void
ServingSystem::drain()
{
    while (step()) {
    }
}

Status
ServingSystem::startSuspended(RequestId id, bool defer_prompt)
{
    auto it = requests_.find(id);
    if (it == requests_.end())
        return Status::notFound("unknown request id "
                                + std::to_string(id));
    if (it->second.state != RequestState::Queued)
        return Status::failedPrecondition(
            "request " + std::to_string(id) + " is not queued");
    if (running_ != 0)
        return Status::failedPrecondition(
            "request " + std::to_string(running_)
            + " is running; suspend or finish it first");
    engine_->beginRequest(it->second.problem, defer_prompt);
    it->second.suspended = engine_->suspendRequest();
    it->second.state = RequestState::Suspended;
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                 queue_.end());
    return okStatus();
}

StatusOr<BatchStepOutcome>
ServingSystem::stepBatch(const std::vector<RequestId> &ids,
                         const BatchPlan &plan)
{
    if (running_ != 0)
        return Status::failedPrecondition(
            "request " + std::to_string(running_)
            + " is running; suspend or finish it first");

    std::vector<FastTtsEngine::RequestContext *> contexts;
    contexts.reserve(ids.size());
    for (const RequestId id : ids) {
        auto it = requests_.find(id);
        if (it == requests_.end())
            return Status::notFound("unknown request id "
                                    + std::to_string(id));
        if (it->second.state != RequestState::Suspended)
            return Status::failedPrecondition(
                "request " + std::to_string(id) + " is not suspended");
        contexts.push_back(it->second.suspended.context());
    }

    BatchStepOutcome out;
    BatchWaveResult wave = engine_->stepBatch(contexts, plan);
    out.schedule.tokensDecoded = wave.tokensDecoded;
    out.schedule.prefillChunks = wave.prefillChunks;
    out.schedule.waveTime = wave.waveTime;

    // A Decode entry is one TTS iteration of its member, unless the
    // member blocked on memory: that iteration resumes next wave.
    for (const BatchPlanEntry &entry : plan.entries) {
        if (entry.kind == BatchWorkKind::Decode
            && entry.member < ids.size()
            && !wave.outcomes[entry.member].blocked)
            ++requests_.at(ids[entry.member]).iterations;
    }

    for (size_t i = 0; i < ids.size(); ++i) {
        const BatchMemberOutcome &member = wave.outcomes[i];
        if (!member.participated)
            continue;
        ++out.schedule.requestsAdvanced;
        const RequestId id = ids[i];
        Request &request = requests_.at(id);
        if (!member.moreWork) {
            // Finished this wave: mount, collect, complete. The
            // finished context is dropped at once; left mounted, it
            // would keep its ledger charge until the next request
            // replaced it.
            engine_->resumeRequest(std::move(request.suspended));
            request.result = engine_->finishRequest();
            engine_->releaseFinishedKv();
            request.state = RequestState::Completed;
            const auto on_complete = request.callbacks.onComplete;
            if (on_complete) {
                // Copied so the callback may release(id) its record.
                const RequestResult result = request.result;
                on_complete(id, result);
            }
        } else {
            ++out.schedule.requestsSuspended;
        }
    }

    out.schedule.moreWork = pendingRequests() > 0;
    out.members = std::move(wave.outcomes);
    return out;
}

Status
ServingSystem::suspend(RequestId id)
{
    auto it = requests_.find(id);
    if (it == requests_.end())
        return Status::notFound("unknown request id "
                                + std::to_string(id));
    if (it->second.state != RequestState::Running || running_ != id)
        return Status::failedPrecondition(
            "request " + std::to_string(id)
            + " is not the running request");
    it->second.suspended = engine_->suspendRequest();
    it->second.state = RequestState::Suspended;
    running_ = 0;
    return okStatus();
}

Status
ServingSystem::resume(RequestId id)
{
    auto it = requests_.find(id);
    if (it == requests_.end())
        return Status::notFound("unknown request id "
                                + std::to_string(id));
    if (it->second.state != RequestState::Suspended)
        return Status::failedPrecondition(
            "request " + std::to_string(id) + " is not suspended");
    if (running_ != 0)
        return Status::failedPrecondition(
            "request " + std::to_string(running_)
            + " is running; suspend or finish it first");
    engine_->resumeRequest(std::move(it->second.suspended));
    it->second.state = RequestState::Running;
    running_ = id;
    return okStatus();
}

StatusOr<SuspendedRequestInfo>
ServingSystem::suspendedInfo(RequestId id) const
{
    auto it = requests_.find(id);
    if (it == requests_.end())
        return Status::notFound("unknown request id "
                                + std::to_string(id));
    if (it->second.state != RequestState::Suspended)
        return Status::failedPrecondition(
            "request " + std::to_string(id) + " is not suspended");
    SuspendedRequestInfo info;
    info.promptTokensPending = it->second.suspended.promptTokensPending();
    info.activeBeams = it->second.suspended.activeBeams();
    info.residentKvBytes = it->second.suspended.residentKvBytes();
    info.prefixKey = it->second.suspended.prefixKey();
    return info;
}

StatusOr<long>
ServingSystem::evictSuspendedKv(RequestId id)
{
    auto it = requests_.find(id);
    if (it == requests_.end())
        return Status::notFound("unknown request id "
                                + std::to_string(id));
    if (it->second.state != RequestState::Suspended)
        return Status::failedPrecondition(
            "request " + std::to_string(id) + " is not suspended");
    return it->second.suspended.evictKv();
}

Status
ServingSystem::cancel(RequestId id)
{
    return cancelWith(id, okStatus());
}

Status
ServingSystem::cancelWith(RequestId id, Status reason)
{
    auto it = requests_.find(id);
    if (it == requests_.end())
        return Status::notFound("unknown request id "
                                + std::to_string(id));
    Request &request = it->second;
    switch (request.state) {
    case RequestState::Completed:
        return Status::failedPrecondition(
            "request " + std::to_string(id) + " already completed");
    case RequestState::Cancelled:
        return Status::failedPrecondition(
            "request " + std::to_string(id) + " already cancelled");
    case RequestState::Running:
        // Abandon the in-flight beams and the partial result WITHOUT
        // publishing the prompt — abortRequest also drops the prefix
        // pin, so a cancel storm leaves the index fully unpinned.
        engine_->abortRequest();
        running_ = 0;
        request.failure = std::move(reason);
        request.state = RequestState::Cancelled;
        return okStatus();
    case RequestState::Suspended:
        // Drop the parked context; its KV blocks (and any shared-
        // ledger charge, and its prefix pin) are freed with it.
        request.suspended = SuspendedEngineRequest();
        request.failure = std::move(reason);
        request.state = RequestState::Cancelled;
        return okStatus();
    case RequestState::Queued:
        request.failure = std::move(reason);
        request.state = RequestState::Cancelled;
        return okStatus();
    }
    return Status::failedPrecondition("unreachable request state");
}

StatusOr<RequestState>
ServingSystem::requestState(RequestId id) const
{
    auto it = requests_.find(id);
    if (it == requests_.end())
        return Status::notFound("unknown request id "
                                + std::to_string(id));
    return it->second.state;
}

StatusOr<RequestResult>
ServingSystem::result(RequestId id) const
{
    auto it = requests_.find(id);
    if (it == requests_.end())
        return Status::notFound("unknown request id "
                                + std::to_string(id));
    switch (it->second.state) {
    case RequestState::Completed:
        return it->second.result;
    case RequestState::Cancelled:
        if (!it->second.failure.ok())
            return it->second.failure;
        return Status::notFound("request " + std::to_string(id)
                                + " was cancelled");
    default:
        return Status::failedPrecondition(
            "request " + std::to_string(id) + " has not completed");
    }
}

Status
ServingSystem::release(RequestId id)
{
    auto it = requests_.find(id);
    if (it == requests_.end())
        return Status::notFound("unknown request id "
                                + std::to_string(id));
    const RequestState state = it->second.state;
    if (state == RequestState::Queued || state == RequestState::Running
        || state == RequestState::Suspended)
        return Status::failedPrecondition(
            "request " + std::to_string(id)
            + " is still pending; cancel it first");
    requests_.erase(it);
    return okStatus();
}

size_t
ServingSystem::pendingRequests() const
{
    size_t pending = 0;
    // fasttts-lint: allow(unordered-iter) order-independent count
    for (const auto &[id, request] : requests_) {
        if (request.state == RequestState::Queued
            || request.state == RequestState::Running
            || request.state == RequestState::Suspended)
            ++pending;
    }
    return pending;
}

BatchResult
aggregateResults(std::vector<RequestResult> requests, int num_beams)
{
    BatchResult out;
    out.requests = std::move(requests);
    if (out.requests.empty())
        return out;

    out.meanGoodput = meanGoodput(out.requests);
    out.meanLatency = meanCompletionTime(out.requests);
    out.meanGeneratorTime = meanGeneratorTime(out.requests);
    out.meanVerifierTime = meanVerifierTime(out.requests);

    int top1 = 0;
    int pass1 = 0;
    int pass_half = 0;
    int pass_n = 0;
    for (const auto &r : out.requests) {
        top1 += top1Correct(r.solutions) ? 1 : 0;
        pass1 += passAtN(r.solutions, 1) ? 1 : 0;
        pass_half += passAtN(r.solutions,
                             static_cast<size_t>(std::max(1, num_beams / 2)))
            ? 1
            : 0;
        pass_n +=
            passAtN(r.solutions, static_cast<size_t>(num_beams)) ? 1 : 0;
    }
    const double total = static_cast<double>(out.requests.size());
    out.top1Accuracy = 100.0 * top1 / total;
    out.passAt1 = 100.0 * pass1 / total;
    out.passAtNHalf = 100.0 * pass_half / total;
    out.passAtNAccuracy = 100.0 * pass_n / total;
    return out;
}

} // namespace fasttts
