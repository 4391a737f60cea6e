/**
 * @file
 * Tests for the request-level async serving facade: submit / step /
 * per-request callbacks / cancellation, and its equivalence with the
 * synchronous batch path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/serving.h"
#include "kv/kv_session.h"
#include "sim/device.h"
#include "sim/roofline.h"
#include "util/units.h"

namespace fasttts
{
namespace
{

ServingSystem
smallSystem(int beams = 8)
{
    ServingOptions opts;
    opts.numBeams = beams;
    return ServingSystem::create(opts).value();
}

TEST(AsyncServing, SubmitStepCompleteLifecycle)
{
    ServingSystem system = smallSystem();

    std::vector<StepEvent> steps;
    RequestResult completed;
    bool complete_fired = false;

    RequestCallbacks callbacks;
    callbacks.onStep = [&steps](const StepEvent &e) {
        steps.push_back(e);
    };
    callbacks.onComplete = [&](RequestId, const RequestResult &r) {
        complete_fired = true;
        completed = r;
    };

    const RequestId id =
        system.submit(system.problems()[0], callbacks);
    EXPECT_EQ(*system.requestState(id), RequestState::Queued);
    EXPECT_EQ(system.pendingRequests(), 1u);
    // No result while queued.
    EXPECT_EQ(system.result(id).status().code(),
              StatusCode::kFailedPrecondition);

    system.drain();

    EXPECT_TRUE(complete_fired);
    EXPECT_EQ(*system.requestState(id), RequestState::Completed);
    EXPECT_EQ(system.pendingRequests(), 0u);
    ASSERT_TRUE(system.result(id).ok());
    EXPECT_EQ(system.result(id)->completedBeams, 8);
    EXPECT_GT(completed.completionTime, 0);

    // onStep fired once per engine iteration, with monotone clock and
    // 1-based iteration numbers.
    ASSERT_FALSE(steps.empty());
    for (size_t i = 0; i < steps.size(); ++i) {
        EXPECT_EQ(steps[i].id, id);
        EXPECT_EQ(steps[i].iteration, static_cast<int>(i) + 1);
        if (i > 0) {
            EXPECT_GE(steps[i].clock, steps[i - 1].clock);
        }
    }
}

TEST(AsyncServing, MatchesSynchronousServe)
{
    ServingSystem async_system = smallSystem();
    ServingSystem sync_system = smallSystem();

    const Problem problem = async_system.problems()[0];
    const RequestId id = async_system.submit(problem);
    async_system.drain();
    const RequestResult sync = sync_system.serve(problem);
    const RequestResult async = *async_system.result(id);

    EXPECT_DOUBLE_EQ(async.completionTime, sync.completionTime);
    EXPECT_EQ(async.verifiedTokens, sync.verifiedTokens);
    EXPECT_EQ(async.generatedTokens, sync.generatedTokens);
    ASSERT_EQ(async.solutions.size(), sync.solutions.size());
    for (size_t i = 0; i < sync.solutions.size(); ++i)
        EXPECT_EQ(async.solutions[i].answer, sync.solutions[i].answer);
}

TEST(AsyncServing, RequestsRunFifo)
{
    ServingSystem system = smallSystem();
    std::vector<RequestId> completion_order;
    RequestCallbacks callbacks;
    callbacks.onComplete =
        [&completion_order](RequestId id, const RequestResult &) {
            completion_order.push_back(id);
        };

    std::vector<RequestId> submitted;
    for (int i = 0; i < 3; ++i)
        submitted.push_back(
            system.submit(system.problems()[static_cast<size_t>(i)],
                          callbacks));
    system.drain();
    EXPECT_EQ(completion_order, submitted);
}

TEST(AsyncServing, StepReturnsFalseWhenIdle)
{
    ServingSystem system = smallSystem();
    EXPECT_FALSE(system.step());
    (void)system.submit(system.problems()[0]);
    EXPECT_TRUE(system.step()); // At least one more iteration coming.
    system.drain();
    EXPECT_FALSE(system.step());
}

TEST(AsyncServing, CancelQueuedRequestNeverRuns)
{
    ServingSystem system = smallSystem();
    bool first_completed = false;
    bool second_completed = false;
    RequestCallbacks first_cb;
    first_cb.onComplete = [&](RequestId, const RequestResult &) {
        first_completed = true;
    };
    RequestCallbacks second_cb;
    second_cb.onComplete = [&](RequestId, const RequestResult &) {
        second_completed = true;
    };

    (void)system.submit(system.problems()[0], first_cb);
    const RequestId doomed =
        system.submit(system.problems()[1], second_cb);

    EXPECT_TRUE(system.cancel(doomed).ok());
    EXPECT_EQ(*system.requestState(doomed), RequestState::Cancelled);
    system.drain();

    EXPECT_TRUE(first_completed);
    EXPECT_FALSE(second_completed);
    EXPECT_EQ(system.result(doomed).status().code(),
              StatusCode::kNotFound);
}

TEST(AsyncServing, CancelRunningRequestMidFlight)
{
    ServingSystem system = smallSystem();
    int iterations_before_cancel = 0;
    bool completed = false;
    RequestCallbacks callbacks;
    callbacks.onStep = [&](const StepEvent &e) {
        iterations_before_cancel = e.iteration;
        if (e.iteration == 2) {
            EXPECT_TRUE(system.cancel(e.id).ok());
        }
    };
    callbacks.onComplete = [&](RequestId, const RequestResult &) {
        completed = true;
    };

    const RequestId id = system.submit(system.problems()[0], callbacks);
    // A follow-up request proves the engine recovers after the abort.
    bool next_completed = false;
    RequestCallbacks next_cb;
    next_cb.onComplete = [&](RequestId, const RequestResult &) {
        next_completed = true;
    };
    const RequestId next =
        system.submit(system.problems()[1], next_cb);

    system.drain();

    EXPECT_EQ(iterations_before_cancel, 2);
    EXPECT_FALSE(completed);
    EXPECT_EQ(*system.requestState(id), RequestState::Cancelled);
    EXPECT_TRUE(next_completed);
    EXPECT_EQ(*system.requestState(next), RequestState::Completed);
    EXPECT_EQ(system.result(next)->completedBeams, 8);
}

TEST(AsyncServing, CancelErrorPaths)
{
    ServingSystem system = smallSystem();
    EXPECT_EQ(system.cancel(999).code(), StatusCode::kNotFound);

    const RequestId id = system.submit(system.problems()[0]);
    system.drain();
    EXPECT_EQ(system.cancel(id).code(),
              StatusCode::kFailedPrecondition); // Already completed.

    const RequestId queued = system.submit(system.problems()[1]);
    EXPECT_TRUE(system.cancel(queued).ok());
    EXPECT_EQ(system.cancel(queued).code(),
              StatusCode::kFailedPrecondition); // Already cancelled.

    EXPECT_EQ(system.requestState(31337).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(system.result(31337).status().code(),
              StatusCode::kNotFound);
}

TEST(AsyncServing, ServeProblemsMatchesManualSubmission)
{
    ServingSystem batch = smallSystem();
    ServingSystem manual = smallSystem();

    const BatchResult via_batch = batch.serveProblems(3);

    std::vector<RequestId> ids;
    for (int i = 0; i < 3; ++i)
        ids.push_back(
            manual.submit(manual.problems()[static_cast<size_t>(i)]));
    manual.drain();
    std::vector<RequestResult> results;
    for (const RequestId id : ids)
        results.push_back(*manual.result(id));
    const BatchResult via_manual =
        aggregateResults(std::move(results), 8);

    EXPECT_DOUBLE_EQ(via_batch.meanGoodput, via_manual.meanGoodput);
    EXPECT_DOUBLE_EQ(via_batch.meanLatency, via_manual.meanLatency);
    EXPECT_DOUBLE_EQ(via_batch.top1Accuracy, via_manual.top1Accuracy);
}

TEST(AsyncServing, ReleaseDropsCompletedRecords)
{
    ServingSystem system = smallSystem();
    const RequestId id = system.submit(system.problems()[0]);

    // Pending requests cannot be released.
    EXPECT_EQ(system.release(id).code(),
              StatusCode::kFailedPrecondition);
    system.drain();

    EXPECT_TRUE(system.result(id).ok());
    EXPECT_TRUE(system.release(id).ok());
    EXPECT_EQ(system.result(id).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(system.release(id).code(), StatusCode::kNotFound);
}

TEST(AsyncServing, ReleaseCancelledQueuedRequestIsSafe)
{
    ServingSystem system = smallSystem();
    (void)system.submit(system.problems()[0]);
    const RequestId doomed = system.submit(system.problems()[1]);
    EXPECT_TRUE(system.cancel(doomed).ok());
    // Released while its id still sits in the admission queue.
    EXPECT_TRUE(system.release(doomed).ok());
    system.drain(); // Must not trip over the released id.
    EXPECT_EQ(system.pendingRequests(), 0u);
}

TEST(AsyncServing, ServeProblemsDoesNotAccumulateRecords)
{
    ServingSystem system = smallSystem();
    (void)system.serveProblems(2);
    (void)system.serveProblems(2);
    // Batch-serving owns its records; nothing lingers afterwards.
    EXPECT_EQ(system.pendingRequests(), 0u);
    EXPECT_EQ(system.result(1).status().code(), StatusCode::kNotFound);
}

TEST(AsyncServing, SyncServeDrainsPendingAsyncWorkFirst)
{
    ServingSystem system = smallSystem();
    RequestResult async_result;
    bool completed = false;
    RequestCallbacks callbacks;
    callbacks.onComplete = [&](RequestId, const RequestResult &r) {
        completed = true;
        async_result = r;
    };
    const RequestId id = system.submit(system.problems()[0], callbacks);
    system.step(); // Request is now mid-flight on the engine.

    // A sync serve must not clobber it: the pending request finishes
    // first with its own, correct result.
    const RequestResult sync = system.serve(system.problems()[1]);
    EXPECT_TRUE(completed);
    EXPECT_EQ(*system.requestState(id), RequestState::Completed);
    EXPECT_EQ(async_result.completedBeams, 8);
    EXPECT_GT(sync.completionTime, 0);

    // And the async result matches a clean run of the same problem.
    ServingSystem fresh = smallSystem();
    const RequestResult expected = fresh.serve(fresh.problems()[0]);
    EXPECT_DOUBLE_EQ(async_result.completionTime,
                     expected.completionTime);
    EXPECT_EQ(async_result.verifiedTokens, expected.verifiedTokens);
}

TEST(AsyncServing, ReleaseFromOnStepCallbackIsSafe)
{
    // The callback cancels AND releases its own running request —
    // step() must not touch the freed record afterwards.
    ServingSystem system = smallSystem();
    RequestCallbacks callbacks;
    callbacks.onStep = [&system](const StepEvent &e) {
        if (e.iteration == 1) {
            EXPECT_TRUE(system.cancel(e.id).ok());
            EXPECT_TRUE(system.release(e.id).ok());
        }
    };
    const RequestId id = system.submit(system.problems()[0], callbacks);
    system.drain();
    EXPECT_EQ(system.requestState(id).status().code(),
              StatusCode::kNotFound);

    // The engine is reusable afterwards.
    const RequestId next = system.submit(system.problems()[1]);
    system.drain();
    EXPECT_EQ(*system.requestState(next), RequestState::Completed);
}

TEST(AsyncServing, ReleaseFromOnCompleteCallbackIsSafe)
{
    ServingSystem system = smallSystem();
    int beams_seen = 0;
    RequestCallbacks callbacks;
    callbacks.onComplete = [&](RequestId id, const RequestResult &r) {
        EXPECT_TRUE(system.release(id).ok());
        beams_seen = r.completedBeams; // Still valid: passed by copy.
    };
    const RequestId id = system.submit(system.problems()[0], callbacks);
    system.drain();
    EXPECT_EQ(beams_seen, 8);
    EXPECT_EQ(system.requestState(id).status().code(),
              StatusCode::kNotFound);
}

TEST(AsyncServing, ServeProblemsEmptyIsSafe)
{
    ServingSystem system = smallSystem();
    const BatchResult out = system.serveProblems(0);
    EXPECT_TRUE(out.requests.empty());
    EXPECT_EQ(out.meanGoodput, 0);
    EXPECT_EQ(out.top1Accuracy, 0);
}

// --- Suspension: one engine time-shared between requests ---

TEST(AsyncServing, SuspendResumeInterleavesTwoRequests)
{
    ServingSystem system = smallSystem();
    const RequestId a = system.submit(system.problems()[0]);
    const RequestId b = system.submit(system.problems()[1]);

    ASSERT_TRUE(system.step()); // Starts a.
    EXPECT_EQ(*system.requestState(a), RequestState::Running);
    ASSERT_TRUE(system.suspend(a).ok());
    EXPECT_EQ(*system.requestState(a), RequestState::Suspended);
    EXPECT_EQ(system.pendingRequests(), 2u);

    // With a parked, stepping starts (and can finish) b.
    while (*system.requestState(b) != RequestState::Completed)
        system.step();
    EXPECT_EQ(*system.requestState(a), RequestState::Suspended);

    // Resume a; it finishes where it left off.
    ASSERT_TRUE(system.resume(a).ok());
    EXPECT_EQ(*system.requestState(a), RequestState::Running);
    system.drain();
    EXPECT_EQ(*system.requestState(a), RequestState::Completed);
    EXPECT_GT(system.result(a)->completionTime, 0);
}

TEST(AsyncServing, SuspendResumeIsTimingTransparent)
{
    // Parking a request (without KV eviction) must not change its
    // result at all: same completion time, same solutions.
    ServingSystem plain = smallSystem();
    ServingSystem preempted = smallSystem();

    const RequestId p = plain.submit(plain.problems()[0]);
    plain.drain();
    const RequestResult want = *plain.result(p);

    const RequestId id = preempted.submit(preempted.problems()[0]);
    int steps = 0;
    while (*preempted.requestState(id) != RequestState::Completed) {
        preempted.step();
        if (++steps % 3 == 0
            && *preempted.requestState(id) == RequestState::Running) {
            ASSERT_TRUE(preempted.suspend(id).ok());
            ASSERT_TRUE(preempted.resume(id).ok());
        }
    }
    const RequestResult got = *preempted.result(id);
    EXPECT_DOUBLE_EQ(got.completionTime, want.completionTime);
    EXPECT_EQ(got.generatedTokens, want.generatedTokens);
    ASSERT_EQ(got.solutions.size(), want.solutions.size());
    for (size_t i = 0; i < got.solutions.size(); ++i) {
        EXPECT_EQ(got.solutions[i].answer, want.solutions[i].answer);
        EXPECT_DOUBLE_EQ(got.solutions[i].score,
                         want.solutions[i].score);
    }
}

TEST(AsyncServing, EvictSuspendedKvForcesRecomputeButSameAnswers)
{
    // Evicting a suspended request's KV costs recompute time but can
    // never change what the beams sample (trajectory separation).
    ServingSystem plain = smallSystem();
    ServingSystem evicted = smallSystem();

    const RequestId p = plain.submit(plain.problems()[0]);
    plain.drain();
    const RequestResult want = *plain.result(p);

    const RequestId id = evicted.submit(evicted.problems()[0]);
    evicted.step();
    evicted.step();
    ASSERT_TRUE(evicted.suspend(id).ok());
    const auto dropped = evicted.evictSuspendedKv(id);
    ASSERT_TRUE(dropped.ok());
    EXPECT_GT(*dropped, 0);
    ASSERT_TRUE(evicted.resume(id).ok());
    evicted.drain();

    const RequestResult got = *evicted.result(id);
    EXPECT_GE(got.completionTime, want.completionTime);
    EXPECT_GT(got.kvStats.preemptEvictedTokens, 0u);
    ASSERT_EQ(got.solutions.size(), want.solutions.size());
    for (size_t i = 0; i < got.solutions.size(); ++i) {
        EXPECT_EQ(got.solutions[i].answer, want.solutions[i].answer);
        EXPECT_DOUBLE_EQ(got.solutions[i].score,
                         want.solutions[i].score);
    }
}

TEST(AsyncServing, EvictionMidChunkingEndsTheChunkedPrefill)
{
    // Evicting a parked request part-way through its chunked prompt
    // drops the prompt's KV with everything else: chunking ends, the
    // first decode touch re-prefills the prompt once, and the answers
    // are those of a solo run.
    ServingSystem solo = smallSystem();
    const RequestResult want = solo.serve(solo.problems()[0]);

    ServingSystem system = smallSystem();
    const Problem &problem = system.problems()[0];
    ASSERT_GT(problem.promptTokens, 64);
    const RequestId id = system.submit(problem);
    ASSERT_TRUE(system.startSuspended(id, /*defer_prompt=*/true).ok());
    BatchPlan chunk;
    chunk.entries.push_back({0, BatchWorkKind::PrefillChunk, 64});
    ASSERT_TRUE(system.stepBatch({id}, chunk).ok());
    ASSERT_EQ(system.suspendedInfo(id)->promptTokensPending,
              problem.promptTokens - 64);
    ASSERT_GT(system.evictSuspendedKv(id).value(), 0);
    EXPECT_EQ(system.suspendedInfo(id)->promptTokensPending, 0);

    ASSERT_TRUE(system.resume(id).ok());
    system.drain();
    const RequestResult got = system.result(id).value();
    ASSERT_EQ(got.solutions.size(), want.solutions.size());
    for (size_t i = 0; i < got.solutions.size(); ++i) {
        EXPECT_EQ(got.solutions[i].answer, want.solutions[i].answer);
        EXPECT_EQ(got.solutions[i].score, want.solutions[i].score);
        EXPECT_EQ(got.solutions[i].tokens, want.solutions[i].tokens);
    }
}

TEST(AsyncServing, SuspendResumeErrorPaths)
{
    ServingSystem system = smallSystem();
    const RequestId a = system.submit(system.problems()[0]);
    const RequestId b = system.submit(system.problems()[1]);

    // Nothing is running yet.
    EXPECT_EQ(system.suspend(a).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(system.suspend(999).code(), StatusCode::kNotFound);
    EXPECT_EQ(system.resume(a).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(system.evictSuspendedKv(a).status().code(),
              StatusCode::kFailedPrecondition);

    system.step(); // a running.
    EXPECT_EQ(system.suspend(b).code(), StatusCode::kFailedPrecondition);
    ASSERT_TRUE(system.suspend(a).ok());
    system.step(); // b running.
    // Cannot resume while another request holds the engine.
    EXPECT_EQ(system.resume(a).code(), StatusCode::kFailedPrecondition);
    // Cannot release a suspended (still pending) request.
    EXPECT_EQ(system.release(a).code(), StatusCode::kFailedPrecondition);

    // Cancelling a suspended request frees it without resuming.
    ASSERT_TRUE(system.cancel(a).ok());
    EXPECT_EQ(*system.requestState(a), RequestState::Cancelled);
    system.drain();
    EXPECT_EQ(*system.requestState(b), RequestState::Completed);
    EXPECT_EQ(system.pendingRequests(), 0u);
}

TEST(AsyncServing, StepReturnsScheduleOutcome)
{
    ServingSystem system = smallSystem(4);

    const ScheduleOutcome idle = system.step();
    EXPECT_FALSE(idle);
    EXPECT_EQ(idle.requestsAdvanced, 0);
    EXPECT_EQ(idle.tokensDecoded, 0);
    EXPECT_EQ(idle.waveTime, 0.0);

    (void)system.submit(system.problems()[0]);
    const ScheduleOutcome first = system.step();
    EXPECT_EQ(first.requestsAdvanced, 1);
    EXPECT_GT(first.tokensDecoded, 0);
    EXPECT_GT(first.waveTime, 0.0);
    EXPECT_EQ(first.requestsSuspended, 0); // No batched parking here.

    // The outcome stays truthy until the last iteration completes.
    long decoded = first.tokensDecoded;
    ScheduleOutcome last = first;
    while (last) {
        last = system.step();
        decoded += last.tokensDecoded;
    }
    EXPECT_FALSE(last.moreWork);
    EXPECT_GT(decoded, first.tokensDecoded);
    EXPECT_EQ(system.pendingRequests(), 0u);
}

TEST(AsyncServing, StartSuspendedAndStepBatchPreconditions)
{
    ServingSystem system = smallSystem(4);

    EXPECT_EQ(system.startSuspended(999, true).code(),
              StatusCode::kNotFound);
    EXPECT_EQ(system.suspendedInfo(999).status().code(),
              StatusCode::kNotFound);

    const RequestId a = system.submit(system.problems()[0]);
    const RequestId b = system.submit(system.problems()[1]);
    EXPECT_EQ(system.suspendedInfo(a).status().code(),
              StatusCode::kFailedPrecondition);

    // stepBatch demands every member be suspended.
    EXPECT_EQ(system.stepBatch({a}, BatchPlan()).status().code(),
              StatusCode::kFailedPrecondition);

    ASSERT_TRUE(system.startSuspended(a, /*defer_prompt=*/true).ok());
    EXPECT_EQ(*system.requestState(a), RequestState::Suspended);
    // Deferred prompt: the whole prompt awaits chunked prefill.
    const SuspendedRequestInfo info = system.suspendedInfo(a).value();
    EXPECT_EQ(info.promptTokensPending,
              system.problems()[0].promptTokens);
    EXPECT_GT(info.activeBeams, 0);

    // Already suspended — not queued any more.
    EXPECT_EQ(system.startSuspended(a, true).code(),
              StatusCode::kFailedPrecondition);

    // Up-front prefill leaves nothing pending.
    ASSERT_TRUE(system.startSuspended(b, /*defer_prompt=*/false).ok());
    EXPECT_EQ(system.suspendedInfo(b).value().promptTokensPending, 0);

    ASSERT_TRUE(system.cancel(a).ok());
    ASSERT_TRUE(system.cancel(b).ok());
}

TEST(AsyncServing, BatchedResultsMatchSoloRuns)
{
    // The continuous-batching property: batch composition must not
    // leak across members — every per-request result (answers,
    // scores, token counts, even the request's own clock) is
    // identical to a solo run of the same problem. The fused wave
    // only changes the *device* attribution, never request content.
    constexpr int kRequests = 3;

    ServingSystem solo = smallSystem(8);
    std::vector<RequestResult> want;
    for (int i = 0; i < kRequests; ++i)
        want.push_back(solo.serve(solo.problems()[static_cast<size_t>(i)]));

    ServingSystem system = smallSystem(8);
    std::vector<RequestId> ids;
    for (int i = 0; i < kRequests; ++i)
        ids.push_back(
            system.submit(system.problems()[static_cast<size_t>(i)]));
    for (const RequestId id : ids)
        ASSERT_TRUE(system.startSuspended(id, /*defer_prompt=*/true).ok());

    // Ample budget: the prompt lands in one chunk, so even the
    // per-request clocks match the solo runs bit-for-bit.
    const BatchScheduler scheduler(1 << 20, 1 << 20);
    std::vector<RequestId> live = ids;
    int guard = 0;
    while (!live.empty() && ++guard < 10000) {
        std::vector<BatchCandidate> candidates;
        for (size_t i = 0; i < live.size(); ++i) {
            const SuspendedRequestInfo info =
                system.suspendedInfo(live[i]).value();
            BatchCandidate candidate;
            candidate.member = i;
            candidate.promptRemaining = info.promptTokensPending;
            candidate.decodeTokens = std::max(1, info.activeBeams);
            candidates.push_back(candidate);
        }
        const auto outcome =
            system.stepBatch(live, scheduler.plan(candidates));
        ASSERT_TRUE(outcome.ok());
        EXPECT_GT(outcome->schedule.waveTime, 0.0);
        std::vector<RequestId> next;
        for (const RequestId id : live) {
            if (*system.requestState(id) != RequestState::Completed)
                next.push_back(id);
        }
        live = std::move(next);
    }
    ASSERT_TRUE(live.empty()) << "batched serving did not converge";

    for (size_t i = 0; i < ids.size(); ++i) {
        const RequestResult got = system.result(ids[i]).value();
        EXPECT_EQ(got.verifiedTokens, want[i].verifiedTokens);
        EXPECT_EQ(got.generatedTokens, want[i].generatedTokens);
        EXPECT_EQ(got.completedBeams, want[i].completedBeams);
        EXPECT_DOUBLE_EQ(got.completionTime, want[i].completionTime);
        ASSERT_EQ(got.solutions.size(), want[i].solutions.size());
        for (size_t j = 0; j < got.solutions.size(); ++j) {
            EXPECT_EQ(got.solutions[j].answer,
                      want[i].solutions[j].answer);
            EXPECT_DOUBLE_EQ(got.solutions[j].score,
                             want[i].solutions[j].score);
            EXPECT_EQ(got.solutions[j].tokens,
                      want[i].solutions[j].tokens);
        }
    }
}

TEST(AsyncServing, CompletedBatchMemberReleasesItsLedgerCharge)
{
    // A member that finishes inside stepBatch leaves the shared
    // ledger with its wave: after every wave that completes a member,
    // the ledger holds exactly the still-parked members' resident KV,
    // and nothing once the last member completed.
    constexpr int kRequests = 3;
    KvBudgetLedger ledger(64.0 * (1ull << 30)); // Ample: no pressure.
    ServingSystem system = smallSystem(8);
    system.attachKvLedger(&ledger);
    std::vector<RequestId> live;
    for (int i = 0; i < kRequests; ++i)
        live.push_back(
            system.submit(system.problems()[static_cast<size_t>(i)]));
    for (const RequestId id : live)
        ASSERT_TRUE(system.startSuspended(id, /*defer_prompt=*/true).ok());

    const BatchScheduler scheduler(1 << 20, 1 << 20);
    int completing_waves = 0;
    int guard = 0;
    while (!live.empty() && ++guard < 10000) {
        std::vector<BatchCandidate> candidates;
        for (size_t i = 0; i < live.size(); ++i) {
            const SuspendedRequestInfo info =
                system.suspendedInfo(live[i]).value();
            BatchCandidate candidate;
            candidate.member = i;
            candidate.promptRemaining = info.promptTokensPending;
            candidate.decodeTokens = std::max(1, info.activeBeams);
            candidates.push_back(candidate);
        }
        ASSERT_TRUE(system.stepBatch(live, scheduler.plan(candidates)).ok());
        std::vector<RequestId> parked;
        double parked_bytes = 0;
        for (const RequestId id : live) {
            if (*system.requestState(id) == RequestState::Completed)
                continue;
            parked.push_back(id);
            parked_bytes += system.suspendedInfo(id)->residentKvBytes;
        }
        if (parked.size() < live.size()) {
            ++completing_waves;
            EXPECT_DOUBLE_EQ(ledger.usedBytes(), parked_bytes)
                << parked.size() << " members still parked";
        }
        live = std::move(parked);
    }
    ASSERT_TRUE(live.empty()) << "batched serving did not converge";
    EXPECT_GE(completing_waves, 1);
    EXPECT_DOUBLE_EQ(ledger.usedBytes(), 0.0);
}

TEST(AsyncServing, FusedWaveIsCheaperThanSerialSlices)
{
    // Co-scheduling N decode members in one wave must cost less
    // device time than running the same members serially (the
    // roofline's decode step is sublinear in batch).
    constexpr int kRequests = 3;
    ServingSystem system = smallSystem(8);
    std::vector<RequestId> ids;
    for (int i = 0; i < kRequests; ++i)
        ids.push_back(
            system.submit(system.problems()[static_cast<size_t>(i)]));
    for (const RequestId id : ids)
        ASSERT_TRUE(system.startSuspended(id, /*defer_prompt=*/false).ok());

    BatchPlan plan;
    for (size_t i = 0; i < ids.size(); ++i) {
        BatchPlanEntry entry;
        entry.member = i;
        entry.kind = BatchWorkKind::Decode;
        entry.tokens = 1;
        plan.entries.push_back(entry);
    }
    const auto outcome = system.stepBatch(ids, plan);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->schedule.requestsAdvanced, kRequests);

    double serial = 0;
    for (const BatchMemberOutcome &member : outcome->members) {
        EXPECT_TRUE(member.participated);
        EXPECT_GT(member.decodedTokens, 0);
        serial += member.activeDelta;
    }
    // waveTime is the sum of fused member shares.
    EXPECT_NEAR(outcome->schedule.waveTime, serial, 1e-9);

    // Re-run the same iteration solo on fresh systems; the fused wave
    // must be strictly cheaper than the serial sum of solo steps.
    double solo_sum = 0;
    for (int i = 0; i < kRequests; ++i) {
        ServingSystem one = smallSystem(8);
        (void)one.submit(one.problems()[static_cast<size_t>(i)]);
        solo_sum += one.step().waveTime;
    }
    EXPECT_LT(outcome->schedule.waveTime, solo_sum);

    for (const RequestId id : ids)
        ASSERT_TRUE(system.cancel(id).ok());
}

// --- Blocked on memory: a member the shared ledger refuses yields ---

/** The baseline engine never speculates, so with an ample ledger its
 *  KV only grows: a dry run's final footprint is also its peak. */
ServingSystem
baselineSystem(int beams = 8, bool record_trace = false)
{
    ServingOptions opts;
    opts.config = FastTtsConfig::baseline();
    opts.config.recordTrace = record_trace;
    opts.numBeams = beams;
    return ServingSystem::create(opts).value();
}

/** A plan that runs one decode iteration of each listed member. */
BatchPlan
decodePlan(const std::vector<size_t> &members)
{
    BatchPlan plan;
    for (const size_t member : members) {
        BatchPlanEntry entry;
        entry.member = member;
        entry.kind = BatchWorkKind::Decode;
        entry.tokens = 1;
        plan.entries.push_back(entry);
    }
    return plan;
}

/** Two parked requests on `system`: a holder (problem 1) that decoded
 *  `holder_waves` iterations, then a member (problem `member_problem`)
 *  whose prompt is prefilled up front. Returns {holder, member}. */
std::pair<RequestId, RequestId>
parkHolderThenMember(ServingSystem &system, int holder_waves,
                     RequestCallbacks member_callbacks = {},
                     size_t member_problem = 0)
{
    const RequestId holder = system.submit(system.problems()[1]);
    EXPECT_TRUE(system.startSuspended(holder, /*defer_prompt=*/false).ok());
    for (int i = 0; i < holder_waves; ++i)
        EXPECT_TRUE(system.stepBatch({holder}, decodePlan({0})).ok());
    const RequestId member = system.submit(system.problems()[member_problem],
                                           std::move(member_callbacks));
    EXPECT_TRUE(system.startSuspended(member, /*defer_prompt=*/false).ok());
    return {holder, member};
}

/** Ledger bytes parkHolderThenMember() leaves charged: a dry run of the
 *  same deterministic set-up on an ample ledger. */
double
heldBytes(int holder_waves)
{
    KvBudgetLedger ample(64.0 * GiB);
    ServingSystem dry = baselineSystem();
    dry.attachKvLedger(&ample);
    const auto [holder, member] = parkHolderThenMember(dry, holder_waves);
    const double held = ample.usedBytes();
    EXPECT_TRUE(dry.cancel(holder).ok());
    EXPECT_TRUE(dry.cancel(member).ok());
    return held;
}

constexpr int kHolderWaves = 6;

TEST(AsyncServing, BlockedBatchMemberYieldsAndResumesAfterEviction)
{
    // The member starts on a ledger the parked holder has filled to
    // the last byte. Its first wave decodes nothing, so the step
    // yields blocked on memory at no cost instead of spinning; once
    // the holder's KV is evicted the same iteration resumes and the
    // request finishes exactly as a solo run does.
    std::vector<int> iterations;
    RequestCallbacks callbacks;
    callbacks.onStep = [&](const StepEvent &e) {
        iterations.push_back(e.iteration);
    };
    KvBudgetLedger ledger(heldBytes(kHolderWaves));
    ServingSystem system = baselineSystem();
    system.attachKvLedger(&ledger);
    const auto [holder, member] =
        parkHolderThenMember(system, kHolderWaves, callbacks);
    ASSERT_LT(ledger.freeBytes(), 1.0); // The dry run replayed exactly.

    const auto blocked = system.stepBatch({holder, member}, decodePlan({1}));
    ASSERT_TRUE(blocked.ok());
    const BatchMemberOutcome &yielded = blocked->members[1];
    EXPECT_TRUE(yielded.participated);
    EXPECT_TRUE(yielded.blocked);
    EXPECT_TRUE(yielded.moreWork);
    EXPECT_EQ(yielded.activeDelta, 0.0);
    EXPECT_EQ(yielded.decodedTokens, 0);
    EXPECT_EQ(blocked->schedule.waveTime, 0.0);
    EXPECT_EQ(*system.requestState(member), RequestState::Suspended);

    ASSERT_GT(system.evictSuspendedKv(holder).value(), 0);
    const auto resumed = system.stepBatch({holder, member}, decodePlan({1}));
    ASSERT_TRUE(resumed.ok());
    EXPECT_FALSE(resumed->members[1].blocked);
    EXPECT_GT(resumed->members[1].decodedTokens, 0);
    EXPECT_GT(resumed->members[1].activeDelta, 0.0);

    // Finish it on step(): the blocked entry was not an iteration, so
    // the resumed wave was the first and step() continues at the
    // second.
    ASSERT_TRUE(system.resume(member).ok());
    system.drain();
    ASSERT_EQ(*system.requestState(member), RequestState::Completed);
    ASSERT_FALSE(iterations.empty());
    EXPECT_EQ(iterations.front(), 2);

    ServingSystem solo = baselineSystem();
    const RequestResult want = solo.serve(solo.problems()[0]);
    const RequestResult got = system.result(member).value();
    ASSERT_EQ(got.solutions.size(), want.solutions.size());
    for (size_t i = 0; i < got.solutions.size(); ++i) {
        EXPECT_EQ(got.solutions[i].answer, want.solutions[i].answer);
        EXPECT_EQ(got.solutions[i].score, want.solutions[i].score);
        EXPECT_EQ(got.solutions[i].tokens, want.solutions[i].tokens);
    }
    EXPECT_EQ(got.defensiveExits, 0);
    ASSERT_TRUE(system.cancel(holder).ok());
}

/** The first Generation segment of the request mounted on `system`. */
TimelineSegment
firstGenerationWave(const ServingSystem &system)
{
    for (const TimelineSegment &seg : system.engine().clock().segments()) {
        if (seg.phase == Phase::Generation)
            return seg;
    }
    ADD_FAILURE() << "no Generation segment";
    return {};
}

TEST(AsyncServing, WaveIsChargedOnlyForTheBeamsThatDecode)
{
    // The member's first wave plans both of its beams, but the ledger
    // the parked holder fills has room for one beam's tokens only:
    // the other's append is refused and it leaves the wave, so the
    // wave records one active slot and is priced for one. Problem 2's
    // first-admitted beam takes the longer first step, so it is still
    // decoding, its KV pinned, when the second beam is refused.
    constexpr size_t kProblem = 2;
    // Dry run on an ample ledger: the bytes the holder and the
    // member's prompt hold, and the member's two first-step lengths;
    // the first wave decodes dt, the shorter one, on both beams.
    KvBudgetLedger ample(64.0 * GiB);
    ServingSystem dry = baselineSystem(2, /*record_trace=*/true);
    dry.attachKvLedger(&ample);
    const auto [dry_holder, dry_member] =
        parkHolderThenMember(dry, 1, {}, kProblem);
    const double held = ample.usedBytes();
    ASSERT_TRUE(
        dry.stepBatch({dry_holder, dry_member}, decodePlan({1})).ok());
    ASSERT_TRUE(dry.resume(dry_member).ok());
    const std::vector<int> &lengths = dry.engine().stepTokenSamples()[0];
    ASSERT_EQ(lengths.size(), 2u);
    const int dt = std::min(lengths[0], lengths[1]);

    const RooflineModel roofline(rtx4090());
    const ModelSpec &gen = dry.options().models.generator;
    const double ctx = dry.problems()[kProblem].promptTokens + dt * 0.5;
    const TimelineSegment planned = firstGenerationWave(dry);
    EXPECT_EQ(planned.activeSlots, 2);
    EXPECT_DOUBLE_EQ(planned.duration,
                     dt * roofline.decodeStepTime(gen, 2, ctx));

    const int block = dry.options().config.blockTokens;
    KvBudgetLedger ledger(held
                          + (dt + block - 1) / block * block
                              * gen.kvBytesPerToken());
    ServingSystem system = baselineSystem(2, /*record_trace=*/true);
    system.attachKvLedger(&ledger);
    const auto [holder, member] =
        parkHolderThenMember(system, 1, {}, kProblem);
    ASSERT_TRUE(system.stepBatch({holder, member}, decodePlan({1})).ok());
    ASSERT_TRUE(system.resume(member).ok());
    const TimelineSegment wave = firstGenerationWave(system);
    EXPECT_EQ(wave.activeSlots, 1);
    EXPECT_DOUBLE_EQ(wave.duration,
                     dt * roofline.decodeStepTime(gen, 1, ctx));
    EXPECT_DOUBLE_EQ(wave.computeUtil,
                     roofline.decodeComputeUtil(gen, 1, ctx));
}

TEST(AsyncServing, StepForceKillsBeamsAParkedRequestCrowdsOut)
{
    // step() runs one request and has no one to yield to: it leaves a
    // parked request's KV alone, so a beam the full ledger refuses
    // even alone takes forceKilled and the request still terminates.
    KvBudgetLedger ledger(heldBytes(kHolderWaves));
    ServingSystem system = baselineSystem();
    system.attachKvLedger(&ledger);
    const auto [holder, member] = parkHolderThenMember(system, kHolderWaves);
    const double parked = system.suspendedInfo(holder)->residentKvBytes;

    ASSERT_TRUE(system.resume(member).ok());
    int steps = 0;
    while (system.step())
        ASSERT_LT(++steps, 100) << "step() did not terminate";
    ASSERT_EQ(*system.requestState(member), RequestState::Completed);
    const RequestResult got = system.result(member).value();
    EXPECT_EQ(got.defensiveExits, 0);
    EXPECT_EQ(got.generatedTokens, 0);
    ASSERT_EQ(got.solutions.size(), 8u);
    for (const CompletedSolution &sol : got.solutions)
        EXPECT_EQ(sol.score, 0.05); // Forced, unverified completions.
    EXPECT_EQ(system.suspendedInfo(holder)->residentKvBytes, parked);
    ASSERT_TRUE(system.cancel(holder).ok());
}

TEST(AsyncServing, LoneBatchMemberTheLedgerRefusesIsForceKilled)
{
    // Alone on a ledger that holds only its prompt, nobody can free
    // bytes for the member: it never reports blocked, and every beam
    // that cannot fit is force-killed, as admission does with a beam
    // that never fits.
    KvBudgetLedger ample(64.0 * GiB);
    ServingSystem dry = smallSystem(8);
    dry.attachKvLedger(&ample);
    const RequestId probe = dry.submit(dry.problems()[0]);
    ASSERT_TRUE(dry.startSuspended(probe, /*defer_prompt=*/false).ok());
    KvBudgetLedger ledger(ample.usedBytes());
    ASSERT_TRUE(dry.cancel(probe).ok());

    ServingSystem system = smallSystem(8);
    system.attachKvLedger(&ledger);
    const RequestId id = system.submit(system.problems()[0]);
    ASSERT_TRUE(system.startSuspended(id, /*defer_prompt=*/false).ok());
    int waves = 0;
    while (*system.requestState(id) != RequestState::Completed) {
        const auto wave = system.stepBatch({id}, decodePlan({0}));
        ASSERT_TRUE(wave.ok());
        EXPECT_FALSE(wave->members[0].blocked);
        ASSERT_LT(++waves, 100) << "the lone member did not terminate";
    }
    const RequestResult got = system.result(id).value();
    EXPECT_EQ(got.defensiveExits, 0);
    EXPECT_EQ(got.generatedTokens, 0);
    ASSERT_EQ(got.solutions.size(), 8u);
    for (const CompletedSolution &sol : got.solutions)
        EXPECT_EQ(sol.score, 0.05);
}

} // namespace
} // namespace fasttts
