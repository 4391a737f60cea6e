/**
 * @file
 * Tests for the online (queued) serving front-end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/online_server.h"
#include "kv/prefix_index.h"

namespace fasttts
{
namespace
{

ServingOptions
smallOptions(bool fast)
{
    ServingOptions opts;
    opts.config =
        fast ? FastTtsConfig::fastTts() : FastTtsConfig::baseline();
    opts.numBeams = 8;
    return opts;
}

/** Every field of two traces, compared exactly (no epsilon). */
void
expectSameTrace(const OnlineTraceResult &a, const OnlineTraceResult &b,
                const std::string &where)
{
    ASSERT_EQ(a.records.size(), b.records.size()) << where;
    for (size_t i = 0; i < a.records.size(); ++i) {
        const OnlineRequestRecord &x = a.records[i];
        const OnlineRequestRecord &y = b.records[i];
        EXPECT_EQ(x.problemId, y.problemId) << where;
        EXPECT_EQ(x.arrival, y.arrival) << where;
        EXPECT_EQ(x.start, y.start) << where;
        EXPECT_EQ(x.finish, y.finish) << where;
        EXPECT_EQ(x.priority, y.priority) << where;
        EXPECT_EQ(x.deadline, y.deadline) << where;
        EXPECT_EQ(x.activeTime, y.activeTime) << where;
    }
    EXPECT_EQ(a.meanLatency, b.meanLatency) << where;
    EXPECT_EQ(a.p50Latency, b.p50Latency) << where;
    EXPECT_EQ(a.p95Latency, b.p95Latency) << where;
    EXPECT_EQ(a.p99Latency, b.p99Latency) << where;
    EXPECT_EQ(a.meanQueueDelay, b.meanQueueDelay) << where;
    EXPECT_EQ(a.makespan, b.makespan) << where;
    EXPECT_EQ(a.utilization, b.utilization) << where;
    EXPECT_EQ(a.sloAttainment, b.sloAttainment) << where;
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses) << where;
    EXPECT_EQ(a.cancelled, b.cancelled) << where;
    EXPECT_EQ(a.shedRequests, b.shedRequests) << where;
    EXPECT_EQ(a.recomputedTokens, b.recomputedTokens) << where;
    EXPECT_EQ(a.preemptEvictedTokens, b.preemptEvictedTokens) << where;
    EXPECT_EQ(a.verifiedTokens, b.verifiedTokens) << where;
    EXPECT_EQ(a.generatedTokens, b.generatedTokens) << where;
    EXPECT_EQ(a.prefixHitTokens, b.prefixHitTokens) << where;
    EXPECT_EQ(a.batchOccupancy, b.batchOccupancy) << where;
    EXPECT_EQ(a.reprefilledTokens, b.reprefilledTokens) << where;
    EXPECT_EQ(a.injectedFaults, b.injectedFaults) << where;
    EXPECT_EQ(a.retries, b.retries) << where;
    EXPECT_EQ(a.timeouts, b.timeouts) << where;
    EXPECT_EQ(a.failedRequests, b.failedRequests) << where;
    EXPECT_EQ(a.faultWastedTokens, b.faultWastedTokens) << where;
    EXPECT_EQ(a.blockedSteps, b.blockedSteps) << where;
    EXPECT_EQ(a.defensiveExits, b.defensiveExits) << where;
}

TEST(OnlineServer, EmptyTraceIsSafe)
{
    OnlineServer server = OnlineServer::create(smallOptions(true)).value();
    const auto out = server.serveArrivals({});
    EXPECT_TRUE(out.records.empty());
    EXPECT_EQ(out.meanLatency, 0);
}

TEST(OnlineServer, RecordsAreCausal)
{
    OnlineServer server = OnlineServer::create(smallOptions(true)).value();
    const auto out = server.serveTrace(6, 0.05, 7);
    ASSERT_EQ(out.records.size(), 6u);
    double prev_finish = 0;
    double prev_arrival = 0;
    for (const auto &rec : out.records) {
        EXPECT_GE(rec.arrival, prev_arrival);   // Sorted arrivals.
        EXPECT_GE(rec.start, rec.arrival);      // No time travel.
        EXPECT_GE(rec.start, prev_finish - 1e-9); // FIFO device.
        EXPECT_GT(rec.finish, rec.start);
        prev_finish = rec.finish;
        prev_arrival = rec.arrival;
    }
}

TEST(OnlineServer, QueueDelayGrowsWithArrivalRate)
{
    OnlineServer slow = OnlineServer::create(smallOptions(true)).value();
    OnlineServer fast_arrivals =
        OnlineServer::create(smallOptions(true)).value();
    const auto relaxed = slow.serveTrace(8, 0.01, 7);
    const auto saturated = fast_arrivals.serveTrace(8, 10.0, 7);
    EXPECT_GT(saturated.meanQueueDelay, relaxed.meanQueueDelay);
    EXPECT_GT(saturated.utilization, relaxed.utilization);
}

TEST(OnlineServer, FastTtsImprovesOnlineLatency)
{
    // Under the same saturated arrival trace, FastTTS's shorter
    // service times compound through the queue.
    OnlineServer baseline =
        OnlineServer::create(smallOptions(false)).value();
    OnlineServer fast = OnlineServer::create(smallOptions(true)).value();
    const auto b = baseline.serveTrace(6, 1.0, 11);
    const auto f = fast.serveTrace(6, 1.0, 11);
    EXPECT_LT(f.meanLatency, b.meanLatency);
    EXPECT_LE(f.p95Latency, b.p95Latency * 1.001);
    EXPECT_LE(f.makespan, b.makespan);
}

TEST(OnlineServer, DeterministicTraces)
{
    OnlineServer a = OnlineServer::create(smallOptions(true)).value();
    OnlineServer b = OnlineServer::create(smallOptions(true)).value();
    const auto ra = a.serveTrace(5, 0.5, 3);
    const auto rb = b.serveTrace(5, 0.5, 3);
    ASSERT_EQ(ra.records.size(), rb.records.size());
    for (size_t i = 0; i < ra.records.size(); ++i) {
        EXPECT_DOUBLE_EQ(ra.records[i].arrival, rb.records[i].arrival);
        EXPECT_DOUBLE_EQ(ra.records[i].finish, rb.records[i].finish);
    }
}

TEST(OnlineServer, UtilizationInUnitRange)
{
    OnlineServer server = OnlineServer::create(smallOptions(true)).value();
    const auto out = server.serveTrace(5, 0.2, 9);
    EXPECT_GT(out.utilization, 0.0);
    EXPECT_LE(out.utilization, 1.0);
}

TEST(OnlineServer, P95AtLeastMean)
{
    OnlineServer server = OnlineServer::create(smallOptions(true)).value();
    const auto out = server.serveTrace(10, 0.5, 13);
    EXPECT_GE(out.p95Latency, out.meanLatency * 0.5);
    EXPECT_GE(out.p95Latency,
              out.records.front().latency() * 0.01);
}

TEST(OnlineServer, EmptyProblemSetIsSafe)
{
    // problemCount = 0 must not reach the modulo in serveArrivals.
    ServingOptions opts = smallOptions(true);
    opts.problemCount = 0;
    OnlineServer server = OnlineServer::create(opts).value();
    const auto out = server.serveTrace(3, 0.5, 7);
    EXPECT_TRUE(out.records.empty());
    EXPECT_EQ(out.meanLatency, 0);
}

TEST(OnlineServer, TracesDoNotAccumulateRequestRecords)
{
    OnlineServer server = OnlineServer::create(smallOptions(true)).value();
    (void)server.serveTrace(3, 0.5, 7);
    (void)server.serveTrace(3, 0.5, 7);
    EXPECT_EQ(server.system().pendingRequests(), 0u);
    // Records were released after each trace; early ids are gone.
    EXPECT_EQ(server.system().result(1).status().code(),
              StatusCode::kNotFound);
}

TEST(AggregateTrace, EmptyRecordSetIsAllZero)
{
    const auto out = aggregateTrace({}, 0.0);
    EXPECT_TRUE(out.records.empty());
    EXPECT_EQ(out.meanLatency, 0);
    EXPECT_EQ(out.p95Latency, 0);
    EXPECT_EQ(out.meanQueueDelay, 0);
    EXPECT_EQ(out.makespan, 0);
    EXPECT_EQ(out.utilization, 0);
}

TEST(AggregateTrace, ZeroMakespanDoesNotDivide)
{
    // A degenerate record finishing at t=0 must not produce NaN.
    OnlineRequestRecord rec;
    const auto out = aggregateTrace({rec}, 0.0);
    EXPECT_EQ(out.utilization, 0);
    EXPECT_EQ(out.meanLatency, 0);
}

TEST(OnlineServer, CreateRejectsUnknownDataset)
{
    ServingOptions opts;
    opts.datasetName = "nope";
    EXPECT_FALSE(OnlineServer::create(opts).ok());
}

// --- Differential: the policy-driven server at its defaults must
//     reproduce the legacy run-to-completion FIFO server exactly. ---

TEST(OnlineServer, FifoMaxInflightOneMatchesLegacyTraceExactly)
{
    // Independent reimplementation of the legacy OnlineServer: run
    // each problem to completion in arrival order on a fresh system
    // and chain start = max(arrival, device_free).
    const ServingOptions opts = smallOptions(true);
    const std::vector<double> arrivals =
        poissonArrivalTrace(7, 0.08, 21);

    ServingSystem reference = ServingSystem::create(opts).value();
    std::vector<OnlineRequestRecord> expected;
    double device_free = 0;
    double busy = 0;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        const int problem_id = static_cast<int>(
            i % reference.problems().size());
        const RequestResult result = reference.serve(
            reference.problems()[static_cast<size_t>(problem_id)]);
        OnlineRequestRecord rec;
        rec.problemId = problem_id;
        rec.arrival = arrivals[i];
        rec.start = std::max(arrivals[i], device_free);
        rec.finish = rec.start + result.completionTime;
        device_free = rec.finish;
        busy += result.completionTime;
        expected.push_back(rec);
    }
    const OnlineTraceResult want = aggregateTrace(expected, busy);

    // Both construction paths: legacy and explicit defaults
    // (--policy fifo --max-inflight 1, where every wave has one
    // member, so continuous batching runs each request to
    // completion).
    OnlineServerOptions defaults;
    ASSERT_EQ(defaults.policy, "fifo");
    ASSERT_EQ(defaults.maxInflight, 1);
    ASSERT_EQ(defaults.batching, "continuous");
    OnlineServer legacy = OnlineServer::create(opts).value();
    OnlineServer explicit_defaults =
        OnlineServer::create(opts, defaults).value();
    for (OnlineServer *server : {&legacy, &explicit_defaults}) {
        const OnlineTraceResult got = server->serveTrace(7, 0.08, 21);
        ASSERT_EQ(got.records.size(), want.records.size());
        for (size_t i = 0; i < want.records.size(); ++i) {
            EXPECT_EQ(got.records[i].problemId,
                      want.records[i].problemId);
            EXPECT_DOUBLE_EQ(got.records[i].arrival,
                             want.records[i].arrival);
            EXPECT_DOUBLE_EQ(got.records[i].start,
                             want.records[i].start);
            EXPECT_DOUBLE_EQ(got.records[i].finish,
                             want.records[i].finish);
        }
        // The server sums wave times where the reference chains
        // engine clocks, so the aggregates over those sums may differ
        // in the last bits.
        const auto expectClose = [](double got_value, double want_value) {
            EXPECT_NEAR(got_value, want_value, 1e-12 * std::abs(want_value));
        };
        expectClose(got.meanLatency, want.meanLatency);
        expectClose(got.p95Latency, want.p95Latency);
        expectClose(got.meanQueueDelay, want.meanQueueDelay);
        expectClose(got.makespan, want.makespan);
        expectClose(got.utilization, want.utilization);
    }
}

TEST(OnlineServer, ServeTraceMatchesPoissonArrivalTrace)
{
    // serveTrace() is exactly serveArrivals() of the Poisson stream.
    OnlineServer a = OnlineServer::create(smallOptions(true)).value();
    OnlineServer b = OnlineServer::create(smallOptions(true)).value();
    const auto via_trace = a.serveTrace(5, 0.5, 3);
    const auto via_arrivals =
        b.serveArrivals(poissonArrivalTrace(5, 0.5, 3));
    ASSERT_EQ(via_trace.records.size(), via_arrivals.records.size());
    for (size_t i = 0; i < via_trace.records.size(); ++i)
        EXPECT_DOUBLE_EQ(via_trace.records[i].finish,
                         via_arrivals.records[i].finish);
}

// --- New aggregate statistics ---

TEST(AggregateTrace, SingleRecordPercentiles)
{
    OnlineRequestRecord rec;
    rec.arrival = 1.0;
    rec.start = 2.0;
    rec.finish = 5.0;
    const auto out = aggregateTrace({rec}, 3.0);
    EXPECT_DOUBLE_EQ(out.meanLatency, 4.0);
    EXPECT_DOUBLE_EQ(out.p50Latency, 4.0);
    EXPECT_DOUBLE_EQ(out.p95Latency, 4.0);
    EXPECT_DOUBLE_EQ(out.p99Latency, 4.0);
    EXPECT_DOUBLE_EQ(out.makespan, 5.0);
}

TEST(AggregateTrace, TwoRecordPercentiles)
{
    OnlineRequestRecord fast;
    fast.arrival = 0.0;
    fast.start = 0.0;
    fast.finish = 2.0; // Latency 2.
    OnlineRequestRecord slow;
    slow.arrival = 0.0;
    slow.start = 2.0;
    slow.finish = 10.0; // Latency 10.
    const auto out = aggregateTrace({fast, slow}, 10.0);
    // Ceil-rank: p50 of two samples is the lower one, p95/p99 the
    // upper.
    EXPECT_DOUBLE_EQ(out.p50Latency, 2.0);
    EXPECT_DOUBLE_EQ(out.p95Latency, 10.0);
    EXPECT_DOUBLE_EQ(out.p99Latency, 10.0);
    EXPECT_DOUBLE_EQ(out.meanLatency, 6.0);
}

TEST(AggregateTrace, EmptyRecordSetNewFieldsAreNeutral)
{
    const auto out = aggregateTrace({}, 0.0);
    EXPECT_EQ(out.p50Latency, 0);
    EXPECT_EQ(out.p99Latency, 0);
    EXPECT_EQ(out.deadlineMisses, 0);
    EXPECT_EQ(out.cancelled, 0);
    EXPECT_DOUBLE_EQ(out.sloAttainment, 1.0);
}

TEST(AggregateTrace, SloAttainmentCountsOnlyDeadlineBearers)
{
    OnlineRequestRecord met;
    met.finish = 5.0;
    met.deadline = 10.0;
    OnlineRequestRecord missed;
    missed.finish = 12.0;
    missed.deadline = 10.0;
    OnlineRequestRecord no_slo; // Infinite deadline: excluded.
    no_slo.finish = 100.0;
    const auto out = aggregateTrace({met, missed, no_slo}, 1.0);
    EXPECT_DOUBLE_EQ(out.sloAttainment, 0.5);
    EXPECT_EQ(out.deadlineMisses, 1);
}

TEST(OnlineServer, SloBudgetSetsDeadlinesAndAttainment)
{
    ServingOptions opts = smallOptions(true);
    OnlineServerOptions tight;
    tight.slo = 1e-3; // Impossible budget: everything misses.
    OnlineServer tight_server =
        OnlineServer::create(opts, tight).value();
    const auto missed = tight_server.serveTrace(4, 0.5, 7);
    EXPECT_DOUBLE_EQ(missed.sloAttainment, 0.0);
    EXPECT_EQ(missed.deadlineMisses, 4);

    OnlineServerOptions loose;
    loose.slo = 1e9; // Unmissable budget.
    OnlineServer loose_server =
        OnlineServer::create(opts, loose).value();
    const auto met = loose_server.serveTrace(4, 0.5, 7);
    EXPECT_DOUBLE_EQ(met.sloAttainment, 1.0);
    EXPECT_EQ(met.deadlineMisses, 0);
    for (const auto &rec : met.records)
        EXPECT_TRUE(rec.hasDeadline());

    // No SLO configured: records carry no deadline, attainment is
    // vacuously 1.
    OnlineServer none = OnlineServer::create(opts).value();
    const auto out = none.serveTrace(4, 0.5, 7);
    EXPECT_DOUBLE_EQ(out.sloAttainment, 1.0);
    for (const auto &rec : out.records)
        EXPECT_FALSE(rec.hasDeadline());
}

// --- Option and request validation ---

TEST(OnlineServer, CreateRejectsBadOnlineOptions)
{
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions bad_policy;
    bad_policy.policy = "round_robin";
    const auto unknown = OnlineServer::create(opts, bad_policy);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
    EXPECT_NE(unknown.status().message().find("fifo"),
              std::string::npos);

    OnlineServerOptions zero_inflight;
    zero_inflight.maxInflight = 0;
    EXPECT_EQ(OnlineServer::create(opts, zero_inflight).status().code(),
              StatusCode::kInvalidArgument);

    OnlineServerOptions negative_slo;
    negative_slo.slo = -1;
    EXPECT_EQ(OnlineServer::create(opts, negative_slo).status().code(),
              StatusCode::kInvalidArgument);
}

// The preempt option is gone; the shared KV budget that drives
// preemption eviction is still validated here.
TEST(OnlineServer, CreateRejectsBadPreemptAndKvBudget)
{
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions negative_budget;
    negative_budget.kvBudgetGiB = -1;
    const auto negative = OnlineServer::create(opts, negative_budget);
    ASSERT_FALSE(negative.ok());
    EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(negative.status().message().find("kv_budget"),
              std::string::npos);

    OnlineServerOptions nan_budget;
    nan_budget.kvBudgetGiB = std::nan("");
    EXPECT_EQ(OnlineServer::create(opts, nan_budget).status().code(),
              StatusCode::kInvalidArgument);

    OnlineServerOptions infinite_budget;
    infinite_budget.kvBudgetGiB = std::numeric_limits<double>::infinity();
    EXPECT_EQ(
        OnlineServer::create(opts, infinite_budget).status().code(),
        StatusCode::kInvalidArgument);

    OnlineServerOptions engine_budget; // 0 = the engine's device budget
    EXPECT_TRUE(OnlineServer::create(opts, engine_budget).ok());
}

TEST(OnlineServer, ServeRequestsValidatesInput)
{
    OnlineServer server = OnlineServer::create(smallOptions(true)).value();
    OnlineRequest nan_arrival;
    nan_arrival.arrival = std::nan("");
    EXPECT_EQ(server.serveRequests({nan_arrival}).status().code(),
              StatusCode::kInvalidArgument);

    OnlineRequest out_of_range;
    out_of_range.problemId = 1 << 20;
    EXPECT_EQ(server.serveRequests({out_of_range}).status().code(),
              StatusCode::kInvalidArgument);

    // Legacy tolerance: negative finite arrivals queue from the trace
    // start (start = max(arrival, 0)), and serveArrivals never
    // crashes on them.
    OnlineRequest early;
    early.arrival = -1.0;
    early.problemId = 0;
    const auto served = server.serveRequests({early});
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served->records.size(), 1u);
    EXPECT_DOUBLE_EQ(served->records[0].arrival, -1.0);
    EXPECT_DOUBLE_EQ(served->records[0].start, 0.0);

    // Non-finite input through the legacy entry point degrades to the
    // empty trace instead of aborting.
    const auto empty =
        server.serveArrivals({std::nan(""), 1.0});
    EXPECT_TRUE(empty.records.empty());
}

TEST(OnlineServer, ServeRequestsAcceptsUnsortedArrivals)
{
    OnlineServer sorted_server =
        OnlineServer::create(smallOptions(true)).value();
    OnlineServer shuffled_server =
        OnlineServer::create(smallOptions(true)).value();
    std::vector<OnlineRequest> sorted_requests;
    std::vector<OnlineRequest> shuffled;
    for (int i = 0; i < 4; ++i) {
        OnlineRequest r;
        r.problemId = i;
        r.arrival = 3.0 * i;
        sorted_requests.push_back(r);
    }
    shuffled = {sorted_requests[2], sorted_requests[0],
                sorted_requests[3], sorted_requests[1]};
    const auto a = sorted_server.serveRequests(sorted_requests).value();
    const auto b = shuffled_server.serveRequests(shuffled).value();
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].problemId, b.records[i].problemId);
        EXPECT_DOUBLE_EQ(a.records[i].finish, b.records[i].finish);
    }
}

// --- Arrival traces ---

TEST(ArrivalTraces, GeneratorsAreDeterministicAndSorted)
{
    for (const char *mode : {"poisson", "bursty"}) {
        const auto a = makeArrivalTrace(mode, 32, 0.5, 11).value();
        const auto b = makeArrivalTrace(mode, 32, 0.5, 11).value();
        ASSERT_EQ(a.size(), 32u) << mode;
        EXPECT_EQ(a, b) << mode;
        for (size_t i = 1; i < a.size(); ++i)
            EXPECT_GT(a[i], a[i - 1]) << mode;
        EXPECT_GT(a.front(), 0.0) << mode;
    }
    // Different modes produce different streams.
    EXPECT_NE(makeArrivalTrace("poisson", 8, 0.5, 11).value(),
              makeArrivalTrace("bursty", 8, 0.5, 11).value());
}

TEST(ArrivalTraces, BurstyIsHeavierTailedThanPoisson)
{
    // Same mean rate, but the Pareto gaps' maximum dominates: the
    // largest inter-arrival gap is a much bigger multiple of the
    // median gap than under the exponential.
    auto gap_spread = [](const std::vector<double> &arrivals) {
        std::vector<double> gaps;
        for (size_t i = 1; i < arrivals.size(); ++i)
            gaps.push_back(arrivals[i] - arrivals[i - 1]);
        std::sort(gaps.begin(), gaps.end());
        return gaps.back() / gaps[gaps.size() / 2];
    };
    const double poisson =
        gap_spread(poissonArrivalTrace(256, 1.0, 5));
    const double bursty = gap_spread(burstyArrivalTrace(256, 1.0, 5));
    EXPECT_GT(bursty, poisson);
}

TEST(ArrivalTraces, RejectsBadModesAndRates)
{
    EXPECT_EQ(makeArrivalTrace("uniform", 4, 1.0, 0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(makeArrivalTrace("poisson", -1, 1.0, 0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(makeArrivalTrace("poisson", 4, 0.0, 0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(makeArrivalTrace("poisson", 0, 1.0, 0)->empty());
}

TEST(OnlineServer, InterleavedTracesDoNotAccumulateRecords)
{
    OnlineServerOptions online;
    online.maxInflight = 3;
    OnlineServer server =
        OnlineServer::create(smallOptions(true), online).value();
    (void)server.serveTrace(5, 2.0, 7);
    (void)server.serveTrace(5, 2.0, 7);
    EXPECT_EQ(server.system().pendingRequests(), 0u);
    EXPECT_EQ(server.system().result(1).status().code(),
              StatusCode::kNotFound);
}

// --- Shared engine, preemption and the one-device memory budget ---

TEST(OnlineServer, SharedLedgerBoundsResidentKvAcrossInflight)
{
    // Whatever the interleaving does, total resident KV across every
    // in-flight request can never exceed the one shared budget.
    ServingOptions opts = smallOptions(true);
    OnlineServerOptions online;
    online.maxInflight = 4;
    online.kvBudgetGiB = 1.0;
    OnlineServer server = OnlineServer::create(opts, online).value();

    // Overlapping burst: everything arrives at once.
    const auto out = server.serveArrivals({0, 0, 0, 0, 0, 0});
    EXPECT_EQ(out.records.size(), 6u);
    const KvBudgetLedger &ledger = server.kvLedger();
    EXPECT_DOUBLE_EQ(ledger.totalBytes(), 1.0 * (1ull << 30));
    EXPECT_GT(ledger.peakUsedBytes(), 0.0);
    EXPECT_LE(ledger.peakUsedBytes(), ledger.totalBytes() + 1.0);
}

TEST(OnlineServer, TightSharedBudgetForcesPreemptionEviction)
{
    // A budget far below the combined working sets makes the server
    // evict suspended victims; their paths come back as recompute.
    // ~0.75 GiB admits four predicted working sets (~136 MiB each)
    // but cannot hold four opportunistically filled caches (~370 MiB
    // each): the suspended victims get force-evicted.
    ServingOptions opts = smallOptions(true);
    OnlineServerOptions online;
    online.maxInflight = 4;
    online.kvBudgetGiB = 0.75;
    OnlineServer server = OnlineServer::create(opts, online).value();
    const auto out = server.serveArrivals({0, 0, 0, 0, 0, 0, 0, 0});
    EXPECT_EQ(out.records.size(), 8u);
    EXPECT_GT(out.preemptEvictedTokens, 0);
    EXPECT_GT(out.recomputedTokens, 0);
    EXPECT_LE(server.kvLedger().peakUsedBytes(),
              server.kvLedger().totalBytes() + 1.0);
}

TEST(OnlineServer, ShedDoomedShedsOnlyDoomedRequests)
{
    ServingOptions opts = smallOptions(true);

    // Impossible SLO + shedding: everything is shed at admission.
    OnlineServerOptions doomed;
    doomed.slo = 1e-3;
    doomed.shedDoomed = true;
    OnlineServer shedding =
        OnlineServer::create(opts, doomed).value();
    const auto shed_out = shedding.serveTrace(4, 0.5, 7);
    EXPECT_EQ(shed_out.shedRequests, 4);
    EXPECT_TRUE(shed_out.records.empty());

    // Same SLO without the flag: served doomed (legacy behaviour).
    OnlineServerOptions served;
    served.slo = 1e-3;
    OnlineServer serving = OnlineServer::create(opts, served).value();
    const auto served_out = serving.serveTrace(4, 0.5, 7);
    EXPECT_EQ(served_out.shedRequests, 0);
    EXPECT_EQ(served_out.records.size(), 4u);
    EXPECT_EQ(served_out.deadlineMisses, 4);

    // Generous SLO with the flag: nothing to shed.
    OnlineServerOptions generous;
    generous.slo = 1e9;
    generous.shedDoomed = true;
    OnlineServer relaxed =
        OnlineServer::create(opts, generous).value();
    const auto relaxed_out = relaxed.serveTrace(4, 0.5, 7);
    EXPECT_EQ(relaxed_out.shedRequests, 0);
    EXPECT_EQ(relaxed_out.records.size(), 4u);
}

TEST(OnlineServer, ActiveTimeIsDeviceTimeNotWallTime)
{
    // When requests share waves, wall service time includes the other
    // members' shares; activeTime never does, and it is exactly what
    // the utilization accounting sums.
    ServingOptions opts = smallOptions(true);
    OnlineServerOptions online;
    online.maxInflight = 3;
    OnlineServer server = OnlineServer::create(opts, online).value();
    const auto out = server.serveArrivals({0, 0, 0, 0, 0});
    ASSERT_EQ(out.records.size(), 5u);
    double active_total = 0;
    bool any_interleaved = false;
    for (const auto &rec : out.records) {
        EXPECT_GT(rec.activeTime, 0.0);
        EXPECT_LE(rec.activeTime, rec.serviceTime() + 1e-9);
        if (rec.activeTime < rec.serviceTime() - 1e-9)
            any_interleaved = true;
        active_total += rec.activeTime;
    }
    EXPECT_TRUE(any_interleaved);
    EXPECT_NEAR(out.utilization, active_total / out.makespan, 1e-12);
    EXPECT_LE(out.utilization, 1.0 + 1e-9);
}

TEST(OnlineServer, PreemptionStormHoldsInvariants)
{
    // Storm: tight shared budget, EDF, shedding and client
    // cancellations all at once, under the default wave budget, which
    // fits fewer members than are in flight (also exercised under
    // ASan+UBSan by the sanitizer CI job).
    ServingOptions opts = smallOptions(true);
    opts.numBeams = 4;
    OnlineServerOptions online;
    online.policy = "edf";
    online.maxInflight = 8;
    online.kvBudgetGiB = 0.5;
    online.shedDoomed = true;
    OnlineServer server = OnlineServer::create(opts, online).value();

    const auto arrivals = burstyArrivalTrace(24, 0.5, 11);
    std::vector<OnlineRequest> requests;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        OnlineRequest r;
        r.arrival = arrivals[i];
        r.priority = static_cast<int>(i % 3) - 1;
        const double tiers[] = {20.0, 60.0, 240.0, 0.0};
        r.slo = tiers[i % 4];
        if (i % 7 == 6)
            r.cancelAt = arrivals[i] + 1.0;
        requests.push_back(r);
    }
    const auto out = server.serveRequests(requests).value();
    EXPECT_EQ(static_cast<int>(out.records.size()) + out.shedRequests
                  + out.cancelled,
              24);
    EXPECT_EQ(out.defensiveExits, 0);
    EXPECT_LE(server.kvLedger().peakUsedBytes(),
              server.kvLedger().totalBytes() + 1.0);
    EXPECT_LE(out.utilization, 1.0 + 1e-9);
    for (const auto &rec : out.records) {
        EXPECT_GE(rec.start, rec.arrival);
        EXPECT_GT(rec.finish, rec.start);
        EXPECT_GT(rec.activeTime, 0.0);
        EXPECT_LE(rec.activeTime, rec.serviceTime() + 1e-9);
    }
}

TEST(OnlineServer, CreateRejectsBadBatchingOptions)
{
    const ServingOptions opts = smallOptions(true);

    // Continuous batching is the only mode: time slicing ("off") is an
    // error naming the one valid mode, never a silent substitute.
    for (const char *mode : {"off", "dynamic"}) {
        OnlineServerOptions bad_mode;
        bad_mode.batching = mode;
        const auto unknown = OnlineServer::create(opts, bad_mode);
        ASSERT_FALSE(unknown.ok()) << mode;
        EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument)
            << mode;
        EXPECT_NE(unknown.status().message().find("continuous"),
                  std::string::npos)
            << mode;
    }

    OnlineServerOptions zero_budget;
    zero_budget.maxBatchedTokens = 0;
    EXPECT_EQ(OnlineServer::create(opts, zero_budget).status().code(),
              StatusCode::kInvalidArgument);

    OnlineServerOptions zero_chunk;
    zero_chunk.prefillChunk = 0;
    EXPECT_EQ(OnlineServer::create(opts, zero_chunk).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(OnlineServer, ContinuousMatchesSoloContent)
{
    // Content determinism: sharing waves changes device-time
    // attribution, never what a request computes. With three requests
    // in flight on a tight budget with the prefix cache on (problems
    // repeat, so later prompts mount cached prefixes), every completed
    // request's solutions and verified tokens equal a solo
    // ServingSystem::serve of the same problem. Generated tokens
    // include FastTTS's speculative branches, whose volume depends on
    // the memory the shared ledger leaves, so they must match only
    // for the baseline, which never speculates.
    for (const bool fast : {false, true}) {
        const ServingOptions opts = smallOptions(fast);
        OnlineServerOptions online;
        online.policy = "edf";
        online.maxInflight = 3;
        online.kvBudgetGiB = 0.5;
        online.prefixCache = "on";
        online.slo = 60;
        OnlineServer server = OnlineServer::create(opts, online).value();
        std::vector<OnlineRequest> trace;
        const std::vector<double> arrivals = burstyArrivalTrace(8, 0.5, 11);
        for (size_t i = 0; i < arrivals.size(); ++i) {
            OnlineRequest r;
            r.problemId = static_cast<int>(i % 3);
            r.arrival = arrivals[i];
            trace.push_back(r);
        }
        std::vector<RequestResult> results;
        const auto out = server.serveRequests(trace, &results).value();
        ASSERT_EQ(out.records.size(), trace.size()) << fast;
        ASSERT_EQ(results.size(), out.records.size()) << fast;
        EXPECT_GT(out.batchOccupancy, 1.0) << fast; // Waves were shared,
        EXPECT_GT(out.preemptEvictedTokens, 0) << fast; // members benched
        EXPECT_GT(out.prefixHitTokens, 0) << fast; // and prompts reused.

        ServingSystem solo = ServingSystem::create(opts).value();
        for (size_t i = 0; i < out.records.size(); ++i) {
            const int problem = out.records[i].problemId;
            const std::string where = (fast ? "fasttts" : "baseline")
                + std::string(" problem ") + std::to_string(problem);
            const RequestResult want =
                solo.serve(solo.problems()[static_cast<size_t>(problem)]);
            const RequestResult &got = results[i];
            EXPECT_EQ(got.verifiedTokens, want.verifiedTokens) << where;
            if (!fast) {
                EXPECT_EQ(got.generatedTokens, want.generatedTokens)
                    << where;
            }
            ASSERT_EQ(got.solutions.size(), want.solutions.size()) << where;
            for (size_t j = 0; j < want.solutions.size(); ++j) {
                EXPECT_EQ(got.solutions[j].answer, want.solutions[j].answer)
                    << where;
                EXPECT_EQ(got.solutions[j].score, want.solutions[j].score)
                    << where;
                EXPECT_EQ(got.solutions[j].tokens, want.solutions[j].tokens)
                    << where;
            }
        }
    }
}

TEST(OnlineServer, ContinuousBatchingStormHoldsInvariants)
{
    // The preemption-storm workload under a wave budget that fuses all
    // eight in-flight requests: tight shared KV budget, shedding and
    // client cancellations, with memory pressure resolved by benching
    // batch members (also an ASan+UBSan CI pass).
    ServingOptions opts = smallOptions(true);
    opts.numBeams = 4;
    OnlineServerOptions online;
    online.policy = "edf";
    online.maxInflight = 8;
    const ServingSystem probe = ServingSystem::create(opts).value();
    online.maxBatchedTokens = online.maxInflight * opts.numBeams
        * std::max(1, static_cast<int>(
                          probe.engine().expectedStepTokens() + 1));
    online.kvBudgetGiB = 0.5;
    online.shedDoomed = true;
    OnlineServer server = OnlineServer::create(opts, online).value();

    const auto arrivals = burstyArrivalTrace(24, 0.5, 11);
    std::vector<OnlineRequest> requests;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        OnlineRequest r;
        r.arrival = arrivals[i];
        r.priority = static_cast<int>(i % 3) - 1;
        const double tiers[] = {20.0, 60.0, 240.0, 0.0};
        r.slo = tiers[i % 4];
        if (i % 7 == 6)
            r.cancelAt = arrivals[i] + 1.0;
        requests.push_back(r);
    }
    const auto out = server.serveRequests(requests).value();
    EXPECT_EQ(static_cast<int>(out.records.size()) + out.shedRequests
                  + out.cancelled,
              24);
    EXPECT_EQ(out.defensiveExits, 0);
    EXPECT_LE(server.kvLedger().peakUsedBytes(),
              server.kvLedger().totalBytes() + 1.0);
    EXPECT_LE(out.utilization, 1.0 + 1e-9);
    for (const auto &rec : out.records) {
        EXPECT_GE(rec.start, rec.arrival);
        EXPECT_GT(rec.finish, rec.start);
        EXPECT_GT(rec.activeTime, 0.0);
        EXPECT_LE(rec.activeTime, rec.serviceTime() + 1e-9);
    }
}

TEST(OnlineServer, LedgerRefusedMemberYieldsInsteadOfSpinning)
{
    // A tight shared ledger under continuous batching, sized down from
    // the responsiveness tool's stress pass (baseline engine, 4 beams,
    // EDF with shedding, 8 in flight, 0.5 GiB). A member the ledger
    // refuses while others hold its bytes must yield blocked on memory
    // and resume once the server frees bytes; spinning through
    // zero-progress waves used to charge one request over 10^4 s of
    // engine time on this trace and shed the requests behind it.
    ServingOptions opts = smallOptions(false);
    opts.datasetName = "AMC";
    opts.numBeams = 4;
    OnlineServerOptions online;
    online.policy = "edf";
    online.maxInflight = 8;
    online.kvBudgetGiB = 0.5;
    online.shedDoomed = true;
    online.slo = 2000;
    OnlineServer server = OnlineServer::create(opts, online).value();

    std::vector<OnlineRequest> trace;
    for (const double arrival : burstyArrivalTrace(24, 0.2, 88)) {
        OnlineRequest r;
        r.arrival = arrival;
        trace.push_back(r);
    }
    std::vector<RequestResult> results;
    const auto out = server.serveRequests(trace, &results).value();

    EXPECT_GT(out.blockedSteps, 0); // The yield actually engaged.
    EXPECT_EQ(out.defensiveExits, 0);
    EXPECT_EQ(static_cast<int>(out.records.size()) + out.shedRequests
                  + out.cancelled + out.timeouts + out.failedRequests,
              static_cast<int>(trace.size()));
    ASSERT_EQ(results.size(), out.records.size());
    ServingSystem solo = ServingSystem::create(opts).value();
    for (size_t i = 0; i < out.records.size(); ++i) {
        const OnlineRequestRecord &rec = out.records[i];
        EXPECT_LT(rec.activeTime, 1e3) << "problem " << rec.problemId;
        const RequestResult want = solo.serve(
            solo.problems()[static_cast<size_t>(rec.problemId)]);
        ASSERT_EQ(results[i].solutions.size(), want.solutions.size());
        for (size_t j = 0; j < want.solutions.size(); ++j) {
            EXPECT_EQ(results[i].solutions[j].answer,
                      want.solutions[j].answer);
            EXPECT_EQ(results[i].solutions[j].score,
                      want.solutions[j].score);
            EXPECT_EQ(results[i].solutions[j].tokens,
                      want.solutions[j].tokens);
        }
    }
}

// --- Benching hysteresis: the "at most one return per wave" rule ---

TEST(PickBenchReturn, NoBenchedMembersMeansNoReturn)
{
    EXPECT_EQ(pickBenchReturn({}, 1000, 10, false), -1);
    EXPECT_EQ(pickBenchReturn({{false, 50}, {false, 70}}, 1000, 10,
                              false),
              -1);
}

TEST(PickBenchReturn, OldestBenchedReturnsWithHysteresisHeadroom)
{
    // Eligibility gate: kv demand + 2x headroom must be free, the
    // hysteresis gap that stops bench/unbench thrash.
    const std::vector<std::pair<bool, double>> wave = {
        {false, 40}, {true, 100}, {true, 10}};
    EXPECT_EQ(pickBenchReturn(wave, 120.0, 10.0, false), 1);
    // Exactly at the threshold still qualifies...
    EXPECT_EQ(pickBenchReturn(wave, 100.0 + 2 * 10.0, 10.0, false), 1);
    // ...one byte under does not.
    EXPECT_EQ(pickBenchReturn(wave, 119.0, 10.0, false), -1);
}

TEST(PickBenchReturn, IneligibleOldestBlocksYoungerMembers)
{
    // The younger benched member (10 bytes) would fit easily, but the
    // oldest benched one gates the wave: skipping ahead of it would
    // starve the old request whenever memory stays tight.
    const std::vector<std::pair<bool, double>> wave = {
        {false, 40}, {true, 1000}, {true, 10}};
    EXPECT_EQ(pickBenchReturn(wave, 200.0, 10.0, false), -1);
}

TEST(PickBenchReturn, FrontForcedReturnIsNotAHysteresisReturn)
{
    // The front entered the wave benched (the oldest member completed
    // and promoted it) and was force-returned — the progress
    // guarantee. Its flag was already cleared exactly once, so the
    // hysteresis rule must never pick index 0 again, but the next
    // benched member is still eligible on its own merits.
    const std::vector<std::pair<bool, double>> wave = {
        {true, 40}, {true, 60}, {true, 10}};
    EXPECT_EQ(pickBenchReturn(wave, 1000.0, 10.0, true), 1);
    // Without the forced return the same wave unbenches the front.
    EXPECT_EQ(pickBenchReturn(wave, 1000.0, 10.0, false), 0);
    // A front-only wave yields no hysteresis return at all.
    EXPECT_EQ(pickBenchReturn({{true, 40}}, 1000.0, 10.0, true), -1);
}

TEST(PickBenchReturn, AtMostOneReturnPerWave)
{
    // Every member benched and every member eligible: still exactly
    // one comes back (the oldest), never a mass return.
    const std::vector<std::pair<bool, double>> wave = {
        {false, 5}, {true, 5}, {true, 5}, {true, 5}};
    EXPECT_EQ(pickBenchReturn(wave, 1e9, 10.0, false), 1);
    EXPECT_EQ(pickBenchReturn(wave, 1e9, 10.0, true), 1);
}

// --- Cross-request prefix cache ---

TEST(OnlineServer, CreateRejectsBadPrefixCacheOptions)
{
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions bad_mode;
    bad_mode.prefixCache = "maybe";
    const auto unknown = OnlineServer::create(opts, bad_mode);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(unknown.status().message().find("off"),
              std::string::npos);

    OnlineServerOptions negative_budget;
    negative_budget.prefixCache = "on";
    negative_budget.prefixCacheBudgetGiB = -0.5;
    EXPECT_EQ(
        OnlineServer::create(opts, negative_budget).status().code(),
        StatusCode::kInvalidArgument);
}

/** The multi-turn session trace the prefix-cache tests serve: each
 *  turn's prompt exactly prefix-extends the previous turn's. */
std::vector<OnlineRequest>
multiTurnTrace(int turns, int base_tokens, int growth_tokens)
{
    std::vector<OnlineRequest> requests;
    for (int turn = 0; turn < turns; ++turn) {
        OnlineRequest r;
        r.arrival = 5.0 * turn;
        const int prompt = base_tokens + turn * growth_tokens;
        for (int j = 0; j < prompt; ++j)
            r.promptIds.push_back(static_cast<int32_t>(1000003 + j));
        requests.push_back(r);
    }
    return requests;
}

TEST(OnlineServer, PrefixCacheOffIsFieldForFieldIdenticalToDefault)
{
    // The differential the whole feature hangs on: --prefix-cache off
    // (even with a budget set, which must be inert) reproduces a
    // default-configured server exactly — every record field and
    // every aggregate, no epsilon.
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions legacy;
    legacy.maxInflight = 3;
    OnlineServerOptions off = legacy;
    off.prefixCache = "off";
    off.prefixCacheBudgetGiB = 2.0; // Must not matter when off.

    const auto trace = multiTurnTrace(6, 96, 48);
    OnlineServer a = OnlineServer::create(opts, legacy).value();
    OnlineServer b = OnlineServer::create(opts, off).value();
    const auto want = a.serveRequests(trace).value();
    const auto got = b.serveRequests(trace).value();

    expectSameTrace(got, want, "prefix cache off");
    EXPECT_EQ(got.prefixHitTokens, 0);
    EXPECT_EQ(want.prefixHitTokens, 0);
    EXPECT_EQ(b.system().prefixIndex(), nullptr);
}

TEST(OnlineServer, PrefixCacheMountsMultiTurnSessionPrompts)
{
    // Turn k's prompt prefix-extends turn k-1's, and the turns are
    // spaced out so each completes (and publishes) before the next
    // arrives: with an ample cache every turn mounts the whole
    // previous prompt, so the trace's saved volume is exactly the sum
    // of prompts 1..n-1.
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions online;
    online.prefixCache = "on";
    const auto trace = multiTurnTrace(3, 96, 48);

    OnlineServer server = OnlineServer::create(opts, online).value();
    const auto out = server.serveRequests(trace).value();
    ASSERT_EQ(out.records.size(), 3u);
    EXPECT_EQ(out.prefixHitTokens, 96 + 144);

    const PrefixIndex *index = server.system().prefixIndex();
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->stats().hitTokens, 96u + 144u);
    EXPECT_GE(index->stats().lookups, 3u);
    // Completed prompts were published back: the longest prompt is
    // fully cached for the session's next turn.
    EXPECT_GE(index->residentTokens(), 96 + 48 + 48);

    // The identical trace with the cache off saves nothing.
    OnlineServer off = OnlineServer::create(opts).value();
    const auto off_out = off.serveRequests(trace).value();
    EXPECT_EQ(off_out.records.size(), 3u);
    EXPECT_EQ(off_out.prefixHitTokens, 0);
}

// --- Ledger charge/refund symmetry under refused lazy re-prefill ---

TEST(OnlineServer, LedgerOccupancyReturnsToBaselineAfterTightStorm)
{
    // The satellite-1 regression: under a deliberately tight shared
    // budget, benched members' lazy re-prefills are refused and fall
    // back to pay-at-first-touch recompute. Whatever path each
    // request took, every charge must be matched by a refund —
    // allocateBlocks/releaseBlocks are all-or-nothing, so a refused
    // charge reserves nothing to leak — and the ledger drains to
    // exactly zero once the storm completes.
    ServingOptions opts = smallOptions(true);
    opts.numBeams = 4;
    OnlineServerOptions online;
    online.policy = "edf";
    online.maxInflight = 8;
    online.kvBudgetGiB = 0.5;
    online.shedDoomed = true;
    OnlineServer server = OnlineServer::create(opts, online).value();

    const auto arrivals = burstyArrivalTrace(16, 0.5, 11);
    std::vector<OnlineRequest> requests;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        OnlineRequest r;
        r.arrival = arrivals[i];
        const double tiers[] = {20.0, 60.0, 240.0, 0.0};
        r.slo = tiers[i % 4];
        requests.push_back(r);
    }
    const auto out = server.serveRequests(requests).value();
    EXPECT_GT(out.records.size(), 0u);
    EXPECT_GT(server.kvLedger().peakUsedBytes(), 0.0);
    EXPECT_DOUBLE_EQ(server.kvLedger().usedBytes(), 0.0);

    // With the prefix cache on, the only residual charge is the
    // cache's own resident bytes — in-flight KV still drains fully.
    OnlineServerOptions cached = online;
    cached.prefixCache = "on";
    OnlineServer cached_server =
        OnlineServer::create(opts, cached).value();
    const auto cached_out =
        cached_server.serveRequests(requests).value();
    EXPECT_GT(cached_out.records.size(), 0u);
    ASSERT_NE(cached_server.system().prefixIndex(), nullptr);
    EXPECT_DOUBLE_EQ(
        cached_server.kvLedger().usedBytes(),
        cached_server.system().prefixIndex()->residentBytes());
}

// --- Percentile population contract on shedding traces ---

/** Ceil-rank percentile over completed-record latencies, the
 *  reference aggregateTrace() must agree with. */
double
latencyPercentile(const std::vector<OnlineRequestRecord> &records,
                  double p)
{
    std::vector<double> latencies;
    for (const auto &rec : records)
        latencies.push_back(rec.latency());
    std::sort(latencies.begin(), latencies.end());
    const size_t rank = static_cast<size_t>(std::ceil(
        p * static_cast<double>(latencies.size())));
    return latencies[std::max<size_t>(rank, 1) - 1];
}

TEST(OnlineServer, PercentilesCoverCompletedRequestsOnlyWhenShedding)
{
    // A trace that sheds and cancels must not let the missing
    // requests skew its latency statistics: the percentiles are
    // exactly the ceil-rank statistics of the completed records — no
    // phantom zero-latency entries for shed or cancelled requests, and
    // the three populations partition the trace.
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions online;
    online.maxInflight = 2;
    online.shedDoomed = true;
    OnlineServer server = OnlineServer::create(opts, online).value();

    std::vector<OnlineRequest> requests;
    for (int i = 0; i < 9; ++i) {
        OnlineRequest r;
        r.arrival = 0.0;
        if (i % 3 == 1)
            r.slo = 1e-3; // Doomed: shed at admission.
        if (i % 3 == 2)
            r.cancelAt = 0.5; // Abandoned while queued.
        requests.push_back(r);
    }
    const auto out = server.serveRequests(requests).value();

    EXPECT_GT(out.shedRequests, 0);
    EXPECT_GT(out.cancelled, 0);
    ASSERT_GT(out.records.size(), 0u);
    EXPECT_EQ(static_cast<int>(out.records.size()) + out.shedRequests
                  + out.cancelled,
              9);

    EXPECT_DOUBLE_EQ(out.p50Latency, latencyPercentile(out.records, 0.50));
    EXPECT_DOUBLE_EQ(out.p95Latency, latencyPercentile(out.records, 0.95));
    EXPECT_DOUBLE_EQ(out.p99Latency, latencyPercentile(out.records, 0.99));
    double mean = 0;
    for (const auto &rec : out.records)
        mean += rec.latency();
    mean /= static_cast<double>(out.records.size());
    EXPECT_DOUBLE_EQ(out.meanLatency, mean);
}

TEST(OnlineServer, ServeProblemsAdapterMatchesServingSystem)
{
    // serveProblems() is a thin adapter over the request loop: at
    // arrival 0 / fifo / max-inflight 1 it degenerates to the batch
    // path and must reproduce ServingSystem::serveProblems exactly.
    const ServingOptions opts = smallOptions(true);
    ServingSystem batch = ServingSystem::create(opts).value();
    const BatchResult want = batch.serveProblems(4);

    OnlineServer server = OnlineServer::create(opts).value();
    const BatchResult got = server.serveProblems(4);

    ASSERT_EQ(got.requests.size(), want.requests.size());
    EXPECT_DOUBLE_EQ(got.meanGoodput, want.meanGoodput);
    EXPECT_DOUBLE_EQ(got.top1Accuracy, want.top1Accuracy);
    for (size_t i = 0; i < got.requests.size(); ++i) {
        EXPECT_EQ(got.requests[i].verifiedTokens,
                  want.requests[i].verifiedTokens);
        EXPECT_DOUBLE_EQ(got.requests[i].completionTime,
                         want.requests[i].completionTime);
    }
}

// --- Fault injection, retry and timeout ---

/** A small burst of arrival-0ish requests with generous deadlines. */
std::vector<OnlineRequest>
faultTrace(int n)
{
    std::vector<OnlineRequest> requests;
    for (int i = 0; i < n; ++i) {
        OnlineRequest r;
        r.arrival = 0.5 * i;
        r.slo = 1e6; // Generous: only terminal failures miss.
        requests.push_back(r);
    }
    return requests;
}

TEST(OnlineServer, CreateRejectsBadFaultOptions)
{
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions bad_mode;
    bad_mode.faults = "chaos";
    EXPECT_EQ(OnlineServer::create(opts, bad_mode).status().code(),
              StatusCode::kInvalidArgument);

    OnlineServerOptions no_plan;
    no_plan.faults = "plan";
    EXPECT_EQ(OnlineServer::create(opts, no_plan).status().code(),
              StatusCode::kInvalidArgument);

    OnlineServerOptions bad_plan;
    bad_plan.faults = "plan";
    bad_plan.faultPlan = "{\"rules\": [{\"rate\": 0.1}]}";
    EXPECT_EQ(OnlineServer::create(opts, bad_plan).status().code(),
              StatusCode::kInvalidArgument);

    OnlineServerOptions bad_retry;
    bad_retry.retryMax = 17;
    EXPECT_EQ(OnlineServer::create(opts, bad_retry).status().code(),
              StatusCode::kInvalidArgument);
    bad_retry.retryMax = -1;
    EXPECT_EQ(OnlineServer::create(opts, bad_retry).status().code(),
              StatusCode::kInvalidArgument);

    OnlineServerOptions bad_backoff;
    bad_backoff.retryBackoff = -0.5;
    EXPECT_EQ(OnlineServer::create(opts, bad_backoff).status().code(),
              StatusCode::kInvalidArgument);

    OnlineServerOptions bad_timeout;
    bad_timeout.requestTimeout = -1.0;
    EXPECT_EQ(OnlineServer::create(opts, bad_timeout).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(OnlineServer, ZeroRateFaultPlanMatchesFaultFreeTrace)
{
    // The in-process differential: a plan whose rules arm every probe
    // at rate 0 draws from the injector's dedicated stream but never
    // fires — the trace must be field-for-field identical to a
    // fault-free server, proving injector draws cannot perturb the
    // simulation.
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions plain;
    plain.maxInflight = 3;
    OnlineServerOptions armed = plain;
    armed.faults = "plan";
    armed.faultPlan =
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.0}]}";
    armed.retryMax = 3;

    const auto trace = faultTrace(6);
    OnlineServer a = OnlineServer::create(opts, plain).value();
    OnlineServer b = OnlineServer::create(opts, armed).value();
    const auto want = a.serveRequests(trace).value();
    const auto got = b.serveRequests(trace).value();

    expectSameTrace(got, want, "zero-rate plan");
    EXPECT_EQ(got.injectedFaults, 0);
}

TEST(OnlineServer, TargetedFaultFailsRequestTerminallyWithoutRetry)
{
    // A rate-1.0 rule pinned to request 0 with no retry budget: its
    // first wave faults, the request fails terminally, and everyone
    // else completes untouched.
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions online;
    online.maxInflight = 2;
    online.faults = "plan";
    online.faultPlan = "{\"rules\": [{\"site\": \"wave_step\", "
                       "\"rate\": 1.0, \"request\": 0}]}";
    OnlineServer server = OnlineServer::create(opts, online).value();
    const auto out = server.serveRequests(faultTrace(4)).value();
    EXPECT_EQ(out.records.size(), 3u);
    EXPECT_EQ(out.failedRequests, 1);
    EXPECT_GE(out.injectedFaults, 1l);
    EXPECT_EQ(out.retries, 0);
    // The terminal failure carried a (generous) deadline it can
    // no longer meet: attainment counts it as a miss.
    EXPECT_LT(out.sloAttainment, 1.0);
    EXPECT_DOUBLE_EQ(server.kvLedger().usedBytes(), 0.0);
}

TEST(OnlineServer, RetryRecoversWindowedFault)
{
    // The fault window closes before the backed-off retry re-enters:
    // attempt 1 is killed, attempt 2 runs clean, every request
    // completes.
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions online;
    online.maxInflight = 2;
    online.faults = "plan";
    online.faultPlan = "{\"rules\": [{\"site\": \"wave_step\", "
                       "\"rate\": 1.0, \"request\": 0, "
                       "\"end\": 1e4}]}";
    online.retryMax = 5;
    online.retryBackoff = 2e4; // Retry lands past the window.
    OnlineServer server = OnlineServer::create(opts, online).value();
    const auto out = server.serveRequests(faultTrace(4)).value();
    EXPECT_EQ(out.records.size(), 4u);
    EXPECT_EQ(out.failedRequests, 0);
    EXPECT_GE(out.retries, 1);
    EXPECT_GE(out.injectedFaults, 1l);
    // No wasted recompute: the fault strikes before the first
    // wave runs, so the killed attempt had decoded nothing yet.
    EXPECT_EQ(out.faultWastedTokens, 0l);
    EXPECT_DOUBLE_EQ(server.kvLedger().usedBytes(), 0.0);
}

TEST(OnlineServer, WatchdogTimesOutEveryRequestUnderTinyDeadline)
{
    // An absurdly tight --request-timeout: the watchdog aborts every
    // request (inflight after its first wave, queued before
    // admission), nothing completes, and the books still drain.
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions online;
    online.maxInflight = 2;
    online.requestTimeout = 1e-6;
    OnlineServer server = OnlineServer::create(opts, online).value();
    const auto out = server.serveRequests(faultTrace(3)).value();
    EXPECT_TRUE(out.records.empty());
    EXPECT_EQ(out.timeouts, 3);
    EXPECT_EQ(out.retries, 0);
    EXPECT_DOUBLE_EQ(out.sloAttainment, 0.0);
    EXPECT_DOUBLE_EQ(server.kvLedger().usedBytes(), 0.0);
    // Occupancy counts the waves that ran, completed or not, and a
    // wave that decoded would have wasted its tokens.
    EXPECT_EQ(out.batchOccupancy > 0, out.faultWastedTokens > 0);
}

TEST(OnlineServer, FaultSequencesReplayBitForBitAcrossServers)
{
    // Two servers built from identical options and seeds must inject
    // the identical fault sequence and produce the identical trace —
    // the determinism contract the benchmark's cells rely on.
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions online;
    online.maxInflight = 3;
    online.faults = "plan";
    online.faultPlan =
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.2}]}";
    online.retryMax = 3;
    online.retryBackoff = 0.05;
    const auto trace = faultTrace(6);
    OnlineServer a = OnlineServer::create(opts, online).value();
    OnlineServer b = OnlineServer::create(opts, online).value();
    const auto ra = a.serveRequests(trace).value();
    const auto rb = b.serveRequests(trace).value();
    EXPECT_EQ(ra.injectedFaults, rb.injectedFaults);
    EXPECT_EQ(ra.retries, rb.retries);
    EXPECT_EQ(ra.failedRequests, rb.failedRequests);
    EXPECT_EQ(ra.faultWastedTokens, rb.faultWastedTokens);
    ASSERT_EQ(ra.records.size(), rb.records.size());
    for (size_t i = 0; i < ra.records.size(); ++i) {
        EXPECT_DOUBLE_EQ(ra.records[i].start, rb.records[i].start);
        EXPECT_DOUBLE_EQ(ra.records[i].finish, rb.records[i].finish);
    }
    EXPECT_DOUBLE_EQ(ra.makespan, rb.makespan);
}

TEST(OnlineServer, CancelStormDrainsPrefixPinsAndLedger)
{
    // The satellite-1 regression: requests leaving through EVERY
    // abnormal exit — client cancellation while queued, injected
    // wave faults with no retry budget, watchdog timeouts — must
    // release their prefix pins and ledger charges. After the storm
    // the index holds only its permanent root self-reference and the
    // ledger holds only the cache's own resident bytes.
    ServingOptions opts = smallOptions(true);
    opts.numBeams = 4;
    OnlineServerOptions online;
    online.maxInflight = 2;
    online.kvBudgetGiB = 0.5;
    online.prefixCache = "on";
    online.faults = "plan";
    online.faultPlan =
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.4}]}";
    online.requestTimeout = 40.0;
    OnlineServer server = OnlineServer::create(opts, online).value();

    std::vector<OnlineRequest> storm;
    for (int i = 0; i < 10; ++i) {
        OnlineRequest r;
        r.arrival = 0.25 * i;
        r.slo = 1e6;
        // Shared prompt prefix so pins actually land on cached nodes.
        for (int j = 0; j < 64 + 8 * (i % 3); ++j)
            r.promptIds.push_back(static_cast<int32_t>(7000 + j));
        if (i % 3 == 2)
            r.cancelAt = r.arrival + 0.1; // Abandoned while queued.
        storm.push_back(r);
    }
    const auto out = server.serveRequests(storm).value();
    // The storm must actually exercise abnormal exits.
    EXPECT_GT(out.injectedFaults + out.timeouts + out.failedRequests,
              0l);

    const PrefixIndex *index = server.system().prefixIndex();
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->refCount(PrefixIndex::kRoot), 1);
    EXPECT_DOUBLE_EQ(server.kvLedger().usedBytes(),
                     index->residentBytes());
}

TEST(OnlineServer, FaultBeforeFirstWaveWastesNoDecode)
{
    // A rate-1.0 rule pinned to request 2 with no retry budget kills
    // it at its first wave-step probe, before it decoded anything.
    // The wasted volume is that attempt's own decode — zero — never
    // the tokens of whichever request the engine held last.
    const ServingOptions opts = smallOptions(true);
    OnlineServerOptions online;
    online.maxInflight = 1;
    online.faults = "plan";
    online.faultPlan = "{\"rules\": [{\"site\": \"wave_step\", "
                       "\"rate\": 1.0, \"request\": 2}]}";
    OnlineServer server = OnlineServer::create(opts, online).value();
    const auto out = server.serveRequests(faultTrace(4)).value();
    EXPECT_EQ(out.records.size(), 3u);
    EXPECT_EQ(out.failedRequests, 1);
    EXPECT_EQ(out.faultWastedTokens, 0l);
}

TEST(OnlineServer, WatchdogChargesSuspendedVictimsTheirDecode)
{
    // Two requests arrive together and both outlive the watchdog.
    // They decode side by side in fused waves until it fires; the
    // waste must count both attempts, not only the one the engine
    // held last (about half).
    const ServingOptions opts = smallOptions(true);
    const auto wasted = [&opts](int max_inflight) {
        OnlineServerOptions online;
        online.maxInflight = max_inflight;
        online.requestTimeout = 6.0;
        OnlineServer server = OnlineServer::create(opts, online).value();
        const auto out =
            server.serveRequests(std::vector<OnlineRequest>(2)).value();
        EXPECT_TRUE(out.records.empty());
        EXPECT_EQ(out.timeouts, 2);
        return out.faultWastedTokens;
    };
    const long solo = wasted(1); // Request 1 never leaves the queue.
    const long batched = wasted(2);
    EXPECT_GT(solo, 0l);
    EXPECT_GT(static_cast<double>(batched), 0.9 * static_cast<double>(solo));
}

// --- Invariants across the serving-flag lattice ---

TEST(OnlineServer, FlagLatticeHoldsInvariants)
{
    // One bursty trace — mixed priorities, SLO tiers and client
    // cancellations — served on every point of the serving-flag
    // lattice: {fifo, edf + shedding} x KV budget x prefix cache x
    // {no faults, 10% wave-step faults with retries} x watchdog, 32
    // points in all.
    ServingOptions opts = smallOptions(true);
    opts.numBeams = 4;
    const auto arrivals = burstyArrivalTrace(14, 0.1, 11);
    std::vector<OnlineRequest> trace;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        OnlineRequest r;
        r.arrival = arrivals[i];
        r.priority = static_cast<int>(i % 3) - 1;
        const double tiers[] = {20.0, 60.0, 240.0, 0.0};
        r.slo = tiers[i % 4];
        if (i % 5 == 4)
            r.cancelAt = arrivals[i] + 1.0;
        trace.push_back(r);
    }

    int evicting_points = 0;
    for (int axes = 0; axes < 32; ++axes) {
        OnlineServerOptions online;
        online.maxInflight = 3;
        if (axes & 1) {
            online.policy = "edf";
            online.shedDoomed = true;
        }
        if (axes & 2)
            online.kvBudgetGiB = 0.5;
        if (axes & 4)
            online.prefixCache = "on";
        if (axes & 8) {
            online.faults = "plan";
            online.faultPlan = "{\"rules\": [{\"site\": "
                               "\"wave_step\", \"rate\": 0.1}]}";
            online.retryMax = 2;
        }
        if (axes & 16)
            online.requestTimeout = 15.0;

        const std::string where = "axes=" + std::to_string(axes);
        OnlineServer server = OnlineServer::create(opts, online).value();
        const auto out = server.serveRequests(trace).value();
        // Every submitted request ends in exactly one terminal state.
        EXPECT_EQ(static_cast<int>(out.records.size()) + out.shedRequests
                      + out.cancelled + out.timeouts + out.failedRequests,
                  static_cast<int>(trace.size()))
            << where;
        EXPECT_EQ(out.defensiveExits, 0) << where;
        // Only the prefix cache's own residency outlives the trace on
        // the shared ledger.
        const PrefixIndex *index = server.system().prefixIndex();
        EXPECT_EQ(server.kvLedger().usedBytes(),
                  index != nullptr ? index->residentBytes() : 0.0)
            << where;
        if (out.preemptEvictedTokens > 0)
            ++evicting_points;
    }
    // The lattice must actually reach the memory-pressure sweep.
    EXPECT_GT(evicting_points, 0);
}

} // namespace
} // namespace fasttts
