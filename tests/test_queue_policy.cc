/**
 * @file
 * Tests for the pluggable online admission policies: per-policy
 * ordering rules, the queue-policy registry, and scheduler properties
 * (work conservation, no starvation under aging, accounting, and
 * determinism) of the interleaved OnlineServer built on them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/online_server.h"
#include "sched/queue_policy.h"

namespace fasttts
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

QueuedRequest
queued(uint64_t id, double arrival, int priority = 0,
       double deadline = kInf, double predicted_cost = 1.0)
{
    QueuedRequest r;
    r.id = id;
    r.arrival = arrival;
    r.priority = priority;
    r.deadline = deadline;
    r.predictedCost = predicted_cost;
    return r;
}

// --- Registry ---

TEST(QueuePolicyRegistry, ShipsBuiltInPolicies)
{
    const auto names = queuePolicyRegistry().list();
    for (const char *expected : {"fifo", "priority", "sjf", "edf"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << "missing policy: " << expected;
    }
    for (const char *name : {"fifo", "priority", "sjf", "edf"})
        EXPECT_EQ((*makeQueuePolicy(name))->name(), name);
}

TEST(QueuePolicyRegistry, UnknownNameListsValidNames)
{
    const auto policy = makeQueuePolicy("nope");
    ASSERT_FALSE(policy.ok());
    EXPECT_EQ(policy.status().code(), StatusCode::kNotFound);
    EXPECT_NE(policy.status().message().find("fifo"),
              std::string::npos);
    EXPECT_NE(policy.status().message().find("edf"), std::string::npos);
}

TEST(QueuePolicyRegistry, CustomPolicyPlugsIntoOnlineServer)
{
    // Last-in-first-out: a policy the library does not ship, proving
    // the axis is extensible without core edits.
    class LifoPolicy final : public QueuePolicy
    {
      public:
        std::string name() const override { return "test_lifo"; }
        size_t
        pick(const std::vector<QueuedRequest> &pending, double) override
        {
            size_t best = 0;
            for (size_t i = 1; i < pending.size(); ++i)
                if (pending[i].arrival >= pending[best].arrival)
                    best = i;
            return best;
        }
    };
    ASSERT_TRUE(queuePolicyRegistry()
                    .add("test_lifo",
                         [] { return std::make_unique<LifoPolicy>(); })
                    .ok());

    ServingOptions opts;
    opts.numBeams = 4;
    OnlineServerOptions online;
    online.policy = "test_lifo";
    auto server = OnlineServer::create(opts, online);
    ASSERT_TRUE(server.ok());
    const auto out = server->serveArrivals({0.0, 0.1, 0.2, 0.3});
    EXPECT_EQ(out.records.size(), 4u);
    // The first request starts immediately; afterwards LIFO serves the
    // latest arrival first, so problem 3 finishes before problem 1.
    double finish1 = 0;
    double finish3 = 0;
    for (const auto &rec : out.records) {
        if (rec.problemId == 1)
            finish1 = rec.finish;
        if (rec.problemId == 3)
            finish3 = rec.finish;
    }
    EXPECT_LT(finish3, finish1);

    EXPECT_TRUE(queuePolicyRegistry().remove("test_lifo").ok());
}

// --- Per-policy ordering rules ---

TEST(QueuePolicy, FifoPicksEarliestArrival)
{
    auto policy = makeFifoPolicy();
    const std::vector<QueuedRequest> pending = {
        queued(2, 5.0), queued(0, 1.0), queued(1, 3.0)};
    EXPECT_EQ(policy->pick(pending, 10.0), 1u);
}

TEST(QueuePolicy, FifoBreaksArrivalTiesById)
{
    auto policy = makeFifoPolicy();
    const std::vector<QueuedRequest> pending = {queued(7, 1.0),
                                                queued(3, 1.0)};
    EXPECT_EQ(policy->pick(pending, 2.0), 1u);
}

TEST(QueuePolicy, PriorityPicksHighestPriority)
{
    auto policy = makePriorityPolicy(/*aging_per_second=*/0.0);
    const std::vector<QueuedRequest> pending = {
        queued(0, 0.0, 1), queued(1, 0.0, 5), queued(2, 0.0, 3)};
    EXPECT_EQ(policy->pick(pending, 1.0), 1u);
}

TEST(QueuePolicy, PriorityAgingLiftsLongWaiters)
{
    auto policy = makePriorityPolicy(/*aging_per_second=*/1.0);
    // Low priority but waiting 10 s (effective 0 + 10) beats high
    // priority that just arrived (effective 5 + 0).
    const std::vector<QueuedRequest> pending = {queued(0, 10.0, 5),
                                                queued(1, 0.0, 0)};
    EXPECT_EQ(policy->pick(pending, 10.0), 1u);
    // Without aging the high-priority request wins.
    auto no_aging = makePriorityPolicy(/*aging_per_second=*/0.0);
    EXPECT_EQ(no_aging->pick(pending, 10.0), 0u);
}

TEST(QueuePolicy, SjfPicksSmallestPredictedCost)
{
    auto policy = makeSjfPolicy();
    const std::vector<QueuedRequest> pending = {
        queued(0, 0.0, 0, kInf, 9.0), queued(1, 1.0, 0, kInf, 2.0),
        queued(2, 2.0, 0, kInf, 4.0)};
    EXPECT_EQ(policy->pick(pending, 3.0), 1u);
}

TEST(QueuePolicy, EdfPicksEarliestDeadlineAndParksDeadlineFree)
{
    auto policy = makeEdfPolicy();
    const std::vector<QueuedRequest> pending = {
        queued(0, 0.0, 0, kInf), queued(1, 1.0, 0, 50.0),
        queued(2, 2.0, 0, 20.0)};
    EXPECT_EQ(policy->pick(pending, 3.0), 2u);
    // Among deadline-free requests, arrival order breaks the tie.
    const std::vector<QueuedRequest> no_deadlines = {
        queued(4, 2.0, 0, kInf), queued(5, 1.0, 0, kInf)};
    EXPECT_EQ(policy->pick(no_deadlines, 3.0), 1u);
}

TEST(QueuePolicy, PredictServiceTimeGrowsWithPromptAndBeams)
{
    const RooflineModel roofline(*deviceByName("RTX4090"));
    const ModelConfig models = config1_5Bplus1_5B();
    const DatasetProfile profile = *datasetByName("AIME");
    Problem small;
    small.promptTokens = 100;
    Problem large;
    large.promptTokens = 2000;
    const double t_small =
        predictServiceTime(roofline, models, profile, small, 8);
    const double t_large =
        predictServiceTime(roofline, models, profile, large, 8);
    EXPECT_GT(t_small, 0);
    EXPECT_GT(t_large, t_small);
    EXPECT_GT(predictServiceTime(roofline, models, profile, small, 64),
              t_small);
}

// --- Scheduler properties on the interleaved server ---

ServingOptions
smallOptions()
{
    ServingOptions opts;
    opts.numBeams = 4;
    opts.datasetName = "AMC";
    return opts;
}

OnlineServer
makeServer(const std::string &policy, int max_inflight, double slo = 0)
{
    OnlineServerOptions online;
    online.policy = policy;
    online.maxInflight = max_inflight;
    online.slo = slo;
    return OnlineServer::create(smallOptions(), online).value();
}

TEST(QueuePolicyProperties, WorkConservationUnderBacklog)
{
    // Every request is available from t=0, so a work-conserving
    // device never idles: busy time equals the makespan.
    for (const char *policy : {"fifo", "priority", "sjf", "edf"}) {
        OnlineServer server = makeServer(policy, 2);
        std::vector<OnlineRequest> requests;
        for (int i = 0; i < 6; ++i) {
            OnlineRequest r;
            r.arrival = 0.0;
            r.priority = i % 3;
            requests.push_back(r);
        }
        const auto out = server.serveRequests(requests).value();
        ASSERT_EQ(out.records.size(), 6u) << policy;
        EXPECT_NEAR(out.utilization, 1.0, 1e-9) << policy;
        // And no record starts after an idle gap it could have filled.
        for (const auto &rec : out.records)
            EXPECT_LE(rec.start, out.makespan) << policy;
    }
}

TEST(QueuePolicyProperties, PriorityAgingPreventsStarvation)
{
    // One low-priority request arrives first; a saturating stream of
    // high-priority requests keeps arriving behind it. With aging the
    // old request's effective priority keeps growing, so it must not
    // finish last.
    OnlineServer server = makeServer("priority", 1);
    std::vector<OnlineRequest> requests;
    OnlineRequest low;
    low.arrival = 0.0;
    low.priority = 0;
    requests.push_back(low);
    for (int i = 0; i < 12; ++i) {
        OnlineRequest high;
        high.arrival = 0.5 * (i + 1);
        high.priority = 1;
        requests.push_back(high);
    }
    const auto out = server.serveRequests(requests).value();
    ASSERT_EQ(out.records.size(), requests.size());
    // The low-priority request is problem 0 (ids cycle by submission
    // order); find its completion position.
    size_t low_position = out.records.size();
    for (size_t i = 0; i < out.records.size(); ++i)
        if (out.records[i].problemId == 0)
            low_position = i;
    ASSERT_LT(low_position, out.records.size());
    EXPECT_LT(low_position, out.records.size() - 1)
        << "aging failed: the low-priority request finished last";
}

TEST(QueuePolicyProperties, CompletedEqualsSubmittedMinusCancelled)
{
    for (const char *policy : {"fifo", "priority", "sjf", "edf"}) {
        OnlineServer server = makeServer(policy, 2);
        std::vector<OnlineRequest> requests;
        for (int i = 0; i < 8; ++i) {
            OnlineRequest r;
            r.arrival = 0.1 * i;
            // Requests 5-7 give up almost immediately: the backlog
            // from the simultaneous burst means they are still queued.
            if (i >= 5)
                r.cancelAt = r.arrival + 1e-6;
            requests.push_back(r);
        }
        const auto out = server.serveRequests(requests).value();
        EXPECT_EQ(out.cancelled, 3) << policy;
        EXPECT_EQ(out.records.size(), 5u) << policy;
        EXPECT_EQ(static_cast<int>(out.records.size()) + out.cancelled,
                  8)
            << policy;
        EXPECT_EQ(server.system().pendingRequests(), 0u) << policy;
    }
}

TEST(QueuePolicyProperties, DeterministicAcrossRuns)
{
    for (const char *policy : {"fifo", "priority", "sjf", "edf"}) {
        OnlineServer a = makeServer(policy, 3, /*slo=*/100.0);
        OnlineServer b = makeServer(policy, 3, /*slo=*/100.0);
        const std::vector<double> trace =
            burstyArrivalTrace(10, 0.05, 42);
        const auto ra = a.serveArrivals(trace);
        const auto rb = b.serveArrivals(trace);
        ASSERT_EQ(ra.records.size(), rb.records.size()) << policy;
        for (size_t i = 0; i < ra.records.size(); ++i) {
            EXPECT_EQ(ra.records[i].problemId, rb.records[i].problemId)
                << policy;
            EXPECT_DOUBLE_EQ(ra.records[i].arrival,
                             rb.records[i].arrival)
                << policy;
            EXPECT_DOUBLE_EQ(ra.records[i].start, rb.records[i].start)
                << policy;
            EXPECT_DOUBLE_EQ(ra.records[i].finish,
                             rb.records[i].finish)
                << policy;
        }
        EXPECT_DOUBLE_EQ(ra.sloAttainment, rb.sloAttainment) << policy;
    }
}

TEST(QueuePolicyProperties, PoliciesServeSameRequestSet)
{
    // Different policies reorder but never gain or lose requests, and
    // they do the same total work on the same trace.
    const std::vector<double> trace = burstyArrivalTrace(8, 0.1, 7);
    double first_busy = -1;
    for (const char *policy : {"fifo", "priority", "sjf", "edf"}) {
        OnlineServer server = makeServer(policy, 2);
        const auto out = server.serveArrivals(trace);
        ASSERT_EQ(out.records.size(), trace.size()) << policy;
        std::vector<int> problems;
        for (const auto &rec : out.records)
            problems.push_back(rec.problemId);
        std::sort(problems.begin(), problems.end());
        for (size_t i = 0; i < problems.size(); ++i)
            EXPECT_EQ(problems[i], static_cast<int>(i)) << policy;
        const double busy = out.utilization * out.makespan;
        if (first_busy < 0)
            first_busy = busy;
        else
            EXPECT_NEAR(busy, first_busy, 1e-6 * first_busy) << policy;
    }
}

TEST(QueuePolicyProperties, SjfAdmitsShortBeforeLongUnderBacklog)
{
    // Problems with very different prompt lengths arrive together
    // behind a running request; sjf must admit the predicted-shorter
    // one first.
    OnlineServer server = makeServer("sjf", 1);
    const std::vector<Problem> &problems = server.system().problems();
    // Find the problems with min and max prompt length in the set.
    size_t shortest = 0;
    size_t longest = 0;
    for (size_t i = 1; i < problems.size(); ++i) {
        if (problems[i].promptTokens < problems[shortest].promptTokens)
            shortest = i;
        if (problems[i].promptTokens > problems[longest].promptTokens)
            longest = i;
    }
    ASSERT_NE(shortest, longest);

    std::vector<OnlineRequest> requests;
    OnlineRequest head; // Occupies the device while the others queue.
    head.problemId = 0;
    head.arrival = 0.0;
    requests.push_back(head);
    OnlineRequest long_req;
    long_req.problemId = static_cast<int>(longest);
    long_req.arrival = 0.1;
    requests.push_back(long_req);
    OnlineRequest short_req;
    short_req.problemId = static_cast<int>(shortest);
    short_req.arrival = 0.2;
    requests.push_back(short_req);

    const auto out = server.serveRequests(requests).value();
    ASSERT_EQ(out.records.size(), 3u);
    double start_short = -1;
    double start_long = -1;
    for (const auto &rec : out.records) {
        if (rec.problemId == static_cast<int>(shortest))
            start_short = rec.start;
        if (rec.problemId == static_cast<int>(longest))
            start_long = rec.start;
    }
    EXPECT_LT(start_short, start_long);
}

TEST(QueuePolicyProperties, InterleavingUnblocksShortBehindLong)
{
    // Measure real service times, then queue the shortest job right
    // behind the longest: serially it waits for the whole long job,
    // interleaved it shares the long job's waves and finishes much
    // earlier.
    OnlineServer serial = makeServer("fifo", 1);
    OnlineServer interleaved = makeServer("fifo", 2);
    const std::vector<Problem> &problems = serial.system().problems();
    size_t shortest = 0;
    size_t longest = 0;
    std::vector<double> service;
    for (size_t i = 0; i < 8; ++i) {
        service.push_back(
            serial.system().serve(problems[i]).completionTime);
        if (service[i] < service[shortest])
            shortest = i;
        if (service[i] > service[longest])
            longest = i;
    }
    ASSERT_NE(shortest, longest);
    ASSERT_LT(service[shortest] * 2, service[longest]);

    std::vector<OnlineRequest> requests;
    OnlineRequest long_req;
    long_req.problemId = static_cast<int>(longest);
    long_req.arrival = 0.0;
    requests.push_back(long_req);
    OnlineRequest short_req;
    short_req.problemId = static_cast<int>(shortest);
    short_req.arrival = 0.01;
    requests.push_back(short_req);

    auto short_finish = [&](OnlineServer &server) {
        const auto out = server.serveRequests(requests).value();
        for (const auto &rec : out.records)
            if (rec.problemId == static_cast<int>(shortest))
                return rec.finish;
        return -1.0;
    };
    const double finish_serial = short_finish(serial);
    const double finish_interleaved = short_finish(interleaved);
    ASSERT_GT(finish_serial, 0);
    ASSERT_GT(finish_interleaved, 0);
    EXPECT_LT(finish_interleaved, finish_serial);
}

} // namespace
} // namespace fasttts
