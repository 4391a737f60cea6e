/**
 * @file
 * Online admission policies: compare the built-in queue policies on
 * one identical bursty arrival trace, and register a custom policy
 * through the registry — the "choosing a queue policy" example from
 * the README.
 *
 *   example_queue_policies [--problems N] [--dataset NAME] [--beams N]
 *                          [--max-inflight K] [--slo S]
 *                          [--arrivals MODE] [--seed N]
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/engine_args.h"
#include "core/online_server.h"
#include "sched/queue_policy.h"
#include "util/table.h"

using namespace fasttts;

namespace
{

/**
 * A custom policy the library does not ship: serve whoever waited
 * longest relative to their predicted cost (a crude fairness/slowdown
 * heuristic). Registering it requires no core edits.
 */
class SlowdownPolicy final : public QueuePolicy
{
  public:
    std::string name() const override { return "slowdown"; }

    size_t
    pick(const std::vector<QueuedRequest> &pending, double now) override
    {
        size_t best = 0;
        double best_score = -1;
        for (size_t i = 0; i < pending.size(); ++i) {
            const double wait = now - pending[i].arrival;
            const double cost = pending[i].predictedCost > 0
                ? pending[i].predictedCost
                : 1.0;
            const double score = wait / cost;
            if (score > best_score) {
                best_score = score;
                best = i;
            }
        }
        return best;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    EngineArgs defaults;
    defaults.numProblems = 16;
    defaults.dataset = "AMC";
    defaults.numBeams = 8;
    defaults.online.maxInflight = 2;
    defaults.arrivals = "bursty";
    const EngineArgs args = EngineArgs::parseOrExit(
        argc, argv, defaults,
        "Compare online admission policies (and a custom registered "
        "one) on one identical arrival trace",
        {"--problems", "--dataset", "--seed", "--beams",
         "--max-inflight", "--slo", "--arrivals"});

    // Register the custom policy before serving; it now behaves
    // exactly like a built-in ("slowdown" resolves by name, appears
    // in --help's registry listing, etc.).
    if (!queuePolicyRegistry().contains("slowdown")) {
        const Status added = queuePolicyRegistry().add(
            "slowdown", [] { return std::make_unique<SlowdownPolicy>(); });
        if (!added.ok()) {
            std::cerr << added.toString() << "\n";
            return 1;
        }
    }

    const ServingOptions opts = args.toServingOptions().value();

    // Calibrate the trace so the device is overloaded: measure one
    // request, then push ~3x its sustainable rate in bursts. Requests
    // carry a mix of priorities and SLO budgets — with uniform
    // priorities and deadlines, "priority" and "edf" would collapse
    // to arrival order and the comparison would show nothing.
    ServingSystem probe = ServingSystem::create(opts).value();
    const double service =
        probe.serve(probe.problems()[0]).completionTime;
    const double rate = 3.0 / service;
    // --slo keeps its documented semantics: unset derives a budget,
    // an explicit 0 disables deadlines, > 0 overrides.
    const double slo =
        args.wasSet("--slo") ? args.online.slo : 3.0 * service;
    const std::vector<double> trace =
        makeArrivalTrace(args.arrivals, args.numProblems, rate,
                         args.seed)
            .value();
    std::vector<OnlineRequest> requests;
    requests.reserve(trace.size());
    const double slo_tiers[] = {0.5, 1.0, 2.0, 4.0};
    for (size_t i = 0; i < trace.size(); ++i) {
        OnlineRequest request;
        request.arrival = trace[i];
        request.priority = static_cast<int>(i % 3) - 1;
        request.slo = slo > 0 ? slo * slo_tiers[i % 4] : 0.0;
        requests.push_back(request);
    }

    Table table("Admission policies on one " + args.arrivals
                + " trace - " + args.dataset + " n="
                + std::to_string(args.numBeams) + ", K="
                + std::to_string(args.online.maxInflight) + ", SLO="
                + (slo > 0 ? formatDouble(slo, 0) + "s"
                           : std::string("off")));
    table.setHeader({"policy", "mean latency s", "p50 s", "p99 s",
                     "slo att %", "util"});
    for (const std::string name : {"fifo", "priority", "sjf", "edf",
                                   "slowdown"}) {
        OnlineServerOptions online;
        online.policy = name;
        online.maxInflight = args.online.maxInflight;
        online.slo = slo;
        OnlineServer server = OnlineServer::create(opts, online).value();
        const OnlineTraceResult out =
            server.serveRequests(requests).value();
        table.addRow({name, formatDouble(out.meanLatency, 1),
                      formatDouble(out.p50Latency, 1),
                      formatDouble(out.p99Latency, 1),
                      slo > 0
                          ? formatDouble(100.0 * out.sloAttainment, 1)
                          : "-",
                      formatDouble(out.utilization, 2)});
    }
    table.setCaption("The custom 'slowdown' policy plugs in through "
                     "queuePolicyRegistry() without touching core "
                     "code; see sched/queue_policy.h.");
    table.print(std::cout);
    return 0;
}
