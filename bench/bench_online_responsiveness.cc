/**
 * @file
 * Online responsiveness under load (not a single paper figure; it
 * quantifies the Sec. 4.1.2 deployment claim that FastTTS keeps the
 * edge device responsive for interactive agentic use).
 *
 * A stream of TTS requests (Poisson or heavy-tailed bursty arrivals)
 * is served by one device under a pluggable admission policy with up
 * to --max-inflight requests interleaved; we report mean/p50/p95/p99
 * end-to-end latency, queueing delay and SLO attainment for the
 * baseline and FastTTS at increasing arrival rates. Shorter service
 * times compound through the queue, so FastTTS's advantage grows with
 * load.
 *
 * Exits 1 when any served trace took a defensive hang-guard exit
 * (OnlineTraceResult::defensiveExits): its numbers would come from a
 * stalled simulation, so scripts/stress_online.sh gates on it.
 */

#include <iostream>
#include <string>
#include <vector>

#include "api/engine_args.h"
#include "core/online_server.h"
#include "util/table.h"

using namespace fasttts;

int
main(int argc, char **argv)
{
    EngineArgs defaults;
    defaults.numProblems = 10;
    defaults.dataset = "AMC";
    defaults.numBeams = 32;
    const EngineArgs args = EngineArgs::parseOrExit(
        argc, argv, defaults,
        "Online serving responsiveness under load (arrival rates swept; "
        "--problems sets the request count, --policy/--max-inflight/"
        "--slo/--arrivals/--kv-budget/--shed-doomed/"
        "--max-batched-tokens/--prefill-chunk/--prefix-cache the "
        "queueing discipline, --faults/--retry-max the fault-tolerance "
        "machinery)",
        {"--problems", "--dataset", "--seed", "--beams", "--policy",
         "--max-inflight", "--slo", "--arrivals", "--kv-budget",
         "--shed-doomed", "--max-batched-tokens", "--prefill-chunk",
         "--prefix-cache", "--prefix-cache-budget", "--faults",
         "--fault-plan", "--retry-max", "--retry-backoff",
         "--request-timeout"});
    const int requests = args.numProblems;
    const OnlineServerOptions &online = args.online;

    Table table("Online serving under " + args.arrivals + " load - "
                + args.dataset + " 1.5B+1.5B n="
                + std::to_string(args.numBeams) + ", RTX4090, policy="
                + online.policy + ", K="
                + std::to_string(online.maxInflight));
    table.setHeader({"arrival rate /s", "system", "mean latency s",
                     "p50 s", "p95 s", "p99 s", "mean queue s",
                     "slo att %", "device util"});
    int defensive_exits = 0;
    for (double rate : {0.01, 0.05, 0.2}) {
        const std::vector<double> arrivals =
            makeArrivalTrace(args.arrivals, requests, rate, args.seed)
                .value();
        for (const bool fast : {false, true}) {
            ServingOptions opts = args.toServingOptions().value();
            opts.config = fast ? FastTtsConfig::fastTts()
                               : FastTtsConfig::baseline();
            OnlineServer server =
                OnlineServer::create(opts, online).value();
            const auto out = server.serveArrivals(arrivals);
            defensive_exits += out.defensiveExits;
            table.addRow({formatDouble(rate, 2),
                          fast ? "fasttts" : "baseline",
                          formatDouble(out.meanLatency, 1),
                          formatDouble(out.p50Latency, 1),
                          formatDouble(out.p95Latency, 1),
                          formatDouble(out.p99Latency, 1),
                          formatDouble(out.meanQueueDelay, 1),
                          online.slo > 0
                              ? formatDouble(100.0 * out.sloAttainment, 1)
                              : "-",
                          formatDouble(out.utilization, 2)});
        }
    }
    table.setCaption("Expectation: FastTTS's shorter service times "
                     "compound through the queue, widening the latency "
                     "gap as the arrival rate approaches saturation.");
    table.print(std::cout);
    if (defensive_exits > 0) {
        std::cerr << "error: " << defensive_exits
                  << " defensive hang-guard exit(s) fired; the numbers "
                     "above come from a stalled simulation\n";
        return 1;
    }
    return 0;
}
