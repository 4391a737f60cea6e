/**
 * @file
 * Reproduces paper Fig. 18.
 *
 * Left: effectiveness of Dynamic Prefix-Aware Scheduling — KV cache
 * consumption as the batch grows, for prefix-aware, random and
 * worst-case orders over final-iteration beam traces (1.5B+1.5B,
 * AIME). Prefix-aware grows slowest, so a fixed budget admits a
 * substantially larger batch.
 *
 * Right: impact of memory availability on the P and M+P gains —
 * largest under tight KV budgets (1.5 GB), vanishing when memory is
 * abundant (14 GB).
 *
 * Bottom (beyond the paper): online admission-policy sweep — the
 * registry-backed QueuePolicy axis (fifo / priority / sjf / edf) on
 * one identical heavy-tailed arrival trace, with --max-inflight
 * requests interleaved, reporting latency percentiles and SLO
 * attainment per policy.
 */

#include <algorithm>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "api/engine_args.h"
#include "core/engine.h"
#include "core/online_server.h"
#include "core/serving.h"
#include "online_calibration.h"
#include "sched/queue_policy.h"
#include "sched/scheduler.h"
#include "util/table.h"
#include "util/units.h"

using namespace fasttts;

int
main(int argc, char **argv)
{
    EngineArgs defaults;
    defaults.numProblems = 4;
    defaults.online.maxInflight = 4;
    defaults.arrivals = "bursty";
    const EngineArgs args = EngineArgs::parseOrExit(
        argc, argv, defaults,
        "Fig.18 prefix-aware scheduling study (beam policies, KV "
        "budgets and admission policies swept by the figure)",
        {"--problems", "--seed", "--max-inflight", "--slo",
         "--arrivals"});
    const int problems = args.numProblems;

    // --- Left: KV growth by scheduling order on a final-iteration
    //     trace. ---
    // Build a beam-search-shaped final iteration: 128 leaves in
    // sibling groups of 4 under a deep shared trunk.
    KvCacheManager tree(1 << 30, 1.0, 16);
    Rng rng(2026);
    std::vector<SchedEntry> entries;
    size_t index = 0;
    for (int g = 0; g < 8; ++g) {
        const int trunk = tree.createChild(
            KvCacheManager::kRoot, 1 + static_cast<uint64_t>(g),
            rng.uniformInt(300, 700));
        for (int p = 0; p < 4; ++p) {
            const int parent = tree.createChild(
                trunk, 100 + index, rng.uniformInt(150, 450));
            for (int c = 0; c < 4; ++c) {
                const int leaf = tree.createChild(
                    parent, 1000 + index, rng.uniformInt(40, 250));
                SchedEntry e;
                e.index = index;
                e.beamId = ++index;
                e.parentBeam = static_cast<uint64_t>(g * 4 + p);
                e.prevPosition = g * 4 + p;
                e.leaf = leaf;
                e.pathTokens = tree.pathTokens(leaf);
                entries.push_back(e);
            }
        }
    }

    Table growth("Fig.18 (left) cumulative unique KV (k tokens) vs "
                 "batch growth by scheduling order");
    growth.setHeader({"batch size", "prefix-aware", "random",
                      "worst-case"});
    const std::vector<std::string> policies = {"prefix_aware", "random",
                                               "worst_case"};
    std::vector<std::vector<double>> cumulative(policies.size());
    for (size_t p = 0; p < policies.size(); ++p) {
        auto order = entries;
        Rng policy_rng(7);
        makeScheduler(policies[p])->order(order, tree, policy_rng);
        // Cumulative unique tokens touched as the batch grows in
        // schedule order — a proxy for KV cache consumption.
        std::set<int> seen;
        double unique = 0;
        for (const auto &e : order) {
            for (int id = e.leaf; id != KvCacheManager::kInvalid;
                 id = tree.parentOf(id)) {
                if (!seen.insert(id).second)
                    break;
                unique += tree.nodeTokens(id);
            }
            cumulative[p].push_back(unique / 1000.0);
        }
    }
    for (size_t b = 7; b < entries.size(); b += 16) {
        growth.addRow(std::to_string(b + 1),
                      {cumulative[0][b], cumulative[1][b],
                       cumulative[2][b]},
                      1);
    }
    growth.setCaption("Paper: KV grows much more slowly under "
                      "prefix-aware scheduling, so a fixed budget "
                      "supports a substantially larger batch.");
    growth.print(std::cout);

    // --- Right: optimization gain vs available KV memory. ---
    // Scale the 1.5B+1.5B memory fraction so the engine's KV budget
    // lands at roughly the paper's 1.5 / 2 / 14 GB points.
    Table gains("Fig.18 (right) goodput gain (%) vs available KV "
                "memory - AIME, n=512");
    gains.setHeader({"KV budget", "P %", "M+P %"});
    struct MemPoint
    {
        const char *label;
        double fraction;
    };
    for (const auto &[label, fraction] :
         {MemPoint{"~1.5 GB", 0.355}, MemPoint{"~2 GB", 0.38},
          MemPoint{"~14 GB", 0.88}}) {
        double goodput[3] = {0, 0, 0};
        for (int pass = 0; pass < 3; ++pass) {
            ServingOptions opts;
            opts.config = FastTtsConfig::baseline();
            if (pass >= 1)
                opts.config.prefixAwareScheduling = true;
            if (pass >= 2)
                opts.config.asymmetricAllocation = true;
            opts.models = config1_5Bplus1_5B();
            opts.models.memoryFraction = fraction;
            opts.datasetName = "AIME";
            opts.numBeams = 512;
            opts.seed = args.seed;
            ServingSystem system = ServingSystem::create(opts).value();
            goodput[pass] = system.serveProblems(problems).meanGoodput;
        }
        auto gain = [&](double g) {
            return goodput[0] > 0 ? 100.0 * (g - goodput[0]) / goodput[0]
                                  : 0.0;
        };
        gains.addRow({label, formatDouble(gain(goodput[1]), 1),
                      formatDouble(gain(goodput[2]), 1)});
    }
    gains.setCaption("Paper: 58% (P) and 145% (M+P) at 1.5 GB, "
                     "shrinking to ~5% / 24% at 14 GB — both "
                     "optimizations matter most under tight memory.");
    gains.print(std::cout);

    // --- Bottom: admission-policy sweep on one identical arrival
    //     trace (the QueuePolicy axis). ---
    ServingOptions online_opts;
    online_opts.config = FastTtsConfig::fastTts();
    online_opts.models = config1_5Bplus1_5B();
    online_opts.datasetName = "AIME";
    online_opts.numBeams = 32;
    online_opts.seed = args.seed;

    // Probe-calibrated overload trace with tiered priorities/SLOs —
    // the same recipe as bench_runner's online_scheduling benchmark,
    // so the figure mirrors the JSON (bench/online_calibration.h).
    // --slo keeps its documented semantics: unset derives a budget
    // from the measured mean, 0 disables deadlines, > 0 overrides.
    const bool slo_set = args.wasSet("--slo");
    const int num_requests = std::max(16, 6 * problems);
    const CalibratedOnlineTrace calibrated =
        calibrateOnlineTrace(online_opts, args.arrivals, num_requests,
                             args.seed, slo_set ? args.online.slo : -1.0)
            .value();
    const double slo = calibrated.slo;

    Table sched("Fig.18 (bottom) admission policies on one identical "
                + args.arrivals + " trace - AIME, n=32, K="
                + std::to_string(args.online.maxInflight) + ", SLO="
                + (slo > 0 ? formatDouble(slo, 0) + "s"
                           : std::string("off")));
    sched.setHeader({"policy", "mean lat s", "p50 s", "p95 s", "p99 s",
                     "mean queue s", "slo att %", "misses", "util"});
    for (const std::string policy_name :
         {"fifo", "priority", "sjf", "edf"}) {
        OnlineServerOptions online;
        online.policy = policy_name;
        online.maxInflight = args.online.maxInflight;
        online.slo = slo;
        OnlineServer server =
            OnlineServer::create(online_opts, online).value();
        const auto out = server.serveRequests(calibrated.requests).value();
        sched.addRow({policy_name, formatDouble(out.meanLatency, 1),
                      formatDouble(out.p50Latency, 1),
                      formatDouble(out.p95Latency, 1),
                      formatDouble(out.p99Latency, 1),
                      formatDouble(out.meanQueueDelay, 1),
                      slo > 0
                          ? formatDouble(100.0 * out.sloAttainment, 1)
                          : "-",
                      slo > 0 ? std::to_string(out.deadlineMisses)
                              : "-",
                      formatDouble(out.utilization, 2)});
    }
    sched.setCaption("Expectation: under heavy-tailed overload, sjf "
                     "cuts the median by letting short jobs jump long "
                     "ones (at the cost of the tail), edf reorders by "
                     "urgency tier, and fifo pays head-of-line "
                     "blocking; past saturation no policy can save "
                     "every deadline.");
    sched.print(std::cout);
    return 0;
}
