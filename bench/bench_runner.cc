/**
 * @file
 * Machine-readable benchmark harness.
 *
 * Each paper-figure bench binary prints a human-oriented ASCII table;
 * this runner executes the same serving configurations programmatically
 * and writes one BENCH_<name>.json per benchmark with the numbers every
 * optimisation PR is judged against: throughput (Precise Goodput and
 * wall-clock tokens/s), end-to-end latency percentiles, KV-cache
 * utilization, and accuracy — for the vLLM-style baseline and for
 * FastTTS, plus the derived speedups.
 *
 * Usage:
 *   bench_runner --list                 # enumerate benchmark names
 *   bench_runner [--quick] [--jobs N] [--out-dir D] [--seed S] [name...]
 *
 * --quick shrinks beam widths and problem counts so the full suite
 * finishes in seconds (used by CI and scripts/run_benchmarks.sh).
 *
 * --jobs N runs the selected benchmarks on a pool of N threads. Every
 * benchmark is deterministic and self-contained (its own ServingSystem,
 * seeded RNGs), so the emitted BENCH_<name>.json bytes are identical
 * for any N; files and stdout lines are still written in registration
 * order by the main thread after all runs finish.
 *
 * The harness also times itself: BENCH_harness.json (schema
 * fasttts-harness-v1) records per-benchmark wall_ms and simulated
 * tokens per wall-second, so optimisation PRs are judged against a
 * real harness-performance trajectory (see scripts/compare_harness.py).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine_args.h"
#include "core/online_server.h"
#include "core/serving.h"
#include "metrics/request_metrics.h"
#include "online_calibration.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"

namespace fasttts
{
namespace
{

/** One registered figure benchmark: name + serving configuration. */
struct BenchSpec
{
    const char *name;
    const char *description;
    const char *dataset;
    const char *device;
    const char *algorithm;
    const char *models; //!< Model-config registry label.
    int numBeams;    //!< Search width in full mode.
    int numProblems; //!< Problems served in full mode.
};

/**
 * The figure suite. Names match the bench_<name> binaries; the configs
 * mirror each figure's headline setting (scaled to finish quickly —
 * the per-figure binaries remain the faithful reproductions).
 */
const BenchSpec kBenchmarks[] = {
    {"fig01_frontier", "Latency vs. accuracy frontier (Fig. 1b)", "AIME",
     "RTX4090", "beam_search", "1.5B+1.5B", 64, 6},
    {"fig03_patterns", "TTS workload patterns (Fig. 3)", "MATH500", "RTX4090",
     "beam_search", "1.5B+1.5B", 64, 6},
    {"fig04_utilization", "GPU utilization timeline (Fig. 4)", "AIME",
     "RTX4090", "beam_search", "1.5B+1.5B", 64, 4},
    {"fig05_prefix_sharing", "Prefix sharing working set (Fig. 5)", "AIME",
     "RTX4090", "beam_search", "1.5B+1.5B", 64, 4},
    {"fig06_kv_throughput", "KV pressure vs. throughput (Fig. 6)", "AIME",
     "RTX4090", "beam_search", "1.5B+1.5B", 64, 6},
    {"fig10_allocation", "Asymmetric memory allocation (Fig. 10)", "AIME",
     "RTX4090", "beam_search", "1.5B+7B", 48, 4},
    {"fig11_variants", "Search method variants (Fig. 11)", "AIME", "RTX4090",
     "dvts", "1.5B+1.5B", 64, 6},
    {"fig12_goodput", "Precise Goodput comparison (Fig. 12)", "MATH500",
     "RTX4090", "beam_search", "1.5B+1.5B", 96, 6},
    {"fig13_latency", "Latency breakdown (Fig. 13)", "AMC", "RTX4090",
     "beam_search", "1.5B+1.5B", 64, 6},
    {"fig14_accuracy", "Accuracy preservation (Fig. 14)", "MATH500",
     "RTX4090", "beam_search", "1.5B+1.5B", 96, 8},
    {"fig15_hardware", "Hardware sensitivity (Fig. 15)", "AIME", "RTX3070Ti",
     "beam_search", "1.5B+1.5B", 48, 4},
    {"fig16_ablation", "P/M/S ablation (Fig. 16)", "AIME", "RTX4090",
     "beam_search", "1.5B+1.5B", 64, 6},
    {"fig17_speculative", "Speculative beam extension (Fig. 17)", "AMC",
     "RTX4090", "beam_search", "1.5B+1.5B", 64, 6},
    {"fig18_scheduling", "Prefix-aware scheduling (Fig. 18)", "AIME",
     "RTX4090", "beam_search", "1.5B+1.5B", 96, 4},
    {"micro", "Engine micro cost sanity run", "AMC", "RTX4090", "beam_search",
     "1.5B+1.5B", 16, 2},
    {"online_responsiveness", "Online serving responsiveness", "AMC",
     "RTX4090", "beam_search", "1.5B+1.5B", 32, 6},
};

/** Metrics of one (benchmark, engine-variant) measurement. */
Json
measureVariant(const BenchSpec &spec, bool fast, int num_beams,
               int num_problems, uint64_t seed)
{
    // The registered configuration goes through the string-friendly
    // EngineArgs front door, so every name is registry-validated.
    EngineArgs args;
    args.device = spec.device;
    args.dataset = spec.dataset;
    args.algorithm = spec.algorithm;
    args.models = spec.models;
    args.mode = fast ? "fasttts" : "baseline";
    args.numBeams = num_beams;
    args.seed = seed;
    ServingOptions opts = args.toServingOptions().value();
    if (opts.deviceName != "RTX4090") {
        // On 8-12 GB cards the model weights leave little headroom:
        // grant the run the full device and a slimmer reserve, and let
        // FastTTS offload, as bench_fig15_hardware (and the paper's
        // constrained-hardware study) do.
        opts.models.memoryFraction = 0.95;
        opts.config.reservedBytes = 0.5 * GiB;
        opts.config.offloadEnabled = fast;
    }

    ServingSystem system = ServingSystem::create(opts).value();
    const BatchResult out = system.serveProblems(num_problems);

    std::vector<double> latencies;
    double wallSeconds = 0;
    long verifiedTokens = 0;
    long generatedTokens = 0;
    long wastedSpecTokens = 0;
    KvStats kv;
    for (const RequestResult &request : out.requests) {
        latencies.push_back(request.completionTime);
        wallSeconds += request.completionTime;
        verifiedTokens += request.verifiedTokens;
        generatedTokens += request.generatedTokens;
        wastedSpecTokens += request.wastedSpecTokens;
        kv.evictions += request.kvStats.evictions;
        kv.evictedTokens += request.kvStats.evictedTokens;
        kv.recomputedTokens += request.kvStats.recomputedTokens;
        kv.hitTokens += request.kvStats.hitTokens;
        kv.missTokens += request.kvStats.missTokens;
    }

    Json throughput = Json::object();
    throughput.set("precise_goodput_tok_s", out.meanGoodput);
    throughput.set("wall_tok_s",
                   wallSeconds > 0
                       ? static_cast<double>(verifiedTokens) / wallSeconds
                       : 0.0);
    throughput.set("verified_tokens", verifiedTokens);
    throughput.set("generated_tokens", generatedTokens);
    throughput.set("wasted_speculative_tokens", wastedSpecTokens);

    Json latency = Json::object();
    latency.set("mean", out.meanLatency);
    latency.set("p50", sampleQuantile(latencies, 0.50));
    latency.set("p90", sampleQuantile(latencies, 0.90));
    latency.set("p99", sampleQuantile(latencies, 0.99));
    latency.set("max", sampleQuantile(latencies, 1.0));
    latency.set("generator_mean", out.meanGeneratorTime);
    latency.set("verifier_mean", out.meanVerifierTime);

    const double touched =
        static_cast<double>(kv.hitTokens) + static_cast<double>(kv.missTokens);
    Json kvJson = Json::object();
    kvJson.set("hit_rate",
               touched > 0 ? static_cast<double>(kv.hitTokens) / touched
                           : 0.0);
    kvJson.set("evictions", kv.evictions);
    kvJson.set("evicted_tokens", kv.evictedTokens);
    kvJson.set("recomputed_tokens", kv.recomputedTokens);
    kvJson.set("budget_gib", toGiB(system.engine().kvBudgetBytes()));

    Json accuracy = Json::object();
    accuracy.set("top1", out.top1Accuracy);
    accuracy.set("pass_at_1", out.passAt1);
    accuracy.set("pass_at_n", out.passAtNAccuracy);

    Json variant = Json::object();
    variant.set("throughput", std::move(throughput));
    variant.set("latency_s", std::move(latency));
    variant.set("kv", std::move(kvJson));
    variant.set("accuracy", std::move(accuracy));
    return variant;
}

Json
runBenchmark(const BenchSpec &spec, bool quick, uint64_t seed)
{
    Json doc = Json::object();
    doc.set("schema", "fasttts-bench-v1");
    doc.set("benchmark", spec.name);
    doc.set("description", spec.description);
    doc.set("quick", quick);

    // Quick mode shrinks each run; computed once so the emitted config
    // always matches what was actually measured.
    const int numBeams = quick ? std::min(spec.numBeams, 16) : spec.numBeams;
    const int numProblems =
        quick ? std::min(spec.numProblems, 2) : spec.numProblems;

    Json config = Json::object();
    config.set("dataset", spec.dataset);
    config.set("device", spec.device);
    config.set("algorithm", spec.algorithm);
    config.set("models", spec.models);
    config.set("num_beams", numBeams);
    config.set("num_problems", numProblems);
    config.set("seed", seed);
    doc.set("config", std::move(config));

    Json variants = Json::object();
    variants.set("baseline",
                 measureVariant(spec, false, numBeams, numProblems, seed));
    variants.set("fasttts",
                 measureVariant(spec, true, numBeams, numProblems, seed));

    const double baseGoodput =
        variants["baseline"]["throughput"]["precise_goodput_tok_s"].asNumber();
    const double fastGoodput =
        variants["fasttts"]["throughput"]["precise_goodput_tok_s"].asNumber();
    const double baseLatency =
        variants["baseline"]["latency_s"]["mean"].asNumber();
    const double fastLatency =
        variants["fasttts"]["latency_s"]["mean"].asNumber();

    Json speedup = Json::object();
    speedup.set("goodput", baseGoodput > 0 ? fastGoodput / baseGoodput : 0.0);
    speedup.set("latency", fastLatency > 0 ? baseLatency / fastLatency : 0.0);

    doc.set("variants", std::move(variants));
    doc.set("speedup", std::move(speedup));
    return doc;
}

/**
 * The admission-policy benchmark is not BenchSpec-shaped: it measures
 * the online queueing front-end (OnlineServer) across queue policies
 * on one identical heavy-tailed arrival trace, instead of batch
 * serving across engine variants.
 */
constexpr const char *kOnlineSchedulingName = "online_scheduling";

Json
runOnlineSchedulingBenchmark(bool quick, uint64_t seed,
                             long *generated_tokens)
{
    EngineArgs args;
    args.dataset = "AMC";
    args.numBeams = quick ? 8 : 32;
    args.seed = seed;
    const int numRequests = quick ? 8 : 32;
    const int maxInflight = 4;
    const std::string arrivalMode = "bursty";
    ServingOptions opts = args.toServingOptions().value();

    // Probe-calibrated overload trace with tiered priorities/SLOs —
    // the same recipe as bench_fig18_scheduling's bottom table, so
    // the JSON mirrors the figure (bench/online_calibration.h).
    const CalibratedOnlineTrace calibrated =
        calibrateOnlineTrace(opts, arrivalMode, numRequests, seed)
            .value();

    Json doc = Json::object();
    doc.set("schema", "fasttts-bench-v1");
    doc.set("benchmark", kOnlineSchedulingName);
    doc.set("description",
            "Online admission-policy sweep (SLO attainment)");
    doc.set("quick", quick);

    Json config = Json::object();
    config.set("dataset", args.dataset);
    config.set("device", args.device);
    config.set("models", args.models);
    config.set("num_beams", args.numBeams);
    config.set("requests", numRequests);
    config.set("max_inflight", maxInflight);
    config.set("arrivals", arrivalMode);
    config.set("arrival_rate_per_s", calibrated.rate);
    config.set("slo_s", calibrated.slo);
    config.set("seed", seed);
    doc.set("config", std::move(config));

    Json policies = Json::object();
    for (const std::string &name :
         queuePolicyRegistry().list()) {
        OnlineServerOptions online;
        online.policy = name;
        online.maxInflight = maxInflight;
        online.slo = calibrated.slo;
        OnlineServer server =
            OnlineServer::create(opts, online).value();
        const OnlineTraceResult out =
            server.serveRequests(calibrated.requests).value();
        *generated_tokens += out.generatedTokens;

        Json latency = Json::object();
        latency.set("mean", out.meanLatency);
        latency.set("p50", out.p50Latency);
        latency.set("p95", out.p95Latency);
        latency.set("p99", out.p99Latency);

        Json policy = Json::object();
        policy.set("latency_s", std::move(latency));
        policy.set("mean_queue_delay_s", out.meanQueueDelay);
        policy.set("slo_attainment", out.sloAttainment);
        policy.set("deadline_misses", out.deadlineMisses);
        policy.set("utilization", out.utilization);
        policy.set("makespan_s", out.makespan);
        policy.set("completed",
                   static_cast<long>(out.records.size()));
        policies.set(name, std::move(policy));
    }
    doc.set("policies", std::move(policies));
    return doc;
}

/**
 * The preemption benchmark sweeps the shared KV budget and compares
 * non-preemptive time slicing against policy-driven preemption
 * (preemptive EDF with doomed-request shedding) on one identical
 * bursty overload trace: shed rate, recompute volume and SLO
 * attainment versus memory — the honest-cost serving study the
 * shared-engine refactor enables.
 */
constexpr const char *kOnlinePreemptionName = "online_preemption";

Json
measurePreemptionRun(const ServingOptions &opts,
                     const CalibratedOnlineTrace &calibrated,
                     const std::string &preempt, double kv_budget_gib,
                     int max_inflight, long *generated_tokens)
{
    OnlineServerOptions online;
    online.policy = "edf";
    online.maxInflight = max_inflight;
    online.slo = calibrated.slo;
    online.preempt = preempt;
    online.kvBudgetGiB = kv_budget_gib;
    online.shedDoomed = true;
    OnlineServer server = OnlineServer::create(opts, online).value();
    const OnlineTraceResult out =
        server.serveRequests(calibrated.requests).value();
    *generated_tokens += out.generatedTokens;

    Json latency = Json::object();
    latency.set("mean", out.meanLatency);
    latency.set("p50", out.p50Latency);
    latency.set("p95", out.p95Latency);
    latency.set("p99", out.p99Latency);

    const int total = static_cast<int>(out.records.size())
        + out.shedRequests + out.cancelled;
    Json run = Json::object();
    run.set("latency_s", std::move(latency));
    run.set("slo_attainment", out.sloAttainment);
    run.set("deadline_misses", out.deadlineMisses);
    run.set("completed", static_cast<long>(out.records.size()));
    run.set("shed_requests", out.shedRequests);
    run.set("shed_rate",
            total > 0 ? static_cast<double>(out.shedRequests) / total
                      : 0.0);
    run.set("context_switches", out.contextSwitches);
    run.set("preemptions", out.preemptions);
    run.set("recomputed_tokens", out.recomputedTokens);
    run.set("preempt_evicted_tokens", out.preemptEvictedTokens);
    run.set("kv_peak_gib", toGiB(server.kvLedger().peakUsedBytes()));
    run.set("utilization", out.utilization);
    return run;
}

Json
runOnlinePreemptionBenchmark(bool quick, uint64_t seed,
                             long *generated_tokens)
{
    EngineArgs args;
    args.dataset = "AMC";
    args.numBeams = quick ? 8 : 16;
    args.seed = seed;
    const int numRequests = quick ? 10 : 24;
    const int maxInflight = 4;
    ServingOptions opts = args.toServingOptions().value();

    // One identical probe-calibrated bursty overload trace with
    // tiered SLOs for every (budget, preemption-mode) cell.
    const CalibratedOnlineTrace calibrated =
        calibrateOnlineTrace(opts, "bursty", numRequests, seed)
            .value();

    Json doc = Json::object();
    doc.set("schema", "fasttts-bench-v1");
    doc.set("benchmark", kOnlinePreemptionName);
    doc.set("description",
            "Preemptive vs sliced serving under a shared KV budget");
    doc.set("quick", quick);

    // Budget tiers relative to the engine's device budget; 0 is the
    // legacy accounting (every in-flight slot a full budget).
    const double engine_budget_gib = [&] {
        ServingSystem probe = ServingSystem::create(opts).value();
        return probe.engine().kvBudgetBytes() / GiB;
    }();

    Json config = Json::object();
    config.set("dataset", args.dataset);
    config.set("device", args.device);
    config.set("models", args.models);
    config.set("num_beams", args.numBeams);
    config.set("requests", numRequests);
    config.set("max_inflight", maxInflight);
    config.set("policy", "edf");
    config.set("arrivals", "bursty");
    config.set("arrival_rate_per_s", calibrated.rate);
    config.set("slo_s", calibrated.slo);
    config.set("engine_kv_budget_gib", engine_budget_gib);
    config.set("shed_doomed", true);
    config.set("seed", seed);
    doc.set("config", std::move(config));

    struct Tier
    {
        const char *label;
        double fraction; //!< Of the engine budget; 0 = legacy.
    };
    const Tier tiers[] = {
        {"legacy", 0.0}, {"1.00x", 1.0}, {"0.50x", 0.5}, {"0.25x", 0.25}};

    Json budgets = Json::object();
    for (const Tier &tier : tiers) {
        const double budget_gib = tier.fraction * engine_budget_gib;
        Json cell = Json::object();
        cell.set("kv_budget_gib", budget_gib);
        for (const char *preempt : {"slice", "policy"}) {
            cell.set(preempt,
                     measurePreemptionRun(opts, calibrated, preempt,
                                          budget_gib, maxInflight,
                                          generated_tokens));
        }
        budgets.set(tier.label, std::move(cell));
    }
    doc.set("budgets", std::move(budgets));
    return doc;
}

/**
 * The continuous-batching benchmark pits co-scheduled decode
 * (--batching continuous) against round-robin time slicing
 * (--preempt slice) on one identical probe-calibrated bursty overload
 * trace at equal shared KV budgets: trace goodput, latency
 * percentiles, SLO attainment and batch occupancy — the serving study
 * behind the unified BatchPlan API.
 */
constexpr const char *kOnlineBatchingName = "online_batching";

Json
measureBatchingRun(const ServingOptions &opts,
                   const CalibratedOnlineTrace &calibrated,
                   const std::string &batching, double kv_budget_gib,
                   int max_inflight, int max_batched_tokens,
                   long *generated_tokens)
{
    OnlineServerOptions online;
    online.policy = "edf";
    online.maxInflight = max_inflight;
    online.slo = calibrated.slo;
    online.preempt = "slice"; // Ignored under continuous batching.
    online.kvBudgetGiB = kv_budget_gib;
    online.shedDoomed = true;
    online.batching = batching;
    online.maxBatchedTokens = max_batched_tokens;
    OnlineServer server = OnlineServer::create(opts, online).value();
    const OnlineTraceResult out =
        server.serveRequests(calibrated.requests).value();
    *generated_tokens += out.generatedTokens;

    Json latency = Json::object();
    latency.set("mean", out.meanLatency);
    latency.set("p50", out.p50Latency);
    latency.set("p95", out.p95Latency);
    latency.set("p99", out.p99Latency);

    Json run = Json::object();
    run.set("latency_s", std::move(latency));
    run.set("goodput_tokens_per_s",
            out.makespan > 0
                ? static_cast<double>(out.verifiedTokens) / out.makespan
                : 0.0);
    run.set("verified_tokens", out.verifiedTokens);
    run.set("makespan_s", out.makespan);
    run.set("slo_attainment", out.sloAttainment);
    run.set("deadline_misses", out.deadlineMisses);
    run.set("completed", static_cast<long>(out.records.size()));
    run.set("shed_requests", out.shedRequests);
    run.set("batch_occupancy", out.batchOccupancy);
    run.set("context_switches", out.contextSwitches);
    run.set("recomputed_tokens", out.recomputedTokens);
    run.set("kv_peak_gib", toGiB(server.kvLedger().peakUsedBytes()));
    run.set("utilization", out.utilization);
    return run;
}

Json
runOnlineBatchingBenchmark(bool quick, uint64_t seed,
                           long *generated_tokens)
{
    EngineArgs args;
    args.dataset = "AMC";
    args.numBeams = quick ? 8 : 16;
    args.seed = seed;
    const int numRequests = quick ? 10 : 24;
    const int maxInflight = 4;
    ServingOptions opts = args.toServingOptions().value();

    // One identical probe-calibrated bursty overload trace with
    // tiered SLOs for every (budget, batching-mode) cell.
    const CalibratedOnlineTrace calibrated =
        calibrateOnlineTrace(opts, "bursty", numRequests, seed)
            .value();

    Json doc = Json::object();
    doc.set("schema", "fasttts-bench-v1");
    doc.set("benchmark", kOnlineBatchingName);
    doc.set("description",
            "Continuous batching vs time-sliced serving on one "
            "bursty trace");
    doc.set("quick", quick);

    double engine_budget_gib = 0;
    int maxBatchedTokens = 0;
    {
        ServingSystem probe = ServingSystem::create(opts).value();
        engine_budget_gib = probe.engine().kvBudgetBytes() / GiB;
        // Size the wave budget to fuse every in-flight request's
        // decode work (README's sizing rule of thumb), so occupancy
        // is limited by arrivals and memory, not the token knob.
        maxBatchedTokens = maxInflight * args.numBeams
            * std::max(1, static_cast<int>(
                              probe.engine().expectedStepTokens() + 1));
    }

    Json config = Json::object();
    config.set("dataset", args.dataset);
    config.set("device", args.device);
    config.set("models", args.models);
    config.set("num_beams", args.numBeams);
    config.set("requests", numRequests);
    config.set("max_inflight", maxInflight);
    config.set("policy", "edf");
    config.set("arrivals", "bursty");
    config.set("arrival_rate_per_s", calibrated.rate);
    config.set("slo_s", calibrated.slo);
    config.set("engine_kv_budget_gib", engine_budget_gib);
    config.set("max_batched_tokens", maxBatchedTokens);
    config.set("prefill_chunk", OnlineServerOptions().prefillChunk);
    config.set("shed_doomed", true);
    config.set("seed", seed);
    doc.set("config", std::move(config));

    struct Tier
    {
        const char *label;
        double fraction; //!< Of the engine budget.
    };
    const Tier tiers[] = {{"1.00x", 1.0}, {"0.50x", 0.5}};

    Json budgets = Json::object();
    for (const Tier &tier : tiers) {
        const double budget_gib = tier.fraction * engine_budget_gib;
        Json cell = Json::object();
        cell.set("kv_budget_gib", budget_gib);
        cell.set("sliced",
                 measureBatchingRun(opts, calibrated, "off", budget_gib,
                                    maxInflight, maxBatchedTokens,
                                    generated_tokens));
        cell.set("continuous",
                 measureBatchingRun(opts, calibrated, "continuous",
                                    budget_gib, maxInflight,
                                    maxBatchedTokens, generated_tokens));
        budgets.set(tier.label, std::move(cell));
    }
    doc.set("budgets", std::move(budgets));
    return doc;
}

/**
 * The prefix-reuse benchmark serves one multi-turn session trace with
 * zipfian session popularity twice — --prefix-cache off vs on — and
 * reports hit rate, saved recompute tokens and goodput. Turn k of a
 * session prefix-extends turn k-1's prompt (position-keyed token
 * identities), the cross-request sharing shape the global radix index
 * (kv/prefix_index.h) exists for.
 */
constexpr const char *kOnlinePrefixReuseName = "online_prefix_reuse";

Json
measurePrefixReuseRun(const ServingOptions &opts,
                      const std::vector<OnlineRequest> &requests,
                      long total_prompt_tokens,
                      const std::string &prefix_cache,
                      double kv_budget_gib, int max_inflight,
                      long *generated_tokens)
{
    OnlineServerOptions online;
    online.policy = "fifo";
    online.maxInflight = max_inflight;
    online.kvBudgetGiB = kv_budget_gib;
    online.batching = "continuous";
    online.prefixCache = prefix_cache;
    OnlineServer server = OnlineServer::create(opts, online).value();
    const OnlineTraceResult out =
        server.serveRequests(requests).value();
    *generated_tokens += out.generatedTokens;

    Json latency = Json::object();
    latency.set("mean", out.meanLatency);
    latency.set("p50", out.p50Latency);
    latency.set("p95", out.p95Latency);
    latency.set("p99", out.p99Latency);

    Json run = Json::object();
    run.set("latency_s", std::move(latency));
    run.set("goodput_tokens_per_s",
            out.makespan > 0
                ? static_cast<double>(out.verifiedTokens) / out.makespan
                : 0.0);
    run.set("verified_tokens", out.verifiedTokens);
    run.set("makespan_s", out.makespan);
    run.set("completed", static_cast<long>(out.records.size()));
    run.set("batch_occupancy", out.batchOccupancy);
    run.set("recomputed_tokens", out.recomputedTokens);
    run.set("prompt_tokens_total", total_prompt_tokens);
    run.set("prefix_hit_tokens", out.prefixHitTokens);
    run.set("saved_recompute_fraction",
            total_prompt_tokens > 0
                ? static_cast<double>(out.prefixHitTokens)
                    / static_cast<double>(total_prompt_tokens)
                : 0.0);
    run.set("kv_peak_gib", toGiB(server.kvLedger().peakUsedBytes()));
    run.set("utilization", out.utilization);
    return run;
}

Json
runOnlinePrefixReuseBenchmark(bool quick, uint64_t seed,
                              long *generated_tokens)
{
    EngineArgs args;
    args.dataset = "AMC";
    args.numBeams = quick ? 8 : 16;
    args.seed = seed;
    const int numRequests = quick ? 10 : 24;
    const int maxInflight = 4;
    const int numSessions = quick ? 3 : 6;
    const int basePromptTokens = 96;
    const int turnGrowthTokens = 48;
    const double arrivalRate = 0.08; // Mostly-serialised sessions.
    ServingOptions opts = args.toServingOptions().value();

    // Zipfian session popularity: most requests are follow-up turns
    // of a few hot sessions (the multi-turn chat shape). Turn k of
    // session s carries position-keyed token identities, so its
    // prompt exactly prefix-extends turn k-1's.
    std::vector<double> weights;
    weights.reserve(static_cast<size_t>(numSessions));
    for (int s = 0; s < numSessions; ++s)
        weights.push_back(1.0 / static_cast<double>(s + 1));
    Rng rng = Rng(seed).fork(0x9ef1);
    const std::vector<double> arrivals =
        poissonArrivalTrace(numRequests, arrivalRate, seed);
    std::vector<int> turnOf(static_cast<size_t>(numSessions), 0);
    std::vector<OnlineRequest> requests;
    requests.reserve(static_cast<size_t>(numRequests));
    long totalPromptTokens = 0;
    for (int i = 0; i < numRequests; ++i) {
        const int session = rng.categorical(weights);
        const int turn = ++turnOf[static_cast<size_t>(session)];
        const int promptTokens =
            basePromptTokens + (turn - 1) * turnGrowthTokens;
        OnlineRequest request;
        request.problemId = 0;
        request.arrival = arrivals[static_cast<size_t>(i)];
        request.promptIds.reserve(
            static_cast<size_t>(promptTokens));
        for (int j = 0; j < promptTokens; ++j)
            request.promptIds.push_back(static_cast<int32_t>(
                ((static_cast<int64_t>(session) + 1) * 1000003
                 + j)
                & 0x7FFFFFFF));
        totalPromptTokens += promptTokens;
        requests.push_back(std::move(request));
    }

    const double engine_budget_gib = [&] {
        ServingSystem probe = ServingSystem::create(opts).value();
        return probe.engine().kvBudgetBytes() / GiB;
    }();

    Json doc = Json::object();
    doc.set("schema", "fasttts-bench-v1");
    doc.set("benchmark", kOnlinePrefixReuseName);
    doc.set("description",
            "Cross-request prefix caching on a multi-turn zipfian "
            "session trace");
    doc.set("quick", quick);

    Json config = Json::object();
    config.set("dataset", args.dataset);
    config.set("device", args.device);
    config.set("models", args.models);
    config.set("num_beams", args.numBeams);
    config.set("requests", numRequests);
    config.set("sessions", numSessions);
    config.set("base_prompt_tokens", basePromptTokens);
    config.set("turn_growth_tokens", turnGrowthTokens);
    config.set("max_inflight", maxInflight);
    config.set("policy", "fifo");
    config.set("batching", "continuous");
    config.set("arrivals", "poisson");
    config.set("arrival_rate_per_s", arrivalRate);
    config.set("kv_budget_gib", engine_budget_gib);
    config.set("seed", seed);
    doc.set("config", std::move(config));

    Json modes = Json::object();
    for (const char *mode : {"off", "on"}) {
        modes.set(mode,
                  measurePrefixReuseRun(opts, requests,
                                        totalPromptTokens, mode,
                                        engine_budget_gib, maxInflight,
                                        generated_tokens));
    }
    const double off_goodput =
        modes["off"]["goodput_tokens_per_s"].asNumber();
    const double on_goodput =
        modes["on"]["goodput_tokens_per_s"].asNumber();
    Json summary = Json::object();
    summary.set("saved_recompute_fraction",
                modes["on"]["saved_recompute_fraction"].asNumber());
    summary.set("goodput_ratio",
                off_goodput > 0 ? on_goodput / off_goodput : 0.0);
    doc.set("modes", std::move(modes));
    doc.set("summary", std::move(summary));
    return doc;
}

/**
 * The fault-tolerance benchmark serves ONE identical probe-calibrated
 * bursty trace under deterministic wave-step fault injection at
 * {0%, 1%, 5%} per-wave rates, twice per rate: no-retry (a fault
 * terminally fails its request) versus retry+degrade (capped
 * exponential backoff plus graceful degradation under sustained fault
 * pressure). Reported per cell: SLO attainment, goodput, wasted
 * recompute and time-to-recovery — the survival study behind the
 * retry/timeout/degradation machinery.
 */
constexpr const char *kOnlineFaultToleranceName = "online_fault_tolerance";

Json
measureFaultToleranceRun(const ServingOptions &opts,
                         const CalibratedOnlineTrace &calibrated,
                         double fault_rate, int retry_max,
                         double retry_backoff, int max_inflight,
                         long *generated_tokens)
{
    OnlineServerOptions online;
    online.policy = "edf";
    online.maxInflight = max_inflight;
    online.slo = calibrated.slo;
    online.batching = "continuous";
    if (fault_rate > 0) {
        online.faults = "plan";
        online.faultPlan = "{\"rules\": [{\"site\": \"wave_step\", "
                           "\"rate\": "
            + std::to_string(fault_rate) + "}]}";
        online.retryMax = retry_max;
        online.retryBackoff = retry_backoff;
    }
    OnlineServer server = OnlineServer::create(opts, online).value();
    const OnlineTraceResult out =
        server.serveRequests(calibrated.requests).value();
    *generated_tokens += out.generatedTokens;

    Json latency = Json::object();
    latency.set("mean", out.meanLatency);
    latency.set("p50", out.p50Latency);
    latency.set("p95", out.p95Latency);
    latency.set("p99", out.p99Latency);

    Json run = Json::object();
    run.set("latency_s", std::move(latency));
    run.set("slo_attainment", out.sloAttainment);
    run.set("deadline_misses", out.deadlineMisses);
    run.set("completed", static_cast<long>(out.records.size()));
    run.set("goodput_tokens_per_s",
            out.makespan > 0
                ? static_cast<double>(out.verifiedTokens) / out.makespan
                : 0.0);
    run.set("verified_tokens", out.verifiedTokens);
    run.set("makespan_s", out.makespan);
    run.set("injected_faults", out.injectedFaults);
    run.set("retries", out.retries);
    run.set("failed_requests", out.failedRequests);
    run.set("timeouts", out.timeouts);
    run.set("wasted_recompute_tokens", out.faultWastedTokens);
    run.set("degraded_waves", out.degradedWaves);
    run.set("degraded_time_s", out.degradedTime);
    // Mean sim-time from degradation entry until the fault window
    // cleared (or the trace ended still degraded).
    run.set("time_to_recovery_s",
            out.degradedEpisodes > 0
                ? out.degradedTime / out.degradedEpisodes
                : 0.0);
    run.set("utilization", out.utilization);
    return run;
}

Json
runOnlineFaultToleranceBenchmark(bool quick, uint64_t seed,
                                 long *generated_tokens)
{
    EngineArgs args;
    args.dataset = "AMC";
    // Quick keeps the full beam width: fault probes are per wave per
    // request, so narrowing the beams shrinks each request's fault
    // exposure and washes out the no-retry collapse the summary keys
    // on. Quick trims the request count instead.
    args.numBeams = 16;
    args.seed = seed;
    const int numRequests = quick ? 10 : 24;
    const int maxInflight = 4;
    const int retryMax = 5;
    ServingOptions opts = args.toServingOptions().value();

    // One identical probe-calibrated bursty trace for every
    // (fault-rate, survival-mode) cell; the fault plan is the ONLY
    // thing that varies, so differences are attributable to it.
    // Unlike the scheduling/preemption sweeps this is a SURVIVAL
    // study, not an overload study: the trace must be feasible when
    // clean (every deadline attainable, ~zero queueing), otherwise
    // retried attempts fight the backlog and attainment measures
    // queueing collapse instead of fault handling. Stretching the
    // calibrated overload trace keeps its bursty shape while dropping
    // the offered load well under capacity and making deadlines
    // generous enough that a few re-serves still meet them.
    CalibratedOnlineTrace calibrated =
        calibrateOnlineTrace(opts, "bursty", numRequests, seed)
            .value();
    constexpr double kArrivalStretch = 4.0; // 3x capacity -> 0.75x.
    constexpr double kSloStretch = 4.0;     // Tiers 9x-72x the mean.
    calibrated.rate /= kArrivalStretch;
    calibrated.slo *= kSloStretch;
    for (OnlineRequest &request : calibrated.requests) {
        request.arrival *= kArrivalStretch;
        request.slo *= kSloStretch;
    }
    const double retryBackoff = 0.25 * calibrated.measuredMean;

    Json doc = Json::object();
    doc.set("schema", "fasttts-bench-v1");
    doc.set("benchmark", kOnlineFaultToleranceName);
    doc.set("description",
            "Retry + degradation vs fail-fast under deterministic "
            "fault injection");
    doc.set("quick", quick);

    Json config = Json::object();
    config.set("dataset", args.dataset);
    config.set("device", args.device);
    config.set("models", args.models);
    config.set("num_beams", args.numBeams);
    config.set("requests", numRequests);
    config.set("max_inflight", maxInflight);
    config.set("policy", "edf");
    config.set("batching", "continuous");
    config.set("arrivals", "bursty");
    config.set("arrival_rate_per_s", calibrated.rate);
    config.set("slo_s", calibrated.slo);
    config.set("retry_max", retryMax);
    config.set("retry_backoff_s", retryBackoff);
    config.set("fault_site", "wave_step");
    config.set("seed", seed);
    doc.set("config", std::move(config));

    struct RateTier
    {
        const char *label;
        double rate;
    };
    const RateTier tiers[] = {{"0%", 0.0}, {"1%", 0.01}, {"5%", 0.05}};

    Json rates = Json::object();
    for (const RateTier &tier : tiers) {
        Json cell = Json::object();
        cell.set("fault_rate", tier.rate);
        cell.set("no_retry",
                 measureFaultToleranceRun(opts, calibrated, tier.rate,
                                          /*retry_max=*/0, retryBackoff,
                                          maxInflight, generated_tokens));
        cell.set("retry_degrade",
                 measureFaultToleranceRun(opts, calibrated, tier.rate,
                                          retryMax, retryBackoff,
                                          maxInflight, generated_tokens));
        rates.set(tier.label, std::move(cell));
    }

    const double noRetryAt5 =
        rates["5%"]["no_retry"]["slo_attainment"].asNumber();
    const double retryAt5 =
        rates["5%"]["retry_degrade"]["slo_attainment"].asNumber();
    Json summary = Json::object();
    summary.set("slo_attainment_no_retry_at_5pct", noRetryAt5);
    summary.set("slo_attainment_retry_at_5pct", retryAt5);
    summary.set("slo_recovery_points_at_5pct",
                100.0 * (retryAt5 - noRetryAt5));
    doc.set("rates", std::move(rates));
    doc.set("summary", std::move(summary));
    return doc;
}

/**
 * The KV-tiering benchmark reruns the preemption storm (EDF, policy
 * preemption, 0.25x device KV budget — the regime where suspended
 * requests are constantly force-evicted) with the host tier off, fast
 * and slow, crossed with admission-order vs cost-aware victim
 * selection: recomputed vs swapped token volume and SLO attainment on
 * one identical trace — the roofline swap-vs-recompute study behind
 * --kv-tier.
 */
constexpr const char *kOnlineKvTieringName = "online_kv_tiering";

Json
measureKvTieringRun(const ServingOptions &opts,
                    const CalibratedOnlineTrace &calibrated,
                    const std::string &kv_tier, double bandwidth_gbs,
                    const std::string &victim_select,
                    double kv_budget_gib, int max_inflight,
                    long *generated_tokens)
{
    OnlineServerOptions online;
    online.policy = "edf";
    online.maxInflight = max_inflight;
    online.slo = calibrated.slo;
    online.preempt = "slice";
    online.kvBudgetGiB = kv_budget_gib;
    online.shedDoomed = true;
    online.kvTier = kv_tier;
    online.hostBandwidthGBs = bandwidth_gbs;
    online.victimSelect = victim_select;
    OnlineServer server = OnlineServer::create(opts, online).value();
    const OnlineTraceResult out =
        server.serveRequests(calibrated.requests).value();
    *generated_tokens += out.generatedTokens;

    Json latency = Json::object();
    latency.set("mean", out.meanLatency);
    latency.set("p50", out.p50Latency);
    latency.set("p95", out.p95Latency);
    latency.set("p99", out.p99Latency);

    Json run = Json::object();
    run.set("latency_s", std::move(latency));
    run.set("slo_attainment", out.sloAttainment);
    run.set("deadline_misses", out.deadlineMisses);
    run.set("completed", static_cast<long>(out.records.size()));
    run.set("shed_requests", out.shedRequests);
    run.set("context_switches", out.contextSwitches);
    run.set("preemptions", out.preemptions);
    run.set("recomputed_tokens", out.recomputedTokens);
    run.set("reprefilled_tokens", out.reprefilledTokens);
    run.set("preempt_evicted_tokens", out.preemptEvictedTokens);
    run.set("swapped_out_tokens", out.swappedOutTokens);
    run.set("swapped_in_tokens", out.swappedInTokens);
    run.set("swap_transfer_time_s", out.swapTransferTime);
    run.set("kv_peak_gib", toGiB(server.kvLedger().peakUsedBytes()));
    if (server.hostTier() != nullptr) {
        const HostKvTierStats &tier = server.hostTier()->stats();
        run.set("host_peak_gib", toGiB(server.hostTier()->peakBytes()));
        run.set("host_swapped_out_nodes",
                static_cast<double>(tier.swappedOutNodes));
        run.set("host_swapped_in_nodes",
                static_cast<double>(tier.swappedInNodes));
        run.set("host_rejected_nodes",
                static_cast<double>(tier.rejectedNodes));
        run.set("host_evicted_nodes",
                static_cast<double>(tier.evictedNodes));
        run.set("host_stale_nodes",
                static_cast<double>(tier.staleNodes));
    }
    run.set("utilization", out.utilization);
    run.set("makespan_s", out.makespan);
    return run;
}

Json
runOnlineKvTieringBenchmark(bool quick, uint64_t seed,
                            long *generated_tokens)
{
    EngineArgs args;
    args.dataset = "AMC";
    args.numBeams = quick ? 8 : 16;
    args.seed = seed;
    const int numRequests = quick ? 10 : 24;
    const int maxInflight = 4;
    ServingOptions opts = args.toServingOptions().value();

    // The identical probe-calibrated bursty storm the preemption
    // benchmark serves, under round-robin slicing with the device
    // budget pinned between one request's working set and the sum of
    // the in-flight sets: every rotation force-evicts suspended
    // victims (tier-eligible), while the mounted run itself never
    // self-reclaims — so preemption evictions dominate the recompute
    // bill and the tier can absorb them.
    const CalibratedOnlineTrace calibrated =
        calibrateOnlineTrace(opts, "bursty", numRequests, seed)
            .value();
    const double engine_budget_gib = [&] {
        ServingSystem probe = ServingSystem::create(opts).value();
        return probe.engine().kvBudgetBytes() / GiB;
    }();
    const double budget_gib = 0.3 * engine_budget_gib;
    constexpr double kFastGBs = 16.0; //!< PCIe-class host link.
    constexpr double kSlowGBs = 0.5;  //!< Link where recompute can win.

    Json doc = Json::object();
    doc.set("schema", "fasttts-bench-v1");
    doc.set("benchmark", kOnlineKvTieringName);
    doc.set("description",
            "Host KV tiering: swap-vs-recompute under a preemption "
            "storm");
    doc.set("quick", quick);

    Json config = Json::object();
    config.set("dataset", args.dataset);
    config.set("device", args.device);
    config.set("models", args.models);
    config.set("num_beams", args.numBeams);
    config.set("requests", numRequests);
    config.set("max_inflight", maxInflight);
    config.set("policy", "edf");
    config.set("preempt", "slice");
    config.set("arrivals", "bursty");
    config.set("arrival_rate_per_s", calibrated.rate);
    config.set("slo_s", calibrated.slo);
    config.set("engine_kv_budget_gib", engine_budget_gib);
    config.set("kv_budget_gib", budget_gib);
    config.set("host_bandwidth_fast_gbs", kFastGBs);
    config.set("host_bandwidth_slow_gbs", kSlowGBs);
    config.set("shed_doomed", true);
    config.set("seed", seed);
    doc.set("config", std::move(config));

    struct Arm
    {
        const char *label;
        const char *kvTier;
        double bandwidthGBs;
    };
    const Arm arms[] = {{"off", "off", kFastGBs},
                        {"host_fast", "host", kFastGBs},
                        {"host_slow", "host", kSlowGBs}};

    Json tiers = Json::object();
    for (const Arm &arm : arms) {
        Json cell = Json::object();
        cell.set("kv_tier", arm.kvTier);
        cell.set("host_bandwidth_gbs", arm.bandwidthGBs);
        for (const char *victims : {"admission", "cost"}) {
            cell.set(victims,
                     measureKvTieringRun(opts, calibrated, arm.kvTier,
                                         arm.bandwidthGBs, victims,
                                         budget_gib, maxInflight,
                                         generated_tokens));
        }
        tiers.set(arm.label, std::move(cell));
    }

    // Headline: cost-aware fast-link tiering vs the legacy
    // force-evict-recompute server at the identical device budget.
    // The reduction is over re-prefilled tokens — the post-eviction
    // recompute tiering can absorb — not raw recomputed_tokens, which
    // also counts every node's first prefill (KvStats doc).
    const double recompute_base =
        tiers["off"]["admission"]["reprefilled_tokens"].asNumber();
    const double recompute_tiered =
        tiers["host_fast"]["cost"]["reprefilled_tokens"].asNumber();
    const double slo_base =
        tiers["off"]["admission"]["slo_attainment"].asNumber();
    const double slo_tiered =
        tiers["host_fast"]["cost"]["slo_attainment"].asNumber();
    Json summary = Json::object();
    summary.set("reprefilled_tokens_baseline", recompute_base);
    summary.set("reprefilled_tokens_tiered", recompute_tiered);
    summary.set("recompute_reduction",
                recompute_base > 0
                    ? 1.0 - recompute_tiered / recompute_base
                    : 0.0);
    summary.set("slo_attainment_baseline", slo_base);
    summary.set("slo_attainment_tiered", slo_tiered);
    summary.set("swapped_in_tokens_tiered",
                tiers["host_fast"]["cost"]["swapped_in_tokens"]
                    .asNumber());
    doc.set("tiers", std::move(tiers));
    doc.set("summary", std::move(summary));
    return doc;
}

/**
 * Wall-clock and simulated-token volume of one benchmark run, for the
 * fasttts-harness-v1 self-timing document.
 */
struct HarnessSample
{
    double wallMs = 0;
    long simulatedTokens = 0;
};

/** Simulated tokens generated by one figure benchmark, read back from
 *  its emitted document. Online benchmarks write no such total; they
 *  report the sum of their arms' generated tokens directly. */
long
simulatedTokensOf(const Json &doc)
{
    long tokens = 0;
    const Json &variants = doc["variants"];
    for (const char *variant : {"baseline", "fasttts"}) {
        tokens += static_cast<long>(
            variants[variant]["throughput"]["generated_tokens"]
                .asNumber());
    }
    return tokens;
}

Json
buildHarnessDoc(const std::vector<std::string> &names,
                const std::vector<HarnessSample> &samples, int jobs,
                bool quick, uint64_t seed, double total_wall_ms)
{
    Json doc = Json::object();
    doc.set("schema", "fasttts-harness-v1");
    doc.set("jobs", jobs);
    doc.set("quick", quick);
    doc.set("seed", seed);
    doc.set("total_wall_ms", total_wall_ms);
    Json list = Json::array();
    for (size_t i = 0; i < names.size(); ++i) {
        Json entry = Json::object();
        entry.set("name", names[i]);
        entry.set("wall_ms", samples[i].wallMs);
        entry.set("simulated_tokens", samples[i].simulatedTokens);
        entry.set("simulated_tokens_per_s",
                  samples[i].wallMs > 0
                      ? static_cast<double>(samples[i].simulatedTokens)
                          / (samples[i].wallMs / 1000.0)
                      : 0.0);
        list.push(std::move(entry));
    }
    doc.set("benchmarks", std::move(list));
    return doc;
}

int
usage(std::ostream &os, int exit_code)
{
    os << "usage: bench_runner [--list] [--quick] [--jobs N]\n"
          "                    [--out-dir DIR] [--seed N] [name...]\n"
          "\n"
          "Runs the registered benchmarks (all by default, or the named\n"
          "subset: the figure suite plus the online_scheduling policy\n"
          "sweep, the online_preemption kv-budget sweep, the\n"
          "online_batching continuous-vs-sliced study, the\n"
          "online_prefix_reuse cross-request caching study, the\n"
          "online_fault_tolerance retry/degradation study and the\n"
          "online_kv_tiering swap-vs-recompute study) and writes\n"
          "BENCH_<name>.json into --out-dir\n"
          "(default: current directory). --list prints the benchmark\n"
          "names, one per line, and exits. --jobs N runs benchmarks on\n"
          "N threads; output is bit-identical to --jobs 1. Every run\n"
          "also writes BENCH_harness.json (schema fasttts-harness-v1)\n"
          "with per-benchmark wall_ms and simulated tokens/s.\n"
          "\n"
          "Registered serving names (see api/engine_args.h):\n";
    os << EngineArgs::registryListing();
    return exit_code;
}

int
runnerMain(int argc, char **argv)
{
    bool list = false;
    bool quick = false;
    uint64_t seed = 2026;
    int jobs = 1;
    std::string outDir = ".";
    std::vector<std::string> selected;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            list = true;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--jobs" && i + 1 < argc) {
            char *end = nullptr;
            const long value = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || value < 1
                || value > 1024) {
                std::cerr << "bench_runner: --jobs expects an integer "
                             "in [1, 1024], got '"
                          << argv[i] << "'\n";
                return 2;
            }
            jobs = static_cast<int>(value);
        } else if (arg == "--out-dir" && i + 1 < argc) {
            outDir = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            // Reuse the EngineArgs number grammar for the seed flag.
            const char *fake[] = {"bench_runner", "--seed", argv[++i]};
            auto parsed = EngineArgs::fromArgv(3, fake);
            if (!parsed.ok()) {
                std::cerr << "bench_runner: "
                          << parsed.status().toString() << "\n";
                return 2;
            }
            seed = parsed->seed;
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "bench_runner: unknown option '" << arg << "'\n";
            return usage(std::cerr, 2);
        } else {
            selected.push_back(arg);
        }
    }

    // The online serving benchmarks are not BenchSpec-shaped; they
    // register as (name, runner) pairs instead.
    struct OnlineBench
    {
        const char *name;
        Json (*run)(bool quick, uint64_t seed, long *generated_tokens);
    };
    static constexpr OnlineBench kOnlineBenchmarks[] = {
        {kOnlineSchedulingName, runOnlineSchedulingBenchmark},
        {kOnlinePreemptionName, runOnlinePreemptionBenchmark},
        {kOnlineBatchingName, runOnlineBatchingBenchmark},
        {kOnlinePrefixReuseName, runOnlinePrefixReuseBenchmark},
        {kOnlineFaultToleranceName, runOnlineFaultToleranceBenchmark},
        {kOnlineKvTieringName, runOnlineKvTieringBenchmark},
    };

    if (list) {
        for (const BenchSpec &spec : kBenchmarks)
            std::cout << spec.name << "\n";
        for (const OnlineBench &bench : kOnlineBenchmarks)
            std::cout << bench.name << "\n";
        return 0;
    }

    // Exactly one of spec/run is set; `name` is always authoritative.
    struct RunEntry
    {
        const BenchSpec *spec;
        Json (*run)(bool quick, uint64_t seed, long *generated_tokens);
        const char *name;
    };
    std::vector<RunEntry> toRun;
    if (selected.empty()) {
        for (const BenchSpec &spec : kBenchmarks)
            toRun.push_back({&spec, nullptr, spec.name});
        for (const OnlineBench &bench : kOnlineBenchmarks)
            toRun.push_back({nullptr, bench.run, bench.name});
    } else {
        for (const std::string &name : selected) {
            const BenchSpec *found = nullptr;
            for (const BenchSpec &spec : kBenchmarks)
                if (name == spec.name)
                    found = &spec;
            const OnlineBench *online = nullptr;
            for (const OnlineBench &bench : kOnlineBenchmarks)
                if (name == bench.name)
                    online = &bench;
            if (found == nullptr && online == nullptr) {
                std::cerr << "bench_runner: unknown benchmark '" << name
                          << "' (see --list)\n";
                return 2;
            }
            toRun.push_back({found,
                             online != nullptr ? online->run : nullptr,
                             found != nullptr ? found->name
                                              : online->name});
        }
    }

    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    if (ec) {
        std::cerr << "bench_runner: cannot create out-dir '" << outDir
                  << "': " << ec.message() << "\n";
        return 1;
    }

    // Touch every registry once on the main thread: the function-local
    // registries initialise lazily, and worker threads must only ever
    // read them.
    (void)EngineArgs::registryListing();

    // Run the benchmarks — on a thread pool when --jobs > 1. Each
    // benchmark is deterministic and owns all of its state, so results
    // are bit-identical for any job count; docs are collected in
    // memory and written in registration order below.
    using Clock = std::chrono::steady_clock;
    std::vector<Json> docs(toRun.size());
    std::vector<HarnessSample> samples(toRun.size());
    const auto suiteStart = Clock::now();
    {
        std::atomic<size_t> nextTask{0};
        auto worker = [&]() {
            for (size_t i = nextTask.fetch_add(1); i < toRun.size();
                 i = nextTask.fetch_add(1)) {
                const RunEntry &entry = toRun[i];
                const auto start = Clock::now();
                long generated = 0;
                docs[i] = entry.spec != nullptr
                    ? runBenchmark(*entry.spec, quick, seed)
                    : entry.run(quick, seed, &generated);
                samples[i].wallMs =
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - start)
                        .count();
                samples[i].simulatedTokens = entry.spec != nullptr
                    ? simulatedTokensOf(docs[i])
                    : generated;
            }
        };
        const int poolSize = std::min<int>(
            jobs, static_cast<int>(toRun.size()) > 0
                ? static_cast<int>(toRun.size())
                : 1);
        if (poolSize <= 1) {
            worker();
        } else {
            std::vector<std::thread> pool;
            pool.reserve(static_cast<size_t>(poolSize));
            for (int t = 0; t < poolSize; ++t)
                pool.emplace_back(worker);
            for (std::thread &thread : pool)
                thread.join();
        }
    }
    const double totalWallMs =
        std::chrono::duration<double, std::milli>(Clock::now()
                                                  - suiteStart)
            .count();

    std::vector<std::string> names;
    names.reserve(toRun.size());
    for (size_t i = 0; i < toRun.size(); ++i) {
        const std::string name = toRun[i].name;
        names.push_back(name);
        const Json &doc = docs[i];
        const std::filesystem::path path =
            std::filesystem::path(outDir) / ("BENCH_" + name + ".json");
        std::ofstream file(path);
        if (!file) {
            std::cerr << "bench_runner: cannot write " << path << "\n";
            return 1;
        }
        file << doc.dump(2);
        if (toRun[i].spec != nullptr) {
            std::cout
                << name << ": goodput x"
                << formatDouble(doc["speedup"]["goodput"].asNumber(), 2)
                << ", latency x"
                << formatDouble(doc["speedup"]["latency"].asNumber(), 2)
                << " -> " << path.string() << "\n";
        } else if (name == kOnlineSchedulingName) {
            std::cout << name << ": slo attainment fifo "
                      << formatDouble(
                             100.0
                                 * doc["policies"]["fifo"]
                                      ["slo_attainment"]
                                          .asNumber(),
                             0)
                      << "% vs edf "
                      << formatDouble(
                             100.0
                                 * doc["policies"]["edf"]
                                      ["slo_attainment"]
                                          .asNumber(),
                             0)
                      << "% -> " << path.string() << "\n";
        } else if (name == kOnlineBatchingName) {
            const Json &full = doc["budgets"]["1.00x"];
            std::cout
                << name << ": goodput sliced "
                << formatDouble(full["sliced"]["goodput_tokens_per_s"]
                                    .asNumber(),
                                0)
                << " vs continuous "
                << formatDouble(
                       full["continuous"]["goodput_tokens_per_s"]
                           .asNumber(),
                       0)
                << " tok/s, occupancy "
                << formatDouble(
                       full["continuous"]["batch_occupancy"].asNumber(),
                       2)
                << " -> " << path.string() << "\n";
        } else if (name == kOnlineFaultToleranceName) {
            std::cout
                << name << ": slo at 5% faults no-retry "
                << formatDouble(
                       100.0
                           * doc["summary"]
                                ["slo_attainment_no_retry_at_5pct"]
                                    .asNumber(),
                       0)
                << "% vs retry+degrade "
                << formatDouble(
                       100.0
                           * doc["summary"]
                                ["slo_attainment_retry_at_5pct"]
                                    .asNumber(),
                       0)
                << "% (recovered "
                << formatDouble(
                       doc["summary"]["slo_recovery_points_at_5pct"]
                           .asNumber(),
                       0)
                << " pts) -> " << path.string() << "\n";
        } else if (name == kOnlineKvTieringName) {
            std::cout
                << name << ": recompute -"
                << formatDouble(
                       100.0
                           * doc["summary"]["recompute_reduction"]
                                 .asNumber(),
                       0)
                << "% (host_fast/cost), slo "
                << formatDouble(
                       100.0
                           * doc["summary"]["slo_attainment_baseline"]
                                 .asNumber(),
                       0)
                << "% -> "
                << formatDouble(
                       100.0
                           * doc["summary"]["slo_attainment_tiered"]
                                 .asNumber(),
                       0)
                << "% -> " << path.string() << "\n";
        } else if (name == kOnlinePrefixReuseName) {
            std::cout
                << name << ": saved recompute "
                << formatDouble(
                       100.0
                           * doc["summary"]["saved_recompute_fraction"]
                                 .asNumber(),
                       0)
                << "% of prompt tokens, goodput off "
                << formatDouble(doc["modes"]["off"]
                                   ["goodput_tokens_per_s"]
                                       .asNumber(),
                                0)
                << " vs on "
                << formatDouble(doc["modes"]["on"]
                                   ["goodput_tokens_per_s"]
                                       .asNumber(),
                                0)
                << " tok/s -> " << path.string() << "\n";
        } else {
            const Json &tight = doc["budgets"]["0.25x"];
            std::cout << name << ": slo (0.25x budget) slice "
                      << formatDouble(
                             100.0
                                 * tight["slice"]["slo_attainment"]
                                       .asNumber(),
                             0)
                      << "% vs policy "
                      << formatDouble(
                             100.0
                                 * tight["policy"]["slo_attainment"]
                                       .asNumber(),
                             0)
                      << "%, shed "
                      << formatDouble(
                             100.0
                                 * tight["policy"]["shed_rate"]
                                       .asNumber(),
                             0)
                      << "% -> " << path.string() << "\n";
        }
    }

    // Self-timing document: the harness-performance trajectory future
    // perf PRs are judged against.
    const Json harness = buildHarnessDoc(names, samples, jobs, quick,
                                         seed, totalWallMs);
    const std::filesystem::path harnessPath =
        std::filesystem::path(outDir) / "BENCH_harness.json";
    std::ofstream harnessFile(harnessPath);
    if (!harnessFile) {
        std::cerr << "bench_runner: cannot write " << harnessPath
                  << "\n";
        return 1;
    }
    harnessFile << harness.dump(2);
    std::cout << "harness: " << names.size() << " benchmark"
              << (names.size() == 1 ? "" : "s") << " in "
              << formatDouble(totalWallMs, 1) << " ms (--jobs " << jobs
              << ") -> " << harnessPath.string() << "\n";
    return 0;
}

} // namespace
} // namespace fasttts

int
main(int argc, char **argv)
{
    return fasttts::runnerMain(argc, argv);
}
