/**
 * @file
 * Machine-readable benchmark harness.
 *
 * Each paper-figure bench binary prints a human-oriented ASCII table;
 * this runner executes the same serving configurations programmatically
 * and writes one BENCH_<name>.json per benchmark with the numbers every
 * optimisation PR is judged against: throughput (Precise Goodput and
 * wall_tok_s, the verified tokens divided by the sum of the requests'
 * simulated completion times), end-to-end latency percentiles,
 * KV-cache utilization, and accuracy — for the vLLM-style baseline and
 * for FastTTS, plus the derived speedups.
 *
 * The online serving benchmarks are rows of one table-driven sweep:
 * each row builds one trace with its base OnlineServerOptions, and
 * every cell serves that trace under the base options edited by an
 * outer and an optional inner arm, reporting the row's metric keys.
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
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
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

/** The fields every BENCH_<name>.json document opens with. */
Json
openDoc(const char *name, const char *description, bool quick)
{
    Json doc = Json::object();
    doc.set("schema", "fasttts-bench-v1");
    doc.set("benchmark", name);
    doc.set("description", description);
    doc.set("quick", quick);
    return doc;
}

/** Metrics of one (benchmark, engine-variant) measurement; adds the
 *  variant's generated tokens to `simulated_tokens`. */
Json
measureVariant(const BenchSpec &spec, bool fast, int num_beams,
               int num_problems, uint64_t seed, long *simulated_tokens)
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
    *simulated_tokens += generatedTokens;

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
runBenchmark(const BenchSpec &spec, bool quick, uint64_t seed,
             long *simulated_tokens)
{
    Json doc = openDoc(spec.name, spec.description, quick);

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
    variants.set("baseline", measureVariant(spec, false, numBeams,
                                            numProblems, seed,
                                            simulated_tokens));
    variants.set("fasttts", measureVariant(spec, true, numBeams,
                                           numProblems, seed,
                                           simulated_tokens));

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

std::string
figureHeadline(const Json &doc)
{
    return "goodput x" + formatDouble(doc["speedup"]["goodput"].asNumber(), 2)
        + ", latency x"
        + formatDouble(doc["speedup"]["latency"].asNumber(), 2);
}

// --- The online sweep ------------------------------------------------

/** One arm of a sweep axis. */
struct Arm
{
    std::string label;
    Json opens = Json::object(); //!< Scalars the arm's cell opens with.
    std::function<void(OnlineServerOptions &)> edit;
};

/** An arm that sets one string knob. */
Arm
knobArm(std::string label, std::string OnlineServerOptions::*knob,
        std::string value)
{
    return {std::move(label), Json::object(),
            [knob, value = std::move(value)](OnlineServerOptions &o) {
                o.*knob = value;
            }};
}

/** One arm per value of a string knob, labelled by the value. */
std::vector<Arm>
knobArms(std::string OnlineServerOptions::*knob,
         const std::vector<std::string> &values)
{
    std::vector<Arm> arms;
    arms.reserve(values.size());
    for (const std::string &value : values)
        arms.push_back(knobArm(value, knob, value));
    return arms;
}

/** One arm per shared KV budget tier, a fraction of the engine's
 *  device budget; each cell opens with its budget. */
std::vector<Arm>
budgetArms(double engine_budget_gib,
           const std::vector<std::pair<const char *, double>> &tiers)
{
    std::vector<Arm> arms;
    for (const auto &[label, fraction] : tiers) {
        const double budget_gib = fraction * engine_budget_gib;
        Arm arm{label, Json::object(), [budget_gib](OnlineServerOptions &o) {
                    o.kvBudgetGiB = budget_gib;
                }};
        arm.opens.set("kv_budget_gib", budget_gib);
        arms.push_back(std::move(arm));
    }
    return arms;
}

/**
 * What every cell of one online benchmark shares: the serving
 * configuration, the trace, the server options each cell starts from,
 * the config keys the document reports, and the arms. A cell serves
 * the trace under the base options edited by its outer arm, then by
 * its inner arm.
 */
struct OnlineSweep
{
    ServingOptions serving;
    std::vector<OnlineRequest> requests;
    OnlineServerOptions base;
    Json config = Json::object();
    std::vector<Arm> outer;
    std::vector<Arm> inner; //!< Empty: each outer cell is one run.
};

/** A sweep on AMC at the default device and models, four requests in
 *  flight, its config opened with the keys every online row shares. */
OnlineSweep
newSweep(int num_beams, int num_requests, uint64_t seed)
{
    EngineArgs args;
    args.dataset = "AMC";
    args.numBeams = num_beams;
    args.seed = seed;
    OnlineSweep sweep;
    sweep.serving = args.toServingOptions().value();
    sweep.base.maxInflight = 4;
    sweep.config.set("dataset", args.dataset);
    sweep.config.set("device", args.device);
    sweep.config.set("models", args.models);
    sweep.config.set("num_beams", args.numBeams);
    sweep.config.set("requests", num_requests);
    return sweep;
}

/** Serve the probe-calibrated bursty overload trace with tiered
 *  priorities and SLOs (bench/online_calibration.h) — the recipe
 *  bench_fig18_scheduling's bottom table also uses. */
CalibratedOnlineTrace
serveStorm(OnlineSweep &sweep, int num_requests, uint64_t seed)
{
    CalibratedOnlineTrace storm =
        calibrateOnlineTrace(sweep.serving, "bursty", num_requests, seed)
            .value();
    sweep.requests = storm.requests;
    sweep.base.slo = storm.slo;
    return storm;
}

/** The engine's own device KV budget under the sweep's configuration. */
double
engineKvBudgetGiB(const OnlineSweep &sweep)
{
    const ServingSystem probe = ServingSystem::create(sweep.serving).value();
    return probe.engine().kvBudgetBytes() / GiB;
}

/** Admission policies on one identical heavy-tailed arrival trace. */
OnlineSweep
schedulingSweep(bool quick, uint64_t seed)
{
    const int requests = quick ? 8 : 32;
    OnlineSweep sweep = newSweep(quick ? 8 : 32, requests, seed);
    const CalibratedOnlineTrace storm = serveStorm(sweep, requests, seed);
    sweep.config.set("max_inflight", sweep.base.maxInflight);
    sweep.config.set("arrivals", "bursty");
    sweep.config.set("arrival_rate_per_s", storm.rate);
    sweep.config.set("slo_s", storm.slo);
    sweep.outer = knobArms(&OnlineServerOptions::policy,
                           queuePolicyRegistry().list());
    return sweep;
}

/** Shared KV budget tiers crossed with non-preemptive time slicing vs
 *  policy-driven preemption (preemptive EDF with doomed-request
 *  shedding) on one bursty overload trace: shed rate, recompute
 *  volume and SLO attainment versus memory. */
OnlineSweep
preemptionSweep(bool quick, uint64_t seed)
{
    const int requests = quick ? 10 : 24;
    OnlineSweep sweep = newSweep(quick ? 8 : 16, requests, seed);
    const CalibratedOnlineTrace storm = serveStorm(sweep, requests, seed);
    const double engineGiB = engineKvBudgetGiB(sweep);
    sweep.base.policy = "edf";
    sweep.base.shedDoomed = true;
    sweep.config.set("max_inflight", sweep.base.maxInflight);
    sweep.config.set("policy", "edf");
    sweep.config.set("arrivals", "bursty");
    sweep.config.set("arrival_rate_per_s", storm.rate);
    sweep.config.set("slo_s", storm.slo);
    sweep.config.set("engine_kv_budget_gib", engineGiB);
    sweep.config.set("shed_doomed", true);
    sweep.outer = budgetArms(
        engineGiB, {{"1.00x", 1.0}, {"0.50x", 0.5}, {"0.25x", 0.25}});
    sweep.inner = knobArms(&OnlineServerOptions::preempt, {"slice", "policy"});
    return sweep;
}

/** Co-scheduled decode (--batching continuous) vs round-robin time
 *  slicing on one bursty overload trace at equal shared KV budgets. */
OnlineSweep
batchingSweep(bool quick, uint64_t seed)
{
    const int requests = quick ? 10 : 24;
    OnlineSweep sweep = newSweep(quick ? 8 : 16, requests, seed);
    const CalibratedOnlineTrace storm = serveStorm(sweep, requests, seed);
    const ServingSystem probe = ServingSystem::create(sweep.serving).value();
    const double engineGiB = probe.engine().kvBudgetBytes() / GiB;
    sweep.base.policy = "edf";
    sweep.base.preempt = "slice"; // Ignored under continuous batching.
    sweep.base.shedDoomed = true;
    // Size the wave budget to fuse every in-flight request's decode
    // work (README's sizing rule of thumb), so occupancy is limited by
    // arrivals and memory, not the token knob.
    sweep.base.maxBatchedTokens = sweep.base.maxInflight
        * sweep.serving.numBeams
        * std::max(1, static_cast<int>(
                          probe.engine().expectedStepTokens() + 1));
    sweep.config.set("max_inflight", sweep.base.maxInflight);
    sweep.config.set("policy", "edf");
    sweep.config.set("arrivals", "bursty");
    sweep.config.set("arrival_rate_per_s", storm.rate);
    sweep.config.set("slo_s", storm.slo);
    sweep.config.set("engine_kv_budget_gib", engineGiB);
    sweep.config.set("max_batched_tokens", sweep.base.maxBatchedTokens);
    sweep.config.set("prefill_chunk", sweep.base.prefillChunk);
    sweep.config.set("shed_doomed", true);
    sweep.outer = budgetArms(engineGiB, {{"1.00x", 1.0}, {"0.50x", 0.5}});
    sweep.inner = {
        knobArm("sliced", &OnlineServerOptions::batching, "off"),
        knobArm("continuous", &OnlineServerOptions::batching, "continuous")};
    return sweep;
}

/** --prefix-cache off vs on over one multi-turn session trace with
 *  zipfian session popularity. Turn k of a session prefix-extends turn
 *  k-1's prompt (position-keyed token identities), the cross-request
 *  sharing shape the global radix index (kv/prefix_index.h) exists
 *  for. */
OnlineSweep
prefixReuseSweep(bool quick, uint64_t seed)
{
    const int numRequests = quick ? 10 : 24;
    const int numSessions = quick ? 3 : 6;
    const int basePromptTokens = 96;
    const int turnGrowthTokens = 48;
    const double arrivalRate = 0.08; // Mostly-serialised sessions.
    OnlineSweep sweep = newSweep(quick ? 8 : 16, numRequests, seed);

    // Zipfian session popularity: most requests are follow-up turns
    // of a few hot sessions (the multi-turn chat shape).
    std::vector<double> weights;
    weights.reserve(static_cast<size_t>(numSessions));
    for (int s = 0; s < numSessions; ++s)
        weights.push_back(1.0 / static_cast<double>(s + 1));
    Rng rng = Rng(seed).fork(0x9ef1);
    const std::vector<double> arrivals =
        poissonArrivalTrace(numRequests, arrivalRate, seed);
    std::vector<int> turnOf(static_cast<size_t>(numSessions), 0);
    sweep.requests.reserve(static_cast<size_t>(numRequests));
    for (int i = 0; i < numRequests; ++i) {
        const int session = rng.categorical(weights);
        const int turn = ++turnOf[static_cast<size_t>(session)];
        const int promptTokens =
            basePromptTokens + (turn - 1) * turnGrowthTokens;
        OnlineRequest request;
        request.problemId = 0;
        request.arrival = arrivals[static_cast<size_t>(i)];
        request.promptIds.reserve(static_cast<size_t>(promptTokens));
        for (int j = 0; j < promptTokens; ++j)
            request.promptIds.push_back(static_cast<int32_t>(
                ((static_cast<int64_t>(session) + 1) * 1000003 + j)
                & 0x7FFFFFFF));
        sweep.requests.push_back(std::move(request));
    }

    const double engineGiB = engineKvBudgetGiB(sweep);
    sweep.base.policy = "fifo";
    sweep.base.kvBudgetGiB = engineGiB;
    sweep.base.batching = "continuous";
    sweep.config.set("sessions", numSessions);
    sweep.config.set("base_prompt_tokens", basePromptTokens);
    sweep.config.set("turn_growth_tokens", turnGrowthTokens);
    sweep.config.set("max_inflight", sweep.base.maxInflight);
    sweep.config.set("policy", "fifo");
    sweep.config.set("batching", "continuous");
    sweep.config.set("arrivals", "poisson");
    sweep.config.set("arrival_rate_per_s", arrivalRate);
    sweep.config.set("kv_budget_gib", engineGiB);
    sweep.outer = knobArms(&OnlineServerOptions::prefixCache, {"off", "on"});
    return sweep;
}

/** One bursty trace under deterministic wave-step fault injection at
 *  {0%, 1%, 5%} per-wave rates, fail-fast (a fault terminally fails its
 *  request) vs retry+degrade (capped exponential backoff plus graceful
 *  degradation under sustained fault pressure). */
OnlineSweep
faultToleranceSweep(bool quick, uint64_t seed)
{
    // Quick keeps the full beam width: fault probes are per wave per
    // request, so narrowing the beams shrinks each request's fault
    // exposure and washes out the no-retry collapse the summary keys
    // on. Quick trims the request count instead.
    const int requests = quick ? 10 : 24;
    constexpr int kRetryMax = 5;
    OnlineSweep sweep = newSweep(16, requests, seed);

    // One identical trace for every (fault-rate, survival-mode) cell;
    // the fault plan is the ONLY thing that varies, so differences are
    // attributable to it. Unlike the scheduling and preemption sweeps
    // this is a SURVIVAL study, not an overload study: the trace must
    // be feasible when clean (every deadline attainable, ~zero
    // queueing), otherwise retried attempts fight the backlog and
    // attainment measures queueing collapse instead of fault handling.
    // Stretching the calibrated overload trace keeps its bursty shape
    // while dropping the offered load well under capacity and making
    // deadlines generous enough that a few re-serves still meet them.
    CalibratedOnlineTrace storm = serveStorm(sweep, requests, seed);
    constexpr double kArrivalStretch = 4.0; // 3x capacity -> 0.75x.
    constexpr double kSloStretch = 4.0;     // Tiers 9x-72x the mean.
    storm.rate /= kArrivalStretch;
    storm.slo *= kSloStretch;
    for (OnlineRequest &request : sweep.requests) {
        request.arrival *= kArrivalStretch;
        request.slo *= kSloStretch;
    }
    const double retryBackoff = 0.25 * storm.measuredMean;
    sweep.base.policy = "edf";
    sweep.base.slo = storm.slo;
    sweep.base.batching = "continuous";
    sweep.config.set("max_inflight", sweep.base.maxInflight);
    sweep.config.set("policy", "edf");
    sweep.config.set("batching", "continuous");
    sweep.config.set("arrivals", "bursty");
    sweep.config.set("arrival_rate_per_s", storm.rate);
    sweep.config.set("slo_s", storm.slo);
    sweep.config.set("retry_max", kRetryMax);
    sweep.config.set("retry_backoff_s", retryBackoff);
    sweep.config.set("fault_site", "wave_step");

    for (const auto &[label, rate] :
         {std::pair{"0%", 0.0}, {"1%", 0.01}, {"5%", 0.05}}) {
        Arm arm{label, Json::object(), [rate = rate](OnlineServerOptions &o) {
                    if (rate > 0) {
                        o.faults = "plan";
                        o.faultPlan = "{\"rules\": [{\"site\": "
                                      "\"wave_step\", \"rate\": "
                            + std::to_string(rate) + "}]}";
                    }
                }};
        arm.opens.set("fault_rate", rate);
        sweep.outer.push_back(std::move(arm));
    }
    // Retries happen only on injected faults, so the retry knobs are
    // inert in the clean cells.
    sweep.inner = {
        {"no_retry", Json::object(),
         [](OnlineServerOptions &o) { o.retryMax = 0; }},
        {"retry_degrade", Json::object(),
         [retryBackoff](OnlineServerOptions &o) {
             o.retryMax = kRetryMax;
             o.retryBackoff = retryBackoff;
         }}};
    return sweep;
}

/** The preemption storm (EDF, round-robin slicing, 0.3x device KV
 *  budget — the regime where suspended requests are constantly
 *  force-evicted) with the host tier off, fast and slow, crossed with
 *  admission-order vs cost-aware victim selection: the roofline
 *  swap-vs-recompute study behind --kv-tier. */
OnlineSweep
kvTieringSweep(bool quick, uint64_t seed)
{
    const int requests = quick ? 10 : 24;
    OnlineSweep sweep = newSweep(quick ? 8 : 16, requests, seed);
    const CalibratedOnlineTrace storm = serveStorm(sweep, requests, seed);
    const double engineGiB = engineKvBudgetGiB(sweep);
    // The device budget sits between one request's working set and the
    // sum of the in-flight sets: every rotation force-evicts suspended
    // victims (tier-eligible), while the mounted run itself never
    // self-reclaims — so preemption evictions dominate the recompute
    // bill and the tier can absorb them.
    const double budgetGiB = 0.3 * engineGiB;
    constexpr double kFastGBs = 16.0; //!< PCIe-class host link.
    constexpr double kSlowGBs = 0.5;  //!< Link where recompute can win.
    sweep.base.policy = "edf";
    sweep.base.preempt = "slice";
    sweep.base.kvBudgetGiB = budgetGiB;
    sweep.base.shedDoomed = true;
    sweep.config.set("max_inflight", sweep.base.maxInflight);
    sweep.config.set("policy", "edf");
    sweep.config.set("preempt", "slice");
    sweep.config.set("arrivals", "bursty");
    sweep.config.set("arrival_rate_per_s", storm.rate);
    sweep.config.set("slo_s", storm.slo);
    sweep.config.set("engine_kv_budget_gib", engineGiB);
    sweep.config.set("kv_budget_gib", budgetGiB);
    sweep.config.set("host_bandwidth_fast_gbs", kFastGBs);
    sweep.config.set("host_bandwidth_slow_gbs", kSlowGBs);
    sweep.config.set("shed_doomed", true);

    struct Tier
    {
        const char *label;
        const char *kvTier;
        double bandwidthGBs;
    };
    for (const Tier &tier : {Tier{"off", "off", kFastGBs},
                             Tier{"host_fast", "host", kFastGBs},
                             Tier{"host_slow", "host", kSlowGBs}}) {
        Arm arm{tier.label, Json::object(), [tier](OnlineServerOptions &o) {
                    o.kvTier = tier.kvTier;
                    o.hostBandwidthGBs = tier.bandwidthGBs;
                }};
        arm.opens.set("kv_tier", tier.kvTier);
        arm.opens.set("host_bandwidth_gbs", tier.bandwidthGBs);
        sweep.outer.push_back(std::move(arm));
    }
    sweep.inner = knobArms(&OnlineServerOptions::victimSelect,
                           {"admission", "cost"});
    return sweep;
}

/**
 * Every metric an online cell can report, keyed by its JSON name; a
 * row picks its keys from this. The host-tier keys are present only
 * when the server has a tier attached.
 */
Json
onlineMetrics(const OnlineServer &server, const OnlineTraceResult &out,
              const std::vector<OnlineRequest> &trace)
{
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    long promptTokens = 0;
    for (const OnlineRequest &request : trace)
        promptTokens += static_cast<long>(request.promptIds.size());
    const long completed = static_cast<long>(out.records.size());

    Json latency = Json::object();
    latency.set("mean", out.meanLatency);
    latency.set("p50", out.p50Latency);
    latency.set("p95", out.p95Latency);
    latency.set("p99", out.p99Latency);

    Json m = Json::object();
    m.set("latency_s", std::move(latency));
    m.set("mean_queue_delay_s", out.meanQueueDelay);
    m.set("slo_attainment", out.sloAttainment);
    m.set("deadline_misses", out.deadlineMisses);
    m.set("completed", completed);
    m.set("shed_requests", out.shedRequests);
    m.set("shed_rate", ratio(out.shedRequests, completed + out.shedRequests
                                                   + out.cancelled));
    m.set("goodput_tokens_per_s", ratio(out.verifiedTokens, out.makespan));
    m.set("verified_tokens", out.verifiedTokens);
    m.set("makespan_s", out.makespan);
    m.set("batch_occupancy", out.batchOccupancy);
    m.set("context_switches", out.contextSwitches);
    m.set("preemptions", out.preemptions);
    m.set("recomputed_tokens", out.recomputedTokens);
    m.set("reprefilled_tokens", out.reprefilledTokens);
    m.set("preempt_evicted_tokens", out.preemptEvictedTokens);
    m.set("prompt_tokens_total", promptTokens);
    m.set("prefix_hit_tokens", out.prefixHitTokens);
    m.set("saved_recompute_fraction",
          ratio(out.prefixHitTokens, promptTokens));
    m.set("injected_faults", out.injectedFaults);
    m.set("retries", out.retries);
    m.set("failed_requests", out.failedRequests);
    m.set("timeouts", out.timeouts);
    m.set("wasted_recompute_tokens", out.faultWastedTokens);
    m.set("degraded_waves", out.degradedWaves);
    m.set("degraded_time_s", out.degradedTime);
    // Mean sim-time from degradation entry until the fault window
    // cleared (or the trace ended still degraded).
    m.set("time_to_recovery_s", ratio(out.degradedTime, out.degradedEpisodes));
    m.set("swapped_out_tokens", out.swappedOutTokens);
    m.set("swapped_in_tokens", out.swappedInTokens);
    m.set("swap_transfer_time_s", out.swapTransferTime);
    m.set("kv_peak_gib", toGiB(server.kvLedger().peakUsedBytes()));
    if (const HostKvTier *tier = server.hostTier(); tier != nullptr) {
        const HostKvTierStats &stats = tier->stats();
        m.set("host_peak_gib", toGiB(tier->peakBytes()));
        m.set("host_swapped_out_nodes",
              static_cast<double>(stats.swappedOutNodes));
        m.set("host_swapped_in_nodes",
              static_cast<double>(stats.swappedInNodes));
        m.set("host_rejected_nodes", static_cast<double>(stats.rejectedNodes));
        m.set("host_evicted_nodes", static_cast<double>(stats.evictedNodes));
        m.set("host_stale_nodes", static_cast<double>(stats.staleNodes));
    }
    m.set("utilization", out.utilization);
    return m;
}

/** One online benchmark: a row of the online sweep table. */
struct OnlineBench
{
    const char *name;
    const char *description;
    OnlineSweep (*setup)(bool quick, uint64_t seed);
    const char *axis; //!< Document key holding the outer arms' cells.
    std::vector<const char *> metrics; //!< Keys each run reports, in order.
    Json (*summarize)(const Json &cells); //!< nullptr: no summary.
    std::string (*headline)(const Json &doc);
};

/** Serve the sweep's trace once under `options`, add its generated
 *  tokens to `simulated_tokens`, and write the row's metrics into
 *  `cell`. */
void
serveCell(const OnlineBench &bench, const OnlineSweep &sweep,
          const OnlineServerOptions &options, Json *cell,
          long *simulated_tokens)
{
    OnlineServer server = OnlineServer::create(sweep.serving, options).value();
    const OnlineTraceResult out = server.serveRequests(sweep.requests).value();
    *simulated_tokens += out.generatedTokens;
    const Json metrics = onlineMetrics(server, out, sweep.requests);
    for (const char *key : bench.metrics)
        if (metrics.has(key))
            cell->set(key, metrics[key]);
}

Json
runOnlineBenchmark(const OnlineBench &bench, bool quick, uint64_t seed,
                   long *simulated_tokens)
{
    OnlineSweep sweep = bench.setup(quick, seed);
    sweep.config.set("seed", seed);
    Json doc = openDoc(bench.name, bench.description, quick);
    doc.set("config", std::move(sweep.config));

    Json cells = Json::object();
    for (const Arm &outer : sweep.outer) {
        OnlineServerOptions options = sweep.base;
        outer.edit(options);
        Json cell = outer.opens;
        if (sweep.inner.empty())
            serveCell(bench, sweep, options, &cell, simulated_tokens);
        for (const Arm &inner : sweep.inner) {
            OnlineServerOptions edited = options;
            inner.edit(edited);
            Json run = inner.opens;
            serveCell(bench, sweep, edited, &run, simulated_tokens);
            cell.set(inner.label, std::move(run));
        }
        cells.set(outer.label, std::move(cell));
    }
    doc.set(bench.axis, std::move(cells));
    if (bench.summarize != nullptr)
        doc.set("summary", bench.summarize(doc[bench.axis]));
    return doc;
}

/** A number rounded to a whole, and a fraction as a whole
 *  percentage, for the stdout headlines. */
std::string
whole(const Json &value)
{
    return formatDouble(value.asNumber(), 0);
}

std::string
percent(const Json &fraction)
{
    return formatDouble(100.0 * fraction.asNumber(), 0);
}

const OnlineBench kOnlineBenchmarks[] = {
    {"online_scheduling", "Online admission-policy sweep (SLO attainment)",
     schedulingSweep, "policies",
     {"latency_s", "mean_queue_delay_s", "slo_attainment", "deadline_misses",
      "utilization", "makespan_s", "completed"},
     nullptr,
     [](const Json &doc) {
         return "slo attainment fifo "
             + percent(doc["policies"]["fifo"]["slo_attainment"])
             + "% vs edf "
             + percent(doc["policies"]["edf"]["slo_attainment"]) + "%";
     }},
    {"online_preemption",
     "Preemptive vs sliced serving under a shared KV budget",
     preemptionSweep, "budgets",
     {"latency_s", "slo_attainment", "deadline_misses", "completed",
      "shed_requests", "shed_rate", "context_switches", "preemptions",
      "recomputed_tokens", "preempt_evicted_tokens", "kv_peak_gib",
      "utilization"},
     nullptr,
     [](const Json &doc) {
         const Json &tight = doc["budgets"]["0.25x"];
         return "slo (0.25x budget) slice "
             + percent(tight["slice"]["slo_attainment"]) + "% vs policy "
             + percent(tight["policy"]["slo_attainment"]) + "%, shed "
             + percent(tight["policy"]["shed_rate"]) + "%";
     }},
    {"online_batching",
     "Continuous batching vs time-sliced serving on one bursty trace",
     batchingSweep, "budgets",
     {"latency_s", "goodput_tokens_per_s", "verified_tokens", "makespan_s",
      "slo_attainment", "deadline_misses", "completed", "shed_requests",
      "batch_occupancy", "context_switches", "recomputed_tokens",
      "kv_peak_gib", "utilization"},
     nullptr,
     [](const Json &doc) {
         const Json &full = doc["budgets"]["1.00x"];
         return "goodput sliced "
             + whole(full["sliced"]["goodput_tokens_per_s"])
             + " vs continuous "
             + whole(full["continuous"]["goodput_tokens_per_s"])
             + " tok/s, occupancy "
             + formatDouble(full["continuous"]["batch_occupancy"].asNumber(),
                            2);
     }},
    {"online_prefix_reuse",
     "Cross-request prefix caching on a multi-turn zipfian session trace",
     prefixReuseSweep, "modes",
     {"latency_s", "goodput_tokens_per_s", "verified_tokens", "makespan_s",
      "completed", "batch_occupancy", "recomputed_tokens",
      "prompt_tokens_total", "prefix_hit_tokens", "saved_recompute_fraction",
      "kv_peak_gib", "utilization"},
     [](const Json &modes) {
         const double off = modes["off"]["goodput_tokens_per_s"].asNumber();
         const double on = modes["on"]["goodput_tokens_per_s"].asNumber();
         Json summary = Json::object();
         summary.set("saved_recompute_fraction",
                     modes["on"]["saved_recompute_fraction"].asNumber());
         summary.set("goodput_ratio", off > 0 ? on / off : 0.0);
         return summary;
     },
     [](const Json &doc) {
         return "saved recompute "
             + percent(doc["summary"]["saved_recompute_fraction"])
             + "% of prompt tokens, goodput off "
             + whole(doc["modes"]["off"]["goodput_tokens_per_s"]) + " vs on "
             + whole(doc["modes"]["on"]["goodput_tokens_per_s"]) + " tok/s";
     }},
    {"online_fault_tolerance",
     "Retry + degradation vs fail-fast under deterministic fault injection",
     faultToleranceSweep, "rates",
     {"latency_s", "slo_attainment", "deadline_misses", "completed",
      "goodput_tokens_per_s", "verified_tokens", "makespan_s",
      "injected_faults", "retries", "failed_requests", "timeouts",
      "wasted_recompute_tokens", "degraded_waves", "degraded_time_s",
      "time_to_recovery_s", "utilization"},
     [](const Json &rates) {
         const double noRetry =
             rates["5%"]["no_retry"]["slo_attainment"].asNumber();
         const double retry =
             rates["5%"]["retry_degrade"]["slo_attainment"].asNumber();
         Json summary = Json::object();
         summary.set("slo_attainment_no_retry_at_5pct", noRetry);
         summary.set("slo_attainment_retry_at_5pct", retry);
         summary.set("slo_recovery_points_at_5pct",
                     100.0 * (retry - noRetry));
         return summary;
     },
     [](const Json &doc) {
         const Json &summary = doc["summary"];
         return "slo at 5% faults no-retry "
             + percent(summary["slo_attainment_no_retry_at_5pct"])
             + "% vs retry+degrade "
             + percent(summary["slo_attainment_retry_at_5pct"])
             + "% (recovered "
             + whole(summary["slo_recovery_points_at_5pct"]) + " pts)";
     }},
    {"online_kv_tiering",
     "Host KV tiering: swap-vs-recompute under a preemption storm",
     kvTieringSweep, "tiers",
     {"latency_s", "slo_attainment", "deadline_misses", "completed",
      "shed_requests", "context_switches", "preemptions",
      "recomputed_tokens", "reprefilled_tokens", "preempt_evicted_tokens",
      "swapped_out_tokens", "swapped_in_tokens", "swap_transfer_time_s",
      "kv_peak_gib", "host_peak_gib", "host_swapped_out_nodes",
      "host_swapped_in_nodes", "host_rejected_nodes", "host_evicted_nodes",
      "host_stale_nodes", "utilization", "makespan_s"},
     // Headline: cost-aware fast-link tiering vs the legacy
     // force-evict-recompute server at the identical device budget.
     // The reduction is over re-prefilled tokens — the post-eviction
     // recompute tiering can absorb — not raw recomputed_tokens, which
     // also counts every node's first prefill (KvStats doc).
     [](const Json &tiers) {
         const Json &base = tiers["off"]["admission"];
         const Json &tiered = tiers["host_fast"]["cost"];
         const double recomputeBase = base["reprefilled_tokens"].asNumber();
         const double recomputeTiered =
             tiered["reprefilled_tokens"].asNumber();
         Json summary = Json::object();
         summary.set("reprefilled_tokens_baseline", recomputeBase);
         summary.set("reprefilled_tokens_tiered", recomputeTiered);
         summary.set("recompute_reduction",
                     recomputeBase > 0
                         ? 1.0 - recomputeTiered / recomputeBase
                         : 0.0);
         summary.set("slo_attainment_baseline",
                     base["slo_attainment"].asNumber());
         summary.set("slo_attainment_tiered",
                     tiered["slo_attainment"].asNumber());
         summary.set("swapped_in_tokens_tiered",
                     tiered["swapped_in_tokens"].asNumber());
         return summary;
     },
     [](const Json &doc) {
         const Json &summary = doc["summary"];
         return "recompute -" + percent(summary["recompute_reduction"])
             + "% (host_fast/cost), slo "
             + percent(summary["slo_attainment_baseline"]) + "% -> "
             + percent(summary["slo_attainment_tiered"]) + "%";
     }},
};

// --- The registry and the harness -------------------------------------

/** One registered benchmark: what --list, usage(), name selection,
 *  the runner pool and the stdout lines iterate. */
struct Benchmark
{
    const char *name;
    const char *description;
    std::function<Json(bool quick, uint64_t seed, long *simulated_tokens)>
        run;
    std::string (*headline)(const Json &doc);
};

const std::vector<Benchmark> &
registry()
{
    static const std::vector<Benchmark> all = [] {
        std::vector<Benchmark> benches;
        for (const BenchSpec &spec : kBenchmarks)
            benches.push_back(
                {spec.name, spec.description,
                 [&spec](bool quick, uint64_t seed, long *tokens) {
                     return runBenchmark(spec, quick, seed, tokens);
                 },
                 figureHeadline});
        for (const OnlineBench &bench : kOnlineBenchmarks)
            benches.push_back(
                {bench.name, bench.description,
                 [&bench](bool quick, uint64_t seed, long *tokens) {
                     return runOnlineBenchmark(bench, quick, seed, tokens);
                 },
                 bench.headline});
        return benches;
    }();
    return all;
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

Json
buildHarnessDoc(const std::vector<const Benchmark *> &benches,
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
    for (size_t i = 0; i < benches.size(); ++i) {
        Json entry = Json::object();
        entry.set("name", benches[i]->name);
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
          "Runs the registered benchmarks below (all by default, or the\n"
          "named subset) and writes BENCH_<name>.json into --out-dir\n"
          "(default: current directory). --list prints the benchmark\n"
          "names, one per line, and exits. --jobs N runs benchmarks on\n"
          "N threads; output is bit-identical to --jobs 1. Every run\n"
          "also writes BENCH_harness.json (schema fasttts-harness-v1)\n"
          "with per-benchmark wall_ms and simulated tokens/s.\n"
          "\n"
          "Benchmarks:\n";
    for (const Benchmark &bench : registry())
        os << "  " << std::left << std::setw(24) << bench.name
           << bench.description << "\n";
    os << "\nRegistered serving names (see api/engine_args.h):\n";
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

    if (list) {
        for (const Benchmark &bench : registry())
            std::cout << bench.name << "\n";
        return 0;
    }

    std::vector<const Benchmark *> toRun;
    if (selected.empty())
        for (const Benchmark &bench : registry())
            toRun.push_back(&bench);
    for (const std::string &name : selected) {
        const auto found = std::find_if(
            registry().begin(), registry().end(),
            [&name](const Benchmark &bench) { return name == bench.name; });
        if (found == registry().end()) {
            std::cerr << "bench_runner: unknown benchmark '" << name
                      << "' (see --list)\n";
            return 2;
        }
        toRun.push_back(&*found);
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
                const auto start = Clock::now();
                docs[i] = toRun[i]->run(quick, seed,
                                        &samples[i].simulatedTokens);
                samples[i].wallMs =
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - start)
                        .count();
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

    for (size_t i = 0; i < toRun.size(); ++i) {
        const std::string name = toRun[i]->name;
        const std::filesystem::path path =
            std::filesystem::path(outDir) / ("BENCH_" + name + ".json");
        std::ofstream file(path);
        if (!file) {
            std::cerr << "bench_runner: cannot write " << path << "\n";
            return 1;
        }
        file << docs[i].dump(2);
        std::cout << name << ": " << toRun[i]->headline(docs[i]) << " -> "
                  << path.string() << "\n";
    }

    // Self-timing document: the harness-performance trajectory future
    // perf PRs are judged against.
    const Json harness = buildHarnessDoc(toRun, samples, jobs, quick,
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
    std::cout << "harness: " << toRun.size() << " benchmark"
              << (toRun.size() == 1 ? "" : "s") << " in "
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
