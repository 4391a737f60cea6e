/**
 * @file
 * Machine-readable benchmark harness: every benchmark of the repo is
 * one row of this runner, and each row writes one BENCH_<name>.json.
 *
 * Three kinds of row share the harness:
 *  - The paper figures (fig01..fig18). Each row measures its figure's
 *    own sweep — the same axes, problem counts and seed as the paper's
 *    setup — and its document carries the figure's cells plus a
 *    `paper` string quoting the claim the figure makes.
 *  - The engine-cost pairs (micro, online_responsiveness): the
 *    vLLM-style baseline and FastTTS serving one configuration, with
 *    throughput (Precise Goodput and wall_tok_s, the verified tokens
 *    divided by the sum of the requests' simulated completion times),
 *    end-to-end latency percentiles, KV-cache utilization, accuracy
 *    and the derived speedups.
 *  - The online serving benchmarks, rows of one table-driven sweep:
 *    each row builds one trace with its base OnlineServerOptions, and
 *    every cell serves that trace under the base options edited by an
 *    outer and an optional inner arm, reporting the row's metric keys.
 *
 * Usage:
 *   bench_runner --list                 # enumerate benchmark names
 *   bench_runner [--quick] [--jobs N] [--out-dir D] [--seed S] [name...]
 *
 * --quick shrinks every row so the full suite finishes in well under a
 * second (used by CI and scripts/run_benchmarks.sh). A figure keeps
 * every axis but serves at most two problems at an eighth of each
 * search width.
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
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/memory_planner.h"
#include "api/engine_args.h"
#include "core/engine.h"
#include "core/online_server.h"
#include "core/serving.h"
#include "kv/prefix_index.h"
#include "metrics/accuracy.h"
#include "metrics/request_metrics.h"
#include "sched/scheduler.h"
#include "sim/roofline.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace fasttts
{
namespace
{

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

// --- Serving cells ---------------------------------------------------

/**
 * One serving configuration: FastTTS serving 1.5B+1.5B beam search on
 * AIME on the RTX 4090 unless a benchmark edits it. Every served cell
 * of every figure and engine-cost pair builds its ServingOptions here.
 */
struct Cell
{
    FastTtsConfig config = FastTtsConfig::fastTts(); //!< Offload too.
    ModelConfig models = config1_5Bplus1_5B();
    std::string device = "RTX4090";
    std::string dataset = "AIME";
    std::string algorithm = "beam_search";
    int numBeams = 64;
};

/** The engine configuration of one side of a baseline-vs-FastTTS
 *  comparison. */
FastTtsConfig
engineMode(bool fast)
{
    return fast ? FastTtsConfig::fastTts() : FastTtsConfig::baseline();
}

ServingOptions
servingOptions(const Cell &cell, uint64_t seed)
{
    ServingOptions opts;
    opts.config = cell.config;
    opts.models = cell.models;
    if (cell.device != "RTX4090") {
        // On 8-12 GB cards the two 1.5B models' weights (6.2 GiB)
        // leave little headroom: grant the run the full device and a
        // slimmer reserve, as the paper's constrained-hardware study
        // does.
        opts.models.memoryFraction = 0.95;
        opts.config.reservedBytes = 0.5 * GiB;
    }
    opts.deviceName = cell.device;
    opts.datasetName = cell.dataset;
    opts.algorithmName = cell.algorithm;
    opts.numBeams = cell.numBeams;
    opts.seed = seed;
    return opts;
}

template <typename T>
Json
list(const std::vector<T> &values)
{
    Json array = Json::array();
    for (const T &value : values)
        array.push(Json(value));
    return array;
}

/** One swept axis of a figure: the config key it varies, its values,
 *  the label each value's cells are filed under, and the edit that
 *  puts the i-th value into a cell. */
struct Axis
{
    const char *key;
    Json values;
    std::vector<std::string> labels;
    std::function<void(Cell &, size_t)> edit;
};

/** A document's config block: `cell`'s setup, with each key an axis
 *  sweeps holding the values it sweeps. */
Json
cellConfig(const Cell &cell, int num_problems, uint64_t seed,
           const std::vector<Axis> &axes = {})
{
    Json config = Json::object();
    config.set("dataset", cell.dataset);
    config.set("device", cell.device);
    config.set("algorithm", cell.algorithm);
    config.set("models", cell.models.label);
    config.set("num_beams", cell.numBeams);
    config.set("num_problems", num_problems);
    config.set("seed", seed);
    for (const Axis &axis : axes)
        config.set(axis.key, axis.values);
    return config;
}

/**
 * One run of a benchmark: its size and seed, the simulated-token
 * counter the harness reports, and the count of defensive hang-guard
 * exits that fails the run. Every engine run goes through serve() so
 * the counters see all of it.
 */
struct Run
{
    bool quick;
    uint64_t seed;
    long *simulatedTokens;
    int *defensiveExits;

    /** --quick serves at most two problems ... */
    [[nodiscard]] int
    problems(int full) const
    {
        return quick ? std::min(full, 2) : full;
    }

    /** ... at an eighth of each search width. */
    [[nodiscard]] std::vector<int>
    widths(std::vector<int> full) const
    {
        for (int &n : full)
            n = quick ? std::max(1, n / 8) : n;
        return full;
    }

    [[nodiscard]] int
    width(int full) const
    {
        return widths({full}).front();
    }

    [[nodiscard]] ServingSystem
    system(const Cell &cell) const
    {
        return ServingSystem::create(servingOptions(cell, seed)).value();
    }

    RequestResult
    serve(ServingSystem &system, const Problem &problem) const
    {
        RequestResult result = system.serve(problem);
        *simulatedTokens += result.generatedTokens;
        *defensiveExits += result.defensiveExits;
        return result;
    }

    BatchResult
    serve(ServingSystem &system, int num_problems) const
    {
        BatchResult out = system.serveProblems(num_problems);
        for (const RequestResult &request : out.requests) {
            *simulatedTokens += request.generatedTokens;
            *defensiveExits += request.defensiveExits;
        }
        return out;
    }

    BatchResult
    serve(const Cell &cell, int num_problems) const
    {
        ServingSystem served = system(cell);
        return serve(served, num_problems);
    }
};

// --- The engine-cost pairs -------------------------------------------

/** A baseline-vs-FastTTS pair serving one AMC cell. */
struct PairBench
{
    const char *name;
    const char *description;
    int numBeams;    //!< Search width in full mode.
    int numProblems; //!< Problems served in full mode.
};

const PairBench kPairBenchmarks[] = {
    {"micro", "Engine micro cost sanity run", 16, 2},
    {"online_responsiveness", "Online serving responsiveness", 32, 6},
};

/** Metrics of one side of a pair. */
Json
measureVariant(const Run &run, Cell cell, bool fast, int num_problems)
{
    cell.config = engineMode(fast);
    ServingSystem system = run.system(cell);
    const BatchResult out = run.serve(system, num_problems);

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
runPair(const PairBench &spec, const Run &run)
{
    Json doc = openDoc(spec.name, spec.description, run.quick);

    // Quick mode shrinks each run; computed once so the emitted config
    // always matches what was actually measured.
    Cell cell;
    cell.dataset = "AMC";
    cell.numBeams = run.quick ? std::min(spec.numBeams, 16) : spec.numBeams;
    const int numProblems =
        run.quick ? std::min(spec.numProblems, 2) : spec.numProblems;
    doc.set("config", cellConfig(cell, numProblems, run.seed));

    Json variants = Json::object();
    variants.set("baseline", measureVariant(run, cell, false, numProblems));
    variants.set("fasttts", measureVariant(run, cell, true, numProblems));

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

/** Fixed-precision renderings for the stdout headlines: a number, a
 *  whole number, and a fraction as a whole percentage. */
std::string
fixed(const Json &value, int precision)
{
    return formatDouble(value.asNumber(), precision);
}

std::string
whole(const Json &value)
{
    return fixed(value, 0);
}

std::string
percent(const Json &fraction)
{
    return formatDouble(100.0 * fraction.asNumber(), 0);
}

std::string
pairHeadline(const Json &doc)
{
    return "goodput x" + fixed(doc["speedup"]["goodput"], 2)
        + ", latency x" + fixed(doc["speedup"]["latency"], 2);
}

// --- The figures -----------------------------------------------------
//
// A figure's document holds its config — each swept key listing the
// values it sweeps — and its cells, nested by axis and keyed by value,
// e.g. goodput/AIME/1.5B+1.5B/512. A key holding a percentage ends in
// _pct, a ratio in _x.

/** An axis over one string field of the cell. */
Axis
fieldAxis(const char *key, std::string Cell::*field,
          const std::vector<std::string> &values)
{
    return {key, list(values), values, [field, values](Cell &cell, size_t i) {
                cell.*field = values[i];
            }};
}

Axis
widthAxis(const std::vector<int> &widths)
{
    Axis axis{"num_beams", list(widths), {},
              [widths](Cell &cell, size_t i) { cell.numBeams = widths[i]; }};
    for (const int n : widths)
        axis.labels.push_back(std::to_string(n));
    return axis;
}

Axis
modelsAxis()
{
    const std::vector<ModelConfig> configs = allModelConfigs();
    Axis axis{"models", Json::array(), {},
              [configs](Cell &cell, size_t i) { cell.models = configs[i]; }};
    for (const ModelConfig &models : configs) {
        axis.values.push(models.label);
        axis.labels.push_back(models.label);
    }
    return axis;
}

/** The baseline, then FastTTS. */
Axis
modeAxis()
{
    const std::vector<std::string> modes = {"baseline", "fasttts"};
    return {"mode", list(modes), modes, [](Cell &cell, size_t i) {
                cell.config = engineMode(i == 1);
            }};
}

/** `leaf` of every point of the axes' cross product, nested outer axis
 *  first and keyed by label. */
Json
sweep(const Cell &cell, const std::vector<Axis> &axes,
      const std::function<Json(const Cell &)> &leaf, size_t depth = 0)
{
    if (depth == axes.size())
        return leaf(cell);
    const Axis &axis = axes[depth];
    Json cells = Json::object();
    for (size_t i = 0; i < axis.labels.size(); ++i) {
        Cell point = cell;
        axis.edit(point, i);
        cells.set(axis.labels[i], sweep(point, axes, leaf, depth + 1));
    }
    return cells;
}

/** Mean completion latency and top-1 accuracy of one cell. */
Json
latencyAccuracy(const Run &run, const Cell &cell, int num_problems)
{
    const BatchResult out = run.serve(cell, num_problems);
    Json point = Json::object();
    point.set("latency_s", out.meanLatency);
    point.set("top1_accuracy_pct", out.top1Accuracy);
    return point;
}

/** Baseline and FastTTS Precise Goodput of one cell and their ratio,
 *  which `gains` collects. FastTTS keeps the cell's offload setting;
 *  the vLLM-style baseline never offloads. */
Json
goodputGain(const Run &run, Cell cell, int num_problems,
            SummaryStats *gains)
{
    const bool offload = cell.config.offloadEnabled;
    double goodput[2] = {0, 0};
    for (const bool fast : {false, true}) {
        cell.config = engineMode(fast);
        cell.config.offloadEnabled = fast && offload;
        goodput[fast] = run.serve(cell, num_problems).meanGoodput;
    }
    const double gain = goodput[0] > 0 ? goodput[1] / goodput[0] : 0;
    gains->add(gain);
    Json pair = Json::object();
    pair.set("baseline", goodput[0]);
    pair.set("fasttts", goodput[1]);
    pair.set("gain_x", gain);
    return pair;
}

Json
gainSummary(const SummaryStats &gains)
{
    Json summary = Json::object();
    summary.set("gain_mean_x", gains.mean());
    summary.set("gain_min_x", gains.min());
    summary.set("gain_max_x", gains.max());
    return summary;
}

std::string
gainRange(const Json &summary)
{
    return fixed(summary["gain_min_x"], 2) + "x-"
        + fixed(summary["gain_max_x"], 2) + "x";
}

/** Goodput gain over the baseline of the cumulative optimizations of
 *  Fig. 16 and 18 — P, then M+P, then S+M+P — up to `rungs` of them. */
Json
ablationGains(const Run &run, Cell cell, int num_problems, size_t rungs)
{
    const std::pair<const char *, void (*)(FastTtsConfig &)> kLadder[] = {
        {"p_pct", [](FastTtsConfig &c) { c.prefixAwareScheduling = true; }},
        {"mp_pct", [](FastTtsConfig &c) { c.asymmetricAllocation = true; }},
        {"smp_pct",
         [](FastTtsConfig &c) {
             c.speculativeExtension = true;
             c.lookaheadVerification = true;
         }},
    };
    cell.config = FastTtsConfig::baseline();
    const double base = run.serve(cell, num_problems).meanGoodput;
    Json gains = Json::object();
    for (size_t rung = 0; rung < rungs; ++rung) {
        kLadder[rung].second(cell.config);
        const double goodput = run.serve(cell, num_problems).meanGoodput;
        gains.set(kLadder[rung].first,
                  base > 0 ? 100.0 * (goodput - base) / base : 0.0);
    }
    return gains;
}

/** Fig. 1b: latency and accuracy of both systems as n grows. */
void
frontier(const Run &run, Json *doc)
{
    const int problems = run.problems(12);
    const std::vector<Axis> axes = {
        modeAxis(), widthAxis(run.widths({8, 32, 128, 512}))};
    const Cell cell;
    doc->set("config", cellConfig(cell, problems, run.seed, axes));
    doc->set("frontier", sweep(cell, axes, [&](const Cell &point) {
                 return latencyAccuracy(run, point, problems);
             }));
}

/** Fig. 3: accuracy vs latency of the search methods under baseline
 *  serving (left), and the per-step token counts behind the
 *  stragglers (right). */
void
patterns(const Run &run, Json *doc)
{
    const int problems = run.problems(16);
    const std::vector<Axis> axes = {fieldAxis(
        "algorithm", &Cell::algorithm, {"best_of_n", "beam_search", "dvts"})};
    Cell cell;
    cell.config = FastTtsConfig::baseline();
    cell.dataset = "MATH500";
    cell.numBeams = run.width(64);
    Json config = cellConfig(cell, problems, run.seed, axes);
    config.set("step_tokens_dataset", "AIME");
    config.set("step_tokens_algorithm", "best_of_n");
    doc->set("config", std::move(config));
    doc->set("methods", sweep(cell, axes, [&](const Cell &point) {
                 return latencyAccuracy(run, point, problems);
             }));

    cell.dataset = "AIME";
    cell.algorithm = "best_of_n";
    ServingSystem system = run.system(cell);
    std::vector<SummaryStats> perStep(10);
    for (int i = 0; i < problems; ++i) {
        // Served for stepTokenSamples() only.
        (void)run.serve(system, system.problems()[static_cast<size_t>(i)]);
        const auto &samples = system.engine().stepTokenSamples();
        for (size_t s = 0; s < perStep.size() && s < samples.size(); ++s)
            for (const int tokens : samples[s])
                perStep[s].add(tokens);
    }
    Json steps = Json::object();
    for (size_t s = 0; s < perStep.size(); ++s) {
        if (perStep[s].count() == 0)
            continue;
        Json step = Json::object();
        step.set("avg_tokens", perStep[s].mean());
        step.set("max_tokens", perStep[s].max());
        step.set("samples", perStep[s].count());
        steps.set(std::to_string(s + 1), std::move(step));
    }
    doc->set("step_tokens", std::move(steps));
}

/** The utilization trace of serving problem 1 of `cell`'s set. */
std::vector<TimelineSegment>
traceSegments(const Run &run, Cell cell)
{
    cell.config.recordTrace = true;
    ServingSystem system = run.system(cell);
    (void)run.serve(system, system.problems()[1]);
    return system.engine().clock().segments();
}

/** Fig. 4: compute utilization by phase in one baseline request, and
 *  its decay across the longest generation stretch. */
void
utilization(const Run &run, Json *doc)
{
    Cell cell;
    cell.config = FastTtsConfig::baseline();
    cell.numBeams = run.width(32);
    Json config = cellConfig(cell, 1, run.seed);
    config.set("problem", 1);
    doc->set("config", std::move(config));
    const std::vector<TimelineSegment> segs = traceSegments(run, cell);

    SummaryStats genUtil;
    SummaryStats verUtil;
    for (const TimelineSegment &seg : segs) {
        if (seg.phase == Phase::Generation)
            genUtil.add(seg.computeUtil * 100);
        else if (seg.phase == Phase::Verification)
            verUtil.add(seg.computeUtil * 100);
    }
    Json phases = Json::object();
    for (const auto &[phase, stats] :
         {std::pair{"generation", &genUtil}, {"verification", &verUtil}}) {
        Json util = Json::object();
        util.set("mean_util_pct", stats->mean());
        util.set("min_util_pct", stats->min());
        util.set("max_util_pct", stats->max());
        phases.set(phase, std::move(util));
    }
    doc->set("phases", std::move(phases));

    // The longest contiguous run of generation segments.
    size_t bestStart = 0;
    size_t bestEnd = 0;
    double bestDur = 0;
    for (size_t i = 0; i < segs.size();) {
        if (segs[i].phase != Phase::Generation) {
            ++i;
            continue;
        }
        size_t j = i;
        double dur = 0;
        while (j < segs.size() && segs[j].phase == Phase::Generation) {
            dur += segs[j].duration;
            ++j;
        }
        if (dur > bestDur) {
            bestDur = dur;
            bestStart = i;
            bestEnd = j;
        }
        i = j;
    }
    Json decay = Json::object();
    for (int pct = 0; pct <= 100; pct += 10) {
        const double t = segs[bestStart].start + bestDur * pct / 100.0;
        for (size_t i = bestStart; i < bestEnd; ++i) {
            if (segs[i].start <= t
                && t <= segs[i].start + segs[i].duration + 1e-12) {
                Json sample = Json::object();
                sample.set("compute_util_pct", segs[i].computeUtil * 100);
                sample.set("active_beams", segs[i].activeSlots);
                decay.set(std::to_string(pct), std::move(sample));
                break;
            }
        }
    }
    doc->set("generation_decay", std::move(decay));
}

/** Fig. 5: the working set with and without prefix sharing (left),
 *  adjacent sharing by scheduling order (right), and — beyond the
 *  figure — inter-request sharing through the global radix prefix
 *  index over one multi-turn session. */
void
prefixSharing(const Run &run, Json *doc)
{
    constexpr int kBasePrompt = 96;
    constexpr int kTurnGrowth = 64;
    constexpr int kTurns = 4;
    const std::vector<Axis> axes = {
        fieldAxis("algorithm", &Cell::algorithm, {"beam_search", "dvts"})};
    Cell cell;
    cell.config = FastTtsConfig::baseline();
    cell.numBeams = run.width(128);
    Json config = cellConfig(cell, 1, run.seed, axes);
    config.set("session_num_beams", run.width(16));
    config.set("session_turns", kTurns);
    doc->set("config", std::move(config));

    doc->set("working_set", sweep(cell, axes, [&](const Cell &point) {
                 ServingSystem system = run.system(point);
                 (void)run.serve(system, system.problems()[0]);
                 Json iterations = Json::object();
                 for (const IterationStats &s :
                      system.engine().iterationStats()) {
                     const double shared = s.uniqueTokens / 1000.0;
                     const double unshared = s.unsharedTokens / 1000.0;
                     Json iteration = Json::object();
                     iteration.set("with_prefix_cache_ktok", shared);
                     iteration.set("without_prefix_cache_ktok", unshared);
                     if (shared > 0)
                         iteration.set("savings_x", unshared / shared);
                     iterations.set(std::to_string(s.iteration + 1),
                                    std::move(iteration));
                 }
                 return iterations;
             }));

    // A final-iteration beam population: 32 parents of 4 leaves each.
    KvCacheManager kv(1 << 30, 1.0, 16);
    Rng rng(7);
    std::vector<SchedEntry> entries;
    size_t index = 0;
    for (int p = 0; p < 32; ++p) {
        const int parent = kv.createChild(KvCacheManager::kRoot,
                                          static_cast<uint64_t>(p) + 1,
                                          rng.uniformInt(400, 1200));
        for (int c = 0; c < 4; ++c) {
            const int leaf =
                kv.createChild(parent, 1000 + index, rng.uniformInt(50, 300));
            SchedEntry e;
            e.index = index;
            e.beamId = ++index;
            e.parentBeam = static_cast<uint64_t>(p);
            e.prevPosition = p;
            e.leaf = leaf;
            e.pathTokens = kv.pathTokens(leaf);
            entries.push_back(e);
        }
    }
    Json adjacency = Json::object();
    for (const char *policy :
         {"random", "worst_case", "prefix_aware", "greedy_prefix"}) {
        std::vector<SchedEntry> order = entries;
        Rng policyRng(11);
        makeScheduler(policy)->order(order, kv, policyRng);
        adjacency.set(policy, scheduleSharedPrefixSum(kv, order));
    }
    doc->set("adjacent_shared_prefix", std::move(adjacency));

    // Turn k's prompt is exactly turn k-1's plus kTurnGrowth fresh
    // tokens (position-keyed token identities).
    Cell session;
    session.numBeams = run.width(16);
    ServingSystem system = run.system(session);
    system.enablePrefixCache(1.0 * GiB, nullptr);
    Json turns = Json::object();
    for (int turn = 1; turn <= kTurns; ++turn) {
        Problem problem = system.problems()[0];
        problem.promptTokens = kBasePrompt + (turn - 1) * kTurnGrowth;
        problem.promptIds.clear();
        for (int j = 0; j < problem.promptTokens; ++j)
            problem.promptIds.push_back(static_cast<int32_t>(1000003 + j));
        const long mounted = static_cast<long>(
            run.serve(system, problem).kvStats.prefixHitTokens);
        Json row = Json::object();
        row.set("prompt_tokens", problem.promptTokens);
        row.set("mounted_from_cache", mounted);
        row.set("prefilled_suffix", problem.promptTokens - mounted);
        turns.set(std::to_string(turn), std::move(row));
    }
    const PrefixIndexStats stats = system.prefixIndex()->stats();
    Json prefixIndex = Json::object();
    prefixIndex.set("hit_tokens", stats.hitTokens);
    prefixIndex.set("lookups", stats.lookups);
    prefixIndex.set("splits", stats.splits);
    Json sessionJson = Json::object();
    sessionJson.set("turns", std::move(turns));
    sessionJson.set("prefix_index", std::move(prefixIndex));
    doc->set("session", std::move(sessionJson));
}

/** Fig. 6: normalized prefill and decode throughput vs KV size, where
 *  the batch is the KV budget over one sequence's KV and throughput
 *  follows the roofline. */
void
kvThroughput(const Run &run, Json *doc)
{
    (void)run;
    const RooflineModel roofline(rtx4090());
    const ModelSpec model = qwen25Math1_5B();
    const std::vector<double> budgetsGiB = {0.05, 0.1,  0.2,  0.39,
                                            0.5,  0.98, 1.5,  3.06,
                                            5.18, 8.0,  12.0};
    Json config = Json::object();
    config.set("device", "RTX4090");
    config.set("model", model.name);
    config.set("kv_gib", list(budgetsGiB));
    doc->set("config", std::move(config));

    Json stages = Json::object();
    for (const bool prefill : {true, false}) {
        const auto throughput = [&](double kv_gib, double seq) {
            const int batch = std::max(
                1, static_cast<int>(kv_gib * GiB / model.kvBytes(seq)));
            return prefill
                ? batch * seq / roofline.prefillTime(model, batch, seq)
                : batch / roofline.decodeStepTime(model, batch, seq / 2);
        };
        const double seqShort = prefill ? 640 : 512;
        const double seqLong = prefill ? 1152 : 1024;
        const double peakShort = throughput(64, seqShort);
        const double peakLong = throughput(64, seqLong);
        double cross80 = -1;
        Json points = Json::object();
        for (const double gib : budgetsGiB) {
            const double tpShort = throughput(gib, seqShort);
            if (cross80 < 0 && tpShort >= 0.8 * peakShort)
                cross80 = gib;
            Json point = Json::object();
            point.set("short_seq_pct", 100 * tpShort / peakShort);
            point.set("long_seq_pct",
                      100 * throughput(gib, seqLong) / peakLong);
            points.set(formatDouble(gib, 2), std::move(point));
        }
        Json stage = Json::object();
        stage.set("short_seq", seqShort);
        stage.set("long_seq", seqLong);
        stage.set("short_seq_80pct_gib", cross80);
        stage.set("kv_gib", std::move(points));
        stages.set(prefill ? "prefill" : "decoding", std::move(stage));
    }
    doc->set("stages", std::move(stages));
}

/** Fig. 10: the Sec. 4.3.1 roofline-guided allocation — the optimal
 *  prefill and decode batches per KV budget, and the plan's
 *  throughput normalized to the largest budget's. */
void
allocation(const Run &run, Json *doc)
{
    (void)run;
    WorkloadShape shape;
    shape.numRequests = 512;
    shape.verifierSeqLen = 1100;
    shape.verifierReqLen = 190;
    shape.decodeLen = 180;
    shape.avgCacheLen = 900;
    const std::vector<double> budgetsGiB = {0.06, 0.12, 0.25, 0.5, 1.0,
                                            2.0,  4.0,  8.0,  16.0};
    Json config = Json::object();
    config.set("device", "RTX4090");
    config.set("models", "1.5B+1.5B");
    config.set("num_requests", shape.numRequests);
    config.set("verifier_seq_len", shape.verifierSeqLen);
    config.set("verifier_req_len", shape.verifierReqLen);
    config.set("decode_len", shape.decodeLen);
    config.set("avg_cache_len", shape.avgCacheLen);
    config.set("kv_gib", list(budgetsGiB));
    doc->set("config", std::move(config));

    const RooflineModel roofline(rtx4090());
    auto planner =
        makeRooflinePlanner(qwen25Math1_5B(), skywork1_5B(), roofline);
    const double tBest =
        planner->plan(shape, budgetsGiB.back() * GiB).predictedTime;
    Json budgets = Json::object();
    for (const double gib : budgetsGiB) {
        const auto plan = planner->plan(shape, gib * GiB);
        Json point = Json::object();
        point.set("prefill_batch", plan.prefillBatch);
        point.set("decode_batch", plan.decodeBatch);
        point.set("norm_throughput_pct", 100.0 * tBest / plan.predictedTime);
        budgets.set(formatDouble(gib, 2), std::move(point));
    }
    doc->set("budgets", std::move(budgets));
}

/** A goodput-gain figure: both systems' goodput at every point of
 *  `axes` from `cell`, and the gain's mean and range. */
void
gainSweep(const Run &run, const Cell &cell, const std::vector<Axis> &axes,
          int num_problems, Json *doc)
{
    doc->set("config", cellConfig(cell, num_problems, run.seed, axes));
    SummaryStats gains;
    doc->set("goodput", sweep(cell, axes, [&](const Cell &point) {
                 return goodputGain(run, point, num_problems, &gains);
             }));
    doc->set("summary", gainSummary(gains));
}

/** Fig. 11: goodput of both systems across four search variants. */
void
variants(const Run &run, Json *doc)
{
    gainSweep(run, Cell(),
              {fieldAxis("algorithm", &Cell::algorithm,
                         {"beam_search", "dvts", "dynamic_branching",
                          "varying_granularity"}),
               widthAxis(run.widths({8, 16, 32, 64, 128, 256, 512}))},
              run.problems(5), doc);
}

/** Fig. 12: goodput of both systems across datasets, model
 *  configurations and n. */
void
goodput(const Run &run, Json *doc)
{
    gainSweep(run, Cell(),
              {fieldAxis("dataset", &Cell::dataset, {"AIME", "AMC"}),
               modelsAxis(),
               widthAxis(run.widths({8, 16, 32, 64, 128, 256, 512}))},
              run.problems(6), doc);
}

/** Fig. 15: goodput of both systems on constrained GPUs — FastTTS
 *  offloads on the 8 GB card, as the paper does — and on HumanEval. */
void
hardware(const Run &run, Json *doc)
{
    struct Setup
    {
        const char *device;
        const char *dataset;
        bool offload;
    };
    const std::vector<Setup> setups = {{"RTX3070Ti", "AIME", true},
                                       {"RTX4070Ti", "AIME", false},
                                       {"RTX4090", "HumanEval", false}};
    Axis device{"device", Json::array(), {}, [setups](Cell &cell, size_t i) {
                    cell.device = setups[i].device;
                    cell.dataset = setups[i].dataset;
                    cell.config.offloadEnabled = setups[i].offload;
                }};
    Json datasets = Json::array();
    Json offload = Json::array();
    for (const Setup &setup : setups) {
        device.values.push(setup.device);
        device.labels.emplace_back(setup.device);
        datasets.push(setup.dataset);
        offload.push(setup.offload);
    }
    gainSweep(run, Cell(),
              {device, widthAxis(run.widths({8, 16, 32, 64, 128, 256}))},
              run.problems(5), doc);
    // Each device serves its own dataset, and only FastTTS offloads.
    Json config = (*doc)["config"];
    config.set("dataset", std::move(datasets));
    config.set("offload", std::move(offload));
    doc->set("config", std::move(config));
}

/** Fig. 13: completion latency of both systems with its generator and
 *  verifier parts, across datasets, model configurations and n. */
void
latency(const Run &run, Json *doc)
{
    const int problems = run.problems(4);
    const std::vector<Axis> axes = {
        fieldAxis("dataset", &Cell::dataset, {"AIME", "AMC"}), modelsAxis(),
        widthAxis(run.widths({8, 32, 128, 512}))};
    doc->set("config", cellConfig(Cell(), problems, run.seed, axes));

    const auto reduction = [](double base, double fast) {
        return 100.0 * (base - fast) / base;
    };
    SummaryStats latencyCut;
    SummaryStats generatorCut;
    SummaryStats verifierCut;
    doc->set("latency", sweep(Cell(), axes, [&](Cell cell) {
                 BatchResult out[2];
                 Json point = Json::object();
                 for (const bool fast : {false, true}) {
                     cell.config = engineMode(fast);
                     out[fast] = run.serve(cell, problems);
                     Json parts = Json::object();
                     parts.set("total_s", out[fast].meanLatency);
                     parts.set("generator_s", out[fast].meanGeneratorTime);
                     parts.set("verifier_s", out[fast].meanVerifierTime);
                     point.set(fast ? "fasttts" : "baseline",
                               std::move(parts));
                 }
                 const double cut =
                     reduction(out[0].meanLatency, out[1].meanLatency);
                 latencyCut.add(cut);
                 if (out[0].meanGeneratorTime > 0)
                     generatorCut.add(reduction(out[0].meanGeneratorTime,
                                                out[1].meanGeneratorTime));
                 if (out[0].meanVerifierTime > 0)
                     verifierCut.add(reduction(out[0].meanVerifierTime,
                                               out[1].meanVerifierTime));
                 point.set("reduction_pct", cut);
                 return point;
             }));
    Json summary = Json::object();
    summary.set("latency_reduction_pct", latencyCut.mean());
    summary.set("generator_reduction_pct", generatorCut.mean());
    summary.set("verifier_reduction_pct", verifierCut.mean());
    doc->set("summary", std::move(summary));
}

/** Fig. 14: top-1 accuracy of both systems at the figure's n across
 *  datasets and model configurations, and Pass@N of the 1.5B+1.5B
 *  runs. */
void
accuracy(const Run &run, Json *doc)
{
    const int problems = run.problems(16);
    const std::vector<int> attempts = run.widths({8, 32, 128, 512});
    const std::vector<Axis> axes = {
        fieldAxis("dataset", &Cell::dataset, {"AIME", "AMC"}), modelsAxis()};
    Cell cell;
    cell.numBeams = run.width(512);
    Json config = cellConfig(cell, problems, run.seed, axes);
    config.set("pass_at", list(attempts));
    doc->set("config", std::move(config));

    const auto passAtPct = [](const BatchResult &out, int n) {
        int hits = 0;
        for (const RequestResult &request : out.requests)
            hits += passAtN(request.solutions, static_cast<size_t>(n)) ? 1 : 0;
        return 100.0 * hits / out.requests.size();
    };
    Json passAt = Json::object();
    doc->set("top1_accuracy_pct", sweep(cell, axes, [&](Cell point) {
                 BatchResult out[2];
                 Json top1 = Json::object();
                 for (const bool fast : {false, true}) {
                     point.config = engineMode(fast);
                     out[fast] = run.serve(point, problems);
                     top1.set(fast ? "fasttts" : "baseline",
                              out[fast].top1Accuracy);
                 }
                 if (point.models.label != "1.5B+1.5B")
                     return top1;
                 Json byAttempts = Json::object();
                 for (const int n : attempts) {
                     Json pass = Json::object();
                     pass.set("baseline", passAtPct(out[0], n));
                     pass.set("fasttts", passAtPct(out[1], n));
                     byAttempts.set(std::to_string(n), std::move(pass));
                 }
                 passAt.set(point.dataset, std::move(byAttempts));
                 return top1;
             }));
    doc->set("pass_at_n_pct", std::move(passAt));
}

/** Fig. 16: the cumulative P / M+P / S+M+P goodput gain across model
 *  configurations and n. */
void
ablation(const Run &run, Json *doc)
{
    const int problems = run.problems(5);
    const std::vector<Axis> axes = {
        modelsAxis(), widthAxis(run.widths({8, 32, 128, 512}))};
    doc->set("config", cellConfig(Cell(), problems, run.seed, axes));
    doc->set("gain", sweep(Cell(), axes, [&](const Cell &point) {
                 return ablationGains(run, point, problems, 3);
             }));
}

/** Fig. 17: generation-phase utilization of both systems over one
 *  request (left), and goodput vs the truncation ratio R (right). */
void
speculative(const Run &run, Json *doc)
{
    const int problems = run.problems(5);
    const std::vector<Axis> axes = {
        fieldAxis("dataset", &Cell::dataset, {"AIME", "AMC"}),
        widthAxis(run.widths({64, 128, 256, 512}))};
    Json config = cellConfig(Cell(), problems, run.seed, axes);
    config.set("utilization_num_beams", run.width(32));
    config.set("truncation_ratio", list(std::vector<double>{0.0, 0.85}));
    doc->set("config", std::move(config));

    // Utilization sampled every 10 ms of generation time.
    std::vector<double> samples[2];
    for (const bool fast : {false, true}) {
        Cell traced;
        traced.config = engineMode(fast);
        traced.numBeams = run.width(32);
        for (const TimelineSegment &seg : traceSegments(run, traced)) {
            if (seg.phase != Phase::Generation)
                continue;
            const int reps =
                std::max(1, static_cast<int>(seg.duration / 0.01));
            samples[fast].insert(samples[fast].end(),
                                 static_cast<size_t>(reps),
                                 seg.computeUtil * 100);
        }
    }
    const auto at = [&](bool fast, int pct) {
        const std::vector<double> &s = samples[fast];
        if (s.empty())
            return 0.0;
        return s[std::min(s.size() - 1,
                          static_cast<size_t>(pct / 100.0 * s.size()))];
    };
    Json over = Json::object();
    for (int pct = 0; pct <= 100; pct += 10) {
        Json point = Json::object();
        point.set("baseline_util_pct", at(false, pct));
        point.set("fasttts_util_pct", at(true, pct));
        over.set(std::to_string(pct), std::move(point));
    }
    doc->set("generation_utilization", std::move(over));

    doc->set("goodput", sweep(Cell(), axes, [&](Cell cell) {
                 Json point = Json::object();
                 cell.config = FastTtsConfig::baseline();
                 point.set("baseline", run.serve(cell, problems).meanGoodput);
                 for (const auto &[key, ratio] :
                      {std::pair{"r_0.0", 0.0}, {"r_0.85", 0.85}}) {
                     cell.config = FastTtsConfig::fastTts();
                     cell.config.truncationRatio = ratio;
                     point.set(key, run.serve(cell, problems).meanGoodput);
                 }
                 return point;
             }));
}

/** Fig. 18: KV growth as the batch grows under each scheduling order
 *  (left), and the P and M+P gains vs available KV memory (right). */
void
scheduling(const Run &run, Json *doc)
{
    // Memory fractions that land the engine's KV budget near the
    // paper's 1.5, 2 and 14 GB points.
    const std::vector<double> fractions = {0.355, 0.38, 0.88};
    const std::vector<Axis> axes = {
        {"memory_fraction", list(fractions), {"~1.5 GB", "~2 GB", "~14 GB"},
         [fractions](Cell &cell, size_t i) {
             cell.models.memoryFraction = fractions[i];
         }}};
    const std::vector<std::string> orders = {"prefix_aware", "random",
                                             "worst_case"};
    const int problems = run.problems(4);
    Cell cell;
    cell.numBeams = run.width(512);
    Json config = cellConfig(cell, problems, run.seed, axes);
    config.set("scheduling_orders", list(orders));
    doc->set("config", std::move(config));

    // A beam-search-shaped final iteration: 128 leaves in sibling
    // groups of 4 under 8 deep shared trunks.
    KvCacheManager tree(1 << 30, 1.0, 16);
    Rng rng(2026);
    std::vector<SchedEntry> entries;
    size_t index = 0;
    for (int g = 0; g < 8; ++g) {
        const int trunk = tree.createChild(KvCacheManager::kRoot,
                                           1 + static_cast<uint64_t>(g),
                                           rng.uniformInt(300, 700));
        for (int p = 0; p < 4; ++p) {
            const int position = g * 4 + p;
            const int parent = tree.createChild(trunk, 100 + index,
                                                rng.uniformInt(150, 450));
            for (int c = 0; c < 4; ++c) {
                const int leaf = tree.createChild(parent, 1000 + index,
                                                  rng.uniformInt(40, 250));
                SchedEntry e;
                e.index = index;
                e.beamId = ++index;
                e.parentBeam = static_cast<uint64_t>(position);
                e.prevPosition = position;
                e.leaf = leaf;
                e.pathTokens = tree.pathTokens(leaf);
                entries.push_back(e);
            }
        }
    }
    // Unique tokens touched as the batch grows in schedule order — a
    // proxy for KV cache consumption.
    std::vector<std::vector<double>> cumulative;
    for (const std::string &order : orders) {
        std::vector<SchedEntry> scheduled = entries;
        Rng orderRng(7);
        makeScheduler(order)->order(scheduled, tree, orderRng);
        std::set<int> seen;
        double unique = 0;
        cumulative.emplace_back();
        for (const SchedEntry &e : scheduled) {
            for (int id = e.leaf; id != KvCacheManager::kInvalid;
                 id = tree.parentOf(id)) {
                if (!seen.insert(id).second)
                    break;
                unique += tree.nodeTokens(id);
            }
            cumulative.back().push_back(unique / 1000.0);
        }
    }
    Json growth = Json::object();
    for (size_t b = 7; b < entries.size(); b += 16) {
        Json point = Json::object();
        for (size_t o = 0; o < orders.size(); ++o)
            point.set(orders[o] + "_ktok", cumulative[o][b]);
        growth.set(std::to_string(b + 1), std::move(point));
    }
    doc->set("kv_growth", std::move(growth));
    doc->set("gain_vs_memory", sweep(cell, axes, [&](const Cell &point) {
                 return ablationGains(run, point, problems, 2);
             }));
}

/** One paper figure: a row of the suite whose document carries the
 *  figure's own cells and the claim its caption quotes. */
struct Figure
{
    const char *name;
    const char *description;
    const char *paper; //!< The paper's claim, as the figure states it.
    void (*measure)(const Run &run, Json *doc);
    std::string (*headline)(const Json &doc);
};

const Figure kFigures[] = {
    {"fig01_frontier", "Latency vs. accuracy frontier (Fig. 1b)",
     "Naive edge TTS needs ~200 s to match cloud accuracy, ~2x the "
     "cloud latency (o3-pro ~112 s, GPT-5 ~95 s); FastTTS pushes latency "
     "below the cloud reference at matched accuracy.",
     frontier,
     [](const Json &doc) {
         const auto &[n, base] = doc["frontier"]["baseline"].members().back();
         return "latency at n=" + n + " baseline "
             + fixed(base["latency_s"], 1) + " s vs fasttts "
             + fixed(doc["frontier"]["fasttts"][n]["latency_s"], 1) + " s";
     }},
    {"fig03_patterns", "TTS workload patterns (Fig. 3)",
     "Left: accuracy BoN 50.0% < Beam Search 54.5% < DVTS 56.5% at "
     "latency 179.5 < 207.0 < 291.5 s, so verifier-guided methods buy "
     "accuracy with latency. Right: the average step stays in the low "
     "hundreds of tokens while the max approaches ~1200 tokens at every "
     "step, the straggler source.",
     patterns,
     [](const Json &doc) {
         std::string line = "top-1";
         for (const auto &[method, point] : doc["methods"].members())
             line += " " + method + " "
                 + fixed(point["top1_accuracy_pct"], 1) + "%";
         const Json &first = doc["step_tokens"]["1"];
         return line + "; step 1 avg " + whole(first["avg_tokens"])
             + " vs max " + whole(first["max_tokens"]) + " tokens";
     }},
    {"fig04_utilization", "GPU utilization timeline (Fig. 4)",
     "Generation-phase utilization peaks at the start and plummets "
     "toward idle while waiting for the final straggler; verification "
     "stays uniformly busy.",
     utilization,
     [](const Json &doc) {
         const Json &phases = doc["phases"];
         return "mean util generation "
             + fixed(phases["generation"]["mean_util_pct"], 2)
             + "% vs verification "
             + fixed(phases["verification"]["mean_util_pct"], 2) + "%";
     }},
    {"fig05_prefix_sharing", "Prefix sharing working set (Fig. 5)",
     "Prefix caching keeps the in-memory footprint several times below "
     "the unshared footprint, and the gap widens as the tree deepens; "
     "naive scheduling does not group similar beams, while the "
     "prefix-aware order maximises adjacent sharing.",
     prefixSharing,
     [](const Json &doc) {
         const Json &adjacency = doc["adjacent_shared_prefix"];
         return "adjacent shared prefix prefix_aware "
             + whole(adjacency["prefix_aware"]) + " vs random "
             + whole(adjacency["random"]) + "; session reused "
             + whole(doc["session"]["prefix_index"]["hit_tokens"])
             + " prompt tokens";
     }},
    {"fig06_kv_throughput", "KV pressure vs. throughput (Fig. 6)",
     "Prefill saturates at 0.39-0.98 GiB of KV; decoding needs "
     "3.06-5.18 GiB (5-10x more).",
     kvThroughput,
     [](const Json &doc) {
         const Json &stages = doc["stages"];
         return "80% of peak at prefill "
             + fixed(stages["prefill"]["short_seq_80pct_gib"], 2)
             + " GiB vs decoding "
             + fixed(stages["decoding"]["short_seq_80pct_gib"], 2) + " GiB";
     }},
    {"fig10_allocation", "Asymmetric memory allocation (Fig. 10)",
     "The optimal decode batch dominates as memory grows; throughput "
     "rises steeply then saturates. The search runs in <1 ms per "
     "invocation.",
     allocation,
     [](const Json &doc) {
         const auto &points = doc["budgets"].members();
         return "decode batch "
             + whole(points.front().second["decode_batch"]) + " at "
             + points.front().first + " GiB -> "
             + whole(points.back().second["decode_batch"]) + " at "
             + points.back().first + " GiB";
     }},
    {"fig11_variants", "Search method variants (Fig. 11)",
     "FastTTS improves goodput over the baseline for every search "
     "variant, by 1.2x-3.9x.",
     variants,
     [](const Json &doc) { return "gain " + gainRange(doc["summary"]); }},
    {"fig12_goodput", "Precise Goodput comparison (Fig. 12)",
     "FastTTS >= baseline at every n; average gain 2.2x, range "
     "1.2x-5.4x, growing with n (peak at 7B+1.5B, n=512, AIME).",
     goodput,
     [](const Json &doc) {
         return "mean gain " + fixed(doc["summary"]["gain_mean_x"], 2)
             + "x, range " + gainRange(doc["summary"]);
     }},
    {"fig13_latency", "Latency breakdown (Fig. 13)",
     "FastTTS reduces latency by 38-68% on average; verifier latency "
     "falls more (75-85%) than generator latency (36-66%); in 1.5B+7B "
     "the verifier's share grows with n.",
     latency,
     [](const Json &doc) {
         const Json &summary = doc["summary"];
         return "mean reduction latency "
             + fixed(summary["latency_reduction_pct"], 1)
             + "%, generator "
             + fixed(summary["generator_reduction_pct"], 1)
             + "%, verifier "
             + fixed(summary["verifier_reduction_pct"], 1) + "%";
     }},
    {"fig14_accuracy", "Accuracy preservation (Fig. 14)",
     "FastTTS matches (or slightly exceeds) the baseline's top-1 "
     "accuracy: algorithmic equivalence. Pass@N matches at large N and "
     "may slightly exceed the baseline at small N (scheduler side "
     "effect).",
     accuracy,
     [](const Json &doc) {
         int equal = 0;
         int cells = 0;
         for (const auto &[dataset, byModels] :
              doc["top1_accuracy_pct"].members()) {
             for (const auto &[models, pair] : byModels.members()) {
                 ++cells;
                 equal += pair["baseline"].asNumber()
                         == pair["fasttts"].asNumber()
                     ? 1
                     : 0;
             }
         }
         return "top-1 equal in " + std::to_string(equal) + " of "
             + std::to_string(cells) + " cells";
     }},
    {"fig15_hardware", "Hardware sensitivity (Fig. 15)",
     "FastTTS outperforms the baseline everywhere: 1.4x-1.6x on the "
     "constrained GPUs (lower absolute goodput on the 3070 Ti due to "
     "offloading) and 1.3x-1.8x on HumanEval.",
     hardware,
     [](const Json &doc) { return "gain " + gainRange(doc["summary"]); }},
    {"fig16_ablation", "P/M/S ablation (Fig. 16)",
     "Cumulative gains: S is the largest single contribution in most "
     "configurations, P matters most under tight memory (1.5B+1.5B at "
     "40%), and M grows with n.",
     ablation,
     [](const Json &doc) {
         std::string line = "S+M+P gain at the widest n:";
         for (const auto &[models, byWidth] : doc["gain"].members())
             line += " " + models + " "
                 + fixed(byWidth.members().back().second["smp_pct"], 1)
                 + "%";
         return line;
     }},
    {"fig17_speculative", "Speculative beam extension (Fig. 17)",
     "Baseline utilization decays over the iteration while FastTTS stays "
     "higher and more consistent; R=0.85 (aggressive retention) yields "
     "more goodput than R=0, both at or above the baseline.",
     speculative,
     [](const Json &doc) {
         const auto &[n, point] = doc["goodput"]["AIME"].members().front();
         return "AIME n=" + n + " goodput baseline "
             + fixed(point["baseline"], 2) + ", R=0 "
             + fixed(point["r_0.0"], 2) + ", R=0.85 "
             + fixed(point["r_0.85"], 2);
     }},
    {"fig18_scheduling", "Prefix-aware scheduling (Fig. 18)",
     "KV grows much more slowly under prefix-aware scheduling, so a "
     "fixed budget supports a substantially larger batch; P and M+P gain "
     "58% and 145% at 1.5 GB, shrinking to ~5% and 24% at 14 GB.",
     scheduling,
     [](const Json &doc) {
         const Json &tight = doc["gain_vs_memory"]["~1.5 GB"];
         return "gain at ~1.5 GB P " + fixed(tight["p_pct"], 1)
             + "%, M+P " + fixed(tight["mp_pct"], 1) + "%";
     }},
};

Json
runFigure(const Figure &figure, const Run &run)
{
    Json doc = openDoc(figure.name, figure.description, run.quick);
    doc.set("paper", figure.paper);
    figure.measure(run, &doc);
    return doc;
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
    int defensiveExits = 0; //!< Hang-guard exits of the probe runs.
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

/** The probe-calibrated overload trace of a sweep. */
struct Storm
{
    double rate = 0;         //!< Offered arrival rate (requests/s).
    double slo = 0;          //!< Base SLO budget (s); requests carry
                             //!< tiered multiples of it.
    double measuredMean = 0; //!< Probe-measured mean service time (s).
};

/**
 * Give the sweep its bursty overload trace, identical across arms:
 * probe a few real requests for the mean service time, offer ~3x that
 * rate in heavy-tailed bursts (long silences drain the queue, so the
 * mean rate must sit well past capacity for backlog to build), and
 * hand every request a deterministic priority and SLO-tier mix (a
 * uniform SLO would make edf collapse to arrival order).
 */
Storm
serveStorm(OnlineSweep &sweep, int num_requests, uint64_t seed)
{
    constexpr int kProbes = 4;
    ServingSystem probe = ServingSystem::create(sweep.serving).value();
    double measuredMean = 0;
    for (int i = 0; i < kProbes; ++i) {
        const RequestResult result =
            probe.serve(probe.problems()[static_cast<size_t>(i)]);
        measuredMean += result.completionTime;
        sweep.defensiveExits += result.defensiveExits;
    }
    measuredMean /= kProbes;

    const Storm storm{3.0 / measuredMean, 3.0 * measuredMean,
                      measuredMean};
    const std::vector<double> arrivals =
        makeArrivalTrace("bursty", num_requests, storm.rate, seed).value();
    const double sloTiers[] = {0.75, 1.5, 3.0, 6.0};
    sweep.requests.reserve(arrivals.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
        OnlineRequest request;
        request.arrival = arrivals[i];
        request.priority = static_cast<int>(i % 3) - 1;
        request.slo = storm.slo * sloTiers[i % 4];
        sweep.requests.push_back(request);
    }
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

/** Size the sweep's wave budget to fuse every in-flight request's
 *  decode work (in flight x beams x expected step tokens, the README's
 *  sizing rule), so occupancy is limited by arrivals and memory, not
 *  by the token knob, and report it in the config. */
void
sizeWaveBudget(OnlineSweep &sweep)
{
    const ServingSystem probe = ServingSystem::create(sweep.serving).value();
    sweep.base.maxBatchedTokens = sweep.base.maxInflight
        * sweep.serving.numBeams
        * std::max(1, static_cast<int>(
                          probe.engine().expectedStepTokens() + 1));
    sweep.config.set("max_batched_tokens", sweep.base.maxBatchedTokens);
}

/** Admission policies on one identical heavy-tailed arrival trace. */
OnlineSweep
schedulingSweep(bool quick, uint64_t seed)
{
    const int requests = quick ? 8 : 32;
    OnlineSweep sweep = newSweep(quick ? 8 : 32, requests, seed);
    const Storm storm = serveStorm(sweep, requests, seed);
    sweep.config.set("max_inflight", sweep.base.maxInflight);
    sizeWaveBudget(sweep);
    sweep.config.set("arrivals", "bursty");
    sweep.config.set("arrival_rate_per_s", storm.rate);
    sweep.config.set("slo_s", storm.slo);
    sweep.outer = knobArms(&OnlineServerOptions::policy,
                           queuePolicyRegistry().list());
    return sweep;
}

/** EDF with doomed-request shedding on one bursty overload trace at
 *  three shared KV budget tiers: SLO attainment, goodput, recompute
 *  and batch occupancy versus memory. */
OnlineSweep
preemptionSweep(bool quick, uint64_t seed)
{
    const int requests = quick ? 10 : 24;
    OnlineSweep sweep = newSweep(quick ? 8 : 16, requests, seed);
    const Storm storm = serveStorm(sweep, requests, seed);
    const double engineGiB = engineKvBudgetGiB(sweep);
    sweep.base.policy = "edf";
    sweep.base.shedDoomed = true;
    sweep.config.set("max_inflight", sweep.base.maxInflight);
    sweep.config.set("policy", "edf");
    sweep.config.set("arrivals", "bursty");
    sweep.config.set("arrival_rate_per_s", storm.rate);
    sweep.config.set("slo_s", storm.slo);
    sweep.config.set("engine_kv_budget_gib", engineGiB);
    sizeWaveBudget(sweep);
    sweep.config.set("prefill_chunk", sweep.base.prefillChunk);
    sweep.config.set("shed_doomed", true);
    sweep.outer = budgetArms(
        engineGiB, {{"1.00x", 1.0}, {"0.50x", 0.5}, {"0.25x", 0.25}});
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
    sweep.config.set("sessions", numSessions);
    sweep.config.set("base_prompt_tokens", basePromptTokens);
    sweep.config.set("turn_growth_tokens", turnGrowthTokens);
    sweep.config.set("max_inflight", sweep.base.maxInflight);
    sweep.config.set("policy", "fifo");
    sweep.config.set("arrivals", "poisson");
    sweep.config.set("arrival_rate_per_s", arrivalRate);
    sweep.config.set("kv_budget_gib", engineGiB);
    sweep.outer = knobArms(&OnlineServerOptions::prefixCache, {"off", "on"});
    return sweep;
}

/** One bursty trace under deterministic wave-step fault injection at
 *  {0%, 1%, 5%} per-wave rates, fail-fast (a fault terminally fails its
 *  request) vs retry (capped exponential backoff). */
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
    Storm storm = serveStorm(sweep, requests, seed);
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
    sweep.config.set("max_inflight", sweep.base.maxInflight);
    sweep.config.set("policy", "edf");
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
        {"retry", Json::object(),
         [retryBackoff](OnlineServerOptions &o) {
             o.retryMax = kRetryMax;
             o.retryBackoff = retryBackoff;
         }}};
    return sweep;
}

/**
 * Every metric an online cell can report, keyed by its JSON name; a
 * row picks its keys from this.
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
    m.set("kv_peak_gib", toGiB(server.kvLedger().peakUsedBytes()));
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

/** Serve the sweep's trace once under `options`, count its generated
 *  tokens and hang-guard exits on `run`, and write the row's metrics
 *  into `cell`. */
void
serveCell(const OnlineBench &bench, const OnlineSweep &sweep,
          const OnlineServerOptions &options, Json *cell, const Run &run)
{
    OnlineServer server = OnlineServer::create(sweep.serving, options).value();
    const OnlineTraceResult out = server.serveRequests(sweep.requests).value();
    *run.simulatedTokens += out.generatedTokens;
    *run.defensiveExits += out.defensiveExits;
    const Json metrics = onlineMetrics(server, out, sweep.requests);
    for (const char *key : bench.metrics)
        cell->set(key, metrics[key]);
}

Json
runOnlineBenchmark(const OnlineBench &bench, const Run &run)
{
    OnlineSweep sweep = bench.setup(run.quick, run.seed);
    *run.defensiveExits += sweep.defensiveExits;
    sweep.config.set("seed", run.seed);
    Json doc = openDoc(bench.name, bench.description, run.quick);
    doc.set("config", std::move(sweep.config));

    Json cells = Json::object();
    for (const Arm &outer : sweep.outer) {
        OnlineServerOptions options = sweep.base;
        outer.edit(options);
        Json cell = outer.opens;
        if (sweep.inner.empty())
            serveCell(bench, sweep, options, &cell, run);
        for (const Arm &inner : sweep.inner) {
            OnlineServerOptions edited = options;
            inner.edit(edited);
            Json served = inner.opens;
            serveCell(bench, sweep, edited, &served, run);
            cell.set(inner.label, std::move(served));
        }
        cells.set(outer.label, std::move(cell));
    }
    doc.set(bench.axis, std::move(cells));
    if (bench.summarize != nullptr)
        doc.set("summary", bench.summarize(doc[bench.axis]));
    return doc;
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
     "Continuous batching under a shared KV budget (1.00x, 0.50x, 0.25x)",
     preemptionSweep, "budgets",
     {"latency_s", "goodput_tokens_per_s", "verified_tokens", "makespan_s",
      "slo_attainment", "deadline_misses", "completed", "shed_requests",
      "shed_rate", "batch_occupancy", "recomputed_tokens",
      "preempt_evicted_tokens", "kv_peak_gib", "utilization"},
     nullptr,
     [](const Json &doc) {
         const Json &budgets = doc["budgets"];
         return "slo at 1.00x/0.50x/0.25x budget "
             + percent(budgets["1.00x"]["slo_attainment"]) + "/"
             + percent(budgets["0.50x"]["slo_attainment"]) + "/"
             + percent(budgets["0.25x"]["slo_attainment"])
             + "%, occupancy at 1.00x "
             + formatDouble(budgets["1.00x"]["batch_occupancy"].asNumber(),
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
     "Retry vs fail-fast under deterministic fault injection",
     faultToleranceSweep, "rates",
     {"latency_s", "slo_attainment", "deadline_misses", "completed",
      "goodput_tokens_per_s", "verified_tokens", "makespan_s",
      "injected_faults", "retries", "failed_requests", "timeouts",
      "wasted_recompute_tokens", "utilization"},
     [](const Json &rates) {
         const double noRetry =
             rates["5%"]["no_retry"]["slo_attainment"].asNumber();
         const double retry =
             rates["5%"]["retry"]["slo_attainment"].asNumber();
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
             + "% vs retry "
             + percent(summary["slo_attainment_retry_at_5pct"])
             + "% (recovered "
             + whole(summary["slo_recovery_points_at_5pct"]) + " pts)";
     }},
};

// --- The registry and the harness -------------------------------------

/** One registered benchmark: what --list, usage(), name selection,
 *  the runner pool and the stdout lines iterate. */
struct Benchmark
{
    const char *name;
    const char *description;
    std::function<Json(const Run &run)> run;
    std::string (*headline)(const Json &doc);
};

const std::vector<Benchmark> &
registry()
{
    static const std::vector<Benchmark> all = [] {
        std::vector<Benchmark> benches;
        for (const Figure &figure : kFigures)
            benches.push_back(
                {figure.name, figure.description,
                 [&figure](const Run &run) { return runFigure(figure, run); },
                 figure.headline});
        for (const PairBench &spec : kPairBenchmarks)
            benches.push_back(
                {spec.name, spec.description,
                 [&spec](const Run &run) { return runPair(spec, run); },
                 pairHeadline});
        for (const OnlineBench &bench : kOnlineBenchmarks)
            benches.push_back(
                {bench.name, bench.description,
                 [&bench](const Run &run) {
                     return runOnlineBenchmark(bench, run);
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
    int defensiveExits = 0; //!< Not in the document: any fails the run.
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
          "with per-benchmark wall_ms and simulated tokens/s. Exits 1\n"
          "when any benchmark cut a run at the engine's hang guard\n"
          "(named on stderr; its files are still written).\n"
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
        if ((arg == "--jobs" || arg == "--out-dir" || arg == "--seed")
            && i + 1 >= argc) {
            std::cerr << "bench_runner: " << arg << " expects a value\n";
            return 2;
        }
        if (arg == "--list") {
            list = true;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--jobs") {
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
        } else if (arg == "--out-dir") {
            outDir = argv[++i];
        } else if (arg == "--seed") {
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
        if (std::find(toRun.begin(), toRun.end(), &*found) != toRun.end()) {
            std::cerr << "bench_runner: benchmark '" << name
                      << "' is named twice\n";
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
                docs[i] = toRun[i]->run(Run{quick, seed,
                                            &samples[i].simulatedTokens,
                                            &samples[i].defensiveExits});
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

    // A generation phase cut at the engine's hang guard (safety_cap)
    // leaves numbers that look valid, so any such exit fails the run.
    int status = 0;
    for (size_t i = 0; i < toRun.size(); ++i) {
        if (samples[i].defensiveExits == 0)
            continue;
        std::cerr << "bench_runner: " << toRun[i]->name << ": "
                  << samples[i].defensiveExits
                  << " defensive hang-guard exit(s)\n";
        status = 1;
    }
    return status;
}

} // namespace
} // namespace fasttts

int
main(int argc, char **argv)
{
    return fasttts::runnerMain(argc, argv);
}
