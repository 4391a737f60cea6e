/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot data structures: the
 * radix-tree KV cache, the schedulers, and the allocation search. Not
 * a paper figure — documents that the runtime components are cheap
 * enough for per-iteration invocation (the paper quotes <1 ms for the
 * allocation search).
 */

#include <benchmark/benchmark.h>

#include "alloc/memory_planner.h"
#include "core/engine.h"
#include "kv/kv_cache.h"
#include "model/model_spec.h"
#include "model/workload.h"
#include "sched/scheduler.h"
#include "search/search_algorithm.h"
#include "sim/device.h"
#include "util/rng.h"
#include "util/units.h"

namespace fasttts
{
namespace
{

/** Build a beam-search-shaped tree with the given number of leaves. */
std::vector<SchedEntry>
buildEntries(KvCacheManager &kv, int leaves, Rng &rng)
{
    std::vector<SchedEntry> entries;
    size_t index = 0;
    const int parents = std::max(1, leaves / 4);
    for (int p = 0; p < parents; ++p) {
        const int parent =
            kv.createChild(KvCacheManager::kRoot,
                           static_cast<uint64_t>(p) + 1,
                           rng.uniformInt(200, 1000));
        for (int c = 0; c < 4 && static_cast<int>(index) < leaves; ++c) {
            const int leaf = kv.createChild(
                parent, 10000 + index, rng.uniformInt(30, 300));
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
    return entries;
}

void
BM_RadixTouch(benchmark::State &state)
{
    KvCacheManager kv(64 * MiB, 28672, 16);
    Rng rng(1);
    auto entries = buildEntries(kv, static_cast<int>(state.range(0)),
                                rng);
    uint64_t tick = 0;
    for (auto _ : state) {
        for (const auto &e : entries)
            benchmark::DoNotOptimize(kv.ensureResident(e.leaf, ++tick));
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(entries.size()));
}
BENCHMARK(BM_RadixTouch)->Arg(64)->Arg(256)->Arg(1024);

void
BM_RadixAppend(benchmark::State &state)
{
    KvCacheManager kv(1024 * MiB, 28672, 16);
    const int leaf = kv.createChild(KvCacheManager::kRoot, 1, 0);
    (void)kv.ensureResident(leaf, 0);
    uint64_t tick = 0;
    for (auto _ : state) {
        if (!kv.appendTokens(leaf, 1, ++tick)) {
            state.PauseTiming();
            kv.truncateTokens(leaf, 0);
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RadixAppend);

void
BM_PrefixAwareScheduler(benchmark::State &state)
{
    KvCacheManager kv(1 << 30, 1.0, 16);
    Rng rng(2);
    auto entries = buildEntries(kv, static_cast<int>(state.range(0)),
                                rng);
    auto scheduler = makePrefixAwareScheduler();
    for (auto _ : state) {
        auto copy = entries;
        scheduler->order(copy, kv, rng);
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_PrefixAwareScheduler)->Arg(64)->Arg(512);

void
BM_GreedyPrefixScheduler(benchmark::State &state)
{
    KvCacheManager kv(1 << 30, 1.0, 16);
    Rng rng(3);
    auto entries = buildEntries(kv, static_cast<int>(state.range(0)),
                                rng);
    auto scheduler = makeGreedyPrefixScheduler();
    for (auto _ : state) {
        auto copy = entries;
        scheduler->order(copy, kv, rng);
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_GreedyPrefixScheduler)->Arg(64)->Arg(256);

/**
 * pathTokens on the leaf of a deep root->leaf chain. The cached prefix
 * sums make this O(1) regardless of depth; the pre-cache
 * implementation walked the whole chain (O(depth) per call), so this
 * is the headline microbenchmark for the KV accounting overhaul.
 */
void
BM_PathTokensDeepChain(benchmark::State &state)
{
    KvCacheManager kv(1 << 30, 1.0, 16);
    Rng rng(4);
    const int depth = static_cast<int>(state.range(0));
    int leaf = KvCacheManager::kRoot;
    for (int d = 0; d < depth; ++d) {
        leaf = kv.createChild(leaf, static_cast<uint64_t>(d) + 1,
                              rng.uniformInt(20, 200));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(kv.pathTokens(leaf));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathTokensDeepChain)->Arg(8)->Arg(64)->Arg(512);

/**
 * retain/release round trip over a deep path: still O(depth) for the
 * refcount walk, but the unshared-token accounting is now counter
 * updates instead of full-tree scans on read.
 */
void
BM_RetainReleaseDeepPath(benchmark::State &state)
{
    KvCacheManager kv(1 << 30, 1.0, 16);
    Rng rng(5);
    const int depth = static_cast<int>(state.range(0));
    int leaf = KvCacheManager::kRoot;
    for (int d = 0; d < depth; ++d) {
        leaf = kv.createChild(leaf, static_cast<uint64_t>(d) + 1,
                              rng.uniformInt(20, 200));
    }
    for (auto _ : state) {
        kv.retain(leaf);
        benchmark::DoNotOptimize(kv.unsharedTokens());
        kv.release(leaf);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RetainReleaseDeepPath)->Arg(64)->Arg(512);

/**
 * One full engine event-loop step (replan + generation + verification
 * + selection) on a small beam-search request — the per-iteration cost
 * every serving benchmark pays, now free of beams x branches rescans.
 */
void
BM_EngineEventLoopStep(benchmark::State &state)
{
    const DeviceSpec device = deviceByName("RTX4090").value();
    const DatasetProfile dataset = datasetByName("AMC").value();
    const ModelConfig models = modelConfigByLabel("1.5B+1.5B").value();
    const auto algorithm =
        makeAlgorithm("beam_search", static_cast<int>(state.range(0)))
            .value();
    FastTtsConfig config;
    const std::vector<Problem> problems = makeProblems(dataset, 1, 7);
    FastTtsEngine engine(config, models, device, dataset, *algorithm);
    engine.beginRequest(problems[0]);
    for (auto _ : state) {
        if (!engine.stepRequest()) {
            state.PauseTiming();
            engine.finishRequest();
            engine.beginRequest(problems[0]);
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineEventLoopStep)->Arg(16)->Arg(64);

/**
 * Greedy prefix-aware order() over a wide beam set with deep shared
 * paths. One ancestor map per scheduled anchor (O(n depth) builds)
 * instead of one per candidate pair (O(n^2 depth)).
 */
void
BM_WideBeamGreedyOrder(benchmark::State &state)
{
    KvCacheManager kv(1 << 30, 1.0, 16);
    Rng rng(6);
    // Deep trunks: chains of 8 segments under the root, then 4 leaves
    // per trunk, so LCA walks traverse real depth.
    const int leaves = static_cast<int>(state.range(0));
    const int trunks = std::max(1, leaves / 4);
    std::vector<SchedEntry> entries;
    size_t index = 0;
    for (int t = 0; t < trunks; ++t) {
        int trunk = KvCacheManager::kRoot;
        for (int d = 0; d < 8; ++d) {
            trunk = kv.createChild(
                trunk,
                static_cast<uint64_t>(t) * 100 + static_cast<uint64_t>(d)
                    + 1,
                rng.uniformInt(50, 400));
        }
        for (int c = 0; c < 4 && static_cast<int>(index) < leaves; ++c) {
            const int leaf = kv.createChild(
                trunk, 1000000 + index, rng.uniformInt(30, 300));
            SchedEntry e;
            e.index = index;
            e.beamId = ++index;
            e.parentBeam = static_cast<uint64_t>(t);
            e.prevPosition = t;
            e.leaf = leaf;
            e.pathTokens = kv.pathTokens(leaf);
            entries.push_back(e);
        }
    }
    auto scheduler = makeGreedyPrefixScheduler();
    for (auto _ : state) {
        auto copy = entries;
        scheduler->order(copy, kv, rng);
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(entries.size()));
}
BENCHMARK(BM_WideBeamGreedyOrder)->Arg(64)->Arg(256)->Arg(512);

void
BM_RooflineAllocationSearch(benchmark::State &state)
{
    RooflineModel roofline(rtx4090());
    auto planner = makeRooflinePlanner(qwen25Math1_5B(), skywork1_5B(),
                                       roofline);
    WorkloadShape shape;
    shape.numRequests = static_cast<int>(state.range(0));
    shape.verifierSeqLen = 1100;
    shape.verifierReqLen = 190;
    shape.decodeLen = 180;
    shape.avgCacheLen = 900;
    for (auto _ : state)
        benchmark::DoNotOptimize(planner->plan(shape, 2 * GiB));
    // The paper quotes < 1 ms per invocation on one CPU thread.
}
BENCHMARK(BM_RooflineAllocationSearch)->Arg(64)->Arg(512);

} // namespace
} // namespace fasttts

BENCHMARK_MAIN();
