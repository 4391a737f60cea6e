/**
 * @file
 * Cross-cutting property sweeps over the serving engine: for a grid of
 * (model config, dataset, algorithm, width, optimization set), every
 * run must satisfy the engine's structural invariants. These sweeps
 * are the repository's failure-injection net: any change that breaks
 * KV accounting, beam lifecycle or metric consistency trips dozens of
 * grid points at once.
 */

#include <gtest/gtest.h>

#include "core/engine.h"
#include "kv/kv_session.h"
#include "util/fault_injector.h"

namespace fasttts
{
namespace
{

struct GridCase
{
    std::string models;
    std::string dataset;
    std::string algorithm;
    int numBeams;
    int optMask; //!< bit0 = P, bit1 = M, bit2 = S.
};

void
PrintTo(const GridCase &c, std::ostream *os)
{
    *os << c.models << "/" << c.dataset << "/" << c.algorithm << "/n="
        << c.numBeams << "/opt=" << c.optMask;
}

FastTtsConfig
configFromMask(int mask)
{
    FastTtsConfig config = FastTtsConfig::baseline();
    if (mask & 1)
        config.prefixAwareScheduling = true;
    if (mask & 2)
        config.asymmetricAllocation = true;
    if (mask & 4) {
        config.speculativeExtension = true;
        config.lookaheadVerification = true;
    }
    return config;
}

class EngineGrid : public ::testing::TestWithParam<GridCase>
{
};

TEST_P(EngineGrid, StructuralInvariants)
{
    const GridCase c = GetParam();
    const DatasetProfile profile = *datasetByName(c.dataset);
    auto algo = *makeAlgorithm(c.algorithm, c.numBeams, 4);
    FastTtsEngine engine(configFromMask(c.optMask),
                         *modelConfigByLabel(c.models), rtx4090(),
                         profile, *algo);
    const auto problems = makeProblems(profile, 1, 4242);
    const RequestResult r = engine.runRequest(problems[0]);

    // --- Completion invariants ---
    EXPECT_GT(r.completedBeams, 0);
    if (c.algorithm != "best_of_n") {
        EXPECT_EQ(r.completedBeams, c.numBeams);
    }
    EXPECT_EQ(r.solutions.size(),
              static_cast<size_t>(r.completedBeams));

    // --- Timing invariants ---
    EXPECT_GT(r.completionTime, 0);
    EXPECT_NEAR(r.completionTime,
                r.generatorTime + r.verifierTime + r.transferTime,
                1e-6 * r.completionTime + 1e-9);
    EXPECT_GT(r.avgBeamCompletion, 0);
    EXPECT_LE(r.avgBeamCompletion, r.completionTime + 1e-9);

    // --- Token accounting invariants ---
    EXPECT_GT(r.verifiedTokens, 0);
    EXPECT_GE(r.generatedTokens, 0);
    EXPECT_GE(r.speculativeTokens, 0);
    EXPECT_LE(r.wastedSpecTokens, r.speculativeTokens);
    if (!(c.optMask & 4)) {
        EXPECT_EQ(r.speculativeTokens, 0);
    }

    // --- Solution invariants ---
    for (const auto &s : r.solutions) {
        EXPECT_GE(s.answer, -1);
        EXPECT_GE(s.score, 0.0);
        EXPECT_LE(s.score, 1.0);
        EXPECT_GE(s.tokens, profile.minStepTokens);
        EXPECT_LE(s.finishTime, r.completionTime + 1e-9);
    }

    // --- KV invariants (post-run) ---
    const auto &gen_kv = engine.generatorKv();
    EXPECT_LE(gen_kv.allocator().used(), gen_kv.allocator().total());
    EXPECT_LE(gen_kv.residentTokens(),
              static_cast<long>(gen_kv.allocator().used())
                  * gen_kv.blockTokens());
    const auto &ver_kv = engine.verifierKv();
    EXPECT_LE(ver_kv.allocator().used(), ver_kv.allocator().total());

    // --- Iteration-stat invariants ---
    const auto &stats = engine.iterationStats();
    ASSERT_FALSE(stats.empty());
    int prev_active = c.numBeams + 1;
    for (const auto &s : stats) {
        EXPECT_GT(s.activeBeams, 0);
        EXPECT_LE(s.activeBeams, c.numBeams);
        EXPECT_GE(s.unsharedTokens, s.uniqueTokens);
        EXPECT_GE(s.decodeBatch, 1);
        EXPECT_GE(s.prefillBatch, 1);
        // Width never grows (completed beams shrink the target).
        if (c.algorithm != "best_of_n") {
            EXPECT_LE(s.activeBeams, prev_active);
        }
        prev_active = s.activeBeams;
    }
}

std::vector<GridCase>
buildGrid()
{
    std::vector<GridCase> grid;
    // Optimization mask sweep on the canonical setup.
    for (int mask = 0; mask < 8; ++mask)
        grid.push_back({"1.5B+1.5B", "AIME", "beam_search", 16, mask});
    // Algorithm sweep, baseline and full FastTTS.
    for (const char *algo : {"best_of_n", "dvts", "dynamic_branching",
                             "varying_granularity"}) {
        grid.push_back({"1.5B+1.5B", "AIME", algo, 16, 0});
        grid.push_back({"1.5B+1.5B", "AIME", algo, 16, 7});
    }
    // Model-config and dataset sweep.
    for (const char *models : {"1.5B+7B", "7B+1.5B"}) {
        for (const char *ds : {"AIME", "AMC"}) {
            grid.push_back({models, ds, "beam_search", 16, 0});
            grid.push_back({models, ds, "beam_search", 16, 7});
        }
    }
    // Width sweep including a memory-stressed point.
    for (int n : {4, 8, 64, 256}) {
        grid.push_back({"1.5B+1.5B", "AMC", "beam_search", n, 7});
    }
    // Remaining datasets.
    grid.push_back({"1.5B+1.5B", "MATH500", "beam_search", 16, 7});
    grid.push_back({"1.5B+1.5B", "HumanEval", "dvts", 16, 7});
    return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, EngineGrid,
                         ::testing::ValuesIn(buildGrid()));

/** Devices x configs: the engine must run on every edge device. */
class DeviceGrid
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(DeviceGrid, RunsOnEveryEdgeDevice)
{
    const auto &[device, offload] = GetParam();
    FastTtsConfig config = FastTtsConfig::fastTts();
    config.offloadEnabled = offload;
    // Grant constrained cards a realistic budget (weights alone are
    // 6.2 GiB for the 1.5B+1.5B pair).
    ModelConfig models = config1_5Bplus1_5B();
    if (device != "RTX4090") {
        models.memoryFraction = 0.95;
        config.reservedBytes = 0.5 * GiB;
    }
    const DatasetProfile profile = amc2023();
    auto algo = makeBeamSearch(8, 4);
    FastTtsEngine engine(config, models, *deviceByName(device),
                         profile, *algo);
    const auto r = engine.runRequest(makeProblems(profile, 1, 99)[0]);
    EXPECT_EQ(r.completedBeams, 8) << device;
    if (offload) {
        EXPECT_GE(r.transferTime, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Devices, DeviceGrid,
    ::testing::Combine(::testing::Values("RTX4090", "RTX4070Ti",
                                         "RTX3070Ti"),
                       ::testing::Bool()));

/** Goodput must be monotone-ish beneficial: FastTTS >= 0.95x baseline
 *  across a width sweep (no configuration where the optimizations
 *  actively hurt). */
class NoRegressionSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(NoRegressionSweep, FastTtsNeverMeaningfullyWorse)
{
    const int n = GetParam();
    const DatasetProfile profile = aime2024();
    const auto problem = makeProblems(profile, 1, 1234)[0];
    double latency[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
        auto algo = makeBeamSearch(n, 4);
        FastTtsEngine engine(pass ? FastTtsConfig::fastTts()
                                  : FastTtsConfig::baseline(),
                             config1_5Bplus1_5B(), rtx4090(), profile,
                             *algo);
        latency[pass] = engine.runRequest(problem).completionTime;
    }
    EXPECT_LE(latency[1], latency[0] * 1.05) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Widths, NoRegressionSweep,
                         ::testing::Values(8, 16, 32, 64, 128, 256));

/** At the floor budget (weights fill the whole usable memory) the run
 *  evicts and re-prefills constantly, yet must still finish without
 *  the safety_cap hang guard. */
TEST(EngineFloorBudget, ReprefillsWithoutReachingTheHangGuard)
{
    const DatasetProfile profile = *datasetByName("AMC");
    ModelConfig models = *modelConfigByLabel("1.5B+1.5B");
    models.memoryFraction =
        (models.generator.weightBytes() + models.verifier.weightBytes())
        / rtx4090().usableBytes();

    for (uint64_t seed : {11u, 23u, 47u}) {
        const Problem problem = makeProblems(profile, 1, seed)[0];
        auto algo = *makeAlgorithm("beam_search", 8, 4);
        FastTtsEngine engine(FastTtsConfig::fastTts(), models, rtx4090(),
                             profile, *algo);
        const RequestResult result = engine.runRequest(problem);
        EXPECT_GT(result.kvStats.reprefilledTokens, 0u) << "seed " << seed;
        EXPECT_EQ(result.defensiveExits, 0) << "seed " << seed;
    }
}

/** A decoding beam's KV appends wait while they need no new block
 *  (engine.h). This is the smallest beam-search cell found, over widths
 *  2-8, AMC and AIME, both systems and seeds 1-300 at the floor budget,
 *  in which a beam with appends still waiting is refused and dropping
 *  them would show: they must land before the refusal path runs. The
 *  values are those of the engine that appended on every wave. */
TEST(EngineFloorBudget, WaitingAppendsLandBeforeARefusal)
{
    const DatasetProfile profile = *datasetByName("AIME");
    ModelConfig models = *modelConfigByLabel("1.5B+1.5B");
    models.memoryFraction =
        (models.generator.weightBytes() + models.verifier.weightBytes())
        / rtx4090().usableBytes();
    auto algo = *makeAlgorithm("beam_search", 8, 4);
    FastTtsEngine engine(FastTtsConfig::baseline(), models, rtx4090(),
                         profile, *algo);
    const RequestResult result =
        engine.runRequest(makeProblems(profile, 1, 64)[0]);
    EXPECT_DOUBLE_EQ(result.completionTime, 65.218124608033648);
    EXPECT_DOUBLE_EQ(result.generatorTime, 64.93175787866339);
    EXPECT_EQ(result.kvStats.evictions, 77u);
    EXPECT_EQ(result.kvStats.reprefilledTokens, 6015u);
    EXPECT_EQ(engine.forcedTerminations(), 2);
    EXPECT_EQ(result.defensiveExits, 0);
}

/** FastTTS beam search on AMC with a 2% kv_alloc brownout on an
 *  attached ledger. Without a ledger no speculative append is ever
 *  refused: the pre-wave drop leaves every branch the blocks it
 *  needs. */
RequestResult
runAmcBrownout(int width, bool floor_budget, uint64_t seed)
{
    const DatasetProfile profile = *datasetByName("AMC");
    ModelConfig models = *modelConfigByLabel("1.5B+1.5B");
    if (floor_budget) {
        models.memoryFraction = (models.generator.weightBytes()
                                 + models.verifier.weightBytes())
            / rtx4090().usableBytes();
    }
    auto algo = *makeAlgorithm("beam_search", width, 4);
    FastTtsEngine engine(FastTtsConfig::fastTts(), models, rtx4090(),
                         profile, *algo);
    KvBudgetLedger ledger(engine.kvBudgetBytes());
    FaultInjector brownout(
        FaultPlan{{FaultRule{FaultSite::kKvAlloc, 0.02}}}, seed);
    ledger.attachFaultInjector(&brownout);
    engine.attachKvLedger(&ledger);
    return engine.runRequest(makeProblems(profile, 1, seed)[0]);
}

/** A speculative branch's KV appends wait like a standard beam's, and
 *  its waiting tokens must land on every way out of the running set:
 *  a refused append, a kill of all speculation, and the end of the
 *  phase (its tokens become a head start). This is the smallest cell
 *  found, over widths 2-16, AMC and AIME, seeds 1-300, the default
 *  and the floor budget and brownout rates of 1-10%, in which all
 *  three exits meet a branch with waiting tokens. The values are
 *  those of the engine that appended every branch on every wave. */
TEST(EngineSpeculation, WaitingBranchAppendsLandAtEveryExit)
{
    const RequestResult result = runAmcBrownout(5, false, 113);
    EXPECT_DOUBLE_EQ(result.completionTime, 11.289454657361505);
    EXPECT_DOUBLE_EQ(result.generatorTime, 11.214270310849779);
    EXPECT_EQ(result.speculativeTokens, 2009);
    EXPECT_EQ(result.wastedSpecTokens, 1653);
    EXPECT_EQ(result.kvStats.evictions, 1u);
    EXPECT_EQ(result.defensiveExits, 0);
}

/** Waiting tokens land stamped with the last wave's tick, the stamp
 *  they would have had. The only cell of the same grid (at the 2%
 *  brownout) in which the stamp shows: a killed branch's node then
 *  ranks among the eviction victims. */
TEST(EngineSpeculation, KilledBranchKeepsTheLastWavesStamp)
{
    const RequestResult result = runAmcBrownout(5, true, 148);
    EXPECT_DOUBLE_EQ(result.completionTime, 8.5730647694868978);
    EXPECT_EQ(result.wastedSpecTokens, 922);
    EXPECT_EQ(result.kvStats.evictions, 17u);
    EXPECT_EQ(result.kvStats.reprefilledTokens, 414u);
    EXPECT_EQ(result.defensiveExits, 0);
}

} // namespace
} // namespace fasttts
