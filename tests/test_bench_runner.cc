/**
 * @file
 * Smoke test for the JSON-emitting benchmark harness.
 *
 * Runs the real bench_runner binary (path injected by CMake as
 * FASTTTS_BENCH_RUNNER_PATH): --list must enumerate all 20 registered
 * benchmarks (the paper figures, the engine-cost pairs and the online
 * serving suite), a --quick run must write BENCH_<name>.json files
 * that parse and carry the throughput / latency-percentile /
 * KV-utilization / SLO-attainment contract every optimisation PR is
 * judged against, and every figure document must carry its own
 * figure's cells and the paper's claim.
 */

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.h"

namespace fasttts
{
namespace
{

/** Run a command, capture stdout, and return its exit status. */
int
runCommand(const std::string &command, std::string *output)
{
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    char buffer[4096];
    output->clear();
    size_t read = 0;
    while ((read = fread(buffer, 1, sizeof(buffer), pipe)) > 0)
        output->append(buffer, read);
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(BenchRunner, ListEnumeratesAllFigureBenchmarks)
{
    std::string output;
    const int status =
        runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH) + " --list",
                   &output);
    ASSERT_EQ(status, 0);

    const std::vector<std::string> names = splitLines(output);
    EXPECT_EQ(names.size(), 20u);
    for (const char *expected :
         {"fig01_frontier", "fig03_patterns", "fig04_utilization",
          "fig05_prefix_sharing", "fig06_kv_throughput", "fig10_allocation",
          "fig11_variants", "fig12_goodput", "fig13_latency",
          "fig14_accuracy", "fig15_hardware", "fig16_ablation",
          "fig17_speculative", "fig18_scheduling", "micro",
          "online_responsiveness", "online_scheduling",
          "online_preemption", "online_prefix_reuse",
          "online_fault_tolerance"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << "missing benchmark: " << expected;
    }
}

TEST(BenchRunner, QuickRunEmitsParsableJson)
{
    const std::filesystem::path outDir =
        std::filesystem::path(testing::TempDir()) / "fasttts_bench_smoke";
    std::filesystem::remove_all(outDir);

    std::string output;
    const int status =
        runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH) +
                       " --quick --out-dir " + outDir.string() + " micro",
                   &output);
    ASSERT_EQ(status, 0) << output;

    const std::filesystem::path jsonPath = outDir / "BENCH_micro.json";
    ASSERT_TRUE(std::filesystem::exists(jsonPath));

    std::ifstream file(jsonPath);
    std::stringstream contents;
    contents << file.rdbuf();

    std::string error;
    const Json doc = Json::parse(contents.str(), &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(doc["schema"].asString(), "fasttts-bench-v1");
    EXPECT_EQ(doc["benchmark"].asString(), "micro");
    EXPECT_TRUE(doc["quick"].asBool());

    for (const char *variant : {"baseline", "fasttts"}) {
        const Json &v = doc["variants"][variant];
        EXPECT_GT(v["throughput"]["precise_goodput_tok_s"].asNumber(), 0.0)
            << variant;
        EXPECT_GT(v["latency_s"]["p50"].asNumber(), 0.0) << variant;
        EXPECT_LE(v["latency_s"]["p50"].asNumber(),
                  v["latency_s"]["p99"].asNumber())
            << variant;
        EXPECT_GE(v["kv"]["hit_rate"].asNumber(), 0.0) << variant;
        EXPECT_LE(v["kv"]["hit_rate"].asNumber(), 1.0) << variant;
        EXPECT_GT(v["kv"]["budget_gib"].asNumber(), 0.0) << variant;
    }
    EXPECT_GT(doc["speedup"]["goodput"].asNumber(), 0.0);

    std::filesystem::remove_all(outDir);
}

/** Whole-file read used by the byte-identity differential. */
std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream file(path, std::ios::binary);
    std::stringstream contents;
    contents << file.rdbuf();
    return contents.str();
}

TEST(BenchRunner, ParallelJobsAreByteIdenticalToSerial)
{
    const std::filesystem::path base =
        std::filesystem::path(testing::TempDir()) / "fasttts_bench_jobs";
    const std::filesystem::path serialDir = base / "serial";
    const std::filesystem::path parallelDir = base / "parallel";
    std::filesystem::remove_all(base);

    const std::string subset = " micro online_scheduling";
    std::string output;
    ASSERT_EQ(runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH)
                             + " --quick --jobs 1 --out-dir "
                             + serialDir.string() + subset,
                         &output),
              0)
        << output;
    ASSERT_EQ(runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH)
                             + " --quick --jobs 4 --out-dir "
                             + parallelDir.string() + subset,
                         &output),
              0)
        << output;

    for (const char *name :
         {"BENCH_micro.json", "BENCH_online_scheduling.json"}) {
        const std::string serial = readFile(serialDir / name);
        const std::string parallel = readFile(parallelDir / name);
        ASSERT_FALSE(serial.empty()) << name;
        EXPECT_EQ(serial, parallel)
            << name << " differs between --jobs 1 and --jobs 4";
    }
    std::filesystem::remove_all(base);
}

TEST(BenchRunner, EmitsSelfTimingHarnessDocument)
{
    const std::filesystem::path outDir =
        std::filesystem::path(testing::TempDir())
        / "fasttts_bench_harness";
    std::filesystem::remove_all(outDir);

    std::string output;
    ASSERT_EQ(runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH)
                             + " --quick --jobs 2 --out-dir "
                             + outDir.string()
                             + " micro online_scheduling",
                         &output),
              0)
        << output;

    const std::filesystem::path path = outDir / "BENCH_harness.json";
    ASSERT_TRUE(std::filesystem::exists(path));
    std::string error;
    const Json doc = Json::parse(readFile(path), &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(doc["schema"].asString(), "fasttts-harness-v1");
    EXPECT_EQ(static_cast<int>(doc["jobs"].asNumber()), 2);
    EXPECT_TRUE(doc["quick"].asBool());
    EXPECT_GT(doc["total_wall_ms"].asNumber(), 0.0);

    const Json &benchmarks = doc["benchmarks"];
    ASSERT_TRUE(benchmarks.isArray());
    ASSERT_EQ(benchmarks.size(), 2u);
    EXPECT_EQ(benchmarks.at(0)["name"].asString(), "micro");
    EXPECT_EQ(benchmarks.at(1)["name"].asString(), "online_scheduling");
    for (size_t i = 0; i < benchmarks.size(); ++i) {
        EXPECT_GT(benchmarks.at(i)["wall_ms"].asNumber(), 0.0);
        EXPECT_GE(benchmarks.at(i)["simulated_tokens"].asNumber(), 0.0);
        EXPECT_GE(benchmarks.at(i)["simulated_tokens_per_s"].asNumber(),
                  0.0);
    }
    // Both the figure and the online benchmark simulate real tokens;
    // tokens/s must be consistent with the recorded wall time.
    for (size_t i = 0; i < benchmarks.size(); ++i) {
        EXPECT_GT(benchmarks.at(i)["simulated_tokens"].asNumber(), 0.0);
        EXPECT_GT(benchmarks.at(i)["simulated_tokens_per_s"].asNumber(),
                  0.0);
    }

    std::filesystem::remove_all(outDir);
}

TEST(BenchRunner, RejectsInvalidJobs)
{
    std::string output;
    EXPECT_NE(runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH)
                             + " --jobs 0 --list 2>&1",
                         &output),
              0);
    EXPECT_NE(runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH)
                             + " --jobs banana --list 2>&1",
                         &output),
              0);
}

TEST(BenchRunner, RejectsRepeatedBenchmarkName)
{
    const std::filesystem::path outDir =
        std::filesystem::path(testing::TempDir()) / "fasttts_bench_repeat";
    std::filesystem::remove_all(outDir);
    std::string output;
    EXPECT_EQ(runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH)
                             + " --quick --out-dir " + outDir.string()
                             + " micro micro 2>&1",
                         &output),
              2);
    EXPECT_NE(output.find("'micro' is named twice"), std::string::npos)
        << output;
    // Rejected before anything runs: no document is written.
    EXPECT_FALSE(std::filesystem::exists(outDir / "BENCH_harness.json"));
}

TEST(BenchRunner, RejectsFlagWithoutValue)
{
    for (const char *flag : {"--jobs", "--out-dir", "--seed"}) {
        std::string output;
        EXPECT_EQ(runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH)
                                 + " --list " + flag + " 2>&1",
                             &output),
                  2)
            << flag;
        EXPECT_NE(output.find(std::string(flag) + " expects a value"),
                  std::string::npos)
            << output;
        EXPECT_EQ(output.find("unknown option"), std::string::npos)
            << output;
    }
}

TEST(BenchRunner, FigureBenchmarksKeepTheirContract)
{
    const std::filesystem::path outDir =
        std::filesystem::path(testing::TempDir())
        / "fasttts_bench_figure_contract";
    std::filesystem::remove_all(outDir);

    // Each figure's own keys, beside config and paper.
    const std::map<std::string, std::vector<std::string>> figureKeys = {
        {"fig01_frontier", {"frontier"}},
        {"fig03_patterns", {"methods", "step_tokens"}},
        {"fig04_utilization", {"phases", "generation_decay"}},
        {"fig05_prefix_sharing",
         {"working_set", "adjacent_shared_prefix", "session"}},
        {"fig06_kv_throughput", {"stages"}},
        {"fig10_allocation", {"budgets"}},
        {"fig11_variants", {"goodput", "summary"}},
        {"fig12_goodput", {"goodput", "summary"}},
        {"fig13_latency", {"latency", "summary"}},
        {"fig14_accuracy", {"top1_accuracy_pct", "pass_at_n_pct"}},
        {"fig15_hardware", {"goodput", "summary"}},
        {"fig16_ablation", {"gain"}},
        {"fig17_speculative", {"generation_utilization", "goodput"}},
        {"fig18_scheduling", {"kv_growth", "gain_vs_memory"}},
    };

    // Every registered figure is checked, so a new one must declare
    // its keys above.
    std::string output;
    ASSERT_EQ(runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH) + " --list",
                         &output),
              0);
    std::vector<std::string> figures;
    for (const std::string &name : splitLines(output))
        if (name.rfind("fig", 0) == 0)
            figures.push_back(name);
    ASSERT_EQ(figures.size(), figureKeys.size());

    std::string command = std::string(FASTTTS_BENCH_RUNNER_PATH)
        + " --quick --jobs 4 --out-dir " + outDir.string();
    for (const std::string &name : figures)
        command += " " + name;
    ASSERT_EQ(runCommand(command, &output), 0) << output;

    std::map<std::string, std::string> figureOfBody;
    for (const std::string &name : figures) {
        ASSERT_EQ(figureKeys.count(name), 1u) << name;
        std::string error;
        const Json doc = Json::parse(
            readFile(outDir / ("BENCH_" + name + ".json")), &error);
        ASSERT_TRUE(error.empty()) << name << ": " << error;
        EXPECT_EQ(doc["schema"].asString(), "fasttts-bench-v1") << name;
        EXPECT_EQ(doc["benchmark"].asString(), name);
        EXPECT_TRUE(doc["quick"].asBool()) << name;
        EXPECT_TRUE(doc["config"].isObject()) << name;
        EXPECT_GT(doc["config"].size(), 0u) << name;
        EXPECT_TRUE(doc["paper"].isString()) << name;
        EXPECT_FALSE(doc["paper"].asString().empty()) << name;
        for (const std::string &key : figureKeys.at(name)) {
            EXPECT_TRUE(doc[key].isObject()) << name << "." << key;
            EXPECT_GT(doc[key].size(), 0u) << name << "." << key;
        }

        // No two figures may measure the same thing.
        Json body = Json::object();
        for (const auto &[key, value] : doc.members())
            if (key != "benchmark" && key != "description")
                body.set(key, value);
        const auto [same, fresh] = figureOfBody.emplace(body.dump(), name);
        EXPECT_TRUE(fresh) << name << " repeats " << same->second;
    }
    std::filesystem::remove_all(outDir);
}

TEST(BenchRunner, OnlineSchedulingSweepsPoliciesOnOneTrace)
{
    const std::filesystem::path outDir =
        std::filesystem::path(testing::TempDir())
        / "fasttts_bench_sched_smoke";
    std::filesystem::remove_all(outDir);

    std::string output;
    const int status =
        runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH)
                       + " --quick --out-dir " + outDir.string()
                       + " online_scheduling",
                   &output);
    ASSERT_EQ(status, 0) << output;

    const std::filesystem::path jsonPath =
        outDir / "BENCH_online_scheduling.json";
    ASSERT_TRUE(std::filesystem::exists(jsonPath));

    std::ifstream file(jsonPath);
    std::stringstream contents;
    contents << file.rdbuf();
    std::string error;
    const Json doc = Json::parse(contents.str(), &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(doc["schema"].asString(), "fasttts-bench-v1");
    EXPECT_EQ(doc["benchmark"].asString(), "online_scheduling");
    EXPECT_EQ(doc["config"]["arrivals"].asString(), "bursty");
    EXPECT_GT(doc["config"]["slo_s"].asNumber(), 0.0);

    const int requests =
        static_cast<int>(doc["config"]["requests"].asNumber());
    for (const char *policy : {"fifo", "priority", "sjf", "edf"}) {
        const Json &p = doc["policies"][policy];
        EXPECT_GE(p["slo_attainment"].asNumber(), 0.0) << policy;
        EXPECT_LE(p["slo_attainment"].asNumber(), 1.0) << policy;
        EXPECT_GE(p["deadline_misses"].asNumber(), 0.0) << policy;
        EXPECT_GT(p["latency_s"]["mean"].asNumber(), 0.0) << policy;
        EXPECT_LE(p["latency_s"]["p50"].asNumber(),
                  p["latency_s"]["p99"].asNumber())
            << policy;
        EXPECT_GT(p["utilization"].asNumber(), 0.0) << policy;
        EXPECT_LE(p["utilization"].asNumber(), 1.0) << policy;
        // Every policy serves the identical trace to completion.
        EXPECT_EQ(static_cast<int>(p["completed"].asNumber()),
                  requests)
            << policy;
    }

    std::filesystem::remove_all(outDir);
}

TEST(BenchRunner, FaultToleranceSweepsRatesAndSurvivalModes)
{
    const std::filesystem::path outDir =
        std::filesystem::path(testing::TempDir())
        / "fasttts_bench_fault_smoke";
    std::filesystem::remove_all(outDir);

    std::string output;
    const int status =
        runCommand(std::string(FASTTTS_BENCH_RUNNER_PATH)
                       + " --quick --out-dir " + outDir.string()
                       + " online_fault_tolerance",
                   &output);
    ASSERT_EQ(status, 0) << output;

    std::string error;
    const Json doc = Json::parse(
        readFile(outDir / "BENCH_online_fault_tolerance.json"), &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(doc["schema"].asString(), "fasttts-bench-v1");
    EXPECT_EQ(doc["benchmark"].asString(), "online_fault_tolerance");
    EXPECT_EQ(doc["config"]["arrivals"].asString(), "bursty");
    EXPECT_EQ(doc["config"]["fault_site"].asString(), "wave_step");

    for (const char *rate : {"0%", "1%", "5%"}) {
        const Json &cell = doc["rates"][rate];
        for (const char *arm : {"no_retry", "retry"}) {
            const Json &run = cell[arm];
            EXPECT_GE(run["slo_attainment"].asNumber(), 0.0)
                << rate << "/" << arm;
            EXPECT_LE(run["slo_attainment"].asNumber(), 1.0)
                << rate << "/" << arm;
            EXPECT_GE(run["completed"].asNumber(), 0.0)
                << rate << "/" << arm;
            EXPECT_GE(run["injected_faults"].asNumber(), 0.0)
                << rate << "/" << arm;
            EXPECT_GE(run["wasted_recompute_tokens"].asNumber(), 0.0)
                << rate << "/" << arm;
        }
        // The clean cells inject nothing; the 5% cells certainly do.
        if (std::string(rate) == "0%") {
            for (const char *arm : {"no_retry", "retry"})
                EXPECT_EQ(cell[arm]["injected_faults"].asNumber(), 0.0)
                    << arm;
        }
        if (std::string(rate) == "5%") {
            for (const char *arm : {"no_retry", "retry"})
                EXPECT_GT(cell[arm]["injected_faults"].asNumber(), 0.0)
                    << arm;
        }
        // The fail-fast arm never retries.
        EXPECT_EQ(cell["no_retry"]["retries"].asNumber(), 0.0) << rate;
    }

    // The headline criterion: retry recovers at least 25
    // points of SLO attainment over fail-fast at the 5% fault rate.
    EXPECT_GE(doc["summary"]["slo_recovery_points_at_5pct"].asNumber(),
              25.0);

    std::filesystem::remove_all(outDir);
}

/** Every object under `node` that holds `latency_s` — one served cell
 *  of an online benchmark — keyed by its path for failure messages. */
void
collectCells(const Json &node, const std::string &path,
             std::vector<std::pair<std::string, const Json *>> *cells)
{
    if (!node.isObject())
        return;
    if (node.has("latency_s")) {
        cells->emplace_back(path, &node);
        return;
    }
    for (const auto &[key, child] : node.members())
        collectCells(child, path + "/" + key, cells);
}

TEST(BenchRunner, OnlineBenchmarksKeepTheirContract)
{
    const std::filesystem::path outDir =
        std::filesystem::path(testing::TempDir())
        / "fasttts_bench_online_contract";
    std::filesystem::remove_all(outDir);

    const std::vector<std::string> online = {
        "online_scheduling", "online_preemption", "online_prefix_reuse",
        "online_fault_tolerance"};
    std::string command = std::string(FASTTTS_BENCH_RUNNER_PATH)
        + " --quick --jobs 4 --out-dir " + outDir.string();
    for (const std::string &name : online)
        command += " " + name;
    std::string output;
    ASSERT_EQ(runCommand(command, &output), 0) << output;

    for (const std::string &name : online) {
        std::string error;
        const Json doc = Json::parse(
            readFile(outDir / ("BENCH_" + name + ".json")), &error);
        ASSERT_TRUE(error.empty()) << name << ": " << error;
        EXPECT_EQ(doc["schema"].asString(), "fasttts-bench-v1") << name;
        EXPECT_EQ(doc["benchmark"].asString(), name);
        const Json &config = doc["config"];
        for (const char *key : {"dataset", "device", "models", "num_beams",
                                "requests", "seed"})
            EXPECT_TRUE(config.has(key)) << name << " config." << key;
        const double requests = config["requests"].asNumber();

        std::vector<std::pair<std::string, const Json *>> cells;
        collectCells(doc, name, &cells);
        EXPECT_FALSE(cells.empty()) << name;
        for (const auto &[path, cell] : cells) {
            const Json &latency = (*cell)["latency_s"];
            EXPECT_GT(latency["mean"].asNumber(), 0.0) << path;
            EXPECT_LE(latency["p50"].asNumber(), latency["p95"].asNumber())
                << path;
            EXPECT_LE(latency["p95"].asNumber(), latency["p99"].asNumber())
                << path;
            // Every request of the trace ends in exactly one reported
            // outcome; an outcome a benchmark does not report is 0.
            EXPECT_EQ((*cell)["completed"].asNumber()
                          + (*cell)["shed_requests"].asNumber()
                          + (*cell)["failed_requests"].asNumber()
                          + (*cell)["timeouts"].asNumber(),
                      requests)
                << path;
            if (cell->has("slo_attainment")) {
                EXPECT_GE((*cell)["slo_attainment"].asNumber(), 0.0)
                    << path;
                EXPECT_LE((*cell)["slo_attainment"].asNumber(), 1.0)
                    << path;
            }
            if (cell->has("utilization")) {
                EXPECT_GT((*cell)["utilization"].asNumber(), 0.0) << path;
                EXPECT_LE((*cell)["utilization"].asNumber(), 1.0 + 1e-9)
                    << path;
            }
        }
    }

    std::string error;
    const Json harness =
        Json::parse(readFile(outDir / "BENCH_harness.json"), &error);
    ASSERT_TRUE(error.empty()) << error;
    const Json &benchmarks = harness["benchmarks"];
    ASSERT_EQ(benchmarks.size(), online.size());
    for (size_t i = 0; i < online.size(); ++i) {
        EXPECT_EQ(benchmarks.at(i)["name"].asString(), online[i]);
        EXPECT_GT(benchmarks.at(i)["simulated_tokens"].asNumber(), 0.0)
            << online[i];
    }

    std::filesystem::remove_all(outDir);
}

} // namespace
} // namespace fasttts
