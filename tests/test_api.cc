/**
 * @file
 * Tests for the public API subsystem: Status/StatusOr, the generic
 * Registry, and EngineArgs parsing (argv and JSON) including every
 * error path.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "api/engine_args.h"
#include "api/registry.h"
#include "api/status.h"
#include "core/serving.h"
#include "util/json.h"

namespace fasttts
{
namespace
{

// ---------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------

TEST(Status, DefaultIsOk)
{
    EXPECT_TRUE(Status().ok());
    EXPECT_TRUE(okStatus().ok());
    EXPECT_EQ(okStatus().toString(), "ok");
}

TEST(Status, FactoriesCarryCodeAndMessage)
{
    const Status s = Status::notFound("missing thing");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
    EXPECT_EQ(s.message(), "missing thing");
    EXPECT_EQ(s.toString(), "not_found: missing thing");
    EXPECT_EQ(Status::invalidArgument("x").code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(Status::alreadyExists("x").code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(Status::failedPrecondition("x").code(),
              StatusCode::kFailedPrecondition);
}

TEST(StatusOr, HoldsValueOrStatus)
{
    StatusOr<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, 7);
    EXPECT_TRUE(good.status().ok());

    StatusOr<int> bad(Status::invalidArgument("no"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOr, SupportsMoveOnlyTypes)
{
    StatusOr<std::unique_ptr<int>> holder(std::make_unique<int>(3));
    ASSERT_TRUE(holder.ok());
    std::unique_ptr<int> taken = *std::move(holder);
    EXPECT_EQ(*taken, 3);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(Registry, RegisterLookupListRoundTrip)
{
    Registry<int> reg("widget");
    EXPECT_TRUE(reg.add("one", [] { return 1; }).ok());
    EXPECT_TRUE(reg.add("two", [] { return 2; }).ok());

    EXPECT_TRUE(reg.contains("one"));
    EXPECT_FALSE(reg.contains("three"));
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.list(), (std::vector<std::string>{"one", "two"}));
    EXPECT_EQ(*reg.create("two"), 2);
}

TEST(Registry, DuplicateAndEmptyNamesRejected)
{
    Registry<int> reg("widget");
    EXPECT_TRUE(reg.add("one", [] { return 1; }).ok());
    EXPECT_EQ(reg.add("one", [] { return 9; }).code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(reg.add("", [] { return 0; }).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(reg.add("null", nullptr).code(),
              StatusCode::kInvalidArgument);
    // The failed registrations must not have changed the contents.
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(*reg.create("one"), 1);
}

TEST(Registry, UnknownNameListsValidNames)
{
    Registry<int> reg("widget");
    checkOk(reg.add("alpha", [] { return 1; }));
    checkOk(reg.add("beta", [] { return 2; }));
    const auto missing = reg.create("gamma");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
    EXPECT_NE(missing.status().message().find("alpha"),
              std::string::npos);
    EXPECT_NE(missing.status().message().find("beta"),
              std::string::npos);
}

TEST(Registry, RemoveDropsEntries)
{
    Registry<int> reg("widget");
    checkOk(reg.add("one", [] { return 1; }));
    EXPECT_TRUE(reg.remove("one").ok());
    EXPECT_FALSE(reg.contains("one"));
    EXPECT_EQ(reg.remove("one").code(), StatusCode::kNotFound);
}

TEST(Registry, FactoryArgumentsForwarded)
{
    Registry<int, int, int> reg("adder");
    checkOk(reg.add("sum", [](int a, int b) { return a + b; }));
    EXPECT_EQ(*reg.create("sum", 3, 4), 7);
}

TEST(Registry, CustomDeviceRegistrationIsServable)
{
    const std::string name = "TestGPU-registry-roundtrip";
    ASSERT_TRUE(deviceRegistry()
                    .add(name,
                         [name] {
                             DeviceSpec d = rtx4090();
                             d.name = name;
                             return d;
                         })
                    .ok());
    EXPECT_EQ(deviceByName(name)->name, name);

    ServingOptions opts;
    opts.deviceName = name;
    opts.numBeams = 4;
    auto system = ServingSystem::create(opts);
    ASSERT_TRUE(system.ok());
    EXPECT_GT(system->serveProblems(1).meanGoodput, 0);

    EXPECT_TRUE(deviceRegistry().remove(name).ok());
    EXPECT_FALSE(deviceByName(name).ok());
}

TEST(Registry, BuiltInsPresent)
{
    EXPECT_GE(deviceRegistry().size(), 4u);
    EXPECT_GE(datasetRegistry().size(), 4u);
    EXPECT_GE(algorithmRegistry().size(), 5u);
    EXPECT_GE(modelConfigRegistry().size(), 3u);
    EXPECT_GE(modelRegistry().size(), 4u);
    EXPECT_EQ((*modelByName("qwen7b")).numLayers, 28);
    EXPECT_FALSE(modelByName("gpt5").ok());
}

// ---------------------------------------------------------------------
// EngineArgs: argv parsing
// ---------------------------------------------------------------------

StatusOr<EngineArgs>
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return EngineArgs::fromArgv(static_cast<int>(argv.size()),
                                argv.data());
}

TEST(EngineArgsArgv, DefaultsSurviveEmptyCommandLine)
{
    const auto args = parse({});
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->device, "RTX4090");
    EXPECT_EQ(args->dataset, "AIME");
    EXPECT_EQ(args->algorithm, "beam_search");
    EXPECT_EQ(args->models, "1.5B+1.5B");
    EXPECT_EQ(args->mode, "fasttts");
    EXPECT_EQ(args->numBeams, 32);
    EXPECT_EQ(args->seed, 2026u);
    EXPECT_TRUE(args->validate().ok());
}

TEST(EngineArgsArgv, AllFlagsParse)
{
    const auto args = parse(
        {"--device", "RTX3070Ti", "--dataset", "AMC", "--algorithm",
         "dvts", "--models", "1.5B+7B", "--mode", "baseline", "--beams",
         "64", "--branch-factor", "8", "--problems", "3", "--seed",
         "42", "--offload", "--memory-fraction", "0.5",
         "--reserved-gib", "0.25"});
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->device, "RTX3070Ti");
    EXPECT_EQ(args->dataset, "AMC");
    EXPECT_EQ(args->algorithm, "dvts");
    EXPECT_EQ(args->models, "1.5B+7B");
    EXPECT_EQ(args->mode, "baseline");
    EXPECT_EQ(args->numBeams, 64);
    EXPECT_EQ(args->branchFactor, 8);
    EXPECT_EQ(args->numProblems, 3);
    EXPECT_EQ(args->seed, 42u);
    EXPECT_TRUE(args->offload);
    EXPECT_DOUBLE_EQ(args->memoryFraction, 0.5);
    EXPECT_DOUBLE_EQ(args->reservedGiB, 0.25);
    EXPECT_TRUE(args->validate().ok());
}

TEST(EngineArgsArgv, EqualsFormAndNoOffload)
{
    const auto args =
        parse({"--beams=16", "--offload", "--no-offload"});
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->numBeams, 16);
    EXPECT_FALSE(args->offload);
}

TEST(EngineArgsArgv, PositionalsAreRejected)
{
    // Bare positionals ([num_problems] [dataset]) completed their
    // one-release deprecation window and are now hard errors that
    // point at the replacement flags.
    const auto args = parse({"7", "MATH500"});
    EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(args.status().message().find("--problems"),
              std::string::npos);

    EXPECT_EQ(parse({"7"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"seven"}).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(EngineArgsArgv, HelpShortCircuits)
{
    const auto args = parse({"--help"});
    ASSERT_TRUE(args.ok());
    EXPECT_TRUE(args->helpRequested);
    const auto short_form = parse({"-h"});
    ASSERT_TRUE(short_form.ok());
    EXPECT_TRUE(short_form->helpRequested);
}

TEST(EngineArgsArgv, ErrorPaths)
{
    // Unknown flag.
    EXPECT_EQ(parse({"--bogus"}).status().code(),
              StatusCode::kInvalidArgument);
    // Missing value.
    EXPECT_EQ(parse({"--beams"}).status().code(),
              StatusCode::kInvalidArgument);
    // Non-numeric and out-of-range numbers.
    EXPECT_EQ(parse({"--beams", "ten"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--beams", "0"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--beams", "12x"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--problems", "-1"}).status().code(),
              StatusCode::kInvalidArgument);
    // Seed must be unsigned.
    EXPECT_EQ(parse({"--seed", "-3"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--seed", "1.5"}).status().code(),
              StatusCode::kInvalidArgument);
    // Malformed doubles.
    EXPECT_EQ(parse({"--memory-fraction", "half"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--reserved-gib", "1.0gib"}).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(EngineArgsValidate, RegistryMembershipEnforced)
{
    EngineArgs args;
    args.device = "RTX409O";
    EXPECT_EQ(args.validate().code(), StatusCode::kNotFound);

    args = EngineArgs();
    args.dataset = "AIME2025";
    EXPECT_EQ(args.validate().code(), StatusCode::kNotFound);

    args = EngineArgs();
    args.algorithm = "mcts";
    EXPECT_EQ(args.validate().code(), StatusCode::kNotFound);

    args = EngineArgs();
    args.models = "70B+70B";
    EXPECT_EQ(args.validate().code(), StatusCode::kNotFound);

    args = EngineArgs();
    args.mode = "turbo";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.memoryFraction = 1.5;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
}

TEST(EngineArgsConvert, ToServingOptionsRoundTrip)
{
    EngineArgs args;
    args.device = "RTX4070Ti";
    args.dataset = "AMC";
    args.algorithm = "dvts";
    args.models = "1.5B+7B";
    args.mode = "baseline";
    args.numBeams = 24;
    args.branchFactor = 6;
    args.seed = 777;
    args.offload = true;
    args.memoryFraction = 0.6;
    args.reservedGiB = 2.0;

    const auto opts = args.toServingOptions();
    ASSERT_TRUE(opts.ok());
    EXPECT_EQ(opts->deviceName, "RTX4070Ti");
    EXPECT_EQ(opts->datasetName, "AMC");
    EXPECT_EQ(opts->algorithmName, "dvts");
    EXPECT_EQ(opts->models.label, "1.5B+7B");
    EXPECT_DOUBLE_EQ(opts->models.memoryFraction, 0.6);
    EXPECT_EQ(opts->numBeams, 24);
    EXPECT_EQ(opts->branchFactor, 6);
    EXPECT_EQ(opts->seed, 777u);
    EXPECT_FALSE(opts->config.speculativeExtension); // baseline
    EXPECT_TRUE(opts->config.offloadEnabled);
    EXPECT_DOUBLE_EQ(opts->config.reservedBytes, 2.0 * GiB);

    // Invalid args refuse to convert.
    args.algorithm = "nope";
    EXPECT_FALSE(args.toServingOptions().ok());
}

TEST(EngineArgsConvert, UnsetOverridesKeepDefaults)
{
    const EngineArgs args; // memoryFraction = 0, reservedGiB = -1.
    const auto opts = args.toServingOptions();
    ASSERT_TRUE(opts.ok());
    EXPECT_DOUBLE_EQ(opts->models.memoryFraction,
                     config1_5Bplus1_5B().memoryFraction);
    EXPECT_DOUBLE_EQ(opts->config.reservedBytes,
                     FastTtsConfig().reservedBytes);
}

TEST(EngineArgsHelp, ListsRegistriesAndFlags)
{
    const std::string text = EngineArgs::help("tool");
    for (const char *needle :
         {"--device", "--dataset", "--algorithm", "--models", "--beams",
          "--seed", "RTX4090", "AIME", "beam_search", "1.5B+1.5B"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(EngineArgsArgv, OffloadRejectsAttachedValue)
{
    EXPECT_EQ(parse({"--offload=false"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--no-offload=1"}).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(EngineArgsArgv, ParsedFlagsRecorded)
{
    const auto args = parse({"--beams", "16", "--offload",
                             "--problems", "3", "--dataset", "AMC"});
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->parsedFlags,
              (std::vector<std::string>{"--beams", "--offload",
                                        "--problems", "--dataset"}));
}

TEST(EngineArgsArgv, UnsupportedFlagsRejected)
{
    const auto args = parse({"--beams", "16", "--problems", "2"});
    ASSERT_TRUE(args.ok());
    EXPECT_TRUE(args->rejectUnsupportedFlags({"--beams", "--problems"})
                    .ok());
    const Status narrow =
        args->rejectUnsupportedFlags({"--problems"});
    EXPECT_EQ(narrow.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(narrow.message().find("--beams"), std::string::npos);
    // A fully fixed tool accepts an empty command line only.
    EXPECT_TRUE(parse({})->rejectUnsupportedFlags({}).ok());
    EXPECT_FALSE(
        parse({"--problems", "4"})->rejectUnsupportedFlags({}).ok());
}

TEST(EngineArgsConvert, ProblemCountGrowsWithNumProblems)
{
    EngineArgs args;
    args.numProblems = 4;
    EXPECT_EQ(args.toServingOptions()->problemCount, 256); // Default.
    args.numProblems = 1000;
    const auto opts = args.toServingOptions();
    ASSERT_TRUE(opts.ok());
    EXPECT_EQ(opts->problemCount, 1000);
    // serveProblems(numProblems) therefore never silently clamps.
    auto system = ServingSystem::create(*opts);
    ASSERT_TRUE(system.ok());
    EXPECT_EQ(system->problems().size(), 1000u);
}

// ---------------------------------------------------------------------
// EngineArgs: JSON parsing
// ---------------------------------------------------------------------

TEST(EngineArgsJson, FullDocumentParses)
{
    const auto args = EngineArgs::fromJsonText(R"({
        "device": "RTX3070Ti",
        "dataset": "HumanEval",
        "algorithm": "best_of_n",
        "models": "7B+1.5B",
        "mode": "fasttts",
        "num_beams": 48,
        "branch_factor": 2,
        "num_problems": 5,
        "seed": 99,
        "offload": true,
        "memory_fraction": 0.8,
        "reserved_gib": 0.5
    })");
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->device, "RTX3070Ti");
    EXPECT_EQ(args->dataset, "HumanEval");
    EXPECT_EQ(args->algorithm, "best_of_n");
    EXPECT_EQ(args->models, "7B+1.5B");
    EXPECT_EQ(args->numBeams, 48);
    EXPECT_EQ(args->branchFactor, 2);
    EXPECT_EQ(args->numProblems, 5);
    EXPECT_EQ(args->seed, 99u);
    EXPECT_TRUE(args->offload);
    EXPECT_DOUBLE_EQ(args->memoryFraction, 0.8);
    EXPECT_DOUBLE_EQ(args->reservedGiB, 0.5);
    EXPECT_TRUE(args->validate().ok());
}

TEST(EngineArgsJson, PartialDocumentKeepsDefaults)
{
    const auto args =
        EngineArgs::fromJsonText(R"({"num_beams": 8})");
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->numBeams, 8);
    EXPECT_EQ(args->device, "RTX4090");
}

TEST(EngineArgsJson, ErrorPaths)
{
    // Malformed document.
    EXPECT_EQ(EngineArgs::fromJsonText("{nope").status().code(),
              StatusCode::kInvalidArgument);
    // Root must be an object.
    EXPECT_EQ(EngineArgs::fromJsonText("[1,2]").status().code(),
              StatusCode::kInvalidArgument);
    // Unknown key.
    EXPECT_EQ(
        EngineArgs::fromJsonText(R"({"beam_count": 4})").status().code(),
        StatusCode::kInvalidArgument);
    // Type mismatches.
    EXPECT_EQ(
        EngineArgs::fromJsonText(R"({"device": 4090})").status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"num_beams": "32"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"num_beams": 2.5})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"offload": "yes"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"seed": -1})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"num_beams": 0})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// EngineArgs: online serving flags (--policy / --max-inflight / --slo /
// --arrivals)
// ---------------------------------------------------------------------

TEST(EngineArgsOnline, DefaultsMatchLegacyServer)
{
    const EngineArgs args;
    EXPECT_EQ(args.online.policy, "fifo");
    EXPECT_EQ(args.online.maxInflight, 1);
    EXPECT_DOUBLE_EQ(args.online.slo, 0);
    EXPECT_EQ(args.arrivals, "poisson");
    EXPECT_EQ(args.online.batching, "continuous");
    EXPECT_DOUBLE_EQ(args.online.kvBudgetGiB, 0);
    EXPECT_FALSE(args.online.shedDoomed);
    const OnlineServerOptions online = args.online;
    EXPECT_EQ(online.policy, "fifo");
    EXPECT_EQ(online.maxInflight, 1);
    EXPECT_DOUBLE_EQ(online.slo, 0);
    EXPECT_EQ(online.batching, "continuous");
    EXPECT_DOUBLE_EQ(online.kvBudgetGiB, 0);
    EXPECT_FALSE(online.shedDoomed);
}

TEST(EngineArgsOnline, ArgvAndJsonAgree)
{
    const auto via_argv =
        parse({"--policy", "sjf", "--max-inflight", "8", "--slo",
               "30.5", "--arrivals", "bursty"});
    ASSERT_TRUE(via_argv.ok());
    const auto via_json = EngineArgs::fromJsonText(R"({
        "policy": "sjf",
        "max_inflight": 8,
        "slo": 30.5,
        "arrivals": "bursty"
    })");
    ASSERT_TRUE(via_json.ok());
    for (const EngineArgs *args : {&*via_argv, &*via_json}) {
        EXPECT_EQ(args->online.policy, "sjf");
        EXPECT_EQ(args->online.maxInflight, 8);
        EXPECT_DOUBLE_EQ(args->online.slo, 30.5);
        EXPECT_EQ(args->arrivals, "bursty");
        EXPECT_TRUE(args->validate().ok());
        const OnlineServerOptions online = args->online;
        EXPECT_EQ(online.policy, "sjf");
        EXPECT_EQ(online.maxInflight, 8);
        EXPECT_DOUBLE_EQ(online.slo, 30.5);
    }
    // The equals form works for the new flags too.
    const auto equals_form =
        parse({"--policy=edf", "--max-inflight=2", "--slo=1.5",
               "--arrivals=poisson"});
    ASSERT_TRUE(equals_form.ok());
    EXPECT_EQ(equals_form->online.policy, "edf");
    EXPECT_EQ(equals_form->online.maxInflight, 2);
}

TEST(EngineArgsOnline, UnknownPolicyListsRegisteredNames)
{
    const auto args = parse({"--policy", "round_robin"});
    ASSERT_TRUE(args.ok()); // Names resolve at validate() time.
    const Status status = args->validate();
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
    for (const char *known : {"fifo", "priority", "sjf", "edf"})
        EXPECT_NE(status.message().find(known), std::string::npos)
            << "policy listing should mention " << known;
}

TEST(EngineArgsOnline, RangeAndModeValidation)
{
    // max_inflight range is enforced at parse time for argv/JSON and
    // at validate() time for programmatic construction.
    EXPECT_EQ(parse({"--max-inflight", "0"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--max-inflight", "65"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"max_inflight": 0})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EngineArgs args;
    args.online.maxInflight = 100;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.online.slo = -1;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.arrivals = "steady";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"arrivals": 3})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"slo": "fast"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.online.kvBudgetGiB = -2;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--shed-doomed=yes"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"shed_doomed": "yes"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"kv_budget_gib": "big"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
}

TEST(EngineArgsOnline, FixedConfigToolsRejectOnlineFlags)
{
    // A tool whose queueing discipline is figure-fixed must reject the
    // new flags rather than silently ignore them.
    const auto args = parse({"--policy", "sjf"});
    ASSERT_TRUE(args.ok());
    const Status status =
        args->rejectUnsupportedFlags({"--problems", "--seed"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--policy"), std::string::npos);

    // And tools that do support them accept.
    EXPECT_TRUE(args->rejectUnsupportedFlags({"--policy"}).ok());
}

TEST(EngineArgsOnline, WasSetDistinguishesExplicitFromDefault)
{
    const auto args = parse({"--slo", "0", "--problems", "4"});
    ASSERT_TRUE(args.ok());
    EXPECT_TRUE(args->wasSet("--slo"));
    EXPECT_TRUE(args->wasSet("--problems"));
    EXPECT_FALSE(args->wasSet("--policy"));
    EXPECT_FALSE(EngineArgs().wasSet("--slo"));
}

TEST(EngineArgsOnline, HelpAndRegistryListingCoverPolicies)
{
    const std::string help = EngineArgs::help("prog");
    for (const char *needle :
         {"--policy", "--max-inflight", "--slo", "--arrivals"})
        EXPECT_NE(help.find(needle), std::string::npos) << needle;
    const std::string listing = EngineArgs::registryListing();
    EXPECT_NE(listing.find("queue policies"), std::string::npos);
    EXPECT_NE(listing.find("sjf"), std::string::npos);
}

TEST(EngineArgsOnline, BatchingFlagsArgvAndJsonAgree)
{
    const auto via_argv = parse(
        {"--max-batched-tokens", "4096", "--prefill-chunk", "256"});
    ASSERT_TRUE(via_argv.ok());
    const auto via_json = EngineArgs::fromJsonText(R"({
        "max_batched_tokens": 4096,
        "prefill_chunk": 256
    })");
    ASSERT_TRUE(via_json.ok());
    for (const EngineArgs *args : {&*via_argv, &*via_json}) {
        EXPECT_EQ(args->online.maxBatchedTokens, 4096);
        EXPECT_EQ(args->online.prefillChunk, 256);
        EXPECT_TRUE(args->validate().ok());
        const OnlineServerOptions online = args->online;
        EXPECT_EQ(online.maxBatchedTokens, 4096);
        EXPECT_EQ(online.prefillChunk, 256);
    }
    EXPECT_TRUE(via_argv->wasSet("--max-batched-tokens"));
    EXPECT_TRUE(via_argv->wasSet("--prefill-chunk"));

    // Continuous batching is the only mode, so no flag chooses one.
    EXPECT_EQ(parse({"--batching", "continuous"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(
        EngineArgs::fromJsonText(R"({"batching": "continuous"})")
            .status()
            .code(),
        StatusCode::kInvalidArgument);
}

TEST(EngineArgsOnline, BatchingFlagValidation)
{
    EngineArgs args;
    for (const char *mode : {"off", "dynamic"}) {
        args.online.batching = mode;
        EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument)
            << mode;
    }

    args = EngineArgs();
    args.online.maxBatchedTokens = 0;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.online.prefillChunk = -1;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    // The parser rejects out-of-range values up front.
    EXPECT_EQ(parse({"--max-batched-tokens", "0"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--prefill-chunk", "0"}).status().code(),
              StatusCode::kInvalidArgument);

    // Fixed-config tools reject the batching flags too.
    const auto set = parse({"--max-batched-tokens", "4096"});
    ASSERT_TRUE(set.ok());
    const Status status = set->rejectUnsupportedFlags({"--problems"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--max-batched-tokens"),
              std::string::npos);
}

TEST(EngineArgsOnline, PrefixCacheFlagsArgvAndJsonAgree)
{
    const auto via_argv = parse(
        {"--prefix-cache", "on", "--prefix-cache-budget", "0.25"});
    ASSERT_TRUE(via_argv.ok());
    const auto via_json = EngineArgs::fromJsonText(R"({
        "prefix_cache": "on",
        "prefix_cache_budget_gib": 0.25
    })");
    ASSERT_TRUE(via_json.ok());
    for (const EngineArgs *args : {&*via_argv, &*via_json}) {
        EXPECT_EQ(args->online.prefixCache, "on");
        EXPECT_DOUBLE_EQ(args->online.prefixCacheBudgetGiB, 0.25);
        EXPECT_TRUE(args->validate().ok());
        const OnlineServerOptions online = args->online;
        EXPECT_EQ(online.prefixCache, "on");
        EXPECT_DOUBLE_EQ(online.prefixCacheBudgetGiB, 0.25);
    }
    EXPECT_TRUE(via_argv->wasSet("--prefix-cache"));
    EXPECT_TRUE(via_argv->wasSet("--prefix-cache-budget"));

    // The equals form parses too.
    const auto equals = parse({"--prefix-cache=on"});
    ASSERT_TRUE(equals.ok());
    EXPECT_EQ(equals->online.prefixCache, "on");

    // Defaults keep the cache off with the derived (0) budget, so
    // legacy invocations stay bit-identical.
    const auto defaults = parse({});
    ASSERT_TRUE(defaults.ok());
    EXPECT_EQ(defaults->online.prefixCache, "off");
    EXPECT_DOUBLE_EQ(defaults->online.prefixCacheBudgetGiB, 0.0);
    EXPECT_FALSE(defaults->wasSet("--prefix-cache"));
    EXPECT_EQ(defaults->online.prefixCache, "off");
}

TEST(EngineArgsOnline, PrefixCacheFlagValidation)
{
    EngineArgs args;
    args.online.prefixCache = "maybe";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(args.validate().message().find("off"),
              std::string::npos);

    args = EngineArgs();
    args.online.prefixCacheBudgetGiB = -0.5;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    // Wrong JSON types are rejected up front.
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"prefix_cache": true})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(
                  R"({"prefix_cache_budget_gib": "big"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    // Fixed-config tools reject the prefix-cache flags too.
    const auto set = parse({"--prefix-cache", "on"});
    ASSERT_TRUE(set.ok());
    const Status status = set->rejectUnsupportedFlags({"--problems"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--prefix-cache"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Fault tolerance: retryable status codes and the fault flags
// ---------------------------------------------------------------------

TEST(Status, RetryableCodesCarryNamesAndRetryability)
{
    const Status deadline = Status::deadlineExceeded("too slow");
    EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(deadline.toString(), "deadline_exceeded: too slow");
    // Deliberately terminal: the deadline has passed; a retry would
    // just miss it again later.
    EXPECT_FALSE(deadline.isRetryable());

    const Status transient = Status::unavailable("device hiccup");
    EXPECT_EQ(transient.code(), StatusCode::kUnavailable);
    EXPECT_EQ(transient.toString(), "unavailable: device hiccup");
    EXPECT_TRUE(transient.isRetryable());

    // Every other code is non-retryable.
    EXPECT_FALSE(okStatus().isRetryable());
    EXPECT_FALSE(Status::invalidArgument("x").isRetryable());
    EXPECT_FALSE(Status::notFound("x").isRetryable());
    EXPECT_FALSE(Status::alreadyExists("x").isRetryable());
    EXPECT_FALSE(Status::failedPrecondition("x").isRetryable());
}

TEST(EngineArgsOnline, FaultFlagsArgvAndJsonAgree)
{
    const char *kPlan =
        R"({"rules": [{"site": "wave_step", "rate": 0.05}]})";
    const auto via_argv = parse({"--faults", "plan", "--fault-plan",
                                 kPlan, "--retry-max", "3",
                                 "--retry-backoff", "0.125",
                                 "--request-timeout", "90"});
    ASSERT_TRUE(via_argv.ok());
    const auto via_json = EngineArgs::fromJsonText(std::string(R"({
        "faults": "plan",
        "fault_plan": ")")
        + R"({\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.05}]})"
        + R"(",
        "retry_max": 3,
        "retry_backoff": 0.125,
        "request_timeout": 90
    })");
    ASSERT_TRUE(via_json.ok()) << via_json.status().toString();
    for (const EngineArgs *args : {&*via_argv, &*via_json}) {
        EXPECT_EQ(args->online.faults, "plan");
        EXPECT_EQ(args->online.faultPlan, kPlan);
        EXPECT_EQ(args->online.retryMax, 3);
        EXPECT_DOUBLE_EQ(args->online.retryBackoff, 0.125);
        EXPECT_DOUBLE_EQ(args->online.requestTimeout, 90.0);
        EXPECT_TRUE(args->validate().ok())
            << args->validate().toString();
        const OnlineServerOptions online = args->online;
        EXPECT_EQ(online.faults, "plan");
        EXPECT_EQ(online.faultPlan, kPlan);
        EXPECT_EQ(online.retryMax, 3);
        EXPECT_DOUBLE_EQ(online.retryBackoff, 0.125);
        EXPECT_DOUBLE_EQ(online.requestTimeout, 90.0);
    }
    for (const char *flag : {"--faults", "--fault-plan", "--retry-max",
                             "--retry-backoff", "--request-timeout"})
        EXPECT_TRUE(via_argv->wasSet(flag)) << flag;

    // Defaults keep injection off with no retry/watchdog machinery,
    // so legacy invocations stay bit-identical.
    const auto defaults = parse({});
    ASSERT_TRUE(defaults.ok());
    EXPECT_EQ(defaults->online.faults, "off");
    EXPECT_TRUE(defaults->online.faultPlan.empty());
    EXPECT_EQ(defaults->online.retryMax, 0);
    EXPECT_DOUBLE_EQ(defaults->online.requestTimeout, 0.0);
    EXPECT_EQ(defaults->online.faults, "off");
}

TEST(EngineArgsOnline, FaultFlagValidation)
{
    EngineArgs args;
    args.online.faults = "chaos";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(args.validate().message().find("off"),
              std::string::npos);

    // plan mode demands a parseable schedule.
    args = EngineArgs();
    args.online.faults = "plan";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
    args.online.faultPlan = "{\"rules\": [{\"site\": \"wave_step\"}]}";
    EXPECT_FALSE(args.validate().ok());

    args = EngineArgs();
    args.online.retryMax = 17;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.online.retryBackoff = -1.0;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.online.requestTimeout = -5.0;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    // argv range enforcement and JSON type enforcement.
    EXPECT_FALSE(parse({"--retry-max", "17"}).ok());
    EXPECT_FALSE(parse({"--retry-max", "-1"}).ok());
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"faults": 1})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"retry_max": "three"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"retry_max": 17})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    // Fixed-config tools reject the fault flags like any other.
    const auto set = parse({"--request-timeout", "10"});
    ASSERT_TRUE(set.ok());
    const Status status = set->rejectUnsupportedFlags({"--problems"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--request-timeout"),
              std::string::npos);
}

TEST(EngineArgsArgv, HelpNoLongerAdvertisesPositionals)
{
    // The replacement flags keep working, and help() no longer
    // documents the removed positional form.
    const auto flagged =
        parse({"--problems", "7", "--dataset", "MATH500"});
    ASSERT_TRUE(flagged.ok());
    EXPECT_EQ(flagged->numProblems, 7);
    EXPECT_EQ(flagged->dataset, "MATH500");

    const std::string help = EngineArgs::help("prog");
    EXPECT_EQ(help.find("DEPRECATED"), std::string::npos);
    EXPECT_EQ(help.find("positional"), std::string::npos);
}

// ---------------------------------------------------------------------
// EngineArgs: every documented flag, in every spelling
// ---------------------------------------------------------------------

/** Every knob of an EngineArgs, comparable as one tuple. */
auto
knobs(const EngineArgs &a)
{
    const OnlineServerOptions &o = a.online;
    return std::tie(a.device, a.dataset, a.algorithm, a.models, a.mode,
                    a.numBeams, a.branchFactor, a.numProblems, a.seed,
                    a.offload, a.memoryFraction, a.reservedGiB, a.arrivals,
                    o.policy, o.maxInflight, o.slo, o.kvBudgetGiB,
                    o.shedDoomed, o.batching, o.maxBatchedTokens,
                    o.prefillChunk, o.prefixCache, o.prefixCacheBudgetGiB,
                    o.faults, o.faultPlan, o.retryMax, o.retryBackoff,
                    o.requestTimeout);
}

template <typename Tuple, size_t... I>
int
countDifferences(const Tuple &a, const Tuple &b, std::index_sequence<I...>)
{
    return ((std::get<I>(a) != std::get<I>(b) ? 1 : 0) + ...);
}

/** How many knobs differ between two configurations. */
int
changedKnobs(const EngineArgs &a, const EngineArgs &b)
{
    using Knobs = decltype(knobs(a));
    return countDifferences(
        knobs(a), knobs(b),
        std::make_index_sequence<std::tuple_size_v<Knobs>>());
}

/** One non-default setting of a flag, as argv and as JSON. */
struct FlagCase
{
    const char *flag;  //!< Canonical name.
    const char *value; //!< argv value; nullptr for a switch.
    const char *json;  //!< The same setting as a JSON member.
};

const FlagCase kFlagCases[] = {
    {"--device", "RTX3070Ti", R"("device": "RTX3070Ti")"},
    {"--dataset", "AMC", R"("dataset": "AMC")"},
    {"--algorithm", "dvts", R"("algorithm": "dvts")"},
    {"--models", "1.5B+7B", R"("models": "1.5B+7B")"},
    {"--mode", "baseline", R"("mode": "baseline")"},
    {"--beams", "64", R"("num_beams": 64)"},
    {"--branch-factor", "8", R"("branch_factor": 8)"},
    {"--problems", "3", R"("num_problems": 3)"},
    {"--seed", "42", R"("seed": 42)"},
    {"--offload", nullptr, R"("offload": true)"},
    {"--memory-fraction", "0.5", R"("memory_fraction": 0.5)"},
    {"--reserved-gib", "0.25", R"("reserved_gib": 0.25)"},
    {"--policy", "sjf", R"("policy": "sjf")"},
    {"--max-inflight", "8", R"("max_inflight": 8)"},
    {"--slo", "30.5", R"("slo": 30.5)"},
    {"--arrivals", "bursty", R"("arrivals": "bursty")"},
    {"--kv-budget", "1.5", R"("kv_budget_gib": 1.5)"},
    {"--shed-doomed", nullptr, R"("shed_doomed": true)"},
    {"--max-batched-tokens", "4096", R"("max_batched_tokens": 4096)"},
    {"--prefill-chunk", "256", R"("prefill_chunk": 256)"},
    {"--prefix-cache", "on", R"("prefix_cache": "on")"},
    {"--prefix-cache-budget", "0.25", R"("prefix_cache_budget_gib": 0.25)"},
    {"--faults", "plan", R"("faults": "plan")"},
    {"--fault-plan", "{}", R"("fault_plan": "{}")"},
    {"--retry-max", "3", R"("retry_max": 3)"},
    {"--retry-backoff", "0.125", R"("retry_backoff": 0.125)"},
    {"--request-timeout", "90", R"("request_timeout": 90)"},
};

TEST(EngineArgsFlags, EveryDocumentedFlagParsesInEverySpelling)
{
    // The cases must cover exactly the flags help() documents, so a
    // flag added without a case here fails.
    std::set<std::string> documented;
    std::istringstream help(EngineArgs::help("prog"));
    for (std::string line; std::getline(help, line);) {
        if (line.rfind("  --", 0) == 0)
            documented.insert(line.substr(2, line.find(' ', 2) - 2));
    }
    std::set<std::string> covered = {"--help"};

    const EngineArgs defaults;
    for (const FlagCase &c : kFlagCases) {
        SCOPED_TRACE(c.flag);
        covered.insert(c.flag);
        const auto json =
            EngineArgs::fromJsonText(std::string("{") + c.json + "}");
        ASSERT_TRUE(json.ok()) << json.status().toString();
        EXPECT_EQ(changedKnobs(*json, defaults), 1);

        // "--flag value" and "--flag=value" (a switch has one form).
        const std::string equals =
            c.value != nullptr ? std::string(c.flag) + "=" + c.value : "";
        std::vector<std::vector<const char *>> spellings = {{c.flag}};
        if (c.value != nullptr)
            spellings = {{c.flag, c.value}, {equals.c_str()}};
        for (const auto &argv : spellings) {
            const auto parsed = parse(argv);
            ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
            EXPECT_TRUE(knobs(*parsed) == knobs(*json));
            EXPECT_EQ(parsed->parsedFlags,
                      std::vector<std::string>{c.flag});
        }

        // A switch's --no- form clears it again.
        if (c.value == nullptr) {
            const std::string negated = "--no-" + std::string(c.flag + 2);
            covered.insert(negated);
            const auto cleared = parse({c.flag, negated.c_str()});
            ASSERT_TRUE(cleared.ok()) << cleared.status().toString();
            EXPECT_TRUE(knobs(*cleared) == knobs(defaults));
            EXPECT_EQ(cleared->parsedFlags,
                      (std::vector<std::string>{c.flag, c.flag}));
        }
    }
    EXPECT_EQ(covered, documented);
}

} // namespace
} // namespace fasttts
