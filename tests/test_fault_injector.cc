/**
 * @file
 * Tests for the deterministic, schedule-driven fault injector.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/fault_injector.h"

namespace fasttts
{
namespace
{

TEST(FaultSiteNames, RoundTripAllSites)
{
    for (int i = 0; i < kNumFaultSites; ++i) {
        const auto site = static_cast<FaultSite>(i);
        const auto parsed = faultSiteFromName(faultSiteName(site));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(*parsed, site);
    }
}

TEST(FaultSiteNames, UnknownNameIsNotFound)
{
    const auto parsed = faultSiteFromName("cosmic_ray");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound);
}

TEST(FaultPlan, ParsesFullRule)
{
    const auto plan = FaultPlan::fromJsonText(
        "{\"rules\": [{\"site\": \"kv_alloc\", \"rate\": 0.25, "
        "\"start\": 1.5, \"end\": 9.0, \"request\": 7}]}");
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->rules.size(), 1u);
    const FaultRule &rule = plan->rules[0];
    EXPECT_EQ(rule.site, FaultSite::kKvAlloc);
    EXPECT_EQ(rule.rate, 0.25);
    EXPECT_EQ(rule.windowStart, 1.5);
    EXPECT_EQ(rule.windowEnd, 9.0);
    EXPECT_EQ(rule.requestId, 7);
}

TEST(FaultPlan, OptionalFieldsDefaultToAlwaysAnyRequest)
{
    const auto plan = FaultPlan::fromJsonText(
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.05}]}");
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->rules.size(), 1u);
    EXPECT_EQ(plan->rules[0].windowStart, 0.0);
    EXPECT_TRUE(std::isinf(plan->rules[0].windowEnd));
    EXPECT_EQ(plan->rules[0].requestId, -1);
}

TEST(FaultPlan, RejectsMalformedSchedules)
{
    const char *bad[] = {
        "not json at all",
        "[1, 2, 3]",                     // Top level must be an object.
        "{\"rule\": []}",                // Unknown top-level key.
        "{\"rules\": 5}",                // rules must be an array.
        "{\"rules\": [5]}",              // Rule must be an object.
        "{\"rules\": [{\"rate\": 0.1}]}",          // Missing site.
        "{\"rules\": [{\"site\": 3, \"rate\": 0.1}]}", // Non-string site.
        "{\"rules\": [{\"site\": \"wave_step\"}]}",    // Missing rate.
        // (A well-formed rule with an unknown site name fails too,
        // surfacing faultSiteFromName's kNotFound — checked below.)
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 1.5}]}",
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": -0.1}]}",
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.1, "
        "\"start\": 5, \"end\": 5}]}",   // Empty window.
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.1, "
        "\"request\": \"seven\"}]}",     // Non-numeric request.
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.1, "
        "\"color\": \"red\"}]}",         // Unknown rule key.
    };
    for (const char *text : bad) {
        const auto plan = FaultPlan::fromJsonText(text);
        EXPECT_FALSE(plan.ok()) << text;
        if (!plan.ok()) {
            EXPECT_EQ(plan.status().code(),
                      StatusCode::kInvalidArgument)
                << text;
        }
    }
    const auto unknown_site = FaultPlan::fromJsonText(
        "{\"rules\": [{\"site\": \"bogus\", \"rate\": 0.1}]}");
    ASSERT_FALSE(unknown_site.ok());
    EXPECT_EQ(unknown_site.status().code(), StatusCode::kNotFound);
    // No serving path restores KV eagerly, so kv_restore is no site.
    const auto restore = FaultPlan::fromJsonText(
        "{\"rules\": [{\"site\": \"kv_restore\", \"rate\": 0.1}]}");
    ASSERT_FALSE(restore.ok());
    EXPECT_EQ(restore.status().code(), StatusCode::kNotFound);
    EXPECT_NE(restore.status().message().find(
                  "expected wave_step, kv_alloc or prefix_acquire"),
              std::string::npos)
        << restore.status().message();
}

TEST(FaultPlan, UniformArmsEverySite)
{
    const FaultPlan plan = FaultPlan::uniform(1.0);
    ASSERT_EQ(plan.rules.size(),
              static_cast<size_t>(kNumFaultSites));
    FaultInjector injector(plan, 1);
    for (int i = 0; i < kNumFaultSites; ++i)
        EXPECT_TRUE(injector.shouldFault(static_cast<FaultSite>(i)));
}

/** Record one probe sequence: (site, request, decision) per probe. */
std::vector<bool>
probeSequence(FaultInjector &injector, int probes)
{
    std::vector<bool> out;
    out.reserve(static_cast<size_t>(probes));
    for (int i = 0; i < probes; ++i) {
        injector.setNow(0.01 * i);
        out.push_back(injector.shouldFault(
            static_cast<FaultSite>(i % kNumFaultSites), i % 5));
    }
    return out;
}

TEST(FaultInjector, SameSeedReplaysBitForBit)
{
    FaultInjector a(FaultPlan::uniform(0.2), 42);
    FaultInjector b(FaultPlan::uniform(0.2), 42);
    EXPECT_EQ(probeSequence(a, 500), probeSequence(b, 500));
    EXPECT_EQ(a.injectedCount(), b.injectedCount());
    EXPECT_EQ(a.probeCount(), 500);
}

TEST(FaultInjector, DifferentSeedsDivergeSomewhere)
{
    FaultInjector a(FaultPlan::uniform(0.2), 42);
    FaultInjector b(FaultPlan::uniform(0.2), 43);
    EXPECT_NE(probeSequence(a, 500), probeSequence(b, 500));
}

TEST(FaultInjector, UnarmedProbesConsumeNoRandomness)
{
    // Interleaving probes at sites with NO matching rule must not
    // shift the RNG stream the armed site draws from: the wave_step
    // decisions must match an injector that never saw the extras.
    const auto plan = FaultPlan::fromJsonText(
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.3}]}");
    ASSERT_TRUE(plan.ok());
    FaultInjector clean(*plan, 7);
    FaultInjector noisy(*plan, 7);
    std::vector<bool> clean_seq;
    std::vector<bool> noisy_seq;
    for (int i = 0; i < 200; ++i) {
        clean_seq.push_back(clean.shouldFault(FaultSite::kWaveStep, i));
        (void)noisy.shouldFault(FaultSite::kKvAlloc);
        (void)noisy.shouldFault(FaultSite::kPrefixAcquire);
        noisy_seq.push_back(noisy.shouldFault(FaultSite::kWaveStep, i));
    }
    EXPECT_EQ(clean_seq, noisy_seq);
    // The unarmed probes were still counted as probes, never faults.
    EXPECT_EQ(noisy.stats(FaultSite::kKvAlloc).probes, 200);
    EXPECT_EQ(noisy.stats(FaultSite::kKvAlloc).injected, 0);
}

TEST(FaultInjector, SimTimeWindowGatesRules)
{
    const auto plan = FaultPlan::fromJsonText(
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 1.0, "
        "\"start\": 10, \"end\": 20}]}");
    ASSERT_TRUE(plan.ok());
    FaultInjector injector(*plan, 3);
    injector.setNow(9.999);
    EXPECT_FALSE(injector.shouldFault(FaultSite::kWaveStep));
    injector.setNow(10.0); // Window start is inclusive.
    EXPECT_TRUE(injector.shouldFault(FaultSite::kWaveStep));
    injector.setNow(19.999);
    EXPECT_TRUE(injector.shouldFault(FaultSite::kWaveStep));
    injector.setNow(20.0); // Window end is exclusive.
    EXPECT_FALSE(injector.shouldFault(FaultSite::kWaveStep));
    EXPECT_EQ(injector.stats(FaultSite::kWaveStep).probes, 4);
    EXPECT_EQ(injector.stats(FaultSite::kWaveStep).injected, 2);
}

TEST(FaultInjector, RequestIdSelectsVictim)
{
    const auto plan = FaultPlan::fromJsonText(
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 1.0, "
        "\"request\": 7}]}");
    ASSERT_TRUE(plan.ok());
    FaultInjector injector(*plan, 3);
    EXPECT_TRUE(injector.shouldFault(FaultSite::kWaveStep, 7));
    EXPECT_FALSE(injector.shouldFault(FaultSite::kWaveStep, 8));
    // Deep sites probe without a request id (-1); request-targeted
    // rules never arm them.
    EXPECT_FALSE(injector.shouldFault(FaultSite::kWaveStep, -1));
}

TEST(FaultInjector, OverlappingRulesCombineAsIndependentSources)
{
    // Two rate-0.5 rules at one site: combined p = 1 - 0.5^2 = 0.75.
    const auto plan = FaultPlan::fromJsonText(
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.5}, "
        "{\"site\": \"wave_step\", \"rate\": 0.5}]}");
    ASSERT_TRUE(plan.ok());
    FaultInjector injector(*plan, 11);
    const int probes = 4000;
    int faults = 0;
    for (int i = 0; i < probes; ++i)
        faults += injector.shouldFault(FaultSite::kWaveStep) ? 1 : 0;
    const double observed = static_cast<double>(faults) / probes;
    EXPECT_NEAR(observed, 0.75, 0.03);
    // A saturating rule forces every probe regardless of the rest.
    const auto sure = FaultPlan::fromJsonText(
        "{\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.1}, "
        "{\"site\": \"wave_step\", \"rate\": 1.0}]}");
    ASSERT_TRUE(sure.ok());
    FaultInjector always(*sure, 11);
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(always.shouldFault(FaultSite::kWaveStep));
}

TEST(FaultInjector, ZeroRateRuleArmsButNeverFires)
{
    const auto plan = FaultPlan::fromJsonText(
        "{\"rules\": [{\"site\": \"prefix_acquire\", \"rate\": 0.0}]}");
    ASSERT_TRUE(plan.ok());
    FaultInjector injector(*plan, 5);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(injector.shouldFault(FaultSite::kPrefixAcquire));
    EXPECT_EQ(injector.stats(FaultSite::kPrefixAcquire).probes, 100);
    EXPECT_EQ(injector.injectedCount(), 0);
}

} // namespace
} // namespace fasttts
