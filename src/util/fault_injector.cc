#include "util/fault_injector.h"

#include <cmath>

#include "util/json.h"

namespace fasttts
{

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
    case FaultSite::kWaveStep:
        return "wave_step";
    case FaultSite::kKvAlloc:
        return "kv_alloc";
    case FaultSite::kPrefixAcquire:
        return "prefix_acquire";
    }
    return "unknown";
}

StatusOr<FaultSite>
faultSiteFromName(const std::string &name)
{
    if (name == "wave_step")
        return FaultSite::kWaveStep;
    if (name == "kv_alloc")
        return FaultSite::kKvAlloc;
    if (name == "prefix_acquire")
        return FaultSite::kPrefixAcquire;
    return Status::notFound(
        "unknown fault site '" + name
        + "' (expected wave_step, kv_alloc or prefix_acquire)");
}

namespace
{

StatusOr<double>
ruleNumber(const Json &rule, const std::string &key, double fallback)
{
    if (!rule.has(key))
        return fallback;
    if (!rule[key].isNumber())
        return Status::invalidArgument("fault rule \"" + key
                                       + "\" must be a number");
    return rule[key].asNumber();
}

} // namespace

StatusOr<FaultPlan>
FaultPlan::fromJsonText(const std::string &text)
{
    std::string error;
    const Json doc = Json::parse(text, &error);
    if (!error.empty())
        return Status::invalidArgument("fault plan JSON parse error: "
                                       + error);
    if (!doc.isObject())
        return Status::invalidArgument(
            "fault plan must be a JSON object with a \"rules\" array");
    FaultPlan plan;
    for (const auto &[key, value] : doc.members()) {
        if (key != "rules")
            return Status::invalidArgument(
                "unknown fault plan key \"" + key
                + "\" (only \"rules\" is recognised)");
        if (!value.isArray())
            return Status::invalidArgument(
                "fault plan \"rules\" must be an array");
        for (size_t i = 0; i < value.size(); ++i) {
            const Json &entry = value.at(i);
            if (!entry.isObject())
                return Status::invalidArgument(
                    "fault rule " + std::to_string(i)
                    + " must be an object");
            if (!entry.has("site") || !entry["site"].isString())
                return Status::invalidArgument(
                    "fault rule " + std::to_string(i)
                    + " needs a string \"site\"");
            auto site = faultSiteFromName(entry["site"].asString());
            if (!site.ok())
                return site.status();
            FaultRule rule;
            rule.site = *site;
            if (!entry.has("rate"))
                return Status::invalidArgument(
                    "fault rule " + std::to_string(i)
                    + " needs a numeric \"rate\"");
            auto rate = ruleNumber(entry, "rate", 0.0);
            if (!rate.ok())
                return rate.status();
            if (!std::isfinite(*rate) || *rate < 0 || *rate > 1)
                return Status::invalidArgument(
                    "fault rule " + std::to_string(i)
                    + " rate must be in [0, 1]");
            rule.rate = *rate;
            auto start = ruleNumber(entry, "start", 0.0);
            if (!start.ok())
                return start.status();
            rule.windowStart = *start;
            auto end = ruleNumber(
                entry, "end", std::numeric_limits<double>::infinity());
            if (!end.ok())
                return end.status();
            rule.windowEnd = *end;
            if (rule.windowEnd <= rule.windowStart)
                return Status::invalidArgument(
                    "fault rule " + std::to_string(i)
                    + " window is empty (end <= start)");
            if (entry.has("request")) {
                if (!entry["request"].isNumber())
                    return Status::invalidArgument(
                        "fault rule \"request\" must be a number");
                rule.requestId =
                    static_cast<long>(entry["request"].asNumber());
            }
            for (const auto &[rule_key, ignored] : entry.members()) {
                (void)ignored;
                if (rule_key != "site" && rule_key != "rate"
                    && rule_key != "start" && rule_key != "end"
                    && rule_key != "request")
                    return Status::invalidArgument(
                        "unknown fault rule key \"" + rule_key + "\"");
            }
            plan.rules.push_back(rule);
        }
    }
    return plan;
}

FaultPlan
FaultPlan::uniform(double rate)
{
    FaultPlan plan;
    for (int site = 0; site < kNumFaultSites; ++site) {
        FaultRule rule;
        rule.site = static_cast<FaultSite>(site);
        rule.rate = rate;
        plan.rules.push_back(rule);
    }
    return plan;
}

bool
FaultInjector::shouldFault(FaultSite site, long request_id)
{
    FaultSiteStats &stats = stats_[static_cast<int>(site)];
    ++stats.probes;
    // Combine every armed rule as an independent failure source; no
    // armed rule means no RNG draw, keeping unfaulted spans
    // bit-identical to a run without the injector.
    double survive = 1.0;
    bool armed = false;
    for (const FaultRule &rule : plan_.rules) {
        if (rule.site != site)
            continue;
        if (now_ < rule.windowStart || now_ >= rule.windowEnd)
            continue;
        if (rule.requestId >= 0 && rule.requestId != request_id)
            continue;
        armed = true;
        survive *= 1.0 - rule.rate;
    }
    if (!armed)
        return false;
    const bool fault = rng_.bernoulli(1.0 - survive);
    if (fault)
        ++stats.injected;
    return fault;
}

long
FaultInjector::injectedCount() const
{
    long total = 0;
    for (const FaultSiteStats &stats : stats_)
        total += stats.injected;
    return total;
}

long
FaultInjector::probeCount() const
{
    long total = 0;
    for (const FaultSiteStats &stats : stats_)
        total += stats.probes;
    return total;
}

} // namespace fasttts
