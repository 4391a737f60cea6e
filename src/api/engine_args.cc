#include "api/engine_args.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <type_traits>
#include <utility>
#include <variant>

#include "util/json.h"
#include "util/units.h"

namespace fasttts
{

namespace
{

/** Where a flag's value lives: a member of EngineArgs itself or of
 *  its embedded OnlineServerOptions (exactly one pointer is set). */
template <typename T>
struct Field
{
    T EngineArgs::*top;
    T OnlineServerOptions::*online;

    T &of(EngineArgs &args) const
    {
        return top != nullptr ? args.*top : args.online.*online;
    }
};

template <typename T>
constexpr Field<T>
field(T EngineArgs::*member)
{
    return {member, nullptr};
}

template <typename T>
constexpr Field<T>
field(T OnlineServerOptions::*member)
{
    return {nullptr, member};
}

/**
 * One flag, declared once: fromArgv(), fromJson(), help() and
 * parseOrExit()'s every-flag list all read this row. A bool field is a
 * switch: --NAME sets it, --no-NAME clears it, JSON takes true/false.
 */
struct Flag
{
    const char *name; //!< "--beams".
    const char *key;  //!< JSON key, "num_beams".
    std::variant<Field<std::string>, Field<int>, Field<uint64_t>,
                 Field<double>, Field<bool>>
        field;
    const char *metavar; //!< help() value placeholder; "" for switches.
    const char *help;    //!< help() text; '\n' starts a wrapped line.
    long long min = 0;   //!< Integer range. A seed takes any uint64 on
    long long max = 0;   //!< argv; its JSON number must fit a double.
    const char *noHelp = nullptr; //!< help() text of --no-NAME.
};

/** Upper bound of the count flags: beams, problems, token budgets. */
constexpr long long kMaxCount = 1 << 20;

const Flag kFlags[] = {
    {"--device", "device", field(&EngineArgs::device), "NAME",
     "accelerator to serve on"},
    {"--dataset", "dataset", field(&EngineArgs::dataset), "NAME",
     "workload profile"},
    {"--algorithm", "algorithm", field(&EngineArgs::algorithm), "NAME",
     "TTS search method"},
    {"--models", "models", field(&EngineArgs::models), "LABEL",
     "generator+verifier configuration"},
    {"--mode", "mode", field(&EngineArgs::mode), "MODE",
     "'fasttts' (optimised) or 'baseline'"},
    {"--beams", "num_beams", field(&EngineArgs::numBeams), "N",
     "search width n (>= 1)", 1, kMaxCount},
    {"--branch-factor", "branch_factor", field(&EngineArgs::branchFactor),
     "N", "branch factor B (>= 1)", 1, kMaxCount},
    {"--problems", "num_problems", field(&EngineArgs::numProblems), "N",
     "problems to serve (>= 0)", 0, kMaxCount},
    {"--seed", "seed", field(&EngineArgs::seed), "N",
     "master problem-set seed", 0, 1LL << 53},
    {"--offload", "offload", field(&EngineArgs::offload), "",
     "enable KV offloading (Sec. 4.3.2)", 0, 0, "disable KV offloading"},
    {"--memory-fraction", "memory_fraction",
     field(&EngineArgs::memoryFraction), "F",
     "GPU memory fraction in (0, 1]"},
    {"--reserved-gib", "reserved_gib", field(&EngineArgs::reservedGiB), "F",
     "reserved VRAM (GiB) outside serving"},
    {"--policy", "policy", field(&OnlineServerOptions::policy), "NAME",
     "online admission policy"},
    {"--max-inflight", "max_inflight",
     field(&OnlineServerOptions::maxInflight), "N",
     "interleaved online requests (1-64)", 1, 64},
    {"--slo", "slo", field(&OnlineServerOptions::slo), "SECONDS",
     "per-request latency SLO (0 disables)"},
    {"--arrivals", "arrivals", field(&EngineArgs::arrivals), "MODE",
     "arrival process: 'poisson' or 'bursty'"},
    {"--kv-budget", "kv_budget_gib",
     field(&OnlineServerOptions::kvBudgetGiB), "GIB",
     "shared KV budget all in-flight online\n"
     "requests contend for (0 = the engine's\n"
     "device KV budget)"},
    {"--shed-doomed", "shed_doomed",
     field(&OnlineServerOptions::shedDoomed), "",
     "shed queued requests whose predicted\n"
     "finish already misses their deadline",
     0, 0, "serve doomed requests anyway (default)"},
    {"--max-batched-tokens", "max_batched_tokens",
     field(&OnlineServerOptions::maxBatchedTokens), "N",
     "per-wave online token budget shared by\n"
     "the in-flight requests (default 2048)",
     1, kMaxCount},
    {"--prefill-chunk", "prefill_chunk",
     field(&OnlineServerOptions::prefillChunk), "N",
     "largest prompt slice per request per\n"
     "online wave (default 512)",
     1, kMaxCount},
    {"--prefix-cache", "prefix_cache",
     field(&OnlineServerOptions::prefixCache), "MODE",
     "cross-request prefix KV reuse: 'off'\n"
     "(default; bit-identical to legacy\n"
     "serving) or 'on' (mount cached prompt\n"
     "prefixes instead of re-prefilling)"},
    {"--prefix-cache-budget", "prefix_cache_budget_gib",
     field(&OnlineServerOptions::prefixCacheBudgetGiB), "GIB",
     "prefix-cache byte budget (0 = 1/8 of\n"
     "the shared KV budget); cached bytes\n"
     "are charged to the --kv-budget ledger"},
    {"--faults", "faults", field(&OnlineServerOptions::faults), "MODE",
     "deterministic fault injection: 'off'\n"
     "(default; bit-identical fault-free\n"
     "serving) or 'plan' (inject per the\n"
     "--fault-plan schedule)"},
    {"--fault-plan", "fault_plan", field(&OnlineServerOptions::faultPlan),
     "JSON",
     "fault schedule (required with\n"
     "--faults plan); schema in\n"
     "util/fault_injector.h"},
    {"--retry-max", "retry_max", field(&OnlineServerOptions::retryMax), "N",
     "retries per fault-killed request\n"
     "(0-16; default 0 = fail on first\n"
     "fault)",
     0, 16},
    {"--retry-backoff", "retry_backoff",
     field(&OnlineServerOptions::retryBackoff), "S",
     "base retry backoff in sim seconds\n"
     "(capped exponential per attempt)"},
    {"--request-timeout", "request_timeout",
     field(&OnlineServerOptions::requestTimeout), "S",
     "watchdog: abort requests older than\n"
     "S sim seconds (0 disables)"},
};

/** "--no-NAME", a switch's clearing form. */
std::string
negated(const Flag &flag)
{
    return "--no-" + std::string(flag.name + 2);
}

/** The row `flag` names on the command line, or nullptr. */
const Flag *
findFlag(const std::string &flag)
{
    for (const Flag &row : kFlags) {
        if (flag == row.name
            || (std::holds_alternative<Field<bool>>(row.field)
                && flag == negated(row)))
            return &row;
    }
    return nullptr;
}

/** An argv value: numbers must parse whole, without overflow, an int
 *  within [flag.min, flag.max], an unsigned without a sign. */
template <typename T>
Status
parseArg(const Flag &flag, const std::string &token, T *out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        *out = token;
        return okStatus();
    } else {
        constexpr bool is_int = std::is_same_v<T, int>;
        constexpr bool is_unsigned = std::is_same_v<T, uint64_t>;
        const std::string name = flag.name;
        const std::string expects = name + " expects "
            + (is_int            ? "an integer"
                   : is_unsigned ? "an unsigned integer"
                                 : "a number");
        Status junk =
            Status::invalidArgument(expects + ", got '" + token + "'");
        if (token.empty())
            return is_unsigned ? junk : Status::invalidArgument(expects);
        if (is_unsigned && (token[0] == '-' || token[0] == '+'))
            return junk;
        errno = 0;
        char *end = nullptr;
        const auto value = [&] {
            if constexpr (is_int)
                return std::strtoll(token.c_str(), &end, 10);
            else if constexpr (is_unsigned)
                return std::strtoull(token.c_str(), &end, 10);
            else
                return std::strtod(token.c_str(), &end);
        }();
        if (errno == ERANGE || end != token.c_str() + token.size())
            return junk;
        if constexpr (is_int) {
            if (value < flag.min || value > flag.max)
                return Status::invalidArgument(
                    name + " must be in [" + std::to_string(flag.min)
                    + ", " + std::to_string(flag.max) + "], got " + token);
        }
        *out = static_cast<T>(value);
        return okStatus();
    }
}

/** A JSON value of the field's type; an integer must be a whole
 *  number within [flag.min, flag.max]. */
template <typename T>
Status
readJson(const Flag &flag, const Json &value, T *out)
{
    const std::string key = "\"" + std::string(flag.key) + "\"";
    if constexpr (std::is_same_v<T, std::string>) {
        if (!value.isString())
            return Status::invalidArgument(key + " must be a string");
        *out = value.asString();
    } else if constexpr (std::is_same_v<T, bool>) {
        if (!value.isBool())
            return Status::invalidArgument(key + " must be a boolean");
        *out = value.asBool();
    } else {
        if (!value.isNumber())
            return Status::invalidArgument(key + " must be a number");
        const double number = value.asNumber();
        if constexpr (std::is_integral_v<T>) {
            const long long integral = static_cast<long long>(number);
            if (static_cast<double>(integral) != number)
                return Status::invalidArgument(key + " must be an integer");
            if (integral < flag.min || integral > flag.max)
                return Status::invalidArgument(
                    key + " must be in [" + std::to_string(flag.min) + ", "
                    + std::to_string(flag.max) + "]");
        }
        *out = static_cast<T>(number);
    }
    return okStatus();
}

/** One help() entry: the usage padded to the text column (or alone on
 *  its line when too wide), then the text, wrapped lines indented. */
std::string
helpEntry(const std::string &usage, const char *text)
{
    const std::string column(23, ' ');
    std::string entry = "  " + usage
        + (usage.size() <= 20 ? std::string(21 - usage.size(), ' ')
                              : "\n" + column);
    for (const char *c = text; *c != '\0'; ++c)
        entry += *c == '\n' ? "\n" + column : std::string(1, *c);
    return entry + "\n";
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string joined;
    for (size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            joined += ", ";
        joined += names[i];
    }
    return joined;
}

} // namespace

StatusOr<EngineArgs>
EngineArgs::fromArgv(int argc, const char *const *argv,
                     const EngineArgs &defaults)
{
    EngineArgs args = defaults;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        bool has_value = false;

        const size_t eq = flag.find('=');
        if (flag.size() > 2 && flag[0] == '-' && flag[1] == '-'
            && eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
            has_value = true;
        }

        if (flag == "--help" || flag == "-h") {
            args.helpRequested = true;
            return args;
        }
        const Flag *row = findFlag(flag);
        if (row == nullptr && !flag.empty() && flag[0] == '-')
            return Status::invalidArgument("unknown flag '" + flag
                                           + "' (see --help)");
        // Bare positionals ([num_problems] [dataset]) were deprecated
        // in favour of --problems/--dataset and removed after their
        // one-release grace period.
        if (row == nullptr)
            return Status::invalidArgument(
                "unexpected positional argument '" + flag
                + "' (bare positionals were removed; use "
                  "--problems/--dataset)");

        const Status status = std::visit(
            [&](const auto &field) -> Status {
                auto *target = &field.of(args);
                if constexpr (std::is_same_v<decltype(target), bool *>) {
                    if (has_value)
                        return Status::invalidArgument(
                            flag + " does not take a value (use "
                            + row->name + " or " + negated(*row) + ")");
                    *target = flag == row->name;
                    return okStatus();
                } else {
                    if (!has_value && i + 1 >= argc)
                        return Status::invalidArgument(
                            flag + " expects a value");
                    return parseArg(*row, has_value ? value : argv[++i],
                                    target);
                }
            },
            row->field);
        if (!status.ok())
            return status;
        args.parsedFlags.emplace_back(row->name);
    }
    return args;
}

StatusOr<EngineArgs>
EngineArgs::fromArgv(int argc, const char *const *argv)
{
    return fromArgv(argc, argv, EngineArgs());
}

StatusOr<EngineArgs>
EngineArgs::fromJson(const Json &doc, const EngineArgs &defaults)
{
    if (!doc.isObject())
        return Status::invalidArgument(
            "EngineArgs JSON must be an object");

    EngineArgs args = defaults;
    for (const auto &[key, value] : doc.members()) {
        const Flag *row =
            std::find_if(std::begin(kFlags), std::end(kFlags),
                         [&](const Flag &flag) { return key == flag.key; });
        if (row == std::end(kFlags))
            return Status::invalidArgument("unknown EngineArgs key \""
                                           + key + "\"");
        const Status status = std::visit(
            [&](const auto &field) {
                return readJson(*row, value, &field.of(args));
            },
            row->field);
        if (!status.ok())
            return status;
    }
    return args;
}

StatusOr<EngineArgs>
EngineArgs::fromJsonText(const std::string &text,
                         const EngineArgs &defaults)
{
    std::string error;
    const Json doc = Json::parse(text, &error);
    if (!error.empty())
        return Status::invalidArgument("EngineArgs JSON parse error: "
                                       + error);
    return fromJson(doc, defaults);
}

StatusOr<EngineArgs>
EngineArgs::fromJsonText(const std::string &text)
{
    return fromJsonText(text, EngineArgs());
}

Status
EngineArgs::validate() const
{
    if (auto device_spec = deviceByName(device); !device_spec.ok())
        return device_spec.status();
    if (auto profile = datasetByName(dataset); !profile.ok())
        return profile.status();
    if (!modelConfigRegistry().contains(models))
        return modelConfigByLabel(models).status();
    if (numBeams < 1)
        return Status::invalidArgument("num_beams must be >= 1, got "
                                       + std::to_string(numBeams));
    if (branchFactor < 1)
        return Status::invalidArgument(
            "branch_factor must be >= 1, got "
            + std::to_string(branchFactor));
    if (auto algo = makeAlgorithm(algorithm, numBeams, branchFactor);
        !algo.ok())
        return algo.status();
    if (numProblems < 0)
        return Status::invalidArgument("num_problems must be >= 0, got "
                                       + std::to_string(numProblems));
    if (mode != "fasttts" && mode != "baseline")
        return Status::invalidArgument(
            "mode must be 'fasttts' or 'baseline', got '" + mode + "'");
    if (!std::isfinite(memoryFraction) || memoryFraction < 0
        || memoryFraction > 1)
        return Status::invalidArgument(
            "memory_fraction must be in (0, 1] (or 0 for the model "
            "config default)");
    if (!std::isfinite(reservedGiB))
        return Status::invalidArgument(
            "reserved_gib must be finite (negative keeps the engine "
            "default)");
    if (!queuePolicyRegistry().contains(online.policy))
        return makeQueuePolicy(online.policy).status();
    if (arrivals != "poisson" && arrivals != "bursty")
        return Status::invalidArgument(
            "arrivals must be 'poisson' or 'bursty', got '" + arrivals
            + "'");
    return online.validate();
}

Status
EngineArgs::rejectUnsupportedFlags(
    const std::vector<std::string> &supported) const
{
    for (const std::string &flag : parsedFlags) {
        bool found = false;
        for (const std::string &ok_flag : supported)
            found = found || ok_flag == flag;
        if (!found) {
            std::string message = flag
                + " is not supported by this tool (its configuration "
                  "is fixed); supported flags: ";
            if (supported.empty()) {
                message += "none (only --help)";
            } else {
                for (size_t i = 0; i < supported.size(); ++i)
                    message += (i == 0 ? "" : ", ") + supported[i];
            }
            return Status::invalidArgument(message);
        }
    }
    return okStatus();
}

bool
EngineArgs::wasSet(const std::string &flag) const
{
    return std::find(parsedFlags.begin(), parsedFlags.end(), flag)
        != parsedFlags.end();
}

StatusOr<ServingOptions>
EngineArgs::toServingOptions() const
{
    if (Status status = validate(); !status.ok())
        return status;

    ServingOptions opts;
    opts.config = mode == "baseline" ? FastTtsConfig::baseline()
                                     : FastTtsConfig::fastTts();
    opts.config.offloadEnabled = offload;
    if (reservedGiB >= 0)
        opts.config.reservedBytes = reservedGiB * GiB;
    opts.models = *modelConfigByLabel(models);
    if (memoryFraction > 0)
        opts.models.memoryFraction = memoryFraction;
    opts.deviceName = device;
    opts.datasetName = dataset;
    opts.algorithmName = algorithm;
    opts.numBeams = numBeams;
    opts.branchFactor = branchFactor;
    opts.seed = seed;
    // Keep the deterministic 256-problem set (a prefix is identical
    // for any larger count) but grow it when more problems were asked
    // for, so serveProblems(numProblems) never silently clamps.
    opts.problemCount = std::max(opts.problemCount, numProblems);
    return opts;
}

std::string
EngineArgs::help(const std::string &program)
{
    std::string text = "usage: " + program + " [flags]\n\n";
    for (const Flag &flag : kFlags) {
        text += helpEntry(*flag.metavar != '\0'
                              ? std::string(flag.name) + " " + flag.metavar
                              : flag.name,
                          flag.help);
        if (flag.noHelp != nullptr)
            text += helpEntry(negated(flag), flag.noHelp);
    }
    text += helpEntry("--help", "print this text and exit");
    text += "\nRegistered names (extensible; see the README's Extending "
            "FastTTS):\n";
    return text + registryListing();
}

std::string
EngineArgs::registryListing()
{
    std::string text;
    text += "  devices:       " + joinNames(deviceRegistry().list()) + "\n";
    text +=
        "  datasets:      " + joinNames(datasetRegistry().list()) + "\n";
    text += "  algorithms:    " + joinNames(algorithmRegistry().list())
        + "\n";
    text += "  model configs: " + joinNames(modelConfigRegistry().list())
        + "\n";
    text += "  queue policies: " + joinNames(queuePolicyRegistry().list())
        + "\n";
    return text;
}

EngineArgs
EngineArgs::parseOrExit(int argc, const char *const *argv,
                        const EngineArgs &defaults,
                        const std::string &description)
{
    std::vector<std::string> every_flag;
    for (const Flag &flag : kFlags)
        every_flag.emplace_back(flag.name);
    return parseOrExit(argc, argv, defaults, description, every_flag);
}

EngineArgs
EngineArgs::parseOrExit(int argc, const char *const *argv,
                        const EngineArgs &defaults,
                        const std::string &description,
                        const std::vector<std::string> &supported)
{
    const std::string program = argc > 0 ? argv[0] : "fasttts";
    auto parsed = fromArgv(argc, argv, defaults);
    if (parsed.ok() && parsed->helpRequested) {
        if (!description.empty())
            std::printf("%s\n\n", description.c_str());
        std::fputs(help(program).c_str(), stdout);
        std::exit(0);
    }
    Status status = parsed.ok() ? parsed->validate() : parsed.status();
    if (status.ok())
        status = parsed->rejectUnsupportedFlags(supported);
    if (!status.ok()) {
        std::fprintf(stderr, "%s: %s\n", program.c_str(),
                     status.toString().c_str());
        std::fprintf(stderr, "try '%s --help'\n", program.c_str());
        std::exit(2);
    }
    return *std::move(parsed);
}

} // namespace fasttts
