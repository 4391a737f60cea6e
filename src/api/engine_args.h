/**
 * @file
 * EngineArgs: flat, string-friendly serving configuration.
 *
 * The vLLM-style front door of the library: every knob a CLI flag or
 * JSON key away, with full validation against the registries and an
 * explicit conversion into ServingOptions. The bench binaries and
 * examples all parse their command line through fromArgv() (so they
 * share one flag vocabulary and a --help that prints the registry
 * contents), and services embedding the library can load the same
 * configuration from a JSON document via fromJson().
 *
 * Each flag is declared once, as one row of the flag table in
 * engine_args.cc: its --name, JSON key, field, integer range and help
 * lines. fromArgv(), fromJson(), help() and parseOrExit()'s
 * every-flag list all iterate that table. The online-serving knobs
 * are not re-declared here: they live in the embedded
 * OnlineServerOptions `online` (defaults, meaning and checks in
 * core/online_server.h), which validate() checks through
 * OnlineServerOptions::validate() and OnlineServer::create() takes
 * as-is. Their flags and JSON keys stay flat (--policy,
 * "max_inflight", ...).
 *
 *   EngineArgs defaults;
 *   defaults.dataset = "AMC";
 *   defaults.online.maxInflight = 4;
 *   const EngineArgs args =
 *       EngineArgs::parseOrExit(argc, argv, defaults, "my tool");
 *   auto server = OnlineServer::create(
 *       args.toServingOptions().value(), args.online);
 */

#ifndef FASTTTS_API_ENGINE_ARGS_H
#define FASTTTS_API_ENGINE_ARGS_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/status.h"
#include "core/online_server.h"
#include "core/serving.h"

namespace fasttts
{

class Json;

/**
 * One serving configuration in string-friendly form. Every knob maps
 * 1:1 to a CLI flag and a JSON key; names are resolved through the
 * registries only at validate()/toServingOptions() time, so custom
 * registrations made before parsing are honoured.
 */
struct EngineArgs
{
    std::string device = "RTX4090";       //!< --device / "device"
    std::string dataset = "AIME";         //!< --dataset / "dataset"
    std::string algorithm = "beam_search"; //!< --algorithm / "algorithm"
    std::string models = "1.5B+1.5B";     //!< --models / "models"
    std::string mode = "fasttts";  //!< --mode: "fasttts" | "baseline"
    int numBeams = 32;        //!< --beams / "num_beams"
    int branchFactor = 4;     //!< --branch-factor / "branch_factor"
    int numProblems = 8;      //!< --problems / "num_problems"
    uint64_t seed = 2026;     //!< --seed / "seed"
    bool offload = false;     //!< --offload / "offload" (Sec. 4.3.2)
    double memoryFraction = 0;  //!< --memory-fraction; 0 keeps the
                                //!< model configuration's default.
    double reservedGiB = -1;    //!< --reserved-gib; negative keeps the
                                //!< engine default.

    std::string arrivals = "poisson"; //!< --arrivals / "arrivals":
                                      //!< the tools' arrival process,
                                      //!< 'poisson' or 'bursty'.

    /** The OnlineServer knobs: every flag from --policy to
     *  --request-timeout except --arrivals. */
    OnlineServerOptions online;

    bool helpRequested = false; //!< --help seen; see parseOrExit().

    /**
     * Canonical names of the flags the command line explicitly set
     * ("--problems", "--dataset", ...). Lets tools with figure-fixed
     * configurations reject flags they would otherwise silently
     * ignore.
     */
    std::vector<std::string> parsedFlags;

    /**
     * Parse a command line on top of the given defaults. Recognised
     * flags are listed by help(); "--flag value" and "--flag=value"
     * both work. Bare positional arguments (the pre-PR-2 bench CLI
     * form) are rejected with kInvalidArgument after their
     * one-release deprecation window. Syntax and number-format errors
     * are kInvalidArgument; names are NOT resolved here (call
     * validate()).
     */
    static StatusOr<EngineArgs> fromArgv(int argc, const char *const *argv,
                                         const EngineArgs &defaults);

    static StatusOr<EngineArgs> fromArgv(int argc,
                                         const char *const *argv);

    /**
     * Load from a JSON object on top of the given defaults. Keys are
     * the flag names in snake_case, with a num_ prefix or a unit
     * suffix where the flag has none ("num_beams", "kv_budget_gib",
     * "host_bandwidth_gbs"); unknown keys and type mismatches are
     * kInvalidArgument.
     */
    static StatusOr<EngineArgs> fromJson(const Json &doc,
                                         const EngineArgs &defaults);

    /** Parse a JSON document text, then load as above. */
    static StatusOr<EngineArgs> fromJsonText(const std::string &text,
                                             const EngineArgs &defaults);

    static StatusOr<EngineArgs> fromJsonText(const std::string &text);

    /**
     * Full validation: every name must exist in its registry, numeric
     * fields must be in range, mode must be "fasttts" or "baseline",
     * and `online` must pass OnlineServerOptions::validate().
     */
    Status validate() const;

    /** Validate, then build the equivalent ServingOptions; pair with
     *  `online` for OnlineServer::create(). */
    StatusOr<ServingOptions> toServingOptions() const;

    /**
     * kInvalidArgument when the command line explicitly set a flag
     * outside the supported set — for tools whose configuration is
     * (partly) fixed, so an ignored flag is an error rather than a
     * silently wrong run.
     */
    Status
    rejectUnsupportedFlags(const std::vector<std::string> &supported) const;

    /**
     * Whether the command line explicitly set
     * the given canonical flag ("--slo", "--problems", ...). Lets
     * tools distinguish "left at default" from "explicitly set to the
     * default value" (e.g. --slo 0 meaning "disable SLOs").
     */
    [[nodiscard]] bool wasSet(const std::string &flag) const;

    /**
     * The flag reference plus the current registry contents (devices,
     * datasets, algorithms, model configs) — the discoverability
     * surface of the CLI.
     */
    [[nodiscard]] static std::string help(const std::string &program);

    /** Just the registered-names block of help() (shared by tools
     *  with their own usage text, e.g. bench_runner). */
    [[nodiscard]] static std::string registryListing();

    /**
     * fromArgv + validate for command-line tools: prints help and
     * exits 0 on --help, prints the error and exits 2 on bad input,
     * otherwise returns the validated arguments.
     * @param description One-line tool description printed atop help.
     */
    [[nodiscard]] static EngineArgs
    parseOrExit(int argc, const char *const *argv,
                const EngineArgs &defaults,
                const std::string &description);

    /**
     * As above, but additionally rejects explicitly-set flags outside
     * `supported` (pass {} for a tool with a fully fixed
     * configuration that only takes --help).
     */
    [[nodiscard]] static EngineArgs
    parseOrExit(int argc, const char *const *argv,
                const EngineArgs &defaults,
                const std::string &description,
                const std::vector<std::string> &supported);
};

} // namespace fasttts

#endif // FASTTTS_API_ENGINE_ARGS_H
