#include "workloads.h"

#include <algorithm>
#include <iterator>

#include "util/rng.h"

namespace perfbench
{

using fasttts::OnlineRequest;
using fasttts::Rng;
using fasttts::ServingOptions;
using fasttts::ServingSystem;
using fasttts::Status;
using fasttts::StatusOr;

namespace
{

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

// Requests carry tiered multiples of the workload's base SLO: a
// uniform budget would make EDF collapse to arrival order.
constexpr double kSloTiers[] = {0.75, 1.5, 3.0, 6.0};

// --- tts_serial_wide: the paper's batch-size-1 edge deployment. ---
// 1,000 requests put exactly ten samples beyond the ceil-rank p99.
constexpr int kSerialRequests = 1000;
constexpr int kSerialBeams = 256;
constexpr double kSerialBaseSlo = 120.0; // ~1.5x the median latency.

// --- online_bursty / sessions_long_context: one server shape. ---
constexpr int kOnlineBeams = 16;
constexpr int kOnlineInflight = 8;
// Each rung pools short independent episodes, so a request that stalls
// its server costs only its own episode's requests instead of the rest
// of the rung's trace.
constexpr int kEpisodesPerRung = 60;
constexpr int kRequestsPerEpisode = 50;

constexpr double kBurstyRates[] = {0.06, 0.09, 0.12, 0.15, 0.18, 0.21};
constexpr size_t kBurstyHeadline = 2; // 0.12 req/s.
constexpr double kBurstyBaseSlo = 40.0;

constexpr double kSessionRates[] = {0.03, 0.04, 0.05, 0.06,
                                     0.07, 0.08, 0.09};
constexpr size_t kSessionHeadline = 0; // 0.03 req/s.
constexpr double kSessionBaseSlo = 90.0;
constexpr int kSessionSlots = 8;       // Concurrently open sessions.
constexpr int kContextTokens = 4096;   // Local context per session.
constexpr int kTurnGrowthTokens = 128; // Appended by every turn.
constexpr int kTurnsPerSession = 8;    // Then the slot opens a new one.

// Seed streams, so every input draws from its own generator.
constexpr uint64_t kProblemStream = 0x9b0b;
constexpr uint64_t kArrivalStream = 0xa77e;
constexpr uint64_t kSessionStream = 0x5e55;

ServingOptions
servingOptions(const std::string &dataset, int beams, int problems,
               uint64_t seed)
{
    ServingOptions options;
    options.datasetName = dataset;
    options.numBeams = beams;
    options.problemCount = problems;
    options.seed = seed;
    return options;
}

double
tieredSlo(double base, size_t index)
{
    return base * kSloTiers[index % std::size(kSloTiers)];
}

/**
 * The server configuration both online workloads share: EDF with
 * doomed-request shedding, continuous batching with 8 in flight, the
 * wave budget from the README's sizing rule (in flight x beams x
 * expected step tokens) and the engine's whole device KV budget as the
 * shared ledger, prefix cache on. Host tier and faults stay off.
 */
StatusOr<Workload>
onlineWorkload(const std::string &name, uint64_t seed)
{
    auto probe = ServingSystem::create(
        servingOptions("AMC", kOnlineBeams, 1, seed));
    if (!probe.ok())
        return probe.status();
    Workload w;
    w.name = name;
    w.seed = seed;
    w.online = true;
    w.episodesPerRung = kEpisodesPerRung;
    w.server.policy = "edf";
    w.server.shedDoomed = true;
    w.server.batching = "continuous";
    w.server.maxInflight = kOnlineInflight;
    w.server.maxBatchedTokens = kOnlineInflight * kOnlineBeams
        * std::max(1, static_cast<int>(
                          probe->engine().expectedStepTokens() + 1));
    w.server.kvBudgetGiB = probe->engine().kvBudgetBytes() / kGiB;
    w.server.prefixCache = "on";
    return w;
}

/** Position-keyed prompt ids: equal within a session, disjoint across
 *  sessions, so turn k's prompt prefix-extends turn k-1's. */
std::vector<int32_t>
sessionPrompt(int session, int tokens)
{
    std::vector<int32_t> ids;
    ids.reserve(static_cast<size_t>(tokens));
    for (int j = 0; j < tokens; ++j)
        ids.push_back(static_cast<int32_t>(
            ((static_cast<int64_t>(session) + 1) * 1000003 + j)
            & 0x7FFFFFFF));
    return ids;
}

/**
 * Multi-turn sessions over a local context: each of kSessionSlots slots
 * holds an open session, picked with zipfian popularity. A session's
 * first prompt is its kContextTokens-token context; every later turn
 * appends kTurnGrowthTokens. After kTurnsPerSession turns the slot
 * opens a fresh session with a new context.
 */
void
assignSessionPrompts(std::vector<OnlineRequest> &requests, uint64_t seed)
{
    std::vector<double> weights;
    for (int s = 0; s < kSessionSlots; ++s)
        weights.push_back(1.0 / static_cast<double>(s + 1));
    std::vector<int> session(kSessionSlots);
    std::vector<int> turns(kSessionSlots, 0);
    for (int s = 0; s < kSessionSlots; ++s)
        session[static_cast<size_t>(s)] = s;
    int next_session = kSessionSlots;
    Rng pick(seed);
    for (OnlineRequest &request : requests) {
        const auto slot = static_cast<size_t>(pick.categorical(weights));
        if (turns[slot] == kTurnsPerSession) {
            session[slot] = next_session++;
            turns[slot] = 0;
        }
        const int turn = ++turns[slot];
        request.promptIds = sessionPrompt(
            session[slot], kContextTokens + (turn - 1) * kTurnGrowthTokens);
    }
}

uint64_t
episodeSeed(const Workload &workload, int episode)
{
    return Rng::mix(workload.seed, static_cast<uint64_t>(episode));
}

/** The stack an episode is served on (the same on every rung). */
ServingOptions
episodeServing(const Workload &workload, int episode)
{
    if (!workload.online)
        return servingOptions("AIME", kSerialBeams, kSerialRequests,
                              Rng::mix(workload.seed, kProblemStream));
    return servingOptions("AMC", kOnlineBeams, kRequestsPerEpisode,
                          Rng::mix(episodeSeed(workload, episode),
                                   kProblemStream));
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "tts_serial_wide", "online_bursty", "sessions_long_context"};
    return names;
}

StatusOr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "tts_serial_wide") {
        Workload w;
        w.name = name;
        w.seed = seed;
        w.baseSlo = kSerialBaseSlo;
        w.rates = {0.0};
        return w;
    }
    if (name == "online_bursty") {
        auto w = onlineWorkload(name, seed);
        if (w.ok()) {
            w->baseSlo = kBurstyBaseSlo;
            w->rates.assign(std::begin(kBurstyRates), std::end(kBurstyRates));
            w->headline = kBurstyHeadline;
        }
        return w;
    }
    if (name == "sessions_long_context") {
        auto w = onlineWorkload(name, seed);
        if (w.ok()) {
            w->baseSlo = kSessionBaseSlo;
            w->rates.assign(std::begin(kSessionRates),
                            std::end(kSessionRates));
            w->headline = kSessionHeadline;
        }
        return w;
    }
    std::string message = "unknown workload '" + name + "'; valid:";
    for (const std::string &known : workloadNames())
        message += " " + known;
    return Status::invalidArgument(message);
}

Episode
makeEpisode(const Workload &workload, size_t rung, int episode)
{
    Episode out;
    out.serving = episodeServing(workload, episode);
    if (!workload.online) {
        for (int i = 0; i < kSerialRequests; ++i) {
            OnlineRequest request;
            request.problemId = i;
            request.slo =
                tieredSlo(workload.baseSlo, static_cast<size_t>(i));
            out.requests.push_back(std::move(request));
        }
        return out;
    }

    // Every rung replays the same episode seeds with gaps scaled to its
    // rate, so rungs differ only in offered load. Each request asks a
    // distinct AMC problem, so no prompt repeats unless a session
    // prompt is assigned below.
    const uint64_t seed = episodeSeed(workload, episode);
    const double rate = workload.rates[rung];
    const uint64_t arrival_seed = Rng::mix(seed, kArrivalStream);
    const bool sessions = workload.name == "sessions_long_context";
    const std::vector<double> arrivals = sessions
        ? fasttts::poissonArrivalTrace(kRequestsPerEpisode, rate,
                                       arrival_seed)
        : fasttts::burstyArrivalTrace(kRequestsPerEpisode, rate,
                                      arrival_seed);
    for (int i = 0; i < kRequestsPerEpisode; ++i) {
        OnlineRequest request;
        request.problemId = i;
        request.arrival = arrivals[static_cast<size_t>(i)];
        request.slo = tieredSlo(workload.baseSlo, static_cast<size_t>(i));
        out.requests.push_back(std::move(request));
    }
    if (sessions)
        assignSessionPrompts(out.requests, Rng::mix(seed, kSessionStream));
    return out;
}

} // namespace perfbench
