/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * Untraced (--trace 0), it serves the workload's whole ladder once per
 * pass, as many passes as fit in S seconds, and prints the end-to-end
 * metrics: simulated serving figures (deterministic for a seed) and the
 * simulator's own cost (wall time, set-up time, peak memory), each wall
 * figure the median over passes. Traced (--trace 1), it alternates
 * untraced passes with passes whose calls into the library are recorded
 * as spans, and prints the per-layer metrics. Every pass is checked for
 * conservation and determinism; any violation prints "correct": false
 * and exits 1. The last line of standard output is one JSON object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/online_server.h"
#include "core/serving.h"
#include "metrics/accuracy.h"
#include "metrics/request_metrics.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench
{
namespace
{

using fasttts::OnlineRequest;
using fasttts::OnlineRequestRecord;
using fasttts::OnlineServer;
using fasttts::OnlineServerOptions;
using fasttts::Problem;
using fasttts::RequestId;
using fasttts::RequestResult;
using fasttts::ServingOptions;
using fasttts::ServingSystem;

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
// A rung sustains its rate when this share of offered requests meets
// its deadline and its median episode drains (sustainMargin).
constexpr double kSloTarget = 0.9;
// Every stack is built this many times per pass and set-up is timed as
// the median build; the last build serves.
constexpr int kSetupBuilds = 5;
// Untimed serving before the first timed pass: a fresh process runs
// measurably slower for about its first second.
constexpr double kWarmupSeconds = 2.0;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

/** What serving one episode produced. Everything but the spans is
 *  simulated, hence identical on every pass of the same seed. */
struct EpisodeRun
{
    std::vector<OnlineRequestRecord> records; //!< Completed, in order.
    /** Engine result per record (same order): the closed loop reads it
     *  from ServingSystem::result(); online episodes of the headline
     *  rung get it from a solo replay (see replayHeadline). */
    std::vector<RequestResult> results;
    int offered = 0;
    int shed = 0;
    int failed = 0; //!< Fault-failed, timed out, cancelled or errored.
    long verifiedTokens = 0;
    long prefixHitTokens = 0;
    long reprefilledTokens = 0;
    long preemptEvictedTokens = 0;
    long offeredPromptTokens = 0;
    double makespan = 0;
    double lastArrival = 0;
    double utilization = 0;
    double occupancy = 0;
    double ledgerPeakFrac = 0;
    double kvBudgetGiB = 0;
    /** Wall seconds of each timed unit: every request of a closed loop,
     *  the one serveRequests call of an online episode. */
    std::vector<double> walls;
    double setupSeconds = 0; //!< Building the stack and problem set.
};

struct PassRun
{
    std::vector<std::vector<EpisodeRun>> rungs;
    double wallSeconds = 0; //!< Inside serve calls only.
    std::vector<std::string> errors;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return fasttts::ceilRankPercentile(values, p);
}

// ---------------------------------------------------------------------
// Serving one pass
// ---------------------------------------------------------------------

/** One client: each request is submitted when the previous completes. */
EpisodeRun
serveClosedLoop(ServingSystem &system, const Episode &episode,
                PassRun &pass)
{
    EpisodeRun run;
    run.offered = static_cast<int>(episode.requests.size());
    run.kvBudgetGiB = system.engine().kvBudgetBytes() / kGiB;
    double now = 0;
    const auto t0 = SteadyClock::now();
    for (const OnlineRequest &request : episode.requests) {
        const auto t_request = SteadyClock::now();
        const Problem &problem =
            system.problems()[static_cast<size_t>(request.problemId)];
        const int submit_span = tracer().open(kSpanSubmit, 0);
        const RequestId id = system.submit(problem);
        tracer().setRequest(submit_span, id);
        tracer().close(submit_span);
        bool more = true;
        while (more) {
            const ScopedSpan span(kSpanStep, id);
            more = static_cast<bool>(system.step());
        }
        const int result_span = tracer().open(kSpanResult, id);
        auto result = system.result(id);
        const fasttts::Status released = system.release(id);
        tracer().close(result_span);
        if (!result.ok() || !released.ok()) {
            ++run.failed;
            pass.errors.push_back(
                "request " + std::to_string(id) + ": "
                + (result.ok() ? released.message()
                               : result.status().message()));
            continue;
        }
        OnlineRequestRecord rec;
        rec.problemId = request.problemId;
        rec.arrival = now;
        rec.start = now;
        rec.finish = now + result->completionTime;
        rec.activeTime = result->completionTime;
        if (request.slo > 0)
            rec.deadline = now + request.slo;
        now = rec.finish;
        run.verifiedTokens += result->verifiedTokens;
        run.reprefilledTokens +=
            static_cast<long>(result->kvStats.reprefilledTokens);
        run.preemptEvictedTokens +=
            static_cast<long>(result->kvStats.preemptEvictedTokens);
        run.prefixHitTokens +=
            static_cast<long>(result->kvStats.prefixHitTokens);
        run.offeredPromptTokens += problem.promptTokens;
        run.records.push_back(rec);
        run.results.push_back(*std::move(result));
        run.walls.push_back(seconds(SteadyClock::now() - t_request));
    }
    pass.wallSeconds += seconds(SteadyClock::now() - t0);
    run.makespan = now;
    run.lastArrival = run.records.empty() ? 0 : run.records.back().arrival;
    // One request holds the whole device for its lifetime.
    run.utilization = now > 0 ? 1.0 : 0.0;
    run.occupancy = 1.0;
    return run;
}

/** An open-loop episode through OnlineServer::serveRequests. */
EpisodeRun
serveOpenLoop(OnlineServer &server, const Episode &episode, PassRun &pass)
{
    EpisodeRun run;
    run.offered = static_cast<int>(episode.requests.size());
    run.kvBudgetGiB = server.system().engine().kvBudgetBytes() / kGiB;
    const int span = tracer().open(kSpanServe, 0);
    const auto t0 = SteadyClock::now();
    auto out = server.serveRequests(episode.requests);
    run.walls.push_back(seconds(SteadyClock::now() - t0));
    pass.wallSeconds += run.walls.back();
    tracer().close(span);
    if (!out.ok()) {
        run.failed = run.offered;
        pass.errors.push_back("serveRequests: " + out.status().message());
        return run;
    }
    run.records = std::move(out->records);
    run.shed = out->shedRequests;
    run.failed = out->failedRequests + out->timeouts + out->cancelled;
    run.verifiedTokens = out->verifiedTokens;
    run.prefixHitTokens = out->prefixHitTokens;
    run.reprefilledTokens = out->reprefilledTokens;
    run.preemptEvictedTokens = out->preemptEvictedTokens;
    run.makespan = out->makespan;
    run.utilization = out->utilization;
    run.occupancy = out->batchOccupancy;
    run.ledgerPeakFrac = server.kvLedger().peakUsedBytes()
        / server.kvLedger().totalBytes();
    const auto &problems = server.system().problems();
    for (const OnlineRequest &request : episode.requests) {
        run.lastArrival = std::max(run.lastArrival, request.arrival);
        run.offeredPromptTokens += request.promptIds.empty()
            ? problems[static_cast<size_t>(request.problemId)].promptTokens
            : static_cast<long>(request.promptIds.size());
    }
    return run;
}

/** Run `build` kSetupBuilds times, return the last result and store
 *  the median build time in `build_seconds`. */
template <typename Build>
auto
timedBuild(Build build, double &build_seconds) -> decltype(build())
{
    std::vector<double> samples;
    for (int k = 1; k < kSetupBuilds; ++k) {
        const auto t0 = SteadyClock::now();
        const auto discarded = build();
        samples.push_back(seconds(SteadyClock::now() - t0));
    }
    const auto t0 = SteadyClock::now();
    auto built = build();
    samples.push_back(seconds(SteadyClock::now() - t0));
    build_seconds = median(samples);
    return built;
}

/** The stack an episode is served on; traced passes swap in the
 *  timing decorators, which behave exactly like what they wrap. */
ServingOptions
servingFor(const Episode &episode, bool traced)
{
    ServingOptions serving = episode.serving;
    if (traced)
        serving.algorithmName = kTimedBeamSearch;
    return serving;
}

OnlineServerOptions
serverFor(const Workload &w, bool traced)
{
    OnlineServerOptions online = w.server;
    if (traced)
        online.policy = kTimedEdf;
    return online;
}

PassRun
runPass(const Workload &w, bool traced)
{
    PassRun pass;
    tracer().clear();
    tracer().enabled = traced;
    pass.rungs.resize(w.rates.size());
    for (size_t r = 0; r < w.rates.size(); ++r) {
        for (int e = 0; e < w.episodesPerRung; ++e) {
            const Episode episode = makeEpisode(w, r, e);
            const ServingOptions serving = servingFor(episode, traced);
            double setup = 0;
            if (!w.online) {
                auto system = timedBuild(
                    [&] { return ServingSystem::create(serving); }, setup);
                if (!system.ok()) {
                    pass.errors.push_back(system.status().message());
                    continue;
                }
                pass.rungs[r].push_back(
                    serveClosedLoop(*system, episode, pass));
                pass.rungs[r].back().setupSeconds = setup;
            } else {
                const OnlineServerOptions online = serverFor(w, traced);
                auto server = timedBuild(
                    [&] { return OnlineServer::create(serving, online); },
                    setup);
                if (!server.ok()) {
                    pass.errors.push_back(server.status().message());
                    continue;
                }
                pass.rungs[r].push_back(
                    serveOpenLoop(*server, episode, pass));
                pass.rungs[r].back().setupSeconds = setup;
            }
        }
    }
    tracer().enabled = false;
    return pass;
}

/** Serve the workload untimed for kWarmupSeconds (see its comment). */
void
warmUp(const Workload &w)
{
    const auto until = SteadyClock::now()
        + std::chrono::duration_cast<SteadyClock::duration>(
            std::chrono::duration<double>(kWarmupSeconds));
    for (int e = 0; SteadyClock::now() < until;
         e = (e + 1) % w.episodesPerRung) {
        const Episode episode = makeEpisode(w, w.headline, e);
        if (w.online) {
            auto server = OnlineServer::create(episode.serving, w.server);
            if (!server.ok() || !server->serveRequests(episode.requests).ok())
                return;
            continue;
        }
        auto system = ServingSystem::create(episode.serving);
        if (!system.ok())
            return;
        for (const Problem &problem : system->problems()) {
            if (SteadyClock::now() >= until)
                return;
            (void)system->serve(problem);
        }
    }
}

/**
 * Solo replay of every completed request of the headline rung on a
 * plain ServingSystem, for the per-request content the online records
 * do not carry (verified tokens, answers, beam lengths). The engine's
 * search is algorithmically independent of batching, memory pressure
 * and timing, so the replay serves the same content; checkResults
 * holds the replayed verified-token total to the episode's own total.
 */
void
replayHeadline(const Workload &w, PassRun &pass)
{
    std::vector<EpisodeRun> &episodes = pass.rungs[w.headline];
    for (size_t e = 0; e < episodes.size(); ++e) {
        const Episode episode =
            makeEpisode(w, w.headline, static_cast<int>(e));
        ServingSystem solo = ServingSystem::create(episode.serving).value();
        EpisodeRun &run = episodes[e];
        run.results.clear();
        for (const OnlineRequestRecord &rec : run.records) {
            const OnlineRequest &request =
                episode.requests[static_cast<size_t>(rec.problemId)];
            Problem problem =
                solo.problems()[static_cast<size_t>(rec.problemId)];
            if (!request.promptIds.empty()) {
                problem.promptIds = request.promptIds;
                problem.promptTokens =
                    static_cast<int>(request.promptIds.size());
            }
            run.results.push_back(solo.serve(problem));
        }
    }
}

// ---------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------

/** Every simulated quantity of a pass, for exact comparison. */
std::vector<double>
signature(const PassRun &pass)
{
    std::vector<double> sig;
    for (const auto &rung : pass.rungs) {
        for (const EpisodeRun &run : rung) {
            for (const double v :
                 {static_cast<double>(run.offered),
                  static_cast<double>(run.records.size()),
                  static_cast<double>(run.shed),
                  static_cast<double>(run.failed),
                  static_cast<double>(run.verifiedTokens),
                  static_cast<double>(run.prefixHitTokens),
                  static_cast<double>(run.reprefilledTokens),
                  static_cast<double>(run.preemptEvictedTokens),
                  run.makespan, run.utilization, run.occupancy,
                  run.ledgerPeakFrac})
                sig.push_back(v);
            for (const OnlineRequestRecord &rec : run.records)
                for (const double v :
                     {static_cast<double>(rec.problemId), rec.arrival,
                      rec.start, rec.finish, rec.activeTime,
                      rec.deadline})
                    sig.push_back(v);
        }
    }
    return sig;
}

/** Engine content against what the episode served: verified paths no
 *  longer than the tokens generated, and the totals equal. */
void
checkResults(const PassRun &pass, std::vector<std::string> &violations)
{
    for (size_t r = 0; r < pass.rungs.size(); ++r) {
        for (size_t e = 0; e < pass.rungs[r].size(); ++e) {
            const EpisodeRun &run = pass.rungs[r][e];
            if (run.results.empty())
                continue;
            const std::string where = "rung " + std::to_string(r)
                + " episode " + std::to_string(e) + ": ";
            long verified = 0;
            for (const RequestResult &res : run.results) {
                verified += res.verifiedTokens;
                // Beams share prefixes, so the verified total may
                // exceed the generated total; no single path may.
                for (const auto &solution : res.solutions)
                    if (solution.tokens > res.generatedTokens)
                        violations.push_back(
                            where + "a verified path is longer than the "
                                    "tokens generated");
            }
            if (verified != run.verifiedTokens)
                violations.push_back(where + "replayed verified tokens "
                                     + std::to_string(verified)
                                     + " != served "
                                     + std::to_string(run.verifiedTokens));
        }
    }
}

/** Conservation and latency invariants of every episode. */
void
checkPass(const Workload &w, const PassRun &pass,
          std::vector<std::string> &violations)
{
    for (const std::string &error : pass.errors)
        violations.push_back("API error: " + error);
    for (size_t r = 0; r < pass.rungs.size(); ++r) {
        const auto &rung = pass.rungs[r];
        if (rung.size() != static_cast<size_t>(w.episodesPerRung))
            violations.push_back("rung " + std::to_string(r)
                                 + " is missing episodes");
        for (size_t e = 0; e < rung.size(); ++e) {
            const EpisodeRun &run = rung[e];
            const std::string where = "rung " + std::to_string(r)
                + " episode " + std::to_string(e) + ": ";
            const long accounted = static_cast<long>(run.records.size())
                + run.shed + run.failed;
            if (accounted != run.offered)
                violations.push_back(
                    where + "completed+shed+failed+timed out+cancelled = "
                    + std::to_string(accounted) + " but offered = "
                    + std::to_string(run.offered));
            for (const OnlineRequestRecord &rec : run.records)
                if (rec.latency() + 1e-9 * std::max(1.0, rec.latency())
                    < rec.activeTime)
                    violations.push_back(
                        where + "latency below active time for problem "
                        + std::to_string(rec.problemId));
        }
    }
    checkResults(pass, violations);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Metric
{
    const char *name;
    double value;
    const char *unit;
};
using Metrics = std::vector<Metric>;

bool
metDeadline(const OnlineRequestRecord &rec)
{
    return rec.finish <= rec.deadline;
}

struct RungSummary
{
    long offered = 0;
    long completed = 0;
    long met = 0;
    long shed = 0;
    int episodes = 0;
    int drained = 0; //!< Episodes that drained within one base SLO.
    double p50 = 0;
    double p99 = 0;

    [[nodiscard]] double
    attainment() const
    {
        return offered > 0 ? static_cast<double>(met) / offered : 0.0;
    }
};

RungSummary
summarize(const std::vector<EpisodeRun> &rung, double base_slo)
{
    RungSummary s;
    std::vector<double> latencies;
    for (const EpisodeRun &run : rung) {
        s.offered += run.offered;
        s.shed += run.shed;
        s.completed += static_cast<long>(run.records.size());
        for (const OnlineRequestRecord &rec : run.records) {
            latencies.push_back(rec.latency());
            s.met += metDeadline(rec) ? 1 : 0;
        }
        // A growing backlog shows as a trace that keeps serving long
        // after its last arrival.
        ++s.episodes;
        if (run.makespan - run.lastArrival <= base_slo)
            ++s.drained;
    }
    s.p50 = percentile(latencies, 0.50);
    s.p99 = percentile(latencies, 0.99);
    return s;
}

/**
 * How far a rung is inside its sustainable region: it sustains its rate
 * (margin >= 0) when kSloTarget of the offered requests meet their
 * deadline and at least half its episodes drain within one base SLO of
 * their last arrival. An episode whose server stalls on one request
 * sheds the rest of its requests, so stalls already count against the
 * attainment; the drain test catches backlog that builds without them.
 */
double
sustainMargin(const RungSummary &s)
{
    const double drained = s.episodes > 0
        ? static_cast<double>(s.drained) / s.episodes
        : 0.0;
    return std::min(s.attainment() - kSloTarget, drained - 0.5);
}

/** The end-to-end metrics; `pass` carries the headline results. */
Metrics
endToEnd(const Workload &w, const PassRun &pass, double wall_s,
         double setup_s, double peak_rss_mib)
{
    const std::vector<EpisodeRun> &head = pass.rungs[w.headline];
    const RungSummary s = summarize(head, w.baseSlo);

    double goodput = 0;
    double precise = 0;
    long correct = 0;
    for (const EpisodeRun &run : head) {
        long met_tokens = 0;
        for (size_t i = 0; i < run.records.size(); ++i) {
            const OnlineRequestRecord &rec = run.records[i];
            const RequestResult &res = run.results[i];
            if (metDeadline(rec))
                met_tokens += res.verifiedTokens;
            // Closed loop: the paper's Precise Goodput. Online records
            // carry no per-beam times, so the request's latency stands
            // in for the mean beam completion time.
            precise += w.online ? res.avgBeamTokens / rec.latency()
                                : res.preciseGoodput();
            correct += fasttts::top1Correct(res.solutions) ? 1 : 0;
        }
        if (run.makespan > 0)
            goodput += static_cast<double>(met_tokens) / run.makespan;
    }
    goodput /= static_cast<double>(std::max<size_t>(1, head.size()));
    const double completed = static_cast<double>(std::max(1L, s.completed));

    double max_rate = 0;
    if (w.online) {
        // Climb the ladder to the first rung that fails, then place
        // the limit between it and the last rung that sustained its
        // rate, linearly in the sustain margin.
        double prev_margin = 0;
        for (size_t r = 0; r < pass.rungs.size(); ++r) {
            const double margin =
                sustainMargin(summarize(pass.rungs[r], w.baseSlo));
            if (margin < 0) {
                if (r > 0)
                    max_rate += (w.rates[r] - w.rates[r - 1]) * prev_margin
                        / (prev_margin - margin);
                break;
            }
            max_rate = w.rates[r];
            prev_margin = margin;
        }
    } else {
        // One client sustains the rate its deadline-meeting completions
        // arrive at.
        const double makespan = head.empty() ? 0 : head[0].makespan;
        max_rate = makespan > 0 ? static_cast<double>(s.met) / makespan : 0;
    }

    long tokens = 0;
    for (const auto &rung : pass.rungs)
        for (const EpisodeRun &run : rung)
            tokens += run.verifiedTokens;

    return {
        {"latency_p50_s", s.p50, "sim_s"},
        {"latency_p99_s", s.p99, "sim_s"},
        {"slo_attainment", s.attainment(), "fraction"},
        {"goodput_tok_s", goodput, "tok/sim_s"},
        {"max_rate_at_slo_rps", max_rate, "req/sim_s"},
        {"precise_goodput_tok_s", precise / completed, "tok/sim_s"},
        {"accuracy_top1", 100.0 * static_cast<double>(correct) / completed,
         "%"},
        {"completed_fraction",
         s.offered > 0 ? static_cast<double>(s.completed) / s.offered : 0,
         "fraction"},
        {"wall_s", wall_s, "s"},
        {"sim_tokens_per_s",
         wall_s > 0 ? static_cast<double>(tokens) / wall_s : 0, "tok/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", peak_rss_mib, "MiB"},
    };
}

/** Per-layer metrics of one traced pass (spans still in tracer()). */
Metrics
perLayer(const Workload &w, const PassRun &pass, double overhead_frac)
{
    std::vector<double> step_us;
    double step_self = 0;
    double select_wall = 0;
    double pick_wall = 0;
    double serve_self = 0;
    long selects = 0;
    long picks = 0;
    const std::vector<Span> &spans = tracer().spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const std::string name = spans[i].name;
        const double dur = seconds(spans[i].end - spans[i].start);
        if (name == kSpanStep) {
            step_us.push_back(1e6 * dur);
            step_self += tracer().selfSeconds(i);
        } else if (name == kSpanSelect) {
            ++selects;
            select_wall += dur;
        } else if (name == kSpanPick) {
            ++picks;
            pick_wall += dur;
        } else if (name == kSpanServe) {
            serve_self += tracer().selfSeconds(i);
        }
    }

    const std::vector<EpisodeRun> &head = pass.rungs[w.headline];
    double generator = 0;
    double verifier = 0;
    double speculative = 0;
    double wasted = 0;
    double generated = 0;
    double verified = 0;
    double hits = 0;
    double touched = 0;
    double evicted = 0;
    for (const EpisodeRun &run : head) {
        for (const RequestResult &res : run.results) {
            generator += res.generatorTime;
            verifier += res.verifierTime;
            speculative += static_cast<double>(res.speculativeTokens);
            wasted += static_cast<double>(res.wastedSpecTokens);
            generated += static_cast<double>(res.generatedTokens);
            verified += static_cast<double>(res.verifiedTokens);
            hits += static_cast<double>(res.kvStats.hitTokens);
            touched += static_cast<double>(res.kvStats.hitTokens
                                           + res.kvStats.missTokens);
            evicted += static_cast<double>(res.kvStats.evictedTokens);
        }
    }

    double active_max = 0;
    for (const auto &rung : pass.rungs)
        for (const EpisodeRun &run : rung)
            for (const OnlineRequestRecord &rec : run.records)
                active_max = std::max(active_max, rec.activeTime);

    std::vector<double> waits;
    double idle = 0;
    long shed = 0;
    long reprefilled = 0;
    long preempt_evicted = 0;
    long prefix_hits = 0;
    long prompt_tokens = 0;
    double utilization = 0;
    double occupancy = 0;
    double ledger_peak = 0;
    for (const EpisodeRun &run : head) {
        for (const OnlineRequestRecord &rec : run.records) {
            waits.push_back(rec.queueDelay());
            idle += rec.serviceTime() - rec.activeTime;
        }
        shed += run.shed;
        reprefilled += run.reprefilledTokens;
        preempt_evicted += run.preemptEvictedTokens;
        prefix_hits += run.prefixHitTokens;
        prompt_tokens += run.offeredPromptTokens;
        utilization += run.utilization;
        occupancy += run.occupancy;
        ledger_peak = std::max(ledger_peak, run.ledgerPeakFrac);
    }
    const double episodes =
        static_cast<double>(std::max<size_t>(1, head.size()));
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    return {
        {"engine.step_wall_us.p50", percentile(step_us, 0.50), "us"},
        {"engine.step_wall_us.p99", percentile(step_us, 0.99), "us"},
        {"engine.steps", static_cast<double>(step_us.size()), "count"},
        {"engine.step_self_wall_s", step_self, "s"},
        {"engine.generator_s", generator, "sim_s"},
        {"engine.verifier_s", verifier, "sim_s"},
        {"engine.spec_useful_ratio",
         speculative > 0 ? 1.0 - wasted / speculative : 0.0, "fraction"},
        {"engine.verified_per_generated", ratio(verified, generated), "ratio"},
        {"engine.active_s.max", active_max, "sim_s"},
        {"search.select_calls", static_cast<double>(selects), "count"},
        {"search.select_wall_s", select_wall, "s"},
        {"queue_policy.pick_calls", static_cast<double>(picks), "count"},
        {"queue_policy.pick_wall_s", pick_wall, "s"},
        {"online_server.queue_wait_s.p50", percentile(waits, 0.50), "sim_s"},
        {"online_server.queue_wait_s.p99", percentile(waits, 0.99), "sim_s"},
        {"online_server.shed", static_cast<double>(shed), "count"},
        {"online_server.inflight_idle_s",
         ratio(idle, static_cast<double>(waits.size())), "sim_s"},
        {"online_server.utilization", utilization / episodes, "fraction"},
        {"online_server.serve_self_wall_s", serve_self, "s"},
        {"batch_scheduler.occupancy", occupancy / episodes, "requests"},
        {"kv_cache.hit_rate", ratio(hits, touched), "fraction"},
        {"kv_cache.evicted_tokens", evicted, "tokens"},
        {"kv_cache.reprefilled_tokens", static_cast<double>(reprefilled),
         "tokens"},
        {"kv_session.ledger_peak_frac", ledger_peak, "fraction"},
        {"kv_session.preempt_evicted_tokens",
         static_cast<double>(preempt_evicted), "tokens"},
        {"prefix_index.hit_fraction",
         ratio(static_cast<double>(prefix_hits),
               static_cast<double>(prompt_tokens)), "fraction"},
        {"memory_planner.kv_budget_gib",
         head.empty() ? 0.0 : head[0].kvBudgetGiB, "GiB"},
        {"trace.overhead_frac", overhead_frac, "fraction"},
    };
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void
printRungs(const Workload &w, const PassRun &pass)
{
    for (size_t r = 0; r < pass.rungs.size(); ++r) {
        const RungSummary s = summarize(pass.rungs[r], w.baseSlo);
        double active_max = 0;
        for (const EpisodeRun &run : pass.rungs[r])
            for (const OnlineRequestRecord &rec : run.records)
                active_max = std::max(active_max, rec.activeTime);
        std::printf("  rung %zu%s rate=%.3f req/sim_s offered=%ld "
                    "completed=%ld shed=%ld slo_attainment=%.4f "
                    "drained=%d/%d margin=%+.4f p50=%.2f p99=%.2f "
                    "max_active=%.1f\n",
                    r, r == w.headline ? "*" : " ", w.rates[r], s.offered,
                    s.completed, s.shed, s.attainment(), s.drained,
                    s.episodes, sustainMargin(s), s.p50, s.p99, active_max);
    }
}

void
printResult(bool correct, long attempted, long failed,
            const Metrics &metrics)
{
    fasttts::Json values = fasttts::Json::object();
    for (const Metric &metric : metrics) {
        fasttts::Json entry = fasttts::Json::object();
        entry.set("value", metric.value);
        entry.set("unit", metric.unit);
        values.set(metric.name, std::move(entry));
    }
    fasttts::Json out = fasttts::Json::object();
    out.set("correct", correct);
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("metrics", std::move(values));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
}

double
peakRssMiB()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 message);
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (!(args.seconds > 0))
                return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            args.trace = value == "1";
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty();
}

/**
 * Wall and set-up samples per timed unit across passes. A pass's wall
 * or set-up time is the sum over its units of each unit's median, so a
 * unit that met a burst of interference from the rest of the machine
 * in one pass does not move the total.
 */
struct WallSamples
{
    std::vector<std::vector<double>> walls;  //!< Per unit, per pass.
    std::vector<std::vector<double>> setups; //!< Per episode, per pass.
    std::vector<double> passes; //!< Whole-pass wall totals, for the log.

    void
    add(const PassRun &pass)
    {
        size_t u = 0;
        size_t e = 0;
        for (const auto &rung : pass.rungs) {
            for (const EpisodeRun &run : rung) {
                for (const double wall : run.walls)
                    sample(walls, u++, wall);
                sample(setups, e++, run.setupSeconds);
            }
        }
        passes.push_back(pass.wallSeconds);
    }

    [[nodiscard]] static double
    sumOfMedians(const std::vector<std::vector<double>> &units)
    {
        double sum = 0;
        for (const std::vector<double> &samples : units)
            sum += median(samples);
        return sum;
    }

  private:
    static void
    sample(std::vector<std::vector<double>> &units, size_t index,
           double value)
    {
        if (index == units.size())
            units.emplace_back();
        units[index].push_back(value);
    }
};

struct Tally
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> violations;
    std::vector<double> reference; //!< Signature of the first pass.

    void
    add(const Workload &w, const PassRun &pass, const char *label)
    {
        for (const auto &rung : pass.rungs)
            for (const EpisodeRun &run : rung) {
                attempted += run.offered;
                failed += run.failed;
            }
        checkPass(w, pass, violations);
        std::vector<double> sig = signature(pass);
        if (reference.empty())
            reference = std::move(sig);
        else if (sig != reference)
            violations.push_back(std::string("a ") + label
                                 + " pass simulated differently from the "
                                   "first pass");
    }
};

int
run(const Args &args)
{
    auto workload = makeWorkload(args.workload, args.seed);
    if (!workload.ok())
        return usage(workload.status().message().c_str());
    const Workload &w = *workload;
    registerTimingDecorators();
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0);

    Tally tally;
    const auto deadline = SteadyClock::now()
        + std::chrono::duration_cast<SteadyClock::duration>(
            std::chrono::duration<double>(args.seconds));

    warmUp(w);
    if (!args.trace) {
        WallSamples walls;
        PassRun first;
        do {
            PassRun pass = runPass(w, false);
            walls.add(pass);
            tally.add(w, pass, "repeated");
            if (walls.passes.size() == 1)
                first = std::move(pass);
        } while (SteadyClock::now() < deadline);
        if (w.online) {
            replayHeadline(w, first);
            checkResults(first, tally.violations);
        }
        printRungs(w, first);
        std::printf("  passes=%zu wall_s:", walls.passes.size());
        for (const double wall : walls.passes)
            std::printf(" %.4f", wall);
        std::printf("\n");
        const Metrics metrics =
            endToEnd(w, first, WallSamples::sumOfMedians(walls.walls),
                     WallSamples::sumOfMedians(walls.setups), peakRssMiB());
        for (const std::string &v : tally.violations)
            std::fprintf(stderr, "violation: %s\n", v.c_str());
        printResult(tally.violations.empty(), tally.attempted, tally.failed,
                    metrics);
        return tally.violations.empty() ? 0 : 1;
    }

    // Traced: alternate untraced and traced passes so both see the same
    // machine state; their simulated results must be identical.
    WallSamples untraced;
    WallSamples traced;
    PassRun last_traced;
    do {
        PassRun plain = runPass(w, false);
        untraced.add(plain);
        tally.add(w, plain, "untraced");
        last_traced = runPass(w, true);
        traced.add(last_traced);
        tally.add(w, last_traced, "traced");
    } while (SteadyClock::now() < deadline);
    printRungs(w, last_traced);
    std::printf("  pass pairs=%zu spans=%zu\n", traced.passes.size(),
                tracer().spans().size());
    const double base = WallSamples::sumOfMedians(untraced.walls);
    const double with_spans = WallSamples::sumOfMedians(traced.walls);
    const Metrics metrics = perLayer(
        w, last_traced, base > 0 ? (with_spans - base) / base : 0.0);
    if (!args.traceOut.empty()
        && !tracer().writeChromeTrace(args.traceOut))
        tally.violations.push_back("cannot write " + args.traceOut);
    for (const std::string &v : tally.violations)
        std::fprintf(stderr, "violation: %s\n", v.c_str());
    printResult(tally.violations.empty(), tally.attempted, tally.failed,
                metrics);
    return tally.violations.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args;
    if (!perfbench::parseArgs(argc, argv, args))
        return perfbench::usage("bad arguments");
    return perfbench::run(args);
}
