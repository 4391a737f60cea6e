#include "core/online_server.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "util/rng.h"
#include "util/units.h"

namespace fasttts
{

namespace
{

/** Preemption modes of OnlineServerOptions::preempt. */
enum class PreemptMode { Off, Slice, Policy };

/** Parse a preempt-mode name; nullopt-style via ok flag. */
bool
parsePreemptMode(const std::string &name, PreemptMode *mode)
{
    if (name == "off")
        *mode = PreemptMode::Off;
    else if (name == "slice")
        *mode = PreemptMode::Slice;
    else if (name == "policy")
        *mode = PreemptMode::Policy;
    else
        return false;
    return true;
}

/**
 * Rolling fault-rate window driving graceful degradation. Every
 * wave-step probe outcome (fault or clean) is recorded; when the rate
 * over the last kWindow probes crosses kEnter (with at least
 * kMinSamples observed, so one early fault cannot trip it) the server
 * degrades — speculation off, admission halved — and it recovers only
 * when the rate falls below kExit. The enter/exit gap is hysteresis:
 * without it a rate hovering at the threshold would toggle the engine
 * mode every few waves.
 */
class DegradeTracker
{
  public:
    void record(bool fault)
    {
        if (count_ == kWindow)
            faults_ -= window_[head_] ? 1 : 0;
        else
            ++count_;
        window_[head_] = fault;
        faults_ += fault ? 1 : 0;
        head_ = (head_ + 1) % kWindow;
    }

    /** Re-evaluate the degraded state after a batch of record()s. */
    bool update()
    {
        const double rate = count_ > 0
            ? static_cast<double>(faults_) / count_
            : 0.0;
        if (!degraded_ && count_ >= kMinSamples && rate >= kEnter)
            degraded_ = true;
        else if (degraded_ && rate < kExit)
            degraded_ = false;
        return degraded_;
    }

    [[nodiscard]] bool degraded() const { return degraded_; }

    static constexpr int kWindow = 64;
    static constexpr int kMinSamples = 32;
    static constexpr double kEnter = 0.03;
    static constexpr double kExit = 0.015;

  private:
    bool window_[kWindow] = {};
    int head_ = 0;
    int count_ = 0;
    int faults_ = 0;
    bool degraded_ = false;
};

} // namespace

OnlineServer::OnlineServer(ServingSystem system,
                           std::unique_ptr<KvBudgetLedger> ledger,
                           std::unique_ptr<HostKvTier> tier,
                           std::unique_ptr<FaultInjector> faults,
                           OnlineServerOptions online,
                           std::unique_ptr<QueuePolicy> policy,
                           RooflineModel roofline, DatasetProfile profile)
    : faults_(std::move(faults)), ledger_(std::move(ledger)),
      hostTier_(std::move(tier)), system_(std::move(system)),
      online_(std::move(online)), policy_(std::move(policy)),
      roofline_(std::move(roofline)), profile_(std::move(profile))
{
}

StatusOr<OnlineServer>
OnlineServer::create(const ServingOptions &options)
{
    return create(options, OnlineServerOptions());
}

StatusOr<OnlineServer>
OnlineServer::create(const ServingOptions &options,
                     const OnlineServerOptions &online)
{
    if (online.maxInflight < 1 || online.maxInflight > 64)
        return Status::invalidArgument(
            "max_inflight must be in [1, 64], got "
            + std::to_string(online.maxInflight));
    if (!(online.slo >= 0) || !std::isfinite(online.slo))
        return Status::invalidArgument("slo must be >= 0 seconds");
    PreemptMode mode;
    if (!parsePreemptMode(online.preempt, &mode))
        return Status::invalidArgument(
            "unknown preempt mode '" + online.preempt
            + "'; valid modes: off, slice, policy");
    if (!(online.kvBudgetGiB >= 0) || !std::isfinite(online.kvBudgetGiB))
        return Status::invalidArgument(
            "kv_budget must be >= 0 GiB (0 keeps the legacy "
            "per-slot accounting)");
    if (online.kvTier != "off" && online.kvTier != "host")
        return Status::invalidArgument(
            "unknown kv-tier mode '" + online.kvTier
            + "'; valid modes: off, host");
    if (!(online.hostKvBudgetGiB >= 0)
        || !std::isfinite(online.hostKvBudgetGiB))
        return Status::invalidArgument(
            "host_kv_budget must be >= 0 GiB (0 defaults to twice "
            "the device KV budget)");
    if (!(online.hostBandwidthGBs > 0)
        || !std::isfinite(online.hostBandwidthGBs))
        return Status::invalidArgument(
            "host_bandwidth must be a positive, finite GB/s figure");
    if (online.victimSelect != "admission"
        && online.victimSelect != "cost")
        return Status::invalidArgument(
            "unknown victim-select mode '" + online.victimSelect
            + "'; valid modes: admission, cost");
    if (online.batching != "off" && online.batching != "continuous")
        return Status::invalidArgument(
            "unknown batching mode '" + online.batching
            + "'; valid modes: off, continuous");
    if (online.maxBatchedTokens < 1)
        return Status::invalidArgument(
            "max_batched_tokens must be >= 1, got "
            + std::to_string(online.maxBatchedTokens));
    if (online.prefillChunk < 1)
        return Status::invalidArgument(
            "prefill_chunk must be >= 1, got "
            + std::to_string(online.prefillChunk));
    if (online.prefixCache != "off" && online.prefixCache != "on")
        return Status::invalidArgument(
            "unknown prefix-cache mode '" + online.prefixCache
            + "'; valid modes: off, on");
    if (!(online.prefixCacheBudgetGiB >= 0)
        || !std::isfinite(online.prefixCacheBudgetGiB))
        return Status::invalidArgument(
            "prefix_cache_budget must be >= 0 GiB (0 defaults to "
            "1/8 of the shared KV budget)");
    if (online.faults != "off" && online.faults != "plan")
        return Status::invalidArgument(
            "unknown faults mode '" + online.faults
            + "'; valid modes: off, plan");
    if (online.retryMax < 0 || online.retryMax > 16)
        return Status::invalidArgument(
            "retry_max must be in [0, 16], got "
            + std::to_string(online.retryMax));
    if (!(online.retryBackoff >= 0) || !std::isfinite(online.retryBackoff))
        return Status::invalidArgument(
            "retry_backoff must be >= 0 seconds");
    if (!(online.requestTimeout >= 0)
        || !std::isfinite(online.requestTimeout))
        return Status::invalidArgument(
            "request_timeout must be >= 0 seconds (0 disables the "
            "watchdog)");
    FaultPlan fault_plan;
    if (online.faults == "plan") {
        if (online.faultPlan.empty())
            return Status::invalidArgument(
                "faults=plan requires a fault-plan JSON schedule "
                "(--fault-plan)");
        auto parsed = FaultPlan::fromJsonText(online.faultPlan);
        if (!parsed.ok())
            return parsed.status();
        fault_plan = *std::move(parsed);
    }

    auto policy = makeQueuePolicy(online.policy);
    if (!policy.ok())
        return policy.status();

    // ONE serving system — engine, device, KV — shared by every
    // in-flight request; interleaving goes through suspend/resume.
    auto system = ServingSystem::create(options);
    if (!system.ok())
        return system.status();

    // The shared KV budget. An explicit --kv-budget is the honest
    // single-device pool all in-flight requests contend for; 0 keeps
    // the legacy PR3 accounting where every in-flight slot enjoyed a
    // full engine budget (2x covers the offload planner, which grants
    // each model the whole budget), so pre-existing traces replay
    // bit-for-bit.
    const double budget_bytes = online.kvBudgetGiB > 0
        ? online.kvBudgetGiB * GiB
        : 2.0 * online.maxInflight * system->engine().kvBudgetBytes();
    auto ledger = std::make_unique<KvBudgetLedger>(budget_bytes);
    system->attachKvLedger(ledger.get());

    // Host KV tier: a budgeted host-side store behind a finite-
    // bandwidth link. Attaching alone changes nothing — the engine
    // only offers KV to the tier on the preemption-eviction path, so
    // a trace that never preempts replays bit-identically.
    std::unique_ptr<HostKvTier> tier;
    if (online.kvTier == "host") {
        const double host_budget = online.hostKvBudgetGiB > 0
            ? online.hostKvBudgetGiB * GiB
            : 2.0 * budget_bytes;
        tier = std::make_unique<HostKvTier>(
            host_budget, online.hostBandwidthGBs * GBps);
        system->attachHostTier(tier.get());
    }

    // Cross-request prefix cache: cached bytes are charged to the
    // SAME ledger as in-flight KV, so a full cache shows up as
    // admission pressure instead of invisible extra memory.
    if (online.prefixCache == "on") {
        const double cache_budget = online.prefixCacheBudgetGiB > 0
            ? online.prefixCacheBudgetGiB * GiB
            : 0.125 * budget_bytes;
        system->enablePrefixCache(cache_budget, ledger.get());
    }

    // The fault injector exists ONLY under faults == "plan": with it
    // absent no site holds a pointer, no probe consumes randomness and
    // every trace replays bit-identically to a fault-free build. The
    // injector derives its stream from the serving seed, so reruns at
    // the same seed inject the same fault sequence.
    std::unique_ptr<FaultInjector> injector;
    if (online.faults == "plan") {
        injector = std::make_unique<FaultInjector>(
            std::move(fault_plan), options.seed);
        ledger->attachFaultInjector(injector.get());
        system->attachFaultInjector(injector.get());
    }

    // The SJF predictor's inputs; names were just validated by
    // ServingSystem::create, so the lookups cannot fail.
    auto device = deviceByName(options.deviceName);
    auto profile = datasetByName(options.datasetName);
    return OnlineServer(*std::move(system), std::move(ledger),
                        std::move(tier), std::move(injector), online,
                        *std::move(policy), RooflineModel(*device),
                        *std::move(profile));
}

OnlineTraceResult
OnlineServer::serveTrace(int num_requests, double arrival_rate,
                         uint64_t seed)
{
    return serveArrivals(
        poissonArrivalTrace(num_requests, arrival_rate, seed));
}

OnlineTraceResult
OnlineServer::serveArrivals(const std::vector<double> &arrivals)
{
    std::vector<OnlineRequest> requests;
    requests.reserve(arrivals.size());
    for (const double arrival : arrivals) {
        OnlineRequest request;
        request.arrival = arrival;
        requests.push_back(request);
    }
    // Problem ids are in range by construction, so the only way
    // serveRequests can reject this input is a non-finite arrival
    // time; degrade that to the empty trace instead of serving
    // garbage timings.
    auto result = serveRequests(requests);
    if (!result.ok())
        return aggregateTrace({}, 0.0);
    return *std::move(result);
}

StatusOr<OnlineTraceResult>
OnlineServer::serveRequests(const std::vector<OnlineRequest> &requests)
{
    return serveRequestsImpl(requests, nullptr);
}

BatchResult
OnlineServer::serveProblems(int num_problems)
{
    const int count = std::min<int>(
        num_problems, static_cast<int>(system_.problems().size()));
    std::vector<OnlineRequest> requests;
    requests.reserve(static_cast<size_t>(std::max(0, count)));
    for (int i = 0; i < count; ++i) {
        OnlineRequest request;
        request.problemId = i;
        request.arrival = 0;
        request.slo = 0; // Batch serving carries no deadline.
        requests.push_back(request);
    }
    std::vector<RequestResult> results;
    // Arrivals are finite and ids in range by construction, so the
    // one serve loop cannot reject this input.
    auto trace = serveRequestsImpl(requests, &results);
    (void)trace;
    return aggregateResults(std::move(results),
                            system_.options().numBeams);
}

StatusOr<OnlineTraceResult>
OnlineServer::serveRequestsImpl(const std::vector<OnlineRequest> &requests,
                                std::vector<RequestResult> *results_sink)
{
    const std::vector<Problem> &problems = system_.problems();
    if (requests.empty() || problems.empty())
        return aggregateTrace({}, 0.0);

    constexpr double kInfinity = std::numeric_limits<double>::infinity();
    PreemptMode mode = PreemptMode::Slice;
    parsePreemptMode(online_.preempt, &mode); // Validated at create().
    const bool memory_aware = online_.kvBudgetGiB > 0;
    const bool continuous = online_.batching == "continuous";

    // --- Tiering / cost-aware victim state. All of it is inert at
    //     the defaults (kvTier "off", victimSelect "admission"):
    //     tier is null, cost_victims is false and kv_scale stays
    //     pinned at 1.0, so the legacy sweeps and admission gate run
    //     bit-for-bit. ---
    const HostKvTier *tier = hostTier_.get();
    const bool cost_victims = online_.victimSelect == "cost";
    // Restore-cost model of the cost-aware sweep: re-prefill is
    // exactly linear in tokens (chunkedRecomputeTime is a max of two
    // linear terms plus a constant), so seconds-per-byte is the
    // generator's per-token slope over its per-token KV footprint — a
    // ranking heuristic that treats a victim's bytes as generator KV
    // (the dominant tree).
    const ModelSpec &gen_model = system_.options().models.generator;
    const double recompute_per_byte =
        (roofline_.chunkedRecomputeTime(gen_model, 2)
         - roofline_.chunkedRecomputeTime(gen_model, 1))
        / gen_model.kvBytesPerToken();
    // Working-set calibration: predictKvWorkingSetBytes is a
    // pre-serving heuristic; under tiering or cost-aware eviction the
    // admission gate steers real memory decisions, so its predictions
    // are rescaled by a rolling EWMA of observed/predicted residency
    // across this trace's completions.
    const bool calibrate_kv = tier != nullptr || cost_victims;
    double kv_scale = 1.0;
    const auto effectiveKv = [&](double predicted_bytes) {
        return calibrate_kv ? predicted_bytes * kv_scale
                            : predicted_bytes;
    };

    // --- Build and validate tickets in submission order. ---
    struct Ticket
    {
        QueuedRequest meta;
        double cancelAt = -1;
        double kvBytes = 0; //!< Predicted working set (admission).
        int attempts = 0;   //!< Fault-killed attempts so far (retry).
        std::vector<int32_t> promptIds; //!< Per-request prompt
                                        //!< override (empty = none).
    };
    std::vector<Ticket> tickets;
    tickets.reserve(requests.size());
    // predictServiceTime is a pure function of the problem for a
    // fixed server; memoize it so long traces over a small problem
    // set don't recompute it per request.
    std::vector<double> predicted(problems.size(), -1.0);
    std::vector<double> predicted_kv(problems.size(), -1.0);
    for (size_t i = 0; i < requests.size(); ++i) {
        const OnlineRequest &request = requests[i];
        // Negative arrivals are served as "queued since before the
        // trace began" (legacy max(arrival, device_free) semantics);
        // only non-finite times are meaningless.
        if (!std::isfinite(request.arrival))
            return Status::invalidArgument(
                "request arrival times must be finite");
        int problem_id = request.problemId;
        if (problem_id < 0)
            problem_id = static_cast<int>(i % problems.size());
        if (problem_id >= static_cast<int>(problems.size()))
            return Status::invalidArgument(
                "problemId " + std::to_string(problem_id)
                + " is out of range; the problem set has "
                + std::to_string(problems.size()) + " problems");

        Ticket ticket;
        ticket.meta.id = static_cast<uint64_t>(i);
        ticket.meta.problemId = problem_id;
        ticket.meta.arrival = request.arrival;
        ticket.meta.priority = request.priority;
        const double slo =
            request.slo < 0 ? online_.slo : request.slo;
        ticket.meta.deadline =
            slo > 0 ? request.arrival + slo : kInfinity;
        if (!request.promptIds.empty()) {
            // A prompt override changes the problem's shape, so the
            // memoized per-problem predictions do not apply.
            Problem shaped =
                problems[static_cast<size_t>(problem_id)];
            shaped.promptIds = request.promptIds;
            shaped.promptTokens =
                static_cast<int>(request.promptIds.size());
            ticket.meta.predictedCost = predictServiceTime(
                roofline_, system_.options().models, profile_,
                shaped, system_.options().numBeams);
            ticket.kvBytes = predictKvWorkingSetBytes(
                system_.options().models, profile_, shaped,
                system_.options().numBeams);
            ticket.promptIds = request.promptIds;
        } else {
            double &cost = predicted[static_cast<size_t>(problem_id)];
            if (cost < 0)
                cost = predictServiceTime(
                    roofline_, system_.options().models, profile_,
                    problems[static_cast<size_t>(problem_id)],
                    system_.options().numBeams);
            ticket.meta.predictedCost = cost;
            double &kv =
                predicted_kv[static_cast<size_t>(problem_id)];
            if (kv < 0)
                kv = predictKvWorkingSetBytes(
                    system_.options().models, profile_,
                    problems[static_cast<size_t>(problem_id)],
                    system_.options().numBeams);
            ticket.kvBytes = kv;
        }
        ticket.cancelAt = request.cancelAt;
        tickets.push_back(ticket);
    }
    std::stable_sort(tickets.begin(), tickets.end(),
                     [](const Ticket &a, const Ticket &b) {
                         return a.meta.arrival < b.meta.arrival;
                     });

    // The problem a ticket is actually served against: the request's
    // prompt override (multi-turn prefix-cache traces) reshapes a
    // copy; without one the stored problem is used unchanged.
    const auto ticketProblem = [&problems](const Ticket &ticket) {
        Problem problem =
            problems[static_cast<size_t>(ticket.meta.problemId)];
        if (!ticket.promptIds.empty()) {
            problem.promptIds = ticket.promptIds;
            problem.promptTokens =
                static_cast<int>(ticket.promptIds.size());
        }
        return problem;
    };

    // --- Fault-tolerance state. All of it is inert when faults ==
    //     "off": the injector is null, the watchdog is disabled by
    //     default and the retry queue never gains an entry, so the
    //     loop runs its fault-free schedule bit-for-bit. ---
    FaultInjector *injector = faults_.get();
    const long faults_before =
        injector != nullptr ? injector->injectedCount() : 0;
    struct RetryEntry
    {
        Ticket ticket;
        double eligibleAt = 0; //!< Backoff expiry (sim seconds).
    };
    std::vector<RetryEntry> retry_queue;
    int retries = 0;
    int timeouts = 0;
    int failed = 0;
    int failed_with_deadline = 0; //!< Never-completed requests that
                                  //!< carried a deadline (SLO misses).
    long fault_wasted = 0;
    long degraded_waves = 0;
    double degraded_time = 0;
    int degraded_episodes = 0;
    DegradeTracker degrade;
    // Degradation trades speculation throughput for stability, which
    // only pays off when kills are survivable — without a retry budget
    // the fault already failed the request, so there is nothing left
    // to protect (and the bench's no-retry arm measures exactly that).
    const bool degrade_enabled =
        injector != nullptr && online_.retryMax > 0;
    const double watchdog = online_.requestTimeout;

    // --- In-flight bookkeeping, one record type for both batching
    //     modes. ---
    struct Flight
    {
        Ticket ticket;
        RequestId sysId = 0;  //!< 0 until submitted: continuous
                              //!< batching submits at admission, time
                              //!< slicing at the first mount.
        bool started = false; //!< rec.start stamped (first wave or
                              //!< first mount).
        bool benched = false; //!< Force-evicted under memory pressure
                              //!< (continuous batching); sits waves
                              //!< out until the ledger can hold its
                              //!< predicted working set again.
        long decoded = 0;     //!< Decode tokens this attempt has
                              //!< produced (wasted if killed).
        double wallBase = 0;  //!< Wall time of the request's engine
                              //!< clock zero under time slicing:
                              //!< admission + slices the device spent
                              //!< on other requests since.
        double clock = 0;     //!< Engine clock after its last slice.
        double lastRunAt = 0; //!< End of its last wave (cost-aware
                              //!< victim recency).
        double peakKvBytes = 0; //!< Largest observed residency
                                //!< (EWMA calibration).
        OnlineRequestRecord rec;
    };

    const BatchScheduler scheduler(online_.maxBatchedTokens,
                                   online_.prefillChunk);
    const double step_tokens =
        std::max(1.0, system_.engine().expectedStepTokens());
    const double headroom = 0.10 * ledger_->totalBytes();
    const size_t max_inflight = static_cast<size_t>(online_.maxInflight);
    constexpr size_t kNone = static_cast<size_t>(-1);
    std::vector<Ticket> queued;
    std::vector<Flight> inflight;
    std::vector<OnlineRequestRecord> records;
    records.reserve(tickets.size());
    std::vector<QueuedRequest> view; // pick() scratch.
    std::vector<BatchMemberOutcome> members; // This wave, per flight.
    size_t next_ticket = 0;
    size_t rr = 0;          //!< Round-robin cursor ("slice" preempt).
    size_t current = kNone; //!< In-flight index mounted on the engine
                            //!< (time slicing only).
    double now = 0;
    double busy = 0;
    int cancelled = 0;
    int shed = 0;
    int context_switches = 0;
    int preemptions = 0;
    long fused_waves = 0;   //!< Continuous-batching waves...
    long fused_members = 0; //!< ...and their decode members.
    long recomputed_tokens = 0;
    long reprefilled_tokens = 0;
    long preempt_evicted = 0;
    long verified_tokens = 0;
    long prefix_hit_tokens = 0;
    long swapped_out_tokens = 0;
    long swapped_in_tokens = 0;
    double swap_transfer_time = 0;

    // Drop in-flight entry idx, keeping the mounted index and the
    // round-robin cursor on the requests they named.
    const auto eraseFlight = [&](size_t idx) {
        inflight.erase(inflight.begin() + static_cast<long>(idx));
        if (current != kNone) {
            if (idx == current)
                current = kNone;
            else if (idx < current)
                --current;
        }
        if (idx < rr)
            --rr;
        if (rr >= inflight.size())
            rr = 0;
    };

    // Abnormal exit of an in-flight attempt (watchdog or fault): its
    // decode so far is wasted recompute, and cancelWith refunds every
    // KV charge and prefix pin exactly (the abnormal-exit path never
    // publishes the prompt). A flight never submitted has no engine
    // state to unwind.
    const auto killFlight = [&](size_t idx, Status reason) {
        const RequestId id = inflight[idx].sysId;
        fault_wasted += inflight[idx].decoded;
        if (id != 0) {
            checkOk(system_.cancelWith(id, std::move(reason)));
            checkOk(system_.release(id));
        }
        eraseFlight(idx);
    };

    // Memory-pressure sweep: while the ledger is short of headroom,
    // force-evict the suspended `victims` — in the order given (each
    // mode's legacy order) or, under --victim-select cost,
    // cheapest-to-restore first (ties in admission order). Returns
    // the victims actually evicted.
    const auto evictForHeadroom = [&](std::vector<size_t> victims) {
        std::vector<size_t> evicted;
        if (ledger_->freeBytes() >= headroom)
            return evicted;
        if (cost_victims) {
            std::sort(victims.begin(), victims.end());
            std::vector<size_t> resident;
            std::vector<VictimCandidate> candidates;
            for (const size_t i : victims) {
                auto info = system_.suspendedInfo(inflight[i].sysId);
                if (!info.ok() || info->residentKvBytes <= 0)
                    continue;
                // Restoring costs the host-link copy when a tier is
                // attached (and the engine chose to swap), the
                // re-prefill otherwise.
                VictimCandidate candidate;
                candidate.kvBytes = info->residentKvBytes;
                candidate.lastRunAt = inflight[i].lastRunAt;
                candidate.recomputeSeconds =
                    recompute_per_byte * info->residentKvBytes;
                if (tier != nullptr)
                    candidate.transferSeconds =
                        tier->transferSeconds(info->residentKvBytes);
                resident.push_back(i);
                candidates.push_back(candidate);
            }
            victims.clear();
            for (const size_t k : rankEvictionVictims(candidates))
                victims.push_back(resident[k]);
        }
        for (const size_t i : victims) {
            if (ledger_->freeBytes() >= headroom)
                break;
            auto tokens = system_.evictSuspendedKv(inflight[i].sysId);
            if (tokens.ok()) {
                preempt_evicted += *tokens;
                evicted.push_back(i);
            }
        }
        return evicted;
    };

    // --- The serve loop. Each turn takes in arrivals and expired
    //     retries, drops cancelled and timed-out requests, admits
    //     through the policy, then runs one engine wave. `batching`
    //     changes only what admission does with a new flight, the
    //     step before each wave, and the wave itself. ---
    while (true) {
        if (injector != nullptr)
            injector->setNow(now);
        // Requests whose arrival has passed join the policy's queue;
        // backed-off attempts whose timer expired rejoin it (their
        // original arrival intact, so backoff reads as queueing).
        while (next_ticket < tickets.size()
               && tickets[next_ticket].meta.arrival <= now)
            queued.push_back(tickets[next_ticket++]);
        for (size_t i = 0; i < retry_queue.size();) {
            if (retry_queue[i].eligibleAt <= now) {
                queued.push_back(std::move(retry_queue[i].ticket));
                retry_queue.erase(retry_queue.begin()
                                  + static_cast<long>(i));
            } else {
                ++i;
            }
        }

        // Clients that gave up while queued leave it.
        for (size_t i = queued.size(); i > 0; --i) {
            const double cancel_at = queued[i - 1].cancelAt;
            if (cancel_at >= 0 && cancel_at <= now) {
                queued.erase(queued.begin() + static_cast<long>(i - 1));
                ++cancelled;
            }
        }

        // Watchdog: abort every request older than the timeout —
        // queued, backing off or in flight (mounted and suspended
        // alike).
        if (watchdog > 0) {
            const auto timedOut = [&](const Ticket &ticket) {
                if (now - ticket.meta.arrival <= watchdog)
                    return false;
                ++timeouts;
                if (std::isfinite(ticket.meta.deadline))
                    ++failed_with_deadline;
                return true;
            };
            for (size_t i = queued.size(); i > 0; --i) {
                if (timedOut(queued[i - 1]))
                    queued.erase(queued.begin()
                                 + static_cast<long>(i - 1));
            }
            for (size_t i = retry_queue.size(); i > 0; --i) {
                if (timedOut(retry_queue[i - 1].ticket))
                    retry_queue.erase(retry_queue.begin()
                                      + static_cast<long>(i - 1));
            }
            for (size_t i = inflight.size(); i > 0; --i) {
                if (timedOut(inflight[i - 1].ticket))
                    killFlight(i - 1,
                               Status::deadlineExceeded(
                                   "request exceeded --request-timeout"));
            }
        }

        // Degraded mode halves the admission ceiling: fewer
        // co-resident requests means each kill wastes less decode
        // work and retries re-enter a calmer batch.
        const size_t effective_inflight =
            degrade_enabled && degrade.degraded()
                ? std::max<size_t>(1, max_inflight / 2)
                : max_inflight;
        // The policy fills free in-flight slots (work conservation:
        // the device never idles while a request is queued).
        while (!queued.empty() && inflight.size() < effective_inflight) {
            view.clear();
            for (const Ticket &ticket : queued)
                view.push_back(ticket.meta);
            size_t pick = policy_->pick(view, now);
            if (pick >= queued.size())
                pick = 0; // Defensive against custom policies.

            const Ticket ticket = queued[pick];

            // Doomed-request shedding: when the predicted finish
            // already exceeds the deadline, admitting it only burns
            // device time another request could meet its SLO with.
            if (online_.shedDoomed && std::isfinite(ticket.meta.deadline)
                && now + ticket.meta.predictedCost
                    > ticket.meta.deadline) {
                queued.erase(queued.begin() + static_cast<long>(pick));
                ++shed;
                continue;
            }

            // Memory-aware admission: never admit a request the
            // shared budget cannot hold alongside the in-flight
            // working sets (an always-thrashing mix helps nobody).
            // A lone request is always admitted — the engine degrades
            // gracefully under budget pressure.
            if (memory_aware && !inflight.empty()) {
                double inflight_kv = 0;
                for (const Flight &f : inflight)
                    inflight_kv += effectiveKv(f.ticket.kvBytes);
                if (inflight_kv + effectiveKv(ticket.kvBytes)
                    > ledger_->totalBytes())
                    break; // Wait for completions.
            }

            queued.erase(queued.begin() + static_cast<long>(pick));
            Flight flight;
            flight.ticket = ticket;
            flight.wallBase = std::max(ticket.meta.arrival, now);
            flight.lastRunAt = flight.wallBase;
            flight.rec.problemId = ticket.meta.problemId;
            flight.rec.arrival = ticket.meta.arrival;
            flight.rec.start = flight.wallBase;
            flight.rec.priority = ticket.meta.priority;
            flight.rec.deadline = ticket.meta.deadline;
            if (continuous) {
                // Park it immediately with a deferred prompt: the
                // scheduler feeds the prompt in chunks so it never
                // stalls the decoders already in the batch. Time
                // slicing submits at the first mount instead.
                flight.sysId = system_.submit(ticketProblem(ticket));
                checkOk(system_.startSuspended(flight.sysId,
                                               /*defer_prompt=*/true));
            }
            inflight.push_back(std::move(flight));
        }

        if (inflight.empty()) {
            // All slots are free, so the admission loop above drained
            // the queue; the device idles until the next arrival OR
            // the next retry becomes eligible, whichever is sooner.
            if (next_ticket >= tickets.size() && retry_queue.empty()
                && queued.empty())
                break; // Trace drained.
            double next_event = kInfinity;
            if (next_ticket < tickets.size())
                next_event = tickets[next_ticket].meta.arrival;
            for (const RetryEntry &entry : retry_queue)
                next_event = std::min(next_event, entry.eligibleAt);
            if (!std::isfinite(next_event))
                break; // Defensive: nothing can ever run.
            now = std::max(now, next_event);
            continue;
        }

        if (continuous) {
            // Under budget pressure the later-admitted members are
            // force-evicted and benched. Benching is sticky with
            // hysteresis: a member returns only when the ledger can
            // hold its predicted working set on top of double the
            // pressure threshold — re-admitting it the moment its own
            // eviction freed the room would lazily re-prefill its KV,
            // re-create the pressure and evict it again, paying the
            // recompute forever. The oldest member always runs (a
            // benched member that becomes oldest after a completion
            // is released), so a thrashing batch degenerates to the
            // time-sliced server's one-resident-working-set shape
            // instead of deadlocking or ping-ponging.
            if (memory_aware) {
                // Remembered so the hysteresis rule below cannot
                // clear the front's flag twice.
                const bool front_returned = inflight.front().benched;
                inflight.front().benched = false;
                // Legacy order: youngest-admitted member first.
                std::vector<size_t> victims;
                for (size_t i = inflight.size() - 1; i > 0; --i) {
                    if (!inflight[i].benched)
                        victims.push_back(i);
                }
                for (const size_t i : evictForHeadroom(std::move(victims)))
                    inflight[i].benched = true;
                // At most one return per wave, oldest benched first
                // (pickBenchReturn holds the unit-tested contract).
                std::vector<std::pair<bool, double>> wave;
                wave.reserve(inflight.size());
                for (const Flight &flight : inflight)
                    wave.emplace_back(flight.benched,
                                      effectiveKv(flight.ticket.kvBytes));
                const int back = pickBenchReturn(
                    wave, ledger_->freeBytes(), headroom,
                    front_returned);
                if (back >= 0)
                    inflight[static_cast<size_t>(back)].benched = false;
            }
        } else {
            // --- Choose which in-flight request runs this slice. ---
            size_t chosen = 0;
            switch (mode) {
            case PreemptMode::Off:
                // Run-to-completion: stick with the mounted request;
                // otherwise take the earliest admitted.
                chosen = current != kNone ? current : 0;
                break;
            case PreemptMode::Slice:
                // Round-robin, one engine iteration per turn.
                chosen = rr;
                break;
            case PreemptMode::Policy:
            default: {
                // The policy ranks the in-flight set every slice; it
                // may take the engine from the running victim, but
                // only when its preemption predicate says the
                // challenger is strictly more urgent (no thrash on
                // ties). predictedCost is discounted by the device
                // time each request has already consumed, so "sjf"
                // preempts on *remaining* work (SRPT) rather than
                // yanking a nearly finished victim for a shorter
                // total job.
                view.clear();
                for (const Flight &f : inflight) {
                    QueuedRequest meta = f.ticket.meta;
                    meta.predictedCost =
                        std::max(0.0, meta.predictedCost - f.clock);
                    view.push_back(meta);
                }
                size_t best = policy_->pick(view, now);
                if (best >= inflight.size())
                    best = 0;
                chosen = current == kNone
                        || (best != current
                            && policy_->shouldPreempt(view[current],
                                                      view[best], now))
                    ? best
                    : current;
                break;
            }
            }

            // --- Mount the chosen request on the engine. ---
            if (current != chosen) {
                if (current != kNone) {
                    Flight &victim = inflight[current];
                    checkOk(system_.suspend(victim.sysId));
                    if (calibrate_kv) {
                        // A freshly suspended victim's residency is
                        // the trace's only honest observation of its
                        // real working set.
                        auto info = system_.suspendedInfo(victim.sysId);
                        if (info.ok())
                            victim.peakKvBytes = std::max(
                                victim.peakKvBytes, info->residentKvBytes);
                    }
                    ++victim.rec.preemptions;
                    ++context_switches;
                    // Mid-run switches only happen through slice-mode
                    // rotation or the policy's shouldPreempt; only the
                    // latter is a preemption in the scheduling sense.
                    if (mode == PreemptMode::Policy)
                        ++preemptions;
                }
                Flight &f = inflight[chosen];
                if (f.sysId == 0) {
                    // In the non-slicing modes an admitted request may
                    // sit unmounted behind run-to-completion
                    // predecessors (or a policy that ranks it low);
                    // that wait is queueing, not service, so service
                    // starts at first mount. wallBase has been
                    // advanced by every intervening slice, so it
                    // equals "now" here. Slice mode keeps the
                    // admission stamp: rotation reaches a new request
                    // within one round, and the legacy traces are
                    // defined that way.
                    if (mode != PreemptMode::Slice)
                        f.rec.start = f.wallBase;
                    f.started = true;
                    f.sysId = system_.submit(ticketProblem(f.ticket));
                } else {
                    checkOk(system_.resume(f.sysId));
                }
                current = chosen;
            }

            // Make room for the mounted request by force-evicting
            // suspended victims (legacy order: earliest admitted
            // first) before their caches squeeze it into thrashing.
            if (memory_aware) {
                std::vector<size_t> victims;
                for (size_t i = 0; i < inflight.size(); ++i) {
                    if (i != current && inflight[i].sysId != 0)
                        victims.push_back(i);
                }
                (void)evictForHeadroom(std::move(victims));
            }
        }

        // Wave-step fault probe: every request about to decode this
        // wave — the mounted one under time slicing, every unbenched
        // member under continuous batching — probes the injector. A
        // fault kills the attempt before the wave runs: it consumes
        // no device time and is retried after backoff or failed.
        if (injector != nullptr) {
            const bool mounted = current != kNone;
            for (size_t i = inflight.size(); i > 0; --i) {
                const Flight &flight = inflight[i - 1];
                if (flight.benched || (mounted && i - 1 != current))
                    continue;
                const bool fault = injector->shouldFault(
                    FaultSite::kWaveStep,
                    static_cast<long>(flight.ticket.meta.id));
                if (degrade_enabled)
                    degrade.record(fault);
                if (!fault)
                    continue;
                // Re-queue the attempt after a capped exponential
                // backoff, or fail the request for good once its
                // retry budget is spent.
                if (flight.ticket.attempts >= online_.retryMax) {
                    ++failed;
                    if (std::isfinite(flight.ticket.meta.deadline))
                        ++failed_with_deadline;
                } else {
                    RetryEntry entry;
                    entry.ticket = flight.ticket;
                    ++entry.ticket.attempts;
                    const int shift = std::min(entry.ticket.attempts - 1, 3);
                    entry.eligibleAt = now
                        + online_.retryBackoff
                            * static_cast<double>(1 << shift);
                    retry_queue.push_back(std::move(entry));
                    ++retries;
                }
                killFlight(i - 1,
                           Status::unavailable(
                               "injected transient device error"));
            }
            // Flip the engine's degraded mode on a window-state change.
            if (degrade_enabled) {
                const bool was = degrade.degraded();
                if (degrade.update() != was) {
                    system_.engine().setDegraded(!was);
                    if (!was)
                        ++degraded_episodes;
                }
            }
            if (inflight.empty() || (mounted && current == kNone))
                continue; // Loop top re-admits, re-mounts or idles.
        }

        // --- Run the wave. ---
        const double wave_start = now;
        double wave_time = 0;
        if (continuous) {
            // Every unbenched member is a candidate for one fused
            // engine wave (sched/batch_scheduler.h).
            std::vector<RequestId> ids;
            ids.reserve(inflight.size());
            std::vector<BatchCandidate> candidates;
            candidates.reserve(inflight.size());
            for (size_t i = 0; i < inflight.size(); ++i) {
                Flight &flight = inflight[i];
                ids.push_back(flight.sysId);
                if (flight.benched)
                    continue;
                const auto info = system_.suspendedInfo(flight.sysId);
                if (calibrate_kv)
                    flight.peakKvBytes = std::max(flight.peakKvBytes,
                                                  info->residentKvBytes);
                BatchCandidate candidate;
                candidate.member = i;
                candidate.promptRemaining = info->promptTokensPending;
                candidate.prefixKey = info->prefixKey;
                candidate.decodeTokens = std::max(
                    1, static_cast<int>(std::max(1, info->activeBeams)
                                        * step_tokens));
                candidates.push_back(candidate);
            }
            const BatchPlan plan = scheduler.plan(candidates);
            auto outcome = system_.stepBatch(ids, plan);
            if (!outcome.ok())
                return outcome.status(); // Unreachable: all suspended.
            ++fused_waves;
            fused_members += plan.decodeMembers();
            wave_time = outcome->schedule.waveTime;
            now += wave_time;
            busy += wave_time;
            members = std::move(outcome->members);
        } else {
            // Exactly one request decodes per time slice.
            Flight &flight = inflight[current];
            const ScheduleOutcome step = system_.step();
            const bool finished =
                system_.requestState(flight.sysId).value()
                == RequestState::Completed;
            // The request's wall clock is its engine clock offset by
            // every slice the device spent elsewhere; computed this
            // way (rather than by accumulating deltas) the
            // fifo/maxInflight=1 path reproduces the legacy
            // run-to-completion times bit-for-bit.
            flight.clock = system_.engine().clock().now();
            const double slice_end = flight.wallBase + flight.clock;
            wave_time = slice_end - now;
            for (Flight &other : inflight) {
                if (&other != &flight)
                    other.wallBase += wave_time;
            }
            now = slice_end;
            members.assign(inflight.size(), BatchMemberOutcome());
            BatchMemberOutcome &member = members[current];
            member.participated = true;
            member.moreWork = !finished;
            member.decodedTokens = step.tokensDecoded;
            if (finished) {
                // The engine clock is cumulative device time for this
                // request (it survives suspend/resume and includes
                // any post-eviction recompute), so its final value IS
                // the active time, credited whole on the last slice.
                member.activeDelta = flight.clock;
                busy += flight.clock;
            }
        }
        if (degrade_enabled && degrade.degraded()) {
            ++degraded_waves;
            degraded_time += wave_time;
        }

        // --- Completion accounting for every request that ran. ---
        for (size_t i = inflight.size(); i > 0; --i) {
            const BatchMemberOutcome &member = members[i - 1];
            if (!member.participated)
                continue;
            Flight &flight = inflight[i - 1];
            if (!flight.started) {
                flight.rec.start = wave_start;
                flight.started = true;
            }
            flight.rec.activeTime += member.activeDelta;
            flight.decoded += member.decodedTokens;
            flight.lastRunAt = now;
            if (member.moreWork)
                continue;
            flight.rec.finish = now;
            auto result = system_.result(flight.sysId);
            if (result.ok()) {
                verified_tokens += result->verifiedTokens;
                recomputed_tokens += static_cast<long>(
                    result->kvStats.recomputedTokens);
                reprefilled_tokens += static_cast<long>(
                    result->kvStats.reprefilledTokens);
                prefix_hit_tokens += static_cast<long>(
                    result->kvStats.prefixHitTokens);
                swapped_out_tokens += static_cast<long>(
                    result->kvStats.swappedOutTokens);
                swapped_in_tokens += static_cast<long>(
                    result->kvStats.swappedInTokens);
                swap_transfer_time += result->kvStats.swapTransferTime;
                // EWMA of observed over predicted residency.
                if (calibrate_kv && flight.ticket.kvBytes > 0
                    && flight.peakKvBytes > 0)
                    kv_scale = 0.8 * kv_scale
                        + 0.2 * (flight.peakKvBytes / flight.ticket.kvBytes);
                if (results_sink)
                    results_sink->push_back(*std::move(result));
            }
            records.push_back(flight.rec);
            checkOk(system_.release(flight.sysId));
            eraseFlight(i - 1);
        }
        // Slice mode rotates past a request that ran and did not
        // finish.
        if (mode == PreemptMode::Slice && current != kNone)
            rr = (rr + 1) % inflight.size();
    }

    // Trace drained: drop the engine's idle context so the last
    // finished request's KV charge leaves the shared ledger (only the
    // prefix cache's own residency may remain).
    system_.engine().releaseFinishedKv();

    OnlineTraceResult out = aggregateTrace(std::move(records), busy);
    out.cancelled = cancelled;
    out.shedRequests = shed;
    out.contextSwitches = context_switches;
    out.preemptions = preemptions;
    out.recomputedTokens = recomputed_tokens;
    out.reprefilledTokens = reprefilled_tokens;
    out.preemptEvictedTokens = preempt_evicted;
    out.verifiedTokens = verified_tokens;
    out.prefixHitTokens = prefix_hit_tokens;
    out.swappedOutTokens = swapped_out_tokens;
    out.swappedInTokens = swapped_in_tokens;
    out.swapTransferTime = swap_transfer_time;
    // Time slicing runs no fused waves: each of its slices decodes
    // exactly one request.
    out.batchOccupancy = fused_waves > 0
        ? static_cast<double>(fused_members)
            / static_cast<double>(fused_waves)
        : (out.records.empty() ? 0.0 : 1.0);

    // Fault accounting. Completed-only population stands for latency
    // statistics, but SLO attainment must charge deadline-bearing
    // requests that never completed as misses — a fault that
    // silently removed its victim from the denominator would
    // otherwise IMPROVE attainment.
    if (injector != nullptr)
        out.injectedFaults = injector->injectedCount() - faults_before;
    out.retries = retries;
    out.timeouts = timeouts;
    out.failedRequests = failed;
    out.faultWastedTokens = fault_wasted;
    out.degradedWaves = degraded_waves;
    out.degradedTime = degraded_time;
    out.degradedEpisodes = degraded_episodes;
    if (failed_with_deadline > 0) {
        int completed_with_deadline = 0;
        for (const OnlineRequestRecord &rec : out.records)
            if (rec.hasDeadline())
                ++completed_with_deadline;
        const int met = completed_with_deadline - out.deadlineMisses;
        out.deadlineMisses += failed_with_deadline;
        out.sloAttainment = static_cast<double>(met)
            / (completed_with_deadline + failed_with_deadline);
    }
    // The degraded engine mode must not leak into the next trace
    // served by this server.
    if (degrade_enabled)
        system_.engine().setDegraded(false);
    return out;
}

std::vector<size_t>
rankEvictionVictims(const std::vector<VictimCandidate> &candidates)
{
    std::vector<size_t> order(candidates.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    // min(transfer, recompute) is the restore price actually paid:
    // the engine swaps exactly when the host-link copy is strictly
    // cheaper than re-prefill, so whichever is smaller is what the
    // victim's next run costs. stable_sort keeps the admission-order
    // tiebreak after recency.
    std::stable_sort(
        order.begin(), order.end(), [&](size_t a, size_t b) {
            const double cost_a =
                std::min(candidates[a].transferSeconds,
                         candidates[a].recomputeSeconds);
            const double cost_b =
                std::min(candidates[b].transferSeconds,
                         candidates[b].recomputeSeconds);
            if (cost_a != cost_b)
                return cost_a < cost_b;
            return candidates[a].lastRunAt < candidates[b].lastRunAt;
        });
    return order;
}

int
pickBenchReturn(const std::vector<std::pair<bool, double>> &members,
                double free_bytes, double headroom, bool front_returned)
{
    // When the front entered the wave benched (the oldest member
    // completed and promoted it), its forced return is the progress
    // guarantee, NOT a hysteresis return — but its flag must be
    // cleared exactly once, so the hysteresis rule below must never
    // pick the front again.
    for (size_t i = front_returned ? 1 : 0; i < members.size(); ++i) {
        if (!members[i].first)
            continue;
        // Only the OLDEST benched member is considered — a younger
        // one skipping ahead would starve it behind perpetual
        // re-eviction (the eviction sweep walks youngest-first) —
        // and it returns at most once per wave, only with restore
        // headroom to spare.
        if (free_bytes >= members[i].second + 2 * headroom)
            return static_cast<int>(i);
        return -1;
    }
    return -1;
}

OnlineTraceResult
aggregateTrace(std::vector<OnlineRequestRecord> records, double busy_time)
{
    OnlineTraceResult out;
    out.records = std::move(records);
    if (out.records.empty())
        return out;

    std::vector<double> latencies;
    latencies.reserve(out.records.size());
    double lat_total = 0;
    double queue_total = 0;
    int with_deadline = 0;
    int missed = 0;
    for (const auto &rec : out.records) {
        latencies.push_back(rec.latency());
        lat_total += rec.latency();
        queue_total += rec.queueDelay();
        if (rec.hasDeadline()) {
            ++with_deadline;
            if (rec.missedDeadline())
                ++missed;
        }
    }
    std::sort(latencies.begin(), latencies.end());
    const double n = static_cast<double>(out.records.size());
    out.meanLatency = lat_total / n;
    out.meanQueueDelay = queue_total / n;
    out.p50Latency = ceilRankPercentile(latencies, 0.50);
    out.p95Latency = ceilRankPercentile(latencies, 0.95);
    out.p99Latency = ceilRankPercentile(latencies, 0.99);
    out.deadlineMisses = missed;
    out.sloAttainment = with_deadline > 0
        ? 1.0 - static_cast<double>(missed) / with_deadline
        : 1.0;
    double makespan = 0;
    for (const auto &rec : out.records)
        makespan = std::max(makespan, rec.finish);
    out.makespan = makespan;
    out.utilization = out.makespan > 0 ? busy_time / out.makespan : 0;
    return out;
}

std::vector<double>
poissonArrivalTrace(int n, double rate, uint64_t seed)
{
    Rng rng = Rng(seed).fork(0xa881);
    std::vector<double> arrivals;
    arrivals.reserve(static_cast<size_t>(std::max(0, n)));
    double t = 0;
    for (int i = 0; i < n; ++i) {
        t += rng.exponential(rate);
        arrivals.push_back(t);
    }
    return arrivals;
}

std::vector<double>
burstyArrivalTrace(int n, double rate, uint64_t seed)
{
    // Pareto(alpha, xm) inter-arrival gaps with mean 1/rate: the
    // shape keeps most gaps tiny (bursts) and a heavy tail of long
    // silences, unlike the memoryless exponential.
    constexpr double kAlpha = 1.5;
    const double xm = (kAlpha - 1.0) / (kAlpha * rate);
    Rng rng = Rng(seed).fork(0xb117);
    std::vector<double> arrivals;
    arrivals.reserve(static_cast<size_t>(std::max(0, n)));
    double t = 0;
    for (int i = 0; i < n; ++i) {
        const double u = 1.0 - rng.uniform(); // (0, 1].
        t += xm * std::pow(u, -1.0 / kAlpha);
        arrivals.push_back(t);
    }
    return arrivals;
}

StatusOr<std::vector<double>>
makeArrivalTrace(const std::string &mode, int n, double rate,
                 uint64_t seed)
{
    if (n < 0)
        return Status::invalidArgument(
            "arrival trace length must be >= 0, got "
            + std::to_string(n));
    if (!(rate > 0) || !std::isfinite(rate))
        return Status::invalidArgument(
            "arrival rate must be a positive, finite number");
    if (mode == "poisson")
        return poissonArrivalTrace(n, rate, seed);
    if (mode == "bursty")
        return burstyArrivalTrace(n, rate, seed);
    return Status::invalidArgument(
        "unknown arrival mode '" + mode
        + "'; valid modes: poisson, bursty");
}

} // namespace fasttts
