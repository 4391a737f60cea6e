#include "core/online_server.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <utility>

#include "util/rng.h"
#include "util/units.h"

namespace fasttts
{

OnlineServer::OnlineServer(ServingSystem system,
                           std::unique_ptr<KvBudgetLedger> ledger,
                           std::unique_ptr<FaultInjector> faults,
                           OnlineServerOptions online,
                           std::unique_ptr<QueuePolicy> policy,
                           RooflineModel roofline, DatasetProfile profile)
    : faults_(std::move(faults)), ledger_(std::move(ledger)),
      system_(std::move(system)),
      online_(std::move(online)), policy_(std::move(policy)),
      roofline_(std::move(roofline)), profile_(std::move(profile))
{
}

StatusOr<OnlineServer>
OnlineServer::create(const ServingOptions &options)
{
    return create(options, OnlineServerOptions());
}

Status
OnlineServerOptions::validate() const
{
    // "unknown <what> mode '<value>'; valid modes: a, b" unless the
    // value is one of `modes`.
    const auto check_mode =
        [](const char *what, const std::string &value,
           std::initializer_list<const char *> modes) -> Status {
        std::string valid;
        for (const char *mode : modes) {
            if (value == mode)
                return okStatus();
            valid += (valid.empty() ? "" : ", ") + std::string(mode);
        }
        return Status::invalidArgument("unknown " + std::string(what)
                                       + " mode '" + value
                                       + "'; valid modes: " + valid);
    };
    const auto non_negative = [](double value) {
        return value >= 0 && std::isfinite(value);
    };

    if (maxInflight < 1 || maxInflight > 64)
        return Status::invalidArgument(
            "max_inflight must be in [1, 64], got "
            + std::to_string(maxInflight));
    if (!non_negative(slo))
        return Status::invalidArgument("slo must be >= 0 seconds");
    if (!non_negative(kvBudgetGiB))
        return Status::invalidArgument(
            "kv_budget must be >= 0 GiB (0 uses the engine's device "
            "KV budget)");
    if (Status s = check_mode("batching", batching, {"continuous"}); !s.ok())
        return s;
    if (maxBatchedTokens < 1)
        return Status::invalidArgument(
            "max_batched_tokens must be >= 1, got "
            + std::to_string(maxBatchedTokens));
    if (prefillChunk < 1)
        return Status::invalidArgument(
            "prefill_chunk must be >= 1, got "
            + std::to_string(prefillChunk));
    if (Status s = check_mode("prefix-cache", prefixCache, {"off", "on"});
        !s.ok())
        return s;
    if (!non_negative(prefixCacheBudgetGiB))
        return Status::invalidArgument(
            "prefix_cache_budget must be >= 0 GiB (0 defaults to "
            "1/8 of the shared KV budget)");
    if (Status s = check_mode("faults", faults, {"off", "plan"}); !s.ok())
        return s;
    if (faults == "plan") {
        if (faultPlan.empty())
            return Status::invalidArgument(
                "faults=plan requires a fault-plan JSON schedule "
                "(--fault-plan)");
        if (auto plan = FaultPlan::fromJsonText(faultPlan); !plan.ok())
            return plan.status();
    }
    if (retryMax < 0 || retryMax > 16)
        return Status::invalidArgument(
            "retry_max must be in [0, 16], got "
            + std::to_string(retryMax));
    if (!non_negative(retryBackoff))
        return Status::invalidArgument(
            "retry_backoff must be >= 0 seconds");
    if (!non_negative(requestTimeout))
        return Status::invalidArgument(
            "request_timeout must be >= 0 seconds (0 disables the "
            "watchdog)");
    return okStatus();
}

StatusOr<OnlineServer>
OnlineServer::create(const ServingOptions &options,
                     const OnlineServerOptions &online)
{
    if (Status status = online.validate(); !status.ok())
        return status;

    auto policy = makeQueuePolicy(online.policy);
    if (!policy.ok())
        return policy.status();

    // ONE serving system — engine, device, KV — shared by every
    // in-flight request; interleaving goes through suspend/resume.
    auto system = ServingSystem::create(options);
    if (!system.ok())
        return system.status();

    // The shared KV budget: the one single-device pool all in-flight
    // requests contend for — --kv-budget when set, otherwise the
    // engine's own device KV budget.
    const double budget_bytes = online.kvBudgetGiB > 0
        ? online.kvBudgetGiB * GiB
        : system->engine().kvBudgetBytes();
    auto ledger = std::make_unique<KvBudgetLedger>(budget_bytes);
    system->attachKvLedger(ledger.get());

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
        // validate() parsed this plan already; value() cannot fail.
        injector = std::make_unique<FaultInjector>(
            FaultPlan::fromJsonText(online.faultPlan).value(),
            options.seed);
        ledger->attachFaultInjector(injector.get());
        system->attachFaultInjector(injector.get());
    }

    // The SJF predictor's inputs; names were just validated by
    // ServingSystem::create, so the lookups cannot fail.
    auto device = deviceByName(options.deviceName);
    auto profile = datasetByName(options.datasetName);
    return OnlineServer(*std::move(system), std::move(ledger),
                        std::move(injector), online,
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
    auto trace = serveRequests(requests, &results);
    (void)trace;
    return aggregateResults(std::move(results),
                            system_.options().numBeams);
}

StatusOr<OnlineTraceResult>
OnlineServer::serveRequests(const std::vector<OnlineRequest> &requests,
                            std::vector<RequestResult> *results)
{
    const std::vector<Problem> &problems = system_.problems();
    if (requests.empty() || problems.empty())
        return aggregateTrace({}, 0.0);

    constexpr double kInfinity = std::numeric_limits<double>::infinity();

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
    const double watchdog = online_.requestTimeout;
    const int engine_exits_before = system_.engine().defensiveExits();
    int defensive_exits = 0; //!< The serve loop's own hang-guard exits.

    // --- In-flight bookkeeping. ---
    struct Flight
    {
        Ticket ticket;
        RequestId sysId = 0;  //!< Parked in the engine at admission.
        bool started = false; //!< rec.start stamped (first wave).
        bool benched = false; //!< Force-evicted under memory pressure;
                              //!< sits waves out until the ledger can
                              //!< hold its predicted working set again.
        long decoded = 0;     //!< Decode tokens this attempt has
                              //!< produced (wasted if killed).
        OnlineRequestRecord rec;
    };

    const BatchScheduler scheduler(online_.maxBatchedTokens,
                                   online_.prefillChunk);
    const double step_tokens =
        std::max(1.0, system_.engine().expectedStepTokens());
    const double headroom = 0.10 * ledger_->totalBytes();
    const size_t max_inflight = static_cast<size_t>(online_.maxInflight);
    std::vector<Ticket> queued;
    std::vector<Flight> inflight;
    std::vector<OnlineRequestRecord> records;
    records.reserve(tickets.size());
    std::vector<QueuedRequest> view; // pick() scratch.
    size_t next_ticket = 0;
    double now = 0;
    double busy = 0;
    int cancelled = 0;
    int shed = 0;
    long waves = 0;         //!< Engine waves...
    long wave_members = 0;  //!< ...and their decode members.
    long blocked_steps = 0;
    long recomputed_tokens = 0;
    long reprefilled_tokens = 0;
    long preempt_evicted = 0;
    long verified_tokens = 0;
    long generated_tokens = 0;
    long prefix_hit_tokens = 0;

    // Abnormal exit of an in-flight attempt (watchdog or fault): its
    // decode so far is wasted recompute, and cancelWith refunds every
    // KV charge and prefix pin exactly (the abnormal-exit path never
    // publishes the prompt).
    const auto killFlight = [&](size_t idx, Status reason) {
        const RequestId id = inflight[idx].sysId;
        fault_wasted += inflight[idx].decoded;
        checkOk(system_.cancelWith(id, std::move(reason)));
        checkOk(system_.release(id));
        inflight.erase(inflight.begin() + static_cast<long>(idx));
    };

    // --- The serve loop. Each turn takes in arrivals and expired
    //     retries, drops cancelled and timed-out requests, admits
    //     through the policy, then runs one engine wave. ---
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

        // The policy fills free in-flight slots (work conservation:
        // the device never idles while a request is queued).
        while (!queued.empty() && inflight.size() < max_inflight) {
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
            if (!inflight.empty()) {
                double inflight_kv = 0;
                for (const Flight &f : inflight)
                    inflight_kv += f.ticket.kvBytes;
                if (inflight_kv + ticket.kvBytes > ledger_->totalBytes())
                    break; // Wait for completions.
            }

            queued.erase(queued.begin() + static_cast<long>(pick));
            Flight flight;
            flight.ticket = ticket;
            flight.rec.problemId = ticket.meta.problemId;
            flight.rec.arrival = ticket.meta.arrival;
            flight.rec.priority = ticket.meta.priority;
            flight.rec.deadline = ticket.meta.deadline;
            // Park it immediately with a deferred prompt: the
            // scheduler feeds the prompt in chunks, so it never stalls
            // the decoders already in a batch.
            flight.sysId = system_.submit(ticketProblem(ticket));
            checkOk(system_.startSuspended(flight.sysId,
                                           /*defer_prompt=*/true));
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
            if (!std::isfinite(next_event)) {
                ++defensive_exits; // Defensive: nothing can ever run.
                break;
            }
            now = std::max(now, next_event);
            continue;
        }

        // --- Choose the wave's members. Every unbenched member runs.
        //     Under budget pressure the later-admitted members are
        //     force-evicted and benched. Benching is sticky with
        //     hysteresis: a member returns only when the ledger can
        //     hold its predicted working set on top of double the
        //     pressure threshold — re-admitting it the moment its own
        //     eviction freed the room would lazily re-prefill its KV,
        //     re-create the pressure and evict it again, paying the
        //     recompute forever. The oldest member always runs (a
        //     benched member that becomes oldest after a completion is
        //     released), so a thrashing batch shrinks to one resident
        //     working set instead of deadlocking or ping-ponging. ---

        // Remembered so the hysteresis rule below cannot clear the
        // front's flag twice.
        const bool front_returned = inflight.front().benched;
        inflight.front().benched = false;
        // While the ledger is short of headroom, evict the youngest-
        // admitted members first.
        for (size_t i = inflight.size() - 1;
             i > 0 && ledger_->freeBytes() < headroom; --i) {
            if (inflight[i].benched)
                continue;
            auto tokens = system_.evictSuspendedKv(inflight[i].sysId);
            if (tokens.ok()) {
                preempt_evicted += *tokens;
                inflight[i].benched = true;
            }
        }
        // At most one return per wave, oldest benched first
        // (pickBenchReturn holds the unit-tested contract).
        std::vector<std::pair<bool, double>> wave;
        wave.reserve(inflight.size());
        for (const Flight &flight : inflight)
            wave.emplace_back(flight.benched, flight.ticket.kvBytes);
        const int back = pickBenchReturn(wave, ledger_->freeBytes(),
                                         headroom, front_returned);
        if (back >= 0)
            inflight[static_cast<size_t>(back)].benched = false;

        // Wave-step fault probe: every member of this wave probes the
        // injector. A fault kills the attempt before the wave runs: it
        // consumes no device time and is retried after backoff or
        // failed.
        if (injector != nullptr) {
            for (size_t i = inflight.size(); i > 0; --i) {
                const Flight &flight = inflight[i - 1];
                if (flight.benched
                    || !injector->shouldFault(
                        FaultSite::kWaveStep,
                        static_cast<long>(flight.ticket.meta.id)))
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
            if (std::all_of(inflight.begin(), inflight.end(),
                            [](const Flight &f) { return f.benched; }))
                continue; // Loop top re-admits, re-picks or idles.
        }

        // --- Run the wave: one plan over the members, one fused
        //     engine wave (sched/batch_scheduler.h). ---
        std::vector<RequestId> ids;
        ids.reserve(inflight.size());
        std::vector<BatchCandidate> candidates;
        candidates.reserve(inflight.size());
        for (size_t i = 0; i < inflight.size(); ++i) {
            const Flight &flight = inflight[i];
            ids.push_back(flight.sysId);
            if (flight.benched)
                continue;
            const auto info = system_.suspendedInfo(flight.sysId);
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
        const double wave_start = now;
        const double wave_time = outcome->schedule.waveTime;
        now += wave_time;
        busy += wave_time;
        wave_members += plan.decodeMembers();
        ++waves;

        // --- Completion accounting for every request that ran. ---
        for (size_t i = inflight.size(); i > 0; --i) {
            const BatchMemberOutcome &member = outcome->members[i - 1];
            if (!member.participated)
                continue;
            Flight &flight = inflight[i - 1];
            if (!flight.started) {
                flight.rec.start = wave_start;
                flight.started = true;
            }
            flight.rec.activeTime += member.activeDelta;
            flight.decoded += member.decodedTokens;
            blocked_steps += member.blocked ? 1 : 0;
            if (member.moreWork)
                continue;
            flight.rec.finish = now;
            auto result = system_.result(flight.sysId);
            if (result.ok()) {
                verified_tokens += result->verifiedTokens;
                generated_tokens += result->generatedTokens;
                recomputed_tokens += static_cast<long>(
                    result->kvStats.recomputedTokens);
                reprefilled_tokens += static_cast<long>(
                    result->kvStats.reprefilledTokens);
                prefix_hit_tokens += static_cast<long>(
                    result->kvStats.prefixHitTokens);
                if (results != nullptr)
                    results->push_back(*std::move(result));
            }
            records.push_back(flight.rec);
            checkOk(system_.release(flight.sysId));
            inflight.erase(inflight.begin() + static_cast<long>(i - 1));
        }
    }

    OnlineTraceResult out = aggregateTrace(std::move(records), busy);
    out.cancelled = cancelled;
    out.shedRequests = shed;
    out.recomputedTokens = recomputed_tokens;
    out.reprefilledTokens = reprefilled_tokens;
    out.preemptEvictedTokens = preempt_evicted;
    out.verifiedTokens = verified_tokens;
    out.generatedTokens = generated_tokens;
    out.prefixHitTokens = prefix_hit_tokens;
    out.blockedSteps = blocked_steps;
    out.batchOccupancy = waves > 0
        ? static_cast<double>(wave_members) / static_cast<double>(waves)
        : 0.0;

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
    out.defensiveExits = defensive_exits
        + system_.engine().defensiveExits() - engine_exits_before;
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
    return out;
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
