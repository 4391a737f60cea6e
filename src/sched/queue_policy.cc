#include "sched/queue_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace fasttts
{

namespace
{

/**
 * Expected reasoning depth of a profile's termination process:
 * survival through step k requires not terminating after steps
 * 1..k-1. Shared by the service-time and working-set predictors so
 * the admission gate and the SJF/shedding cost estimate can never
 * desynchronize.
 */
double
expectedSteps(const DatasetProfile &profile)
{
    double survival = 1.0;
    double steps = 0.0;
    for (int k = 1; k <= profile.maxSteps; ++k) {
        steps += survival;
        const double p_terminal = std::min(
            1.0, profile.terminalBase + profile.terminalGrowth * (k - 1));
        survival *= 1.0 - p_terminal;
    }
    return steps;
}

/** Clamp a raw step-length estimate to the profile's support. */
double
clampStepTokens(const DatasetProfile &profile, double raw)
{
    return std::clamp(raw, static_cast<double>(profile.minStepTokens),
                      static_cast<double>(profile.maxStepTokens));
}

/**
 * Shared argmin scan: smallest key wins, ties broken by earlier
 * arrival, then by lower submission id so every policy is a total,
 * deterministic order.
 */
template <typename KeyFn>
size_t
pickByKey(const std::vector<QueuedRequest> &pending, KeyFn key)
{
    size_t best = 0;
    for (size_t i = 1; i < pending.size(); ++i) {
        const double a = key(pending[i]);
        const double b = key(pending[best]);
        if (a < b
            || (a == b
                && (pending[i].arrival < pending[best].arrival
                    || (pending[i].arrival == pending[best].arrival
                        && pending[i].id < pending[best].id))))
            best = i;
    }
    return best;
}

class FifoPolicy final : public QueuePolicy
{
  public:
    std::string name() const override { return "fifo"; }

    size_t
    pick(const std::vector<QueuedRequest> &pending, double) override
    {
        return pickByKey(pending,
                         [](const QueuedRequest &r) { return r.arrival; });
    }
};

class PriorityPolicy final : public QueuePolicy
{
  public:
    explicit PriorityPolicy(double aging_per_second)
        : agingPerSecond_(aging_per_second)
    {
    }

    std::string name() const override { return "priority"; }

    size_t
    pick(const std::vector<QueuedRequest> &pending, double now) override
    {
        // Negated effective priority so the shared argmin applies;
        // waiting time buys priority, bounding starvation.
        return pickByKey(pending, [&](const QueuedRequest &r) {
            return -(static_cast<double>(r.priority)
                     + agingPerSecond_ * (now - r.arrival));
        });
    }

  private:
    double agingPerSecond_;
};

class SjfPolicy final : public QueuePolicy
{
  public:
    std::string name() const override { return "sjf"; }

    size_t
    pick(const std::vector<QueuedRequest> &pending, double) override
    {
        return pickByKey(
            pending,
            [](const QueuedRequest &r) { return r.predictedCost; });
    }
};

class EdfPolicy final : public QueuePolicy
{
  public:
    std::string name() const override { return "edf"; }

    size_t
    pick(const std::vector<QueuedRequest> &pending, double) override
    {
        // Deadline-free requests carry +infinity and so sort last.
        return pickByKey(pending,
                         [](const QueuedRequest &r) { return r.deadline; });
    }
};

} // namespace

std::unique_ptr<QueuePolicy>
makeFifoPolicy()
{
    return std::make_unique<FifoPolicy>();
}

std::unique_ptr<QueuePolicy>
makePriorityPolicy(double aging_per_second)
{
    return std::make_unique<PriorityPolicy>(aging_per_second);
}

std::unique_ptr<QueuePolicy>
makeSjfPolicy()
{
    return std::make_unique<SjfPolicy>();
}

std::unique_ptr<QueuePolicy>
makeEdfPolicy()
{
    return std::make_unique<EdfPolicy>();
}

Registry<std::unique_ptr<QueuePolicy>> &
queuePolicyRegistry()
{
    static Registry<std::unique_ptr<QueuePolicy>> *registry = [] {
        // fasttts-lint: allow(naked-new) leaky registry singleton
        auto *r = new Registry<std::unique_ptr<QueuePolicy>>(
            "queue policy");
        checkOk(r->add("fifo", [] { return makeFifoPolicy(); }));
        checkOk(r->add("priority", [] { return makePriorityPolicy(); }));
        checkOk(r->add("sjf", [] { return makeSjfPolicy(); }));
        checkOk(r->add("edf", [] { return makeEdfPolicy(); }));
        return r;
    }();
    return *registry;
}

StatusOr<std::unique_ptr<QueuePolicy>>
makeQueuePolicy(const std::string &name)
{
    return queuePolicyRegistry().create(name);
}

double
predictServiceTime(const RooflineModel &roofline,
                   const ModelConfig &models,
                   const DatasetProfile &profile, const Problem &problem,
                   int num_beams)
{
    const int beams = std::max(1, num_beams);

    // A TTS iteration decodes until its *longest* beam finishes
    // (stragglers, paper Fig. 3/4), so the per-iteration token count
    // is the expected maximum of `beams` log-normal step draws, not
    // the mean. Extreme-value approximation of the normal max
    // quantile: z_n ~ sqrt(2 ln n) - (ln ln n + ln 4pi) / (2 sqrt(2
    // ln n)).
    double z_max = 0;
    if (beams >= 2) {
        const double ln_n = std::log(static_cast<double>(beams));
        const double root = std::sqrt(2.0 * ln_n);
        z_max = root
            - (std::log(ln_n) + std::log(4.0 * 3.14159265358979))
                / (2.0 * root);
        z_max = std::max(0.0, z_max);
    }
    const double step_tokens = clampStepTokens(
        profile,
        std::exp(profile.stepLenMu + profile.stepLenSigma * z_max));

    const double steps = expectedSteps(profile);

    // Midpoint context: prompt plus half the expected reasoning tokens.
    const double ctx =
        problem.promptTokens + 0.5 * steps * step_tokens;

    const double prompt_prefill =
        roofline.prefillTime(models.generator, 1, problem.promptTokens);
    const double decode_per_step =
        step_tokens
        * roofline.decodeStepTime(models.generator, beams, ctx);
    const double verify_per_step =
        roofline.prefillTime(models.verifier, beams, step_tokens);
    return prompt_prefill + steps * (decode_per_step + verify_per_step);
}

double
predictKvWorkingSetBytes(const ModelConfig &models,
                         const DatasetProfile &profile,
                         const Problem &problem, int num_beams)
{
    const int beams = std::max(1, num_beams);

    // Expected (mean) step length of the log-normal profile, and the
    // same reasoning-depth process as the service-time predictor.
    const double step_tokens = clampStepTokens(
        profile,
        std::exp(profile.stepLenMu
                 + 0.5 * profile.stepLenSigma * profile.stepLenSigma));
    const double steps = expectedSteps(profile);

    // Prefix sharing keeps most of the tree a single trunk; the
    // per-beam unique suffix is about one step deep at any moment.
    const double tree_tokens = problem.promptTokens
        + steps * step_tokens + beams * step_tokens;
    return tree_tokens
        * (models.generator.kvBytesPerToken()
           + models.verifier.kvBytesPerToken());
}

} // namespace fasttts
