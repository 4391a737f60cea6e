/**
 * @file
 * Online admission (queue) policies for the serving front-end.
 *
 * The paper's deployment model keeps one edge device responsive under
 * arrival pressure (Sec. 4.1.2: the speculative phase is fully
 * preemptible, so pending requests never wait behind speculation).
 * Which pending request should take the next free slot is a policy
 * decision, not an engine decision: this header makes it a first-class,
 * registry-backed axis so heuristic and learned admission policies can
 * be compared on identical arrival traces (see bench_runner's
 * online_scheduling benchmark).
 *
 * A QueuePolicy ranks the *request* queue of OnlineServer; it is
 * distinct from sched/scheduler.h's BeamScheduler, which orders the
 * *beams* of one in-flight request. Built-ins:
 *
 *  - "fifo"     arrival order (the legacy OnlineServer behaviour),
 *  - "priority" highest priority first, with time-based aging so a
 *               low-priority request cannot starve,
 *  - "sjf"      shortest predicted job first, using the roofline cost
 *               model's service-time estimate (Sec. 4.3.1),
 *  - "edf"      earliest deadline first (SLO-aware).
 *
 * Custom policies plug in through queuePolicyRegistry() without core
 * edits (see the README's "Extending FastTTS"):
 *
 *   queuePolicyRegistry().add("lifo", [] {
 *       return std::make_unique<MyLifoPolicy>();
 *   });
 */

#ifndef FASTTTS_SCHED_QUEUE_POLICY_H
#define FASTTTS_SCHED_QUEUE_POLICY_H

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/status.h"
#include "model/model_spec.h"
#include "model/workload.h"
#include "sim/roofline.h"

namespace fasttts
{

/** What an admission policy knows about one queued request. */
struct QueuedRequest
{
    uint64_t id = 0;          //!< Submission sequence number.
    int problemId = 0;        //!< Problem the request serves.
    double arrival = 0;       //!< Arrival time (s).
    int priority = 0;         //!< Higher = more important.
    double deadline = std::numeric_limits<double>::infinity();
                              //!< Absolute SLO deadline (s); infinity
                              //!< when the request carries no SLO.
    double predictedCost = 0; //!< Roofline-predicted service time (s).
};

/**
 * Admission-ordering policy: given the pending queue, pick the request
 * that should take the next free serving slot.
 *
 * Implementations must be deterministic functions of (pending, now)
 * and any internal state seeded at construction, so traces replay
 * bit-for-bit. pick() is non-const to allow stateful custom policies.
 */
class QueuePolicy
{
  public:
    virtual ~QueuePolicy() = default;

    /** Policy name for reports. */
    [[nodiscard]] virtual std::string name() const = 0;

    /**
     * Index into `pending` of the request to admit next.
     * @param pending Non-empty queue of requests that have arrived.
     * @param now Current wall-clock time (s); every pending arrival
     *            is <= now.
     */
    [[nodiscard]] virtual size_t
    pick(const std::vector<QueuedRequest> &pending, double now) = 0;

    /**
     * Whether `challenger` should take the device from `running`.
     * Nothing in the library calls it: the server serves every
     * admitted request by continuous batching. It stays so that
     * existing policy decorators that forward it keep building; the
     * base never preempts and no built-in overrides it.
     */
    [[nodiscard]] virtual bool
    shouldPreempt(const QueuedRequest &running,
                  const QueuedRequest &challenger, double now)
    {
        (void)running;
        (void)challenger;
        (void)now;
        return false;
    }
};

/** Arrival order — the legacy OnlineServer behaviour. */
[[nodiscard]] std::unique_ptr<QueuePolicy> makeFifoPolicy();

/**
 * Highest priority first with aging: a request's effective priority is
 * priority + aging_per_second * (now - arrival), so any positive aging
 * rate bounds how long a low-priority request can starve. Ties go to
 * the earlier arrival.
 */
[[nodiscard]] std::unique_ptr<QueuePolicy>
makePriorityPolicy(double aging_per_second = 0.05);

/**
 * Shortest predicted job first: minimises mean latency under load by
 * admitting the request with the smallest roofline-predicted service
 * time. Ties go to the earlier arrival.
 */
[[nodiscard]] std::unique_ptr<QueuePolicy> makeSjfPolicy();

/**
 * Earliest deadline first: classic SLO-aware admission. Requests
 * without a deadline (infinity) sort last; ties go to the earlier
 * arrival.
 */
[[nodiscard]] std::unique_ptr<QueuePolicy> makeEdfPolicy();

/**
 * The queue-policy registry. Ships with "fifo", "priority", "sjf" and
 * "edf"; register custom admission policies here to schedule new
 * workloads without touching core code.
 */
Registry<std::unique_ptr<QueuePolicy>> &queuePolicyRegistry();

/**
 * Construct a policy by registered name. Unknown names are a kNotFound
 * error listing the valid names — never a silent default.
 */
StatusOr<std::unique_ptr<QueuePolicy>>
makeQueuePolicy(const std::string &name);

/**
 * Roofline-based service-time prediction for one request (the cost
 * model "sjf" ranks by): prompt prefill plus the dataset's expected
 * reasoning depth worth of decode and verification. A ranking
 * heuristic — it sees only pre-serving observables (prompt length and
 * dataset statistics), never the request's sampled trajectory.
 */
[[nodiscard]] double predictServiceTime(const RooflineModel &roofline,
                          const ModelConfig &models,
                          const DatasetProfile &profile,
                          const Problem &problem, int num_beams);

/**
 * Rough prediction of one request's resident KV working set (bytes,
 * generator + verifier trees) for memory-aware admission: a shared
 * trunk of the expected reasoning depth plus a per-beam frontier of
 * one expected step, priced at each model's per-token KV cost. A
 * ranking/gating heuristic from pre-serving observables only — it
 * never sees the request's sampled trajectory.
 */
[[nodiscard]] double predictKvWorkingSetBytes(const ModelConfig &models,
                                const DatasetProfile &profile,
                                const Problem &problem, int num_beams);

} // namespace fasttts

#endif // FASTTTS_SCHED_QUEUE_POLICY_H
