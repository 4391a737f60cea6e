/**
 * @file
 * Wave-level batch scheduler for continuous cross-request batching.
 *
 * Every in-flight request's state is co-resident on one engine. This
 * scheduler produces the BatchPlan that fuses decode work from
 * *different* requests into one wave under a token budget — the
 * omniserve/vLLM continuous-batching design (max_num_batched_tokens
 * with a prefill/decode phase split):
 *
 *  - Decode first: requests already past their prompt always keep
 *    decoding, so a long prompt can never stall resident decoders.
 *  - Chunked prefill second: leftover token budget is handed to
 *    requests still prefilling their prompt, at most one chunk of
 *    `prefillChunk` tokens per request per wave.
 *  - Progress guarantee: the plan is never empty while any candidate
 *    has work, even when a single request's demand exceeds the
 *    budget (a budget that admits nobody would deadlock the server).
 *
 * The scheduler is a pure, deterministic function of its candidate
 * list — policy questions (admission order, preemption, shedding)
 * stay in OnlineServer/QueuePolicy; this class only packs one wave.
 */

#ifndef FASTTTS_SCHED_BATCH_SCHEDULER_H
#define FASTTTS_SCHED_BATCH_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fasttts
{

/** What one BatchPlan entry tells the engine to do for a member. */
enum class BatchWorkKind
{
    Decode,       //!< One full TTS iteration (all active beams).
    PrefillChunk, //!< Prefill up to `tokens` prompt tokens.
};

/** One request's share of a wave. */
struct BatchPlanEntry
{
    size_t member = 0; //!< Caller-defined candidate index.
    BatchWorkKind kind = BatchWorkKind::Decode;
    int tokens = 0;    //!< Budgeted tokens (decode estimate or chunk).
};

/** The work of one fused engine wave. */
struct BatchPlan
{
    std::vector<BatchPlanEntry> entries;
    long plannedTokens = 0; //!< Sum of entry token budgets.

    [[nodiscard]] bool empty() const { return entries.empty(); }

    /** Planned decode members (the wave's batch occupancy). */
    [[nodiscard]] int decodeMembers() const;
};

/** What the scheduler knows about one schedulable request. */
struct BatchCandidate
{
    size_t member = 0;      //!< Index the plan refers back to.
    int promptRemaining = 0; //!< Prompt tokens still to prefill;
                             //!< > 0 means the request cannot decode.
    int decodeTokens = 0;   //!< Predicted tokens one decode iteration
                            //!< emits (active beams x expected step).
    uint64_t prefixKey = 0; //!< Shared-prefix affinity key (0 = none):
                            //!< candidates with equal nonzero keys
                            //!< mount the same PrefixIndex node, so
                            //!< co-scheduling them keeps the shared
                            //!< KV hot within one wave. Tiebreak
                            //!< only — never changes admission
                            //!< eligibility, and all-zero keys
                            //!< reproduce the unkeyed plan exactly.
};

/**
 * Packs one wave under --max-batched-tokens. Stateless and
 * deterministic: identical candidates yield identical plans, so
 * batched traces replay bit-for-bit.
 */
class BatchScheduler
{
  public:
    /**
     * @param max_batched_tokens Per-wave token budget (>= 1).
     * @param prefill_chunk Largest prompt slice per request per wave
     *        (>= 1).
     */
    BatchScheduler(int max_batched_tokens, int prefill_chunk);

    /**
     * Pack one wave: decode members in the given candidate order
     * while the budget lasts, then prefill chunks from the leftover
     * budget. Candidates with no work (no prompt left and
     * decodeTokens <= 0) are skipped. The first admissible candidate
     * is always admitted even when its demand alone exceeds the
     * budget (progress guarantee).
     *
     * Prefix-affinity tiebreak: before packing, candidates that share
     * a nonzero prefixKey are stably regrouped behind the first
     * occurrence of their key, so waves co-schedule requests whose
     * prompts mount the same cached prefix. With no duplicate nonzero
     * keys (in particular, the cache off) the order — and therefore
     * the plan — is bit-identical to the unkeyed scheduler.
     */
    [[nodiscard]] BatchPlan
    plan(const std::vector<BatchCandidate> &candidates) const;

    [[nodiscard]] int maxBatchedTokens() const { return maxBatchedTokens_; }
    [[nodiscard]] int prefillChunk() const { return prefillChunk_; }

  private:
    int maxBatchedTokens_;
    int prefillChunk_;
};

} // namespace fasttts

#endif // FASTTTS_SCHED_BATCH_SCHEDULER_H
