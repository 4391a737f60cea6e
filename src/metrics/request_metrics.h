/**
 * @file
 * Per-request serving metrics (paper Sec. 6.1, Metrics).
 *
 * Precise Goodput := average verified token length per beam divided by
 * average beam completion time — robust to straggler paths and to text
 * copied during branching. Completion latency is end-to-end per
 * request, broken down into generator and verifier components
 * (Fig. 13).
 */

#ifndef FASTTTS_METRICS_REQUEST_METRICS_H
#define FASTTTS_METRICS_REQUEST_METRICS_H

#include <vector>

#include "kv/kv_cache.h"
#include "metrics/accuracy.h"

namespace fasttts
{

/** Everything the engine reports for one TTS request. */
struct RequestResult
{
    // --- Timing ---
    double completionTime = 0;  //!< End-to-end wall time (seconds).
    double generatorTime = 0;   //!< Decode + recompute time.
    double verifierTime = 0;    //!< Verifier prefill time.
    double transferTime = 0;    //!< Offload traffic time.

    // --- Tokens ---
    long verifiedTokens = 0;    //!< Tokens surviving in verified paths.
    long generatedTokens = 0;   //!< All decoded tokens incl. speculation.
    long speculativeTokens = 0; //!< Decoded speculatively.
    long wastedSpecTokens = 0;  //!< Speculative tokens later discarded.

    // --- Beams ---
    int completedBeams = 0;
    double avgBeamTokens = 0;     //!< Mean verified tokens per beam.
    double avgBeamCompletion = 0; //!< Mean beam completion time.

    // --- Solutions (for accuracy metrics) ---
    std::vector<CompletedSolution> solutions;

    /** Generation phases cut at the engine's hang guard (safety_cap);
     *  any nonzero count is a simulator defect, not a result. */
    int defensiveExits = 0;

    // --- Cache behaviour ---
    KvStats kvStats;

    /**
     * Precise Goodput (tokens/s): avg token length per beam over avg
     * beam completion time. Zero when no beam completed.
     */
    double
    preciseGoodput() const
    {
        if (completedBeams == 0 || avgBeamCompletion <= 0)
            return 0.0;
        return avgBeamTokens / avgBeamCompletion;
    }
};

/** Mean of a field across request results. */
double meanGoodput(const std::vector<RequestResult> &results);
double meanCompletionTime(const std::vector<RequestResult> &results);
double meanGeneratorTime(const std::vector<RequestResult> &results);
double meanVerifierTime(const std::vector<RequestResult> &results);

/**
 * Exact sample quantile with linear interpolation between ranks — the
 * latency-percentile definition of the fasttts-bench-v1 JSON schema.
 * Returns 0 on an empty sample set.
 */
double sampleQuantile(std::vector<double> samples, double p);

/**
 * Ceil-rank percentile over an ascending-sorted sample set: the value
 * at index ceil(p*n)-1 (clamped), i.e. the smallest sample such that
 * at least a fraction p of the set is <= it. No interpolation — the
 * online-trace percentile definition (p50/p95/p99 of
 * OnlineTraceResult). Returns 0 on an empty set.
 */
double ceilRankPercentile(const std::vector<double> &sorted, double p);

} // namespace fasttts

#endif // FASTTTS_METRICS_REQUEST_METRICS_H
