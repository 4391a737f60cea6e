/**
 * @file
 * Speculative Candidate Selection policy (paper Sec. 4.1.1).
 *
 * When standard beams in the generation batch complete, the freed
 * slots are filled with speculative branches of already-finished
 * beams. Priority uses the previous step's verifier score as a
 * zero-overhead proxy for retention probability: scores are
 * partitioned into B bins {C_1..C_B} (C_1 highest) and a beam in bin
 * C_j may speculate at most M = B - j + 1 branches. The policy also
 * draws the duplicate truncation length ~ N(R * len, sd) of
 * Algorithm 1's DuplicateThenTruncate.
 */

#ifndef FASTTTS_CORE_SPECULATIVE_H
#define FASTTTS_CORE_SPECULATIVE_H

#include <vector>

#include "util/rng.h"

namespace fasttts
{

/**
 * Stateless SelectSPEC policy.
 */
class SpeculativePolicy
{
  public:
    /**
     * @param branch_factor B: the search's branching factor, which is
     *        both the number of score bins and the max speculative
     *        potential.
     * @param truncation_ratio R: mean kept fraction for duplicates.
     */
    SpeculativePolicy(int branch_factor, double truncation_ratio);

    /** Branching factor B. */
    [[nodiscard]] int branchFactor() const { return branchFactor_; }

    /** Truncation ratio R. */
    [[nodiscard]] double truncationRatio() const
    {
        return truncationRatio_;
    }

    /**
     * Bin edges of one iteration's score set: the [lo, hi] range that
     * the equal-width partition divides. Computing this once per
     * iteration and reusing it for every beam turns the per-beam
     * potential query into O(1) (the engine ranks every beam once per
     * generation phase).
     */
    struct ScoreBins
    {
        double lo = 0;
        double hi = 0;
        bool empty = true;
    };

    /** Scan the score set once for its bin edges. */
    [[nodiscard]] ScoreBins
    scoreBins(const std::vector<double> &scores) const;

    /**
     * Speculative potential M_i of a beam: the maximum number of
     * branches it may speculate.
     * @param prev_score The beam's previous-step verifier score.
     * @param scores All active beams' previous-step scores (defines
     *        the bin edges for this iteration).
     * @return M_i in [1, B].
     */
    [[nodiscard]] int
    speculativePotential(double prev_score,
                         const std::vector<double> &scores) const;

    /** O(1) variant against pre-computed bin edges; identical result
     *  to speculativePotential(prev_score, scores) for
     *  bins = scoreBins(scores). */
    [[nodiscard]] int
    binnedPotential(double prev_score, const ScoreBins &bins) const;

    /**
     * Tokens a duplicate keeps from a speculated segment of spec_len
     * tokens: round(N(R * spec_len, 0.1 * spec_len)), clamped to
     * [0, spec_len]. Timing-only randomness (does not affect search
     * decisions).
     */
    [[nodiscard]] int truncationKeep(int spec_len, Rng &rng) const;

  private:
    int branchFactor_;
    double truncationRatio_;
};

} // namespace fasttts

#endif // FASTTTS_CORE_SPECULATIVE_H
