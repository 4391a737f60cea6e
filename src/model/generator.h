/**
 * @file
 * Synthetic reasoning generator: the policy model's observable behaviour.
 *
 * The real generator (Qwen2.5-Math) affects the serving system through
 * three channels, all modelled here:
 *   1. how many tokens each thinking step emits (the irregularity that
 *      causes stragglers, Sec. 3.2.1);
 *   2. when a reasoning path terminates;
 *   3. the latent quality of a path, which drives verifier scores and
 *      final-answer correctness.
 *
 * Quality follows a per-path random walk whose drift depends on model
 * scale, so larger generators reach correct answers more often; the
 * verifier observes quality through noise (see verifier.h). This is
 * the standard latent-skill abstraction for search-over-LLM studies
 * and preserves exactly the accuracy/selection dynamics the paper's
 * algorithms exploit.
 */

#ifndef FASTTTS_MODEL_GENERATOR_H
#define FASTTTS_MODEL_GENERATOR_H

#include <vector>

#include "model/model_spec.h"
#include "model/workload.h"
#include "util/rng.h"

namespace fasttts
{

/**
 * Stochastic generator bound to one model and one dataset profile.
 *
 * All sampling goes through caller-provided Rng streams, so two engines
 * replaying the same seeds observe identical step lengths, terminal
 * decisions and answers — the foundation of the algorithmic-equivalence
 * property tests.
 */
class SyntheticGenerator
{
  public:
    SyntheticGenerator(const ModelSpec &spec,
                       const DatasetProfile &profile);

    /** Model architecture backing this generator. */
    const ModelSpec &spec() const { return spec_; }

    /** Dataset profile backing this generator. */
    const DatasetProfile &profile() const { return profile_; }

    /**
     * Sample the token length of the next thinking step.
     * @param step_index 0-based reasoning-step index.
     * @param rng The beam's RNG stream.
     */
    int sampleStepTokens(int step_index, Rng &rng) const;

    /**
     * Whether the path terminates after completing the given step.
     * Always true at profile().maxSteps - 1.
     */
    bool sampleTerminal(int step_index, Rng &rng) const;

    /** Initial quality of a fresh path on a problem. */
    double initialQuality(const Problem &problem, Rng &rng) const;

    /** Quality of a child step given its parent's quality. */
    double evolveQuality(double parent_quality, Rng &rng) const;

    /**
     * Sample the final answer of a terminal path.
     * @return 0 for the correct answer; 1..numAnswers-1 are distinct
     *         wrong answers with a Zipf-like popularity skew (wrong
     *         answers cluster, as they do in practice).
     */
    int sampleAnswer(double quality, const Problem &problem,
                     Rng &rng) const;

    /** Probability a terminal path with this quality answers correctly. */
    double correctProbability(double quality, const Problem &problem) const;

    /** Scale-dependent skill bonus added to the quality drift. */
    double skill() const { return skill_; }

  private:
    ModelSpec spec_;
    DatasetProfile profile_;
    double skill_;
    std::vector<double> wrongAnswerWeights_; //!< Zipf popularity of
                                             //!< answers 1..numAnswers-1.
};

} // namespace fasttts

#endif // FASTTTS_MODEL_GENERATOR_H
