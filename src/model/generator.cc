#include "model/generator.h"

#include <algorithm>
#include <cmath>

namespace fasttts
{

namespace
{

double
sigmoid(double x)
{
    return 1.0 / (1.0 + std::exp(-x));
}

} // namespace

SyntheticGenerator::SyntheticGenerator(const ModelSpec &spec,
                                       const DatasetProfile &profile)
    : spec_(spec), profile_(profile)
{
    // Larger models reason better; log-scale skill relative to 1.5B,
    // matching the qualitative 1.5B vs 7B gap the paper's Fig. 14
    // configurations exhibit.
    skill_ = 0.45 * std::log10(spec.numParams / 1.5e9);
    // Wrong answers follow a Zipf-like popularity skew: common mistakes
    // recur across paths, which is what makes majority voting
    // non-trivial.
    const int wrong_space = std::max(1, profile_.numAnswers - 1);
    wrongAnswerWeights_.resize(static_cast<size_t>(wrong_space));
    for (int k = 0; k < wrong_space; ++k)
        wrongAnswerWeights_[static_cast<size_t>(k)] = 1.0 / (1.0 + k);
}

int
SyntheticGenerator::sampleStepTokens(int step_index, Rng &rng) const
{
    // Later steps shorten slightly (wrap-up behaviour); the tail stays
    // heavy at every step, as in paper Fig. 3 (right).
    const double mu =
        profile_.stepLenMu - 0.02 * std::min(step_index, 10);
    const double len = rng.logNormal(mu, profile_.stepLenSigma);
    return std::clamp(static_cast<int>(len), profile_.minStepTokens,
                      profile_.maxStepTokens);
}

bool
SyntheticGenerator::sampleTerminal(int step_index, Rng &rng) const
{
    if (step_index + 1 >= profile_.maxSteps)
        return true;
    const double p = std::min(
        1.0, profile_.terminalBase + profile_.terminalGrowth * step_index);
    return rng.bernoulli(p);
}

double
SyntheticGenerator::initialQuality(const Problem &problem, Rng &rng) const
{
    (void)problem;
    return skill_ + rng.normal(0.0, 0.45);
}

double
SyntheticGenerator::evolveQuality(double parent_quality, Rng &rng) const
{
    // Mean-reverting walk around the model's skill level: verifier
    // guidance can select the upper tail of the stationary
    // distribution, but cannot push a small model's reasoning
    // arbitrarily far — which is why hard problems stay hard at any n.
    const double pull = 0.78;
    return skill_ + pull * (parent_quality - skill_)
        + rng.normal(-0.03, 0.28);
}

double
SyntheticGenerator::correctProbability(double quality,
                                       const Problem &problem) const
{
    // Steep in (quality - difficulty): problems are mostly either
    // within reach of the model+search or not, matching the strongly
    // problem-level accuracy structure of math benchmarks.
    return sigmoid(5.0 * (quality - problem.difficulty));
}

int
SyntheticGenerator::sampleAnswer(double quality, const Problem &problem,
                                 Rng &rng) const
{
    if (rng.bernoulli(correctProbability(quality, problem)))
        return 0;
    return 1 + rng.categorical(wrongAnswerWeights_);
}

} // namespace fasttts
