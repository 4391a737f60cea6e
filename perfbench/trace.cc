#include "trace.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "sched/queue_policy.h"
#include "search/search_algorithm.h"

namespace perfbench
{

double
seconds(SteadyClock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

int
Tracer::open(const char *name, uint64_t request)
{
    if (!enabled)
        return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request != 0 || span.parent < 0
        ? request
        : spans_[static_cast<size_t>(span.parent)].request;
    span.start = SteadyClock::now();
    spans_.push_back(span);
    childSeconds_.push_back(0.0);
    const int index = static_cast<int>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    if (index < 0)
        return;
    Span &span = spans_[static_cast<size_t>(index)];
    span.end = SteadyClock::now();
    stack_.pop_back();
    if (span.parent >= 0)
        childSeconds_[static_cast<size_t>(span.parent)] +=
            seconds(span.end - span.start);
}

void
Tracer::setRequest(int index, uint64_t request)
{
    if (index >= 0)
        spans_[static_cast<size_t>(index)].request = request;
}

void
Tracer::clear()
{
    spans_.clear();
    childSeconds_.clear();
    stack_.clear();
}

double
Tracer::selfSeconds(size_t index) const
{
    return seconds(spans_[index].end - spans_[index].start)
        - childSeconds_[index];
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const SteadyClock::time_point origin =
        spans_.empty() ? SteadyClock::time_point() : spans_[0].start;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                     "\"parent\":%d,\"request\":%llu}}\n",
                     i == 0 ? "" : ",", s.name,
                     1e6 * seconds(s.start - origin),
                     1e6 * seconds(s.end - s.start), i, s.parent,
                     static_cast<unsigned long long>(s.request));
    }
    std::fputs("]}\n", out);
    return std::fclose(out) == 0;
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

namespace
{

/** beam_search with every select() call recorded as a span. */
class TimedSearch : public fasttts::SearchAlgorithm
{
  public:
    explicit TimedSearch(std::unique_ptr<fasttts::SearchAlgorithm> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    int beamWidth() const override { return inner_->beamWidth(); }
    int branchFactor() const override { return inner_->branchFactor(); }

    fasttts::SelectionResult
    select(const std::vector<fasttts::BeamCandidate> &candidates,
           int target_width, fasttts::Rng &rng) const override
    {
        const ScopedSpan span(kSpanSelect, 0);
        return inner_->select(candidates, target_width, rng);
    }

    int
    stepTokenCap(int step_index) const override
    {
        return inner_->stepTokenCap(step_index);
    }

  private:
    std::unique_ptr<fasttts::SearchAlgorithm> inner_;
};

/** edf with every pick() call recorded as a span. */
class TimedPolicy : public fasttts::QueuePolicy
{
  public:
    explicit TimedPolicy(std::unique_ptr<fasttts::QueuePolicy> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    size_t
    pick(const std::vector<fasttts::QueuedRequest> &pending,
         double now) override
    {
        const int index = tracer().open(kSpanPick, 0);
        const size_t picked = inner_->pick(pending, now);
        if (picked < pending.size())
            // Ticket ids count from 0; span request id 0 means unknown.
            tracer().setRequest(index, pending[picked].id + 1);
        tracer().close(index);
        return picked;
    }

    bool
    shouldPreempt(const fasttts::QueuedRequest &running,
                  const fasttts::QueuedRequest &challenger,
                  double now) override
    {
        return inner_->shouldPreempt(running, challenger, now);
    }

  private:
    std::unique_ptr<fasttts::QueuePolicy> inner_;
};

} // namespace

void
registerTimingDecorators()
{
    auto &algorithms = fasttts::algorithmRegistry();
    if (!algorithms.contains(kTimedBeamSearch))
        fasttts::checkOk(algorithms.add(
            kTimedBeamSearch,
            [](int n, int b) -> std::unique_ptr<fasttts::SearchAlgorithm> {
                return std::make_unique<TimedSearch>(
                    fasttts::makeAlgorithm("beam_search", n, b).value());
            }));
    auto &policies = fasttts::queuePolicyRegistry();
    if (!policies.contains(kTimedEdf))
        fasttts::checkOk(policies.add(
            kTimedEdf, []() -> std::unique_ptr<fasttts::QueuePolicy> {
                return std::make_unique<TimedPolicy>(
                    fasttts::makeQueuePolicy("edf").value());
            }));
}

} // namespace perfbench
