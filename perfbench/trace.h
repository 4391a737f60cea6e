/**
 * @file
 * In-memory span recording for the traced benchmark run.
 *
 * A span is one timed call into a library layer: its name, start and
 * end on steady_clock, the span that was open when it began (its
 * parent) and the request it served. Spans are recorded from the
 * benchmark's own files only — around the public calls it makes, and
 * inside timing decorators it registers in the library's queue-policy
 * and search-algorithm registries — and are kept in memory until the
 * run writes them out.
 */

#ifndef FASTTTS_PERFBENCH_TRACE_H
#define FASTTTS_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using SteadyClock = std::chrono::steady_clock;

struct Span
{
    const char *name = "";
    SteadyClock::time_point start;
    SteadyClock::time_point end;
    int parent = -1;      //!< Index of the enclosing span; -1 for none.
    uint64_t request = 0; //!< Request served; 0 when not known.
};

/** Spans of one run, nested strictly (the simulator is single-threaded). */
class Tracer
{
  public:
    /** Whether open() records anything; off outside traced passes. */
    bool enabled = false;

    /** Begin a span; request 0 inherits the parent's request. */
    int open(const char *name, uint64_t request);

    /** End the span open() returned (-1 is ignored). */
    void close(int index);

    /** Attribute a span to a request once it is known (-1 ignored). */
    void setRequest(int index, uint64_t request);

    void clear();

    [[nodiscard]] const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the time its direct children cover (seconds). */
    [[nodiscard]] double selfSeconds(size_t index) const;

    /** Write Chrome trace-event JSON (Perfetto, chrome://tracing). */
    [[nodiscard]] bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<double> childSeconds_; //!< Per span, summed children.
    std::vector<int> stack_;
};

/** The process-wide tracer the decorators and the runner share. */
Tracer &tracer();

/** RAII span on tracer(). */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, uint64_t request)
        : index_(tracer().open(name, request))
    {
    }
    ~ScopedSpan() { tracer().close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int index_;
};

[[nodiscard]] double seconds(SteadyClock::duration d);

// Span names, shared by the runner and the per-layer metrics.
inline constexpr const char *kSpanSubmit = "serving.submit";
inline constexpr const char *kSpanStep = "engine.step";
inline constexpr const char *kSpanResult = "serving.result";
inline constexpr const char *kSpanServe = "online_server.serve";
inline constexpr const char *kSpanSelect = "search.select";
inline constexpr const char *kSpanPick = "queue_policy.pick";

/** Registry names of the timing decorators around beam_search / edf. */
inline constexpr const char *kTimedBeamSearch = "perfbench_timed_beam_search";
inline constexpr const char *kTimedEdf = "perfbench_timed_edf";

/** Register both decorators (idempotent). */
void registerTimingDecorators();

} // namespace perfbench

#endif // FASTTTS_PERFBENCH_TRACE_H
