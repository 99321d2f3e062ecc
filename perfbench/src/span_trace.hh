/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * The benchmark wraps each public call it makes into the library in a
 * span (name, start, end, parent, job id). Spans stay in memory and are
 * written once, when the run ends, so recording costs two clock reads
 * and a vector append. A span's self time is its duration minus the
 * durations of its child spans; the traced calls run serially on one
 * thread, so children always nest inside their parent.
 */

#ifndef PERFBENCH_SPAN_TRACE_HH
#define PERFBENCH_SPAN_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Job id of spans that belong to no single job (windows, set-up). */
constexpr std::uint32_t kNoJob = 0xffffffffu;

struct Span
{
    const char *name = "";  ///< Static string: "<layer>.<call>".
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1; ///< Index of the enclosing span, or -1.
    std::uint32_t job = kNoJob;
};

class SpanTrace
{
  public:
    explicit SpanTrace(std::size_t reserve = 0);

    /** Open a span under the innermost open span; returns its id. */
    std::int32_t open(const char *name, std::uint32_t job);

    /**
     * Close span `id` and every span opened inside it that is still
     * open (a span opened by a callback the traced call invoked ends
     * when that call returns).
     */
    void close(std::int32_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time summed per span name, in nanoseconds. */
    std::map<std::string, std::int64_t> selfNsByName() const;

    /** Write every span and the per-name self times as JSON. */
    void writeJson(const std::string &path) const;

  private:
    static std::int64_t nowNs();

    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanTrace &trace, const char *name,
              std::uint32_t job = kNoJob)
        : trace_(trace), id_(trace.open(name, job))
    {
    }
    ~SpanScope() { trace_.close(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanTrace &trace_;
    std::int32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_HH
