#include "span_trace.hh"

#include <fstream>
#include <stdexcept>

namespace perfbench {

SpanTrace::SpanTrace(std::size_t reserve)
{
    spans_.reserve(reserve);
}

std::int64_t
SpanTrace::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int32_t
SpanTrace::open(const char *name, std::uint32_t job)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.job = job;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
    open_.push_back(id);
    // Read the clock last so the append is not charged to the span.
    spans_.back().start_ns = nowNs();
    return id;
}

void
SpanTrace::close(std::int32_t id)
{
    const std::int64_t now = nowNs();
    for (;;) {
        if (open_.empty())
            throw std::logic_error("SpanTrace::close: span not open");
        const std::int32_t top = open_.back();
        open_.pop_back();
        spans_[static_cast<std::size_t>(top)].end_ns = now;
        if (top == id)
            return;
    }
}

std::map<std::string, std::int64_t>
SpanTrace::selfNsByName() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span &span : spans_)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                span.end_ns - span.start_ns;
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

void
SpanTrace::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("SpanTrace: cannot write " + path);
    out << "{\"self_ns\": {";
    bool first = true;
    for (const auto &[name, ns] : selfNsByName()) {
        out << (first ? "" : ", ") << '"' << name << "\": " << ns;
        first = false;
    }
    out << "},\n \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "  {\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
            << ", \"job\": ";
        if (s.job == kNoJob)
            out << "null";
        else
            out << s.job;
        out << (i + 1 < spans_.size() ? "},\n" : "}\n");
    }
    out << " ]}\n";
}

} // namespace perfbench
