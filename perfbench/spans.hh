/**
 * @file
 * The benchmark's own span log: the traced run records one span around
 * every call it makes into a layer's public function, keeps them in
 * memory, and writes them out when the run ends.
 *
 * Kept apart from the simulator's FlightRecorder on purpose: the span
 * tracing observer is one of the layers this benchmark measures, so
 * the measuring instrument must not share its rings or thread state.
 * Single-threaded by design (the traced pipeline runs at 1 worker).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One completed span. Times are steady-clock nanoseconds. */
struct SpanRecord {
    std::string name;
    /** One trace per grid point; 0 for pass-level work. */
    std::uint64_t trace = 0;
    std::uint64_t id = 0;
    /** Enclosing span's id; 0 for a root. */
    std::uint64_t parent = 0;
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
};

/** In-memory span log. Disabled logs record nothing. */
class SpanLog
{
  public:
    /** RAII span: opened at construction, closed at destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, std::uint64_t trace = 0)
            : log_(log.enabled ? &log : nullptr)
        {
            if (!log_)
                return;
            index_ = log_->spans_.size();
            SpanRecord span;
            span.name = name;
            span.trace = trace != 0 ? trace : log_->currentTrace();
            span.id = index_ + 1;
            span.parent = log_->open_.empty() ? 0 : log_->open_.back() + 1;
            log_->open_.push_back(index_);
            span.beginNs = now();
            log_->spans_.push_back(std::move(span));
        }

        ~Scope()
        {
            if (!log_)
                return;
            log_->spans_[index_].endNs = now();
            log_->open_.pop_back();
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        std::size_t index_ = 0;
    };

    bool enabled = false;

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /**
     * Self time per span name, in nanoseconds: each span's duration
     * minus the part of it its direct children cover.
     */
    std::map<std::string, double>
    selfNs() const
    {
        std::vector<double> childNs(spans_.size(), 0.0);
        for (const SpanRecord &span : spans_) {
            if (span.parent != 0)
                childNs[span.parent - 1] +=
                    static_cast<double>(span.endNs - span.beginNs);
        }
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[spans_[i].name] +=
                static_cast<double>(spans_[i].endNs - spans_[i].beginNs) -
                childNs[i];
        }
        return self;
    }

    /** Spans named @p name. */
    std::size_t
    count(const std::string &name) const
    {
        std::size_t n = 0;
        for (const SpanRecord &span : spans_)
            n += span.name == name;
        return n;
    }

    /** One JSON object per line, in recording order. */
    void
    writeNdjson(std::ostream &os) const
    {
        for (const SpanRecord &span : spans_) {
            os << "{\"name\":\"" << span.name << "\",\"trace\":"
               << span.trace << ",\"span\":" << span.id
               << ",\"parent\":" << span.parent
               << ",\"begin_ns\":" << span.beginNs
               << ",\"end_ns\":" << span.endNs << "}\n";
        }
    }

  private:
    static std::int64_t
    now()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::uint64_t
    currentTrace() const
    {
        return open_.empty() ? 0 : spans_[open_.back()].trace;
    }

    std::vector<SpanRecord> spans_;
    /** Indices of the spans still open, innermost last. */
    std::vector<std::size_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
