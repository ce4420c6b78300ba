#include "telemetry/tracing.hh"

#include <chrono>

namespace lergan {

std::uint64_t
traceNowNs()
{
    // One epoch for the whole process, captured on first use (function-
    // local static: thread-safe, ordered before any span can read the
    // clock). Spans on every lane measure from here, so their timelines
    // share an origin.
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

namespace tracing_detail {

ThreadState &
state()
{
    thread_local ThreadState ts;
    return ts;
}

} // namespace tracing_detail

Span *
currentSpan()
{
    return tracing_detail::state().current;
}

void
annotate(const char *key, bool value)
{
    if (Span *span = currentSpan())
        span->attr(key, value);
}

void
annotate(const char *key, std::int64_t value)
{
    if (Span *span = currentSpan())
        span->attr(key, value);
}

void
annotate(const char *key, std::string_view value)
{
    if (Span *span = currentSpan())
        span->attr(key, value);
}

void
annotate(const char *key, double value, bool host)
{
    if (Span *span = currentSpan())
        span->attr(key, value, host);
}

} // namespace lergan
