#include "telemetry/flight_recorder.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "telemetry/metrics.hh"

namespace lergan {

namespace {

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/** Stable (trace, span) ordering — the exporter's contract. */
void
sortEvents(std::vector<SpanEvent> &events)
{
    std::sort(events.begin(), events.end(),
              [](const SpanEvent &a, const SpanEvent &b) {
                  if (a.trace != b.trace)
                      return a.trace < b.trace;
                  return a.span < b.span;
              });
}

/** %.17g — round-trip exact, the repo's JSON number discipline. */
std::string
numExact(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** Microseconds with fixed sub-µs precision for host timestamps. */
std::string
numUs(std::uint64_t ns)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(ns) * 1e-3);
    return buf;
}

void
writeAttrValue(std::ostream &os, const SpanAttr &attr)
{
    switch (attr.kind) {
    case SpanAttr::Kind::Bool:
        os << (attr.i ? "true" : "false");
        break;
    case SpanAttr::Kind::Int:
        os << attr.i;
        break;
    case SpanAttr::Kind::Float:
        os << numExact(attr.f);
        break;
    case SpanAttr::Kind::Text:
        os << '"' << JsonWriter::escape(attr.text) << '"';
        break;
    case SpanAttr::Kind::None:
        os << "null";
        break;
    }
}

} // namespace

FlightRing::FlightRing(std::size_t capacity)
    : slots_(roundUpPow2(capacity == 0 ? 1 : capacity)),
      mask_(slots_.size() - 1)
{
}

std::vector<SpanEvent>
FlightRing::snapshot() const
{
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t resident =
        head < slots_.size() ? head : slots_.size();
    std::vector<SpanEvent> events;
    events.reserve(resident);
    for (std::uint64_t i = head - resident; i < head; ++i)
        events.push_back(slots_[i & mask_]);
    return events;
}

FlightRecorder::FlightRecorder(std::size_t lane_capacity)
    : laneCapacity_(lane_capacity),
      main_(std::make_unique<FlightRing>(lane_capacity))
{
}

void
FlightRecorder::prepareLanes(std::size_t lanes)
{
    while (lanes_.size() < lanes)
        lanes_.push_back(std::make_unique<FlightRing>(laneCapacity_));
}

FlightRing &
FlightRecorder::lane(std::size_t lane)
{
    LERGAN_ASSERT(lane < lanes_.size(),
                  "flight-recorder lane ", lane, " not prepared (",
                  lanes_.size(), " lanes)");
    return *lanes_[lane];
}

std::vector<SpanEvent>
FlightRecorder::collect() const
{
    std::vector<SpanEvent> events = main_->snapshot();
    for (const auto &ring : lanes_) {
        const std::vector<SpanEvent> lane_events = ring->snapshot();
        events.insert(events.end(), lane_events.begin(),
                      lane_events.end());
    }
    sortEvents(events);
    return events;
}

std::vector<SpanEvent>
FlightRecorder::collectTrace(TraceId trace) const
{
    std::vector<SpanEvent> all = collect();
    std::vector<SpanEvent> events;
    for (const SpanEvent &event : all)
        if (event.trace == trace)
            events.push_back(event);
    return events;
}

std::uint64_t
FlightRecorder::dropped() const
{
    std::uint64_t total = main_->dropped();
    for (const auto &ring : lanes_)
        total += ring->dropped();
    return total;
}

std::uint64_t
FlightRecorder::recorded() const
{
    std::uint64_t total = main_->recorded();
    for (const auto &ring : lanes_)
        total += ring->recorded();
    return total;
}

void
writeSpanNdjson(std::ostream &os, const std::vector<SpanEvent> &events,
                bool include_host)
{
    for (const SpanEvent &event : events) {
        os << "{\"trace\":" << event.trace << ",\"span\":" << event.span
           << ",\"parent\":" << event.parent << ",\"name\":\""
           << JsonWriter::escape(event.name) << '"';
        bool any_attrs = false;
        for (std::uint32_t a = 0; a < event.attrCount; ++a) {
            const SpanAttr &attr = event.attrs[a];
            if (attr.host)
                continue;
            os << (any_attrs ? "," : ",\"attrs\":{") << '"'
               << JsonWriter::escape(attr.key) << "\":";
            writeAttrValue(os, attr);
            any_attrs = true;
        }
        if (any_attrs)
            os << '}';
        if (include_host) {
            // Every wall-clock fact rides in this one trailing object,
            // so a line filter can strip host-dependence wholesale.
            os << ",\"host\":{\"lane\":";
            if (event.lane == SpanEvent::kMainLane)
                os << -1;
            else
                os << event.lane;
            os << ",\"begin_us\":" << numUs(event.beginNs)
               << ",\"dur_us\":" << numUs(event.endNs - event.beginNs);
            for (std::uint32_t a = 0; a < event.attrCount; ++a) {
                const SpanAttr &attr = event.attrs[a];
                if (!attr.host)
                    continue;
                os << ",\"" << JsonWriter::escape(attr.key) << "\":";
                writeAttrValue(os, attr);
            }
            os << '}';
        }
        os << "}\n";
    }
}

void
printSpanTree(std::ostream &os, const std::vector<SpanEvent> &events)
{
    // Depth via parent links; an absent parent (evicted or still open)
    // anchors its subtree at the top level.
    std::map<SpanId, std::size_t> depth;
    for (const SpanEvent &event : events) {
        std::size_t d = 0;
        bool orphan = event.parent != 0;
        if (const auto it = depth.find(event.parent);
            it != depth.end()) {
            d = it->second + 1;
            orphan = false;
        }
        depth[event.span] = d;
        char dur[64];
        std::snprintf(dur, sizeof dur, "%10.3f ms",
                      event.durationMs());
        os << dur << "  ";
        for (std::size_t i = 0; i < d; ++i)
            os << "  ";
        os << event.name;
        for (std::uint32_t a = 0; a < event.attrCount; ++a) {
            const SpanAttr &attr = event.attrs[a];
            os << (a == 0 ? "  [" : ", ") << attr.key << '=';
            switch (attr.kind) {
            case SpanAttr::Kind::Bool:
                os << (attr.i ? "true" : "false");
                break;
            case SpanAttr::Kind::Int:
                os << attr.i;
                break;
            case SpanAttr::Kind::Float: {
                char buf[64];
                std::snprintf(buf, sizeof buf, "%.3f", attr.f);
                os << buf;
                break;
            }
            case SpanAttr::Kind::Text:
                os << attr.text;
                break;
            case SpanAttr::Kind::None:
                break;
            }
        }
        if (event.attrCount > 0)
            os << ']';
        if (orphan)
            os << "  (parent span not resident)";
        os << '\n';
    }
}

std::map<std::string, SpanTotal>
sumSpansByName(const std::vector<SpanEvent> &events,
               MetricsRegistry *gauges)
{
    std::map<std::string, SpanTotal> totals;
    for (const SpanEvent &event : events) {
        SpanTotal &total = totals[event.name];
        total.ns += event.endNs - event.beginNs;
        total.calls += 1;
    }
    if (gauges) {
        for (const auto &[name, total] : totals) {
            gauges->gauge("host.phase." + name + ".ms").set(total.ms());
            gauges->gauge("host.phase." + name + ".calls")
                .set(static_cast<double>(total.calls));
        }
    }
    return totals;
}

std::string
formatTraceDump(const FlightRing &ring, TraceId trace)
{
    std::vector<SpanEvent> events;
    for (const SpanEvent &event : ring.snapshot())
        if (event.trace == trace)
            events.push_back(event);
    if (events.empty())
        return {};
    std::sort(events.begin(), events.end(),
              [](const SpanEvent &a, const SpanEvent &b) {
                  return a.span < b.span;
              });
    std::ostringstream os;
    printSpanTree(os, events);
    return os.str();
}

} // namespace lergan
