/**
 * @file
 * Execution tracing for simulated task graphs.
 *
 * A Tracer holds task (label, start, end, lane) intervals — rendered
 * from a run's ExecRecord by traceRun() (sim/trace_tracks.hh) — and
 * counter samples; it prints as a text timeline or exports in the
 * Chrome trace-event format (chrome://tracing, Perfetto) for visual
 * inspection of pipelining and contention.
 */

#ifndef LERGAN_SIM_TRACE_HH
#define LERGAN_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/flight_recorder.hh"

namespace lergan {

/** One recorded task execution. */
struct TraceEvent {
    std::string label;
    PicoSeconds start = 0;
    PicoSeconds end = 0;
    /** Display lane: the task's first resource id (SIZE_MAX if none). */
    std::size_t lane = SIZE_MAX;
};

/** One sampled value of a named counter track at a sim-time instant. */
struct CounterSample {
    std::string track;
    PicoSeconds time = 0;
    double value = 0.0;
};

/** Task execution intervals and counter tracks, for export. */
class Tracer
{
  public:
    /** Record one completed task. */
    void record(std::string label, PicoSeconds start, PicoSeconds end,
                std::size_t lane);

    /**
     * Record one sample of counter track @p track at sim time @p time.
     * A sample with the same track and time as the last recorded sample
     * (of any track) overwrites it, so back-to-back updates of one
     * track within one instant collapse to the final value. Samples
     * interleaved with another track's are all kept.
     */
    void recordCounter(const std::string &track, PicoSeconds time,
                       double value);

    const std::vector<TraceEvent> &events() const { return events_; }

    const std::vector<CounterSample> &counterSamples() const
    {
        return counters_;
    }

    /**
     * Export in the Chrome trace-event JSON format. Lanes become thread
     * ids; times are emitted in microseconds as the format expects.
     * Counter samples become "ph":"C" counter tracks, which Perfetto
     * renders as value curves alongside the task spans. Tasks with no
     * lane land on a track named "(no resource)".
     *
     * @param lane_names optional resource names indexed by lane id.
     * @param host_spans optional flight-recorder span events (one
     *     collect()'s worth) merged in as nested "ph":"X" slices under
     *     a separate "host spans" process (pid 2, one tid per worker
     *     lane, timestamps on the trace epoch) — the simulated and the
     *     host timeline stay side by side in one viewer.
     */
    void exportChromeTrace(
        std::ostream &os,
        const std::vector<std::string> &lane_names = {},
        const std::vector<SpanEvent> *host_spans = nullptr) const;

    /** Print a compact text timeline (first @p limit events). */
    void printTimeline(std::ostream &os, std::size_t limit = 50) const;

  private:
    std::vector<TraceEvent> events_;
    std::vector<CounterSample> counters_;
};

} // namespace lergan

#endif // LERGAN_SIM_TRACE_HH
