/**
 * @file
 * A recorded run rendered as a trace, and derived counter tracks.
 *
 * traceRun() turns a run's (graph, ExecRecord) into a Tracer after the
 * run. The other helpers turn its task spans — *what ran when* — into
 * sampled gauges ("how many transfers were in flight", "was this wire
 * busy"), recorded as counter samples ("ph":"C") that Perfetto renders
 * as curves next to the task spans.
 */

#ifndef LERGAN_SIM_TRACE_TRACKS_HH
#define LERGAN_SIM_TRACE_TRACKS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/exec_record.hh"
#include "sim/task_graph.hh"
#include "sim/trace.hh"

namespace lergan {

/**
 * One span per task of @p graph (lane = first resource, SIZE_MAX if
 * none) in (start, task id) order, plus the "sim.inflight.tasks" track:
 * a task is in flight over [fire, end), fire being its predecessors'
 * latest end (0 for a source).
 */
Tracer traceRun(const TaskGraph &graph, const ExecRecord &record);

/**
 * Record a counter track named @p track sampling how many spans whose
 * label starts with @p label_prefix are concurrently active.
 *
 * @return the number of samples recorded.
 */
std::size_t addSpanOccupancyTrack(Tracer &tracer,
                                  const std::string &label_prefix,
                                  const std::string &track);

/**
 * Record a counter track named @p track sampling how many spans
 * recorded on display lane @p lane are concurrently active (for a FIFO
 * resource this is its 0/1 busy curve).
 *
 * @return the number of samples recorded.
 */
std::size_t addLaneOccupancyTrack(Tracer &tracer, std::size_t lane,
                                  const std::string &track);

/**
 * The lane with the largest summed span time among lanes whose
 * resource name (in @p lane_names, indexed by lane id) contains
 * @p name_fragment.
 *
 * @return the lane id, or SIZE_MAX when no lane matches.
 */
std::size_t busiestLane(const Tracer &tracer,
                        const std::vector<std::string> &lane_names,
                        const std::string &name_fragment);

} // namespace lergan

#endif // LERGAN_SIM_TRACE_TRACKS_HH
