/**
 * @file
 * Per-phase timing analysis over a recorded simulation run.
 *
 * Compute-task labels carry their phase ("D.l2.conv@D.fwd"); grouping
 * the recorded task intervals by that suffix shows where iteration time goes and how
 * much the phases overlap (the pipelined dataflows of the paper's
 * Fig. 7/8/13: error transfer runs while forward propagation of later
 * items is still in flight).
 */

#ifndef LERGAN_CORE_PHASE_REPORT_HH
#define LERGAN_CORE_PHASE_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/exec_record.hh"
#include "sim/task_graph.hh"

namespace lergan {

/** Aggregated timing of one phase (or task family). */
struct PhaseTime {
    /** Phase name ("G.fwd"), or "transfers" / "updates" / "other". */
    std::string name;
    /** Summed task durations (work volume). */
    PicoSeconds busy = 0;
    /** First task start. */
    PicoSeconds firstStart = 0;
    /** Last task end. */
    PicoSeconds lastEnd = 0;
    /** Number of tasks. */
    std::uint64_t tasks = 0;

    /** Wall-clock window the phase was active in. */
    PicoSeconds span() const { return lastEnd - firstStart; }
};

/**
 * Group the tasks of a recorded run of @p graph into phases. Compute
 * tasks group by their "@phase" label suffix; transfer ("xfer:"), load
 * ("load:") and update ("update:", "*.grad.readout", "*.update.cpu")
 * tasks get their own families; the rest lands in "other".
 */
std::vector<PhaseTime> phaseTimes(const TaskGraph &graph,
                                  const ExecRecord &record);

/** Print the phase table with overlap ratios (span / makespan). */
void printPhaseTimes(std::ostream &os, const TaskGraph &graph,
                     const ExecRecord &record);

} // namespace lergan

#endif // LERGAN_CORE_PHASE_REPORT_HH
