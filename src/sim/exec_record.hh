/**
 * @file
 * Per-task execution recording: the one per-task output of a run.
 *
 * When a TaskGraph executes with an ExecRecord attached, the executor
 * writes down, for every task, when it started and finished and *why it
 * started when it did* — the binding predecessor: the dependency whose
 * completion released the task last, or, when the task then had to
 * queue behind earlier reservations, the previous holder of the most
 * contended resource. Following binding predecessors backward from the
 * makespan task yields the critical path (src/critpath); the recorded
 * per-resource reservation order (resPrev) additionally fixes the full
 * timing graph the what-if estimator replays. The audit, the phase
 * report and the Chrome export (traceRun) read the same record.
 *
 * The record is pure output: recording never changes event order,
 * results or metrics, and a null record costs one predictable branch
 * per event.
 */

#ifndef LERGAN_SIM_EXEC_RECORD_HH
#define LERGAN_SIM_EXEC_RECORD_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hh"

namespace lergan {

/** What determined a task's start time. */
enum class BindingKind : std::uint8_t {
    /** Task started at time zero with nothing ahead of it. */
    None,
    /** Start = the binding dependency's completion time. */
    Dependency,
    /** Start = the time the binding resource's previous reservation
     *  ended (the task was released earlier but had to queue). */
    Resource,
};

/** @return "none", "dep" or "resource". */
constexpr const char *
bindingKindName(BindingKind kind)
{
    switch (kind) {
      case BindingKind::None:       return "none";
      case BindingKind::Dependency: return "dep";
      case BindingKind::Resource:   return "resource";
    }
    return "?";
}

/**
 * Execution record of one TaskGraph run (all vectors indexed by TaskId
 * unless noted). Filled by TaskGraph::execute; resize/reset is the
 * executor's job, so one record can be reused across runs.
 */
struct ExecRecord {
    /** Sentinel resource id: the task held no resources. */
    static constexpr std::uint32_t kNoResource =
        std::numeric_limits<std::uint32_t>::max();

    std::vector<PicoSeconds> start;
    std::vector<PicoSeconds> end;
    /** Binding predecessor task (kNoTask-style SIZE_MAX when None). */
    std::vector<std::size_t> bindingPred;
    std::vector<BindingKind> bindingKind;
    /** Resource the task queued on when bindingKind == Resource. */
    std::vector<std::uint32_t> bindingRes;
    /**
     * Previous holder per (task, resource) reservation slot, laid out
     * exactly like the frozen CSR resource list: slot j of task t is
     * the j-th entry of task(t).resources. SIZE_MAX-valued entries mean
     * the reservation was the resource's first.
     */
    std::vector<std::size_t> resPrev;
    /**
     * Tasks in completion-processing order. Because a binding or
     * reservation predecessor always completes no later than (and at
     * equal times: is processed before) its successor, this is a
     * topological order of the recorded timing graph — the order every
     * replay and backward slack pass walks.
     */
    std::vector<std::size_t> completionOrder;
    /** The task whose completion set the makespan (ties: the last
     *  completion processed, i.e. the graph's final sink). */
    std::size_t lastTask = std::numeric_limits<std::size_t>::max();
    /** Completion time of lastTask. */
    PicoSeconds makespan = 0;

    bool empty() const { return start.empty(); }
};

} // namespace lergan

#endif // LERGAN_SIM_EXEC_RECORD_HH
