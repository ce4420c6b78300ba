/**
 * @file
 * Task-DAG executor on top of the event queue and resource pool.
 *
 * The compiler lowers one GAN training iteration into a DAG of compute and
 * transfer tasks. Each task occupies one or more resources for a fixed
 * duration; energies are build-time facts of the lowering, not of the
 * schedule, so the graph carries none. Execution is event-driven: a task
 * fires when its last dependency completes, then reserves its resources
 * FIFO, which naturally models pipelining across a minibatch and
 * contention on tiles and links.
 *
 * Execution is built for replay speed. On the first execute() the graph
 * freezes its hot state into struct-of-arrays form — a flat duration
 * array plus CSR resource and successor lists — so the event loop never
 * touches the cold per-task strings or per-task vectors. The
 * events themselves are POD (task id + kind) dispatched by a switch in
 * the executor: no closures, no type erasure, no allocation per event.
 * With an ExecScratch the remaining per-run buffers (event calendar,
 * dependency counters, ready times) are reused across runs, so a replay
 * does near-zero allocation after the first execution.
 *
 * A frozen graph is immutable and may be executed concurrently from
 * several worker threads (each run's mutable state lives in its own
 * scratch); this is what makes per-iteration DAG templating safe.
 */

#ifndef LERGAN_SIM_TASK_GRAPH_HH
#define LERGAN_SIM_TASK_GRAPH_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/calendar_queue.hh"
#include "sim/exec_record.hh"
#include "sim/resource.hh"
#include "telemetry/metrics.hh"

namespace lergan {

/** Dense id of a task inside one TaskGraph. */
using TaskId = std::size_t;

/** Sentinel meaning "no task". */
constexpr TaskId kNoTask = std::numeric_limits<TaskId>::max();

/** One schedulable unit of work. */
struct Task {
    /** Diagnostic label ("D.fwd L3 img17"). */
    std::string label;
    /** Resources occupied for the whole duration (may be empty). */
    std::vector<std::size_t> resources;
    /** Occupancy time. Zero-duration tasks act as barriers. */
    PicoSeconds duration = 0;
};

/** Result of executing a task graph. */
struct ExecResult {
    /** Completion time of the last task. */
    PicoSeconds makespan = 0;
    /** Bookkeeping counters ("sim.tasks"). Per-task start and end
     *  times are recorded by an ExecRecord when one is attached. */
    StatSet stats;
};

/** POD event of the task executor: fire or complete one task. */
struct TaskEvent {
    TaskId task = kNoTask;
    /** false = fire (start the task), true = completion. */
    bool complete = false;
};

/**
 * Reusable per-execution buffers of TaskGraph::execute().
 *
 * Optional: execute() allocates its own when none is given. Passing the
 * same scratch to repeated executions (of any graphs) reuses the event
 * calendar and counter buffers, eliminating steady-state allocation.
 * A scratch must not be shared between concurrent executions.
 */
class ExecScratch
{
  public:
    ExecScratch() = default;

  private:
    friend class TaskGraph;
    sim::CalendarQueue<TaskEvent> queue;
    std::vector<std::uint32_t> unmet;
    std::vector<PicoSeconds> ready;
    /**
     * @name Recording-only buffers (touched when an ExecRecord is
     * attached; empty and untouched otherwise)
     *
     * Kept as plain 4-byte TaskId slots refilled with one sentinel
     * assign() per recorded run. An epoch-stamped variant (8-byte
     * slots, no refill) measured consistently *slower* on the fig19
     * A/B — doubling the footprint of these two hot arrays costs more
     * in cache misses than the sequential memset-like refill saves.
     */
    ///@{
    std::vector<TaskId> bindingDep;  ///< dep that set each ready time
    std::vector<TaskId> lastHolder;  ///< last reserver per resource
    ///@}
};

/**
 * A directed acyclic graph of tasks with resource requirements.
 *
 * Build with addTask()/addDep(), then run execute(). The first
 * execution freezes the graph (further addTask/addDep calls are a bug);
 * a frozen graph may be executed repeatedly — and concurrently —
 * (resources and runtime state are reset per run).
 */
class TaskGraph
{
  public:
    /** Append a task; @return its id. @pre not yet executed. */
    TaskId addTask(Task task);

    /** Declare that @p task cannot start until @p dep has finished.
     *  @pre not yet executed. */
    void addDep(TaskId task, TaskId dep);

    /** Number of tasks in the graph. */
    std::size_t size() const { return tasks_.size(); }

    /** Read-only access for post-run readers and tests. */
    const Task &task(TaskId id) const { return tasks_[id]; }

    /**
     * Execute the whole DAG to completion.
     *
     * When @p metrics is given, the executor samples the event-queue
     * depth and the ready/in-flight task sets into sim.* histograms
     * and counters at every fire and completion; only integer
     * instruments are touched, so concurrent executes from a worker
     * pool produce worker-count-independent totals.
     *
     * When @p record is given, the run writes its one per-task output,
     * the execution record (sim/exec_record.hh) that the audit, the
     * phase report, critpath and traceRun read. Recording is pure
     * output: event order, results and metrics are identical with it on.
     *
     * @param pool    resource pool the task resource ids index into.
     * @param metrics optional registry for sim.* metrics.
     * @param scratch optional reusable buffers (see ExecScratch).
     * @param record  optional execution record.
     * @return makespan and the task count statistic.
     */
    ExecResult execute(ResourcePool &pool,
                       MetricsRegistry *metrics = nullptr,
                       ExecScratch *scratch = nullptr,
                       ExecRecord *record = nullptr) const;

    /**
     * Dependency edges as (dep, task) pairs in addDep order — the cold
     * mirror of the frozen CSR lists, exposed for post-run analysis
     * (critical-path slack needs the full edge set, not just each
     * task's binding predecessor).
     */
    const std::vector<std::pair<TaskId, TaskId>> &edges() const
    {
        return edges_;
    }

  private:
    /**
     * Frozen hot state, built once on first execute: struct-of-arrays
     * mirrors of the task list plus CSR lists, so the event loop reads
     * only these flat arrays. Heap-held (with its own once_flag) to
     * keep TaskGraph movable.
     */
    struct Frozen {
        std::once_flag once;
        bool done = false;
        std::vector<PicoSeconds> durations;
        std::vector<std::uint32_t> resStart; ///< size N+1
        std::vector<std::uint32_t> resIds;
        std::vector<std::uint32_t> succStart; ///< size N+1
        std::vector<std::uint32_t> succIds;
    };

    /** Build the SoA/CSR hot state (thread-safe, runs once). */
    const Frozen &freeze() const;

    std::vector<Task> tasks_;
    /** Dependency edges as (dep, task), in addDep order. */
    std::vector<std::pair<TaskId, TaskId>> edges_;
    std::vector<std::uint32_t> depCount_;
    mutable std::unique_ptr<Frozen> frozen_ =
        std::make_unique<Frozen>();
};

} // namespace lergan

#endif // LERGAN_SIM_TASK_GRAPH_HH
