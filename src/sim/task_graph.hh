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
 * The graph holds each task once, in the arrays the executor reads: a
 * label id into a per-graph table of distinct labels (an iteration DAG
 * has thousands of tasks but only about a hundred distinct labels), a
 * flat duration array, and a CSR resource list appended by addTask().
 * Dependencies collect in a (dep, task) build list until the first
 * execute() (or successors() call) sorts them into CSR successor lists
 * and drops the list. Post-run readers (audit, critical path, what-if,
 * trace export) use the same arrays through label(), duration(),
 * resources(), resourceSlots() and successors(). The events themselves
 * are POD (task id + kind) dispatched by a switch in the executor: no
 * closures, no type erasure, no allocation per event. With an
 * ExecScratch the remaining per-run buffers (event calendar,
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
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
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
 * The calendar is reset to one lane per pool resource each run: a
 * completion waits in its task's first resource's lane, so the lane
 * rings grow to the peak number of reservations pending per resource,
 * and the calendar itself holds about one event per busy resource
 * however large the batch.
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
 * execution (or successors() call) freezes the graph: further
 * addTask/addDep calls are a bug. A frozen graph may be executed
 * repeatedly — and concurrently — (resources and runtime state are
 * reset per run).
 */
class TaskGraph
{
  public:
    /**
     * Append a task; @return its id. @pre not yet frozen.
     *
     * @param label     diagnostic label ("D.fwd L3 img17"), interned
     *                  into the graph's label table.
     * @param resources resources occupied for the whole duration (may
     *                  be empty).
     * @param duration  occupancy time; zero-duration tasks act as
     *                  barriers.
     */
    TaskId addTask(std::string_view label,
                   std::span<const std::size_t> resources,
                   PicoSeconds duration);

    /** addTask() with a braced resource list ({r0, r1} or {}). */
    TaskId
    addTask(std::string_view label,
            std::initializer_list<std::size_t> resources,
            PicoSeconds duration)
    {
        return addTask(label,
                       std::span<const std::size_t>(resources.begin(),
                                                    resources.size()),
                       duration);
    }

    /** Declare that @p task cannot start until @p dep has finished.
     *  @pre not yet frozen. */
    void addDep(TaskId task, TaskId dep);

    /** Number of tasks in the graph. */
    std::size_t size() const { return durations_.size(); }

    /** @name Read-only views of one task */
    ///@{
    const std::string &label(TaskId id) const
    {
        return labels_[labelIds_[id]];
    }
    /** Index of the task's label in labels(); equal labels share it. */
    std::uint32_t labelId(TaskId id) const { return labelIds_[id]; }
    PicoSeconds duration(TaskId id) const { return durations_[id]; }
    /** Resource ids the task occupies, in addTask order. */
    std::span<const std::uint32_t>
    resources(TaskId id) const
    {
        return {resIds_.data() + resStart_[id],
                resIds_.data() + resStart_[id + 1]};
    }
    /**
     * The task's reservation slots: slot resourceSlots(id)[j] holds
     * resources(id)[j]. ExecRecord::resPrev is indexed by slot.
     */
    std::ranges::iota_view<std::uint32_t, std::uint32_t>
    resourceSlots(TaskId id) const
    {
        return {resStart_[id], resStart_[id + 1]};
    }
    /** Tasks that depend on @p id, in addDep order. Freezes the graph. */
    std::span<const std::uint32_t>
    successors(TaskId id) const
    {
        const Frozen &f = freeze();
        return {f.succIds.data() + f.succStart[id],
                f.succIds.data() + f.succStart[id + 1]};
    }
    ///@}

    /** The distinct labels, indexed by labelId(). */
    const std::vector<std::string> &labels() const { return labels_; }

    /** Number of addDep() calls naming each task as the dependent. */
    std::span<const std::uint32_t> dependencyCounts() const
    {
        return depCount_;
    }

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

  private:
    /**
     * CSR successor lists, sorted once from the build list on first
     * execute() or successors(). Heap-held (with its own once_flag) to
     * keep TaskGraph movable.
     */
    struct Frozen {
        std::once_flag once;
        bool done = false;
        std::vector<std::uint32_t> succStart; ///< size N+1
        std::vector<std::uint32_t> succIds;
    };

    /** Build the successor CSR (thread-safe, runs once). */
    const Frozen &freeze() const;

    /** Transparent hash so label lookups take a string_view. */
    struct LabelHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    std::vector<std::uint32_t> labelIds_;
    std::vector<std::string> labels_;
    std::vector<PicoSeconds> durations_;
    std::vector<std::uint32_t> resStart_{0}; ///< size N+1
    std::vector<std::uint32_t> resIds_;
    std::vector<std::uint32_t> depCount_;
    /** @name Build-only state, released by freeze() */
    ///@{
    mutable std::unordered_map<std::string, std::uint32_t, LabelHash,
                               std::equal_to<>>
        labelIndex_;
    /** Dependency edges as (dep, task), in addDep order. */
    mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
    ///@}
    mutable std::unique_ptr<Frozen> frozen_ =
        std::make_unique<Frozen>();
};

} // namespace lergan

#endif // LERGAN_SIM_TASK_GRAPH_HH
