#include "sim/task_graph.hh"

#include <algorithm>

#include "common/logging.hh"

namespace lergan {

TaskId
TaskGraph::addTask(Task task)
{
    LERGAN_ASSERT(!frozen_->done, "addTask after the graph was executed");
    tasks_.push_back(std::move(task));
    depCount_.push_back(0);
    return tasks_.size() - 1;
}

void
TaskGraph::addDep(TaskId task, TaskId dep)
{
    LERGAN_ASSERT(!frozen_->done, "addDep after the graph was executed");
    LERGAN_ASSERT(task < tasks_.size(), "addDep: bad task id ", task);
    LERGAN_ASSERT(dep < tasks_.size(), "addDep: bad dep id ", dep);
    LERGAN_ASSERT(dep != task, "task cannot depend on itself");
    edges_.emplace_back(dep, task);
    depCount_[task]++;
}

const TaskGraph::Frozen &
TaskGraph::freeze() const
{
    Frozen &f = *frozen_;
    std::call_once(f.once, [this, &f] {
        const std::size_t n = tasks_.size();
        f.durations.resize(n);
        f.resStart.assign(n + 1, 0);
        for (std::size_t id = 0; id < n; ++id) {
            f.durations[id] = tasks_[id].duration;
            f.resStart[id + 1] =
                f.resStart[id] +
                static_cast<std::uint32_t>(tasks_[id].resources.size());
        }
        f.resIds.reserve(f.resStart[n]);
        for (const Task &task : tasks_)
            for (std::size_t rid : task.resources)
                f.resIds.push_back(static_cast<std::uint32_t>(rid));

        // CSR successor lists via a counting sort over the edge list:
        // stable, so each task's successors keep their addDep order —
        // the firing-order contract depends on it.
        f.succStart.assign(n + 1, 0);
        for (const auto &[dep, task] : edges_)
            f.succStart[dep + 1]++;
        for (std::size_t id = 0; id < n; ++id)
            f.succStart[id + 1] += f.succStart[id];
        f.succIds.resize(edges_.size());
        std::vector<std::uint32_t> fill(f.succStart.begin(),
                                        f.succStart.end() - 1);
        for (const auto &[dep, task] : edges_)
            f.succIds[fill[dep]++] = static_cast<std::uint32_t>(task);

        f.done = true;
    });
    return f;
}

ExecResult
TaskGraph::execute(ResourcePool &pool, MetricsRegistry *metrics,
                   ExecScratch *scratch, ExecRecord *record) const
{
    const Frozen &f = freeze();
    const std::size_t n = tasks_.size();

    ExecResult result;

    ExecScratch local;
    ExecScratch &s = scratch ? *scratch : local;
    s.queue.reset();
    s.unmet.assign(depCount_.begin(), depCount_.end());
    s.ready.assign(n, 0);
    if (record) {
        s.bindingDep.assign(n, kNoTask);
        s.lastHolder.assign(pool.size(), kNoTask);
        // Every slot is written at fire/completion time, so a reused
        // record only pays for allocation once, not re-zeroing.
        record->start.resize(n);
        record->end.resize(n);
        record->bindingPred.resize(n);
        record->bindingKind.resize(n);
        record->bindingRes.resize(n);
        record->resPrev.resize(f.resStart[n]);
        record->completionOrder.resize(n);
        record->lastTask = kNoTask;
        record->makespan = 0;
    }

    std::size_t completed = 0;

    // Occupancy of the executor itself, sampled into the registry at
    // every fire and completion when telemetry is on. Instruments are
    // resolved once up front; the event loop only touches atomics.
    std::size_t readyCount = 0;    // fire scheduled, not yet run
    std::size_t inflight = 0;      // fired, completion pending
    Histogram *depthHist = nullptr;
    Histogram *readyHist = nullptr;
    Histogram *inflightHist = nullptr;
    if (metrics) {
        depthHist = &metrics->histogram("sim.queue.depth");
        readyHist = &metrics->histogram("sim.ready.tasks");
        inflightHist = &metrics->histogram("sim.inflight.tasks");
    }
    auto sample = [&] {
        depthHist->observe(s.queue.pending());
        readyHist->observe(readyCount);
        inflightHist->observe(inflight);
    };

    for (TaskId id = 0; id < n; ++id) {
        if (s.unmet[id] == 0) {
            ++readyCount;
            s.queue.scheduleAt(0, TaskEvent{id, false});
        }
    }

    // The POD event loop. A fire event commits FIFO reservations on
    // every resource the task needs and schedules the completion event;
    // a completion releases the successors. Event
    // (time, seq) order is identical to the historic closure-based
    // executor, so results and metrics are byte-compatible.
    TaskEvent event;
    while (s.queue.pop(event)) {
        const TaskId id = event.task;
        if (!event.complete) {
            PicoSeconds start = s.queue.now();
            const std::uint32_t resBegin = f.resStart[id];
            const std::uint32_t resEnd = f.resStart[id + 1];
            if (!record) {
                for (std::uint32_t r = resBegin; r < resEnd; ++r)
                    start = std::max(start, pool[f.resIds[r]].nextFree());
            } else {
                // Binding rule: the fire time (now) is the ready time —
                // the moment the last dependency released the task. If
                // some resource was still occupied past that moment,
                // the task queued and the *most* contended resource's
                // previous holder is what actually delayed it;
                // otherwise the last-completing dependency did. Ties
                // between a dependency and a resource that freed at the
                // same instant bind to the dependency (a resource binds
                // only when its free time strictly exceeds ready, i.e.
                // the fire-time start value).
                std::uint32_t bind_slot = ExecRecord::kNoResource;
                for (std::uint32_t r = resBegin; r < resEnd; ++r) {
                    const std::uint32_t rid = f.resIds[r];
                    const PicoSeconds free = pool[rid].nextFree();
                    record->resPrev[r] = s.lastHolder[rid];
                    s.lastHolder[rid] = id;
                    if (free > start) {
                        start = free;
                        bind_slot = r;
                    }
                }
                record->start[id] = start;
                if (bind_slot != ExecRecord::kNoResource) {
                    record->bindingKind[id] = BindingKind::Resource;
                    record->bindingPred[id] = record->resPrev[bind_slot];
                    record->bindingRes[id] = f.resIds[bind_slot];
                } else if (s.bindingDep[id] != kNoTask) {
                    record->bindingKind[id] = BindingKind::Dependency;
                    record->bindingPred[id] = s.bindingDep[id];
                    record->bindingRes[id] = ExecRecord::kNoResource;
                } else {
                    record->bindingKind[id] = BindingKind::None;
                    record->bindingPred[id] = kNoTask;
                    record->bindingRes[id] = ExecRecord::kNoResource;
                }
            }
            for (std::uint32_t r = resBegin; r < resEnd; ++r) {
                const PicoSeconds got =
                    pool[f.resIds[r]].reserve(start, f.durations[id]);
                LERGAN_ASSERT(got == start, "non-FIFO reservation for ",
                              tasks_[id].label);
            }
            const PicoSeconds end = start + f.durations[id];
            s.queue.scheduleAt(end, TaskEvent{id, true});
            --readyCount;
            ++inflight;
            if (metrics)
                sample();
        } else {
            const PicoSeconds end = s.queue.now();
            result.makespan = std::max(result.makespan, end);
            ++completed;
            if (record) {
                record->end[id] = end;
                // Indexed store into the pre-sized order array (every
                // task completes exactly once, so `completed` is a
                // dense cursor) — no growth check per completion.
                record->completionOrder[completed - 1] = id;
                if (end >= record->makespan) {
                    record->makespan = end;
                    record->lastTask = id;
                }
            }
            for (std::uint32_t e = f.succStart[id];
                 e < f.succStart[id + 1]; ++e) {
                const TaskId succ = f.succIds[e];
                if (end >= s.ready[succ]) {
                    s.ready[succ] = end;
                    if (record)
                        s.bindingDep[succ] = id;
                }
                LERGAN_ASSERT(s.unmet[succ] > 0, "dependency underflow");
                if (--s.unmet[succ] == 0) {
                    ++readyCount;
                    s.queue.scheduleAt(s.ready[succ],
                                       TaskEvent{succ, false});
                }
            }
            --inflight;
            if (metrics)
                sample();
        }
    }

    LERGAN_ASSERT(completed == n,
                  "task graph has a cycle or orphaned dependency: ",
                  completed, " of ", n, " tasks completed");
    result.stats.set("sim.tasks", static_cast<double>(n));
    if (metrics) {
        metrics->counter("sim.graph.runs").add(1);
        metrics->counter("sim.tasks.executed").add(n);
        metrics->histogram("sim.makespan_ps").observe(result.makespan);
    }
    return result;
}

} // namespace lergan
