/**
 * @file
 * Property-based tests: randomized task graphs against scheduling
 * invariants, the calendar queue against the reference binary heap,
 * and routing invariants across the whole machine.
 */

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/random.hh"
#include "core/machine.hh"
#include "core/sweep_io.hh"
#include "faults/montecarlo.hh"
#include "sim/calendar_queue.hh"
#include "sim/heap_event_queue.hh"
#include "sim/task_graph.hh"
#include "sim/trace_tracks.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

/** A randomly generated layered DAG with random resource assignments. */
struct RandomDag {
    TaskGraph graph;
    ResourcePool pool;
    std::vector<std::vector<TaskId>> layers;
    std::vector<PicoSeconds> durations;
    std::vector<std::vector<TaskId>> deps; // deps[task] = prerequisite ids
};

/**
 * Build a random layered DAG from @p seed. With @p extended, tasks may
 * also be zero-duration or hold up to three resources, and the middle
 * layer hangs off a zero-duration barrier that depends on the whole
 * previous layer: twice the usual width released at one instant, the
 * executor's controller fan-out in miniature. Without it the draws are
 * exactly the plain generator's.
 */
RandomDag
makeRandomDag(std::uint64_t seed, bool extended = false)
{
    RandomDag dag;
    Rng rng(seed);
    const int num_resources = 2 + static_cast<int>(rng.nextBounded(6));
    for (int r = 0; r < num_resources; ++r)
        dag.pool.create("res" + std::to_string(r));

    auto add = [&](PicoSeconds duration,
                   const std::vector<std::size_t> &resources) {
        const TaskId id = dag.graph.addTask("t", resources, duration);
        dag.durations.push_back(duration);
        dag.deps.emplace_back();
        return id;
    };
    auto depend = [&](TaskId id, TaskId dep) {
        dag.graph.addDep(id, dep);
        dag.deps[id].push_back(dep);
    };

    const int num_layers = 2 + static_cast<int>(rng.nextBounded(5));
    for (int layer = 0; layer < num_layers; ++layer) {
        std::vector<TaskId> row;
        int width = 1 + static_cast<int>(rng.nextBounded(6));
        TaskId barrier = kNoTask;
        if (extended && layer == num_layers / 2) {
            barrier = add(0, {});
            for (TaskId dep : dag.layers[layer - 1])
                depend(barrier, dep);
            width *= 2;
        }
        for (int i = 0; i < width; ++i) {
            PicoSeconds duration = 1 + rng.nextBounded(50);
            if (extended && rng.nextBounded(6) == 0)
                duration = 0;
            std::vector<std::size_t> resources;
            if (rng.nextBounded(4) != 0) {
                const std::uint64_t held =
                    extended ? 1 + rng.nextBounded(3) : 1;
                for (std::uint64_t k = 0; k < held; ++k) {
                    const std::size_t r = rng.nextBounded(num_resources);
                    if (std::find(resources.begin(), resources.end(), r) ==
                        resources.end())
                        resources.push_back(r);
                }
            }
            const TaskId id = add(duration, resources);
            if (barrier != kNoTask) {
                depend(id, barrier);
            } else if (layer > 0) {
                // Each task depends on 1..3 tasks of the previous layer.
                const auto &prev = dag.layers[layer - 1];
                const int fanin =
                    1 + static_cast<int>(rng.nextBounded(3));
                for (int d = 0; d < fanin; ++d)
                    depend(id, prev[rng.nextBounded(prev.size())]);
            }
            row.push_back(id);
        }
        dag.layers.push_back(std::move(row));
    }
    return dag;
}

/** Longest dependency-chain duration (ignores resources): lower bound. */
PicoSeconds
criticalPath(const RandomDag &dag)
{
    std::vector<PicoSeconds> finish(dag.durations.size(), 0);
    for (TaskId id = 0; id < dag.durations.size(); ++id) {
        PicoSeconds ready = 0;
        for (TaskId dep : dag.deps[id])
            ready = std::max(ready, finish[dep]);
        finish[id] = ready + dag.durations[id];
    }
    PicoSeconds best = 0;
    for (PicoSeconds f : finish)
        best = std::max(best, f);
    return best;
}

class RandomDagProperty : public testing::TestWithParam<int>
{
};

TEST_P(RandomDagProperty, SchedulingInvariants)
{
    RandomDag dag = makeRandomDag(GetParam() * 7919 + 13);
    ExecRecord record;
    const ExecResult result =
        dag.graph.execute(dag.pool, nullptr, nullptr, &record);

    // Bounds: critical path <= makespan <= serial sum.
    PicoSeconds serial = 0;
    for (PicoSeconds d : dag.durations)
        serial += d;
    EXPECT_GE(result.makespan, criticalPath(dag));
    EXPECT_LE(result.makespan, serial);

    // Dependencies respected: a task ends at least its duration after
    // every prerequisite's end.
    for (TaskId id = 0; id < dag.durations.size(); ++id)
        for (TaskId dep : dag.deps[id])
            EXPECT_GE(record.end[id], record.end[dep] + dag.durations[id]);

    // No resource is busy longer than the run.
    for (std::size_t r = 0; r < dag.pool.size(); ++r)
        EXPECT_LE(dag.pool[r].busyTime(), result.makespan);
}

TEST_P(RandomDagProperty, RebuiltInflightTrackCountsFiredTasks)
{
    RandomDag dag = makeRandomDag(GetParam() * 7919 + 13);
    ExecRecord record;
    dag.graph.execute(dag.pool, nullptr, nullptr, &record);
    const Tracer tracer = traceRun(dag.graph, record);

    // Brute force: a task fires when its last dependency ends (0 for a
    // source) and is in flight until its own end.
    const std::size_t n = dag.durations.size();
    std::vector<PicoSeconds> fire(n, 0);
    for (TaskId id = 0; id < n; ++id)
        for (TaskId dep : dag.deps[id])
            fire[id] = std::max(fire[id], record.end[dep]);
    const auto inflightAt = [&](PicoSeconds t) {
        double count = 0;
        for (TaskId id = 0; id < n; ++id)
            count += fire[id] <= t && t < record.end[id];
        return count;
    };

    // The track is a step curve: its value at t is the last sample at
    // or before t. Check it at every instant an event happened.
    std::vector<std::pair<PicoSeconds, double>> track;
    for (const CounterSample &sample : tracer.counterSamples())
        if (sample.track == "sim.inflight.tasks")
            track.emplace_back(sample.time, sample.value);
    ASSERT_FALSE(track.empty());
    EXPECT_DOUBLE_EQ(track.back().second, 0.0);
    const auto trackAt = [&](PicoSeconds t) {
        double value = 0;
        for (const auto &[time, v] : track)
            if (time <= t)
                value = v;
        return value;
    };
    for (TaskId id = 0; id < n; ++id) {
        for (const PicoSeconds t : {fire[id], record.end[id]}) {
            EXPECT_DOUBLE_EQ(trackAt(t), inflightAt(t))
                << "at " << t << " ps";
        }
    }
}

/**
 * Reference executor: TaskGraph::execute()'s fire/complete loop and
 * binding rule, run on the reference heap with no lanes, filling
 * @p record. @return the makespan.
 */
PicoSeconds
referenceExecute(const TaskGraph &graph, ResourcePool &pool,
                 ExecRecord &record)
{
    const std::size_t n = graph.size();
    sim::HeapEventQueue<TaskEvent> queue;
    const auto counts = graph.dependencyCounts();
    std::vector<std::uint32_t> unmet(counts.begin(), counts.end());
    std::vector<PicoSeconds> ready(n, 0);
    std::vector<TaskId> bindingDep(n, kNoTask);
    std::vector<TaskId> lastHolder(pool.size(), kNoTask);
    record = ExecRecord{};
    record.start.resize(n);
    record.end.resize(n);
    record.bindingPred.resize(n);
    record.bindingKind.resize(n);
    record.bindingRes.resize(n);
    std::size_t slots = 0;
    for (TaskId id = 0; id < n; ++id)
        slots += graph.resources(id).size();
    record.resPrev.resize(slots);

    for (TaskId id = 0; id < n; ++id)
        if (unmet[id] == 0)
            queue.scheduleAt(0, TaskEvent{id, false});
    TaskEvent event;
    while (queue.pop(event)) {
        const TaskId id = event.task;
        const PicoSeconds now = queue.now();
        if (!event.complete) {
            PicoSeconds start = now;
            std::uint32_t bindSlot = ExecRecord::kNoResource;
            std::uint32_t bindRes = ExecRecord::kNoResource;
            const auto resources = graph.resources(id);
            const auto slots = graph.resourceSlots(id);
            for (std::size_t j = 0; j < resources.size(); ++j) {
                const std::uint32_t rid = resources[j];
                const std::uint32_t slot = slots[j];
                record.resPrev[slot] = lastHolder[rid];
                lastHolder[rid] = id;
                if (pool[rid].nextFree() > start) {
                    start = pool[rid].nextFree();
                    bindSlot = slot;
                    bindRes = rid;
                }
            }
            record.start[id] = start;
            if (bindSlot != ExecRecord::kNoResource) {
                record.bindingKind[id] = BindingKind::Resource;
                record.bindingPred[id] = record.resPrev[bindSlot];
            } else if (bindingDep[id] != kNoTask) {
                record.bindingKind[id] = BindingKind::Dependency;
                record.bindingPred[id] = bindingDep[id];
            } else {
                record.bindingKind[id] = BindingKind::None;
                record.bindingPred[id] = kNoTask;
            }
            record.bindingRes[id] = bindRes;
            for (const std::uint32_t rid : resources)
                pool[rid].reserve(start, graph.duration(id));
            queue.scheduleAt(start + graph.duration(id),
                             TaskEvent{id, true});
        } else {
            record.end[id] = now;
            record.completionOrder.push_back(id);
            if (now >= record.makespan) {
                record.makespan = now;
                record.lastTask = id;
            }
            for (const std::uint32_t succ : graph.successors(id)) {
                if (now >= ready[succ]) {
                    ready[succ] = now;
                    bindingDep[succ] = id;
                }
                if (--unmet[succ] == 0)
                    queue.scheduleAt(ready[succ], TaskEvent{succ, false});
            }
        }
    }
    return record.makespan;
}

TEST_P(RandomDagProperty, ExecutorMatchesHeapReference)
{
    // The executor (calendar queue, completions on resource lanes)
    // against the reference loop on the plain heap: same makespan and
    // the same execution record, field by field.
    RandomDag dag = makeRandomDag(GetParam() * 104729 + 5, true);
    ExecRecord got;
    const ExecResult result =
        dag.graph.execute(dag.pool, nullptr, nullptr, &got);
    dag.pool.resetAll();
    ExecRecord want;
    const PicoSeconds makespan =
        referenceExecute(dag.graph, dag.pool, want);

    EXPECT_EQ(result.makespan, makespan);
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.lastTask, want.lastTask);
    EXPECT_EQ(got.start, want.start);
    EXPECT_EQ(got.end, want.end);
    EXPECT_EQ(got.bindingPred, want.bindingPred);
    EXPECT_EQ(got.bindingKind, want.bindingKind);
    EXPECT_EQ(got.bindingRes, want.bindingRes);
    EXPECT_EQ(got.resPrev, want.resPrev);
    EXPECT_EQ(got.completionOrder, want.completionOrder);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty, testing::Range(0, 24));

// ---------------------------------------------------------------------
// Calendar queue vs the reference binary heap: identical firing order
// under ~1M randomized schedule / fire / cancel operations.
// ---------------------------------------------------------------------

/**
 * Shared randomized scenario. Event ids are the schedule sequence in
 * both queues, and every follow-up action (how many new events a firing
 * schedules, at what offsets, and which id it tries to cancel) is a
 * pure function of (seed, fired id) — so two queues that fire events in
 * the same order perform exactly the same operations, and any ordering
 * divergence snowballs into a visible difference in the recorded
 * sequences.
 */
struct QueueScenario {
    /** How follow-up events are placed relative to the firing one. */
    enum class Offsets {
        /** Uniform in [0, 1000). */
        Uniform,
        /** {0, 1} with occasional long jumps: keeps the calendar's
         *  windows narrow so reschedules land on or just past the
         *  near/far edge constantly — the regime the executor's
         *  completion loop creates with clustered task end times. */
        Boundary,
        /** Half into the current window ({0, 1}), half far beyond the
         *  preload horizon, and each follow-up may be cancelled right
         *  away — near and far cancels over a deep far level. */
        Deep,
    };

    std::uint64_t seed = 0;
    std::size_t initial = 0; ///< events preloaded before the first pop
    std::size_t cap = 0;     ///< max events scheduled in total
    PicoSeconds horizon = 1'000'000; ///< preload times lie in [0, horizon)
    Offsets offsets = Offsets::Uniform;
    /** Stop after this many firings, leaving the rest pending. */
    std::size_t stopAfter = SIZE_MAX;
    /**
     * Lane mode when nonzero: a quarter of the schedules go on one of
     * this many lanes (the queues must be reset() to as many), each a
     * step of [0, laneStep) past the later of now and the lane's tail,
     * a quarter of them exactly at it (equal-time runs); an eighth of
     * them are cancelled at once, lane heads and buffered entries
     * alike.
     */
    std::size_t lanes = 0;
};

/** Payload carrying event id @p id: the tag itself, or an executor
 *  event whose completion flag is derived from the id. */
template <typename Payload>
Payload
payloadFor(std::uint64_t id)
{
    if constexpr (std::is_same_v<Payload, TaskEvent>)
        return TaskEvent{static_cast<TaskId>(id), id % 2 == 1};
    else
        return id;
}

std::uint64_t eventTag(std::uint64_t tag) { return tag; }

std::uint64_t
eventTag(const TaskEvent &event)
{
    EXPECT_EQ(event.complete, event.task % 2 == 1) << "payload mangled";
    return event.task;
}

/** Run @p s on @p queue (the calendar queue or the reference heap);
 *  @return the fired ids in firing order. */
template <template <typename> class Queue, typename Payload>
std::vector<std::uint64_t>
runScenario(Queue<Payload> &queue, const QueueScenario &s)
{
    using Offsets = QueueScenario::Offsets;
    std::vector<std::uint64_t> order;
    std::size_t scheduled = 0;
    // Lane steps sized so the preload spreads each lane over most of
    // the horizon.
    std::vector<PicoSeconds> laneTail(s.lanes, 0);
    const PicoSeconds laneStep = std::max<PicoSeconds>(
        1, 8 * s.horizon * s.lanes / std::max<std::size_t>(1, s.initial));
    // Draws lane choices from @p draw only in lane mode, so the other
    // scenarios keep their exact operation sequences.
    auto schedule = [&](PicoSeconds when, Rng &draw) {
        const std::uint64_t id = scheduled++;
        if (s.lanes == 0 || draw.nextBounded(4) != 0) {
            queue.scheduleAt(when, payloadFor<Payload>(id));
            return;
        }
        const std::size_t lane = draw.nextBounded(s.lanes);
        PicoSeconds &tail = laneTail[lane];
        tail = std::max(queue.now(), tail) +
               (draw.nextBounded(4) == 0 ? 0 : draw.nextBounded(laneStep));
        queue.scheduleAt(tail, payloadFor<Payload>(id), lane);
        if (draw.nextBounded(8) == 0)
            queue.cancel(id);
    };

    Rng rng(s.seed);
    for (std::size_t i = 0; i < s.initial; ++i) {
        // Deep preloads land on 4096 distinct instants: ~32-way ties.
        schedule(s.offsets == Offsets::Deep
                     ? rng.nextBounded(4096) * (s.horizon / 4096)
                     : rng.nextBounded(s.horizon),
                 rng);
    }

    Payload event{};
    while (order.size() < s.stopAfter && queue.pop(event)) {
        const std::uint64_t tag = eventTag(event);
        order.push_back(tag);
        Rng follow(s.seed ^
                   (tag * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL));
        const std::uint64_t count = follow.nextBounded(3);
        for (std::uint64_t i = 0; i < count && scheduled < s.cap; ++i) {
            PicoSeconds offset = 0;
            switch (s.offsets) {
              case Offsets::Uniform:
                offset = follow.nextBounded(1000);
                break;
              case Offsets::Boundary:
                offset = follow.nextBounded(8) == 0
                             ? 500 + follow.nextBounded(500)
                             : follow.nextBounded(2);
                break;
              case Offsets::Deep:
                offset = follow.nextBounded(2) == 0
                             ? follow.nextBounded(2)
                             : s.horizon + follow.nextBounded(s.horizon);
                break;
            }
            schedule(queue.now() + offset, follow);
            if (s.offsets == Offsets::Deep && follow.nextBounded(8) == 0)
                queue.cancel(scheduled - 1);
        }
        if (follow.nextBounded(4) == 0)
            queue.cancel(follow.nextBounded(scheduled));
    }
    if (order.size() < s.stopAfter) { // drained
        EXPECT_EQ(queue.pending(), 0u);
    }
    return order;
}

/** Assert @p s fires identically on the calendar queue and the
 *  reference heap, both carrying @p Payload. */
template <typename Payload>
void
expectMatchesHeap(sim::CalendarQueue<Payload> &calendar,
                  sim::HeapEventQueue<Payload> &heap,
                  const QueueScenario &s)
{
    const auto fired = runScenario(calendar, s);
    const auto expect = runScenario(heap, s);
    ASSERT_EQ(fired.size(), expect.size()) << "seed " << s.seed;
    // EXPECT_EQ on the vectors would print megabytes on failure; find
    // the first divergence instead.
    for (std::size_t i = 0; i < fired.size(); ++i)
        ASSERT_EQ(fired[i], expect[i])
            << "first divergence at firing #" << i << ", seed " << s.seed;
}

template <typename Payload = std::uint64_t>
void
expectMatchesHeap(const QueueScenario &s)
{
    sim::CalendarQueue<Payload> calendar;
    sim::HeapEventQueue<Payload> heap;
    calendar.reset(s.lanes);
    heap.reset(s.lanes);
    expectMatchesHeap(calendar, heap, s);
}

TEST(CalendarQueueProperty, MatchesHeapReferenceOverAMillionOps)
{
    // Two seeds x (~250k schedules + ~230k fires + ~60k cancels) each:
    // over a million queue operations in total, with heavy same-time
    // collisions (200k initial events over a 1M-tick horizon).
    for (const std::uint64_t seed : {UINT64_C(42), UINT64_C(20180614)})
        expectMatchesHeap({seed, 200'000, 250'000});
}

TEST(CalendarQueueProperty, ExecutorTaskEventsMatchHeapReference)
{
    // The executor's own payload type through the same harness.
    expectMatchesHeap<TaskEvent>({UINT64_C(1234), 100'000, 150'000});
}

TEST(CalendarQueueProperty, DeepQueueThenResetMatchesHeap)
{
    // A 1<<17-deep preload over a wide horizon (~32-way same-time ties)
    // with follow-ups into the current window and far beyond it, and
    // cancels of both: the deep far level the executor builds at large
    // batch. The run stops with over 50K events still pending; the
    // same queues are then reset and reused for a shallow scenario, as
    // ExecScratch reuses one queue across executions — no window or
    // far-level state may leak across reset().
    sim::CalendarQueue<std::uint64_t> calendar;
    sim::HeapEventQueue<std::uint64_t> heap;
    expectMatchesHeap(calendar, heap,
                      {UINT64_C(99), std::size_t{1} << 17,
                       (std::size_t{1} << 17) + 60'000, 1ULL << 30,
                       QueueScenario::Offsets::Deep, 90'000});
    EXPECT_GT(calendar.pending(), 50'000u);
    EXPECT_EQ(calendar.pending(), heap.pending());
    calendar.reset();
    heap.reset();
    EXPECT_EQ(calendar.now(), 0u);
    expectMatchesHeap(calendar, heap,
                      {UINT64_C(5), 2'000, 3'000, 600,
                       QueueScenario::Offsets::Boundary});
}

TEST(CalendarQueueProperty, AdversarialSameTimeBursts)
{
    // All events at one instant fire in schedule order, interleaved
    // with cancellations — the worst case for a bucketing queue.
    sim::CalendarQueue<std::uint64_t> queue;
    std::vector<std::uint64_t> expect;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        queue.scheduleAt(7, i);
        if (i % 3 != 0)
            expect.push_back(i);
    }
    for (std::uint64_t i = 0; i < 1000; i += 3)
        EXPECT_TRUE(queue.cancel(i));
    std::vector<std::uint64_t> fired;
    std::uint64_t tag = 0;
    while (queue.pop(tag))
        fired.push_back(tag);
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(queue.now(), 7u);
}

TEST(CalendarQueueBoundary, CancelOnTheNearFarWindowEdge)
{
    // 64 events at times 0..63 scheduled up front: the first pop carves
    // a window of width 32 (64 events / kTargetPerWindow), putting
    // times 0..31 into the sorted near run and leaving 32..63 in far.
    // Cancel the last event inside the window (31) and the first one
    // exactly on its edge (32): both must be skipped at pop time, and
    // the firing order of everything else is unchanged.
    sim::CalendarQueue<std::uint64_t> queue;
    for (std::uint64_t i = 0; i < 64; ++i)
        queue.scheduleAt(i, i);

    std::uint64_t tag = 0;
    ASSERT_TRUE(queue.pop(tag)); // forces the window carve
    EXPECT_EQ(tag, 0u);

    EXPECT_TRUE(queue.cancel(31));
    EXPECT_TRUE(queue.cancel(32));
    EXPECT_FALSE(queue.cancel(31)); // already cancelled
    EXPECT_FALSE(queue.cancel(0));  // already fired
    EXPECT_FALSE(queue.cancel(999)); // never scheduled
    EXPECT_EQ(queue.pending(), 61u);

    std::vector<std::uint64_t> fired;
    while (queue.pop(tag))
        fired.push_back(tag);
    std::vector<std::uint64_t> expect;
    for (std::uint64_t i = 1; i < 64; ++i)
        if (i != 31 && i != 32)
            expect.push_back(i);
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(queue.now(), 63u);
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(CalendarQueueBoundary, RescheduleIntoTheCurrentWindowDuringFire)
{
    // Executor-style loop: while the event at time 10 is being handled,
    // schedule three follow-ups — one at the current instant (must fire
    // after every other live event at that time, i.e. immediately here),
    // one on the last slot of the current window (31), and one exactly
    // at the window end (32, the far-side path). Equal-time events fire
    // in schedule order, so the follow-ups (ids 64..66) fire after the
    // originals at their times.
    sim::CalendarQueue<std::uint64_t> queue;
    for (std::uint64_t i = 0; i < 64; ++i)
        queue.scheduleAt(i, i);

    std::vector<std::uint64_t> fired;
    std::uint64_t next = 64;
    std::uint64_t tag = 0;
    while (queue.pop(tag)) {
        fired.push_back(tag);
        if (tag == 10) {
            EXPECT_EQ(queue.scheduleAt(queue.now(), next), 64u);
            ++next;
            queue.scheduleAt(31, next);
            ++next;
            queue.scheduleAt(32, next);
            ++next;
        }
    }
    std::vector<std::uint64_t> expect;
    for (std::uint64_t i = 0; i <= 10; ++i)
        expect.push_back(i);
    expect.push_back(64); // same instant as 10, scheduled later
    for (std::uint64_t i = 11; i <= 31; ++i)
        expect.push_back(i);
    expect.push_back(65); // time 31, after the original
    expect.push_back(32);
    expect.push_back(66); // time 32, after the original
    for (std::uint64_t i = 33; i < 64; ++i)
        expect.push_back(i);
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(CalendarQueueProperty, BoundaryHeavySeededScenarioMatchesHeap)
{
    // Same heap-equivalence harness as above, but with follow-up times
    // drawn from {now, now + 1} plus occasional long jumps over a short
    // horizon: windows stay narrow, so fire-time reschedules land on or
    // just past the near/far edge all the time instead of rarely.
    for (const std::uint64_t seed : {UINT64_C(3), UINT64_C(777)})
        expectMatchesHeap({seed, 30'000, 40'000, 600,
                           QueueScenario::Offsets::Boundary});
}

TEST(CalendarQueueProperty, LanedScenariosMatchHeap)
{
    // Lane mode over every offset regime and lane count 1 (one long
    // run), 7 and 64: lane heads promote into near and far with old
    // seqs, equal-time lane runs tie with FIFO and near events, and
    // cancelled heads and buffered entries are skipped.
    using Offsets = QueueScenario::Offsets;
    for (const std::size_t lanes : {1, 7, 64}) {
        expectMatchesHeap({UINT64_C(11) + lanes, 40'000, 70'000,
                           1'000'000, Offsets::Uniform, SIZE_MAX,
                           lanes});
        expectMatchesHeap({UINT64_C(12) + lanes, 20'000, 30'000, 600,
                           Offsets::Boundary, SIZE_MAX, lanes});
        expectMatchesHeap({UINT64_C(13) + lanes, 30'000, 50'000,
                           1ULL << 30, Offsets::Deep, SIZE_MAX, lanes});
    }
}

/**
 * Drive @p queue through an 8,192-event fan-out at one instant t: while
 * the first event at t fires, events scheduled earlier for t are still
 * pending (plain ones in near, and equal-time runs on 16 lanes whose
 * buffered entries promote with older seqs than the fan-out), and the
 * fan-out mixes plain events, events on 16 idle lanes and immediate
 * cancels. @return the fired tags in firing order.
 */
template <template <typename> class Queue>
std::vector<std::uint64_t>
runFanOut(Queue<std::uint64_t> &queue)
{
    constexpr std::size_t kBusyLanes = 16;
    constexpr std::size_t kIdleLanes = 16;
    constexpr PicoSeconds kT = 1'000;
    constexpr std::uint64_t kFanOut = 8'192;
    queue.reset(kBusyLanes + kIdleLanes);
    std::uint64_t next = 0;
    for (PicoSeconds when = 0; when < kT; when += 125)
        queue.scheduleAt(when, next++);
    const std::uint64_t trigger = next;
    for (int i = 0; i < 32; ++i)
        queue.scheduleAt(kT, next++);
    for (std::size_t lane = 0; lane < kBusyLanes; ++lane)
        for (int i = 0; i < 4; ++i)
            queue.scheduleAt(kT, next++, lane);
    for (std::size_t lane = 0; lane < kBusyLanes; ++lane)
        queue.scheduleAt(kT + 1 + lane, next++, lane);
    for (int i = 0; i < 32; ++i)
        queue.scheduleAt(kT + 3 * i, next++);

    std::vector<std::uint64_t> order;
    std::uint64_t tag = 0;
    while (queue.pop(tag)) {
        order.push_back(tag);
        if (tag != trigger)
            continue;
        EXPECT_EQ(queue.now(), kT);
        for (std::uint64_t k = 0; k < kFanOut; ++k) {
            const std::uint64_t id = next++;
            if (k % 3 == 0)
                queue.scheduleAt(kT, id, kBusyLanes + k % kIdleLanes);
            else
                queue.scheduleAt(kT, id);
            if (k % 97 == 0)
                queue.cancel(id);
        }
    }
    EXPECT_EQ(queue.pending(), 0u);
    return order;
}

TEST(CalendarQueueProperty, FanOutAtTheCurrentInstantMatchesHeap)
{
    sim::CalendarQueue<std::uint64_t> calendar;
    sim::HeapEventQueue<std::uint64_t> heap;
    const auto fired = runFanOut(calendar);
    const auto expect = runFanOut(heap);
    ASSERT_EQ(fired.size(), expect.size());
    // Every fan-out event but the 85 cancelled ones fires.
    EXPECT_EQ(fired.size(), 8u + 32 + 64 + 16 + 32 + 8'192 - 85);
    for (std::size_t i = 0; i < fired.size(); ++i)
        ASSERT_EQ(fired[i], expect[i]) << "first divergence at firing #" << i;
}

/** Routing invariants over bank pairs of a full machine. */
class RouteProperty
    : public testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    static Machine &
    threeD()
    {
        static Machine machine{
            AcceleratorConfig::lerGan(ReplicaDegree::Low)};
        return machine;
    }
    static Machine &
    hTree()
    {
        static Machine machine{AcceleratorConfig::prime()};
        return machine;
    }
};

TEST_P(RouteProperty, RoutesExistAndAreSane)
{
    auto [bank_a, bank_b] = GetParam();
    const Route &r3d = threeD().routeTiles(bank_a, 2, bank_b, 9, true);
    const Route &r2d = hTree().routeTiles(bank_a, 2, bank_b, 9, true);
    ASSERT_TRUE(r3d.valid());
    ASSERT_TRUE(r2d.valid());
    EXPECT_GT(r3d.minBytesPerNs, 0.0);

    // The 3D connection never routes slower than the H-tree machine.
    EXPECT_LE(r3d.latencyNs, r2d.latencyNs);

    // Latency symmetry (undirected wires).
    const Route &back = threeD().routeTiles(bank_b, 9, bank_a, 2, true);
    EXPECT_DOUBLE_EQ(r3d.latencyNs, back.latencyNs);

    // Smode routes (H-tree + bus only) are never faster than Cmode.
    const Route &smode = threeD().routeTiles(bank_a, 2, bank_b, 9, false);
    ASSERT_TRUE(smode.valid());
    EXPECT_GE(smode.latencyNs, r3d.latencyNs);
}

INSTANTIATE_TEST_SUITE_P(
    BankPairs, RouteProperty,
    testing::Combine(testing::Values(0, 1, 2, 3, 4, 5),
                     testing::Values(0, 1, 2, 3, 4, 5)));

TEST(RouteInvariants, IntraBankNeverCrossesTheBus)
{
    Machine machine{AcceleratorConfig::lerGan(ReplicaDegree::Low)};
    for (int a = 0; a < 16; a += 5) {
        for (int b = 0; b < 16; b += 3) {
            const Route &route = machine.routeTiles(0, a, 0, b, true);
            for (int link : route.links)
                EXPECT_NE(machine.topo().link(link).kind, LinkKind::Bus);
        }
    }
}

TEST(RouteInvariants, StackedBankRouteUsesVerticalWire)
{
    Machine machine{AcceleratorConfig::lerGan(ReplicaDegree::Low)};
    const Route &route = machine.routeTiles(0, 5, 1, 5, true);
    ASSERT_EQ(route.links.size(), 1u);
    EXPECT_EQ(machine.topo().link(route.links[0]).kind,
              LinkKind::Vertical);
}

// ---------------------------------------------------------------------
// Monte Carlo robustness-sweep properties.
// ---------------------------------------------------------------------

/** A small faulty configuration at the given tile-kill rate. */
AcceleratorConfig
faultyConfig(double tile_kill_rate)
{
    AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    config.faults.tileKillRate = tile_kill_rate;
    return config;
}

TEST(MonteCarloProperty, AggregatesArePermutationInvariantInTrialOrder)
{
    // The distribution summary may not depend on the order trials
    // complete (or are fed) in — it sorts internally.
    Rng rng(123);
    std::vector<double> samples;
    for (int i = 0; i < 40; ++i)
        samples.push_back(rng.nextDouble() * 100.0);
    const TrialDistribution reference = TrialDistribution::of(samples);

    for (int round = 0; round < 10; ++round) {
        // Fisher-Yates with the deterministic repo Rng.
        for (std::size_t i = samples.size(); i > 1; --i)
            std::swap(samples[i - 1], samples[rng.nextBounded(i)]);
        const TrialDistribution shuffled = TrialDistribution::of(samples);
        EXPECT_DOUBLE_EQ(shuffled.mean, reference.mean);
        EXPECT_DOUBLE_EQ(shuffled.p95, reference.p95);
        EXPECT_DOUBLE_EQ(shuffled.min, reference.min);
        EXPECT_DOUBLE_EQ(shuffled.max, reference.max);
    }
}

TEST(MonteCarloProperty, DeterministicAcrossWorkerCounts)
{
    FaultMonteCarlo experiment;
    experiment.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addConfig("kill5", faultyConfig(0.05))
        .addConfig("kill20", faultyConfig(0.20));

    MonteCarloOptions options;
    options.trials = 32;
    options.baseSeed = 7;
    options.threads = 1;
    const std::vector<SweepResult> serial = experiment.run(options);
    options.threads = 4;
    const std::vector<SweepResult> parallel = experiment.run(options);

    std::ostringstream serial_json, parallel_json;
    writeSweepJson(serial_json, serial);
    writeSweepJson(parallel_json, parallel);
    EXPECT_EQ(serial_json.str(), parallel_json.str());

    std::string error;
    EXPECT_TRUE(isValidJson(serial_json.str(), &error)) << error;

    ASSERT_EQ(serial.size(), 2u);
    for (const SweepResult &result : serial) {
        EXPECT_TRUE(result.faults.ran());
        EXPECT_EQ(result.faults.trials, 32);
    }
}

TEST(MonteCarloProperty, AggregatesMonotoneNonImprovingInFaultRate)
{
    // With only tile-kill faults active the sampler consumes exactly
    // one uniform draw per tile, so the same trial seed yields nested
    // kill sets as the rate rises: capacity lost and iteration latency
    // can only get worse (or tie), never better.
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    double last_capacity = -1.0, last_ms = -1.0;
    int last_failed = 0;
    for (double rate : {0.05, 0.2, 0.4}) {
        FaultMonteCarlo experiment;
        experiment.addBenchmark(model).addConfig("kill", faultyConfig(rate));
        MonteCarloOptions options;
        options.trials = 32;
        options.baseSeed = 7;
        const std::vector<SweepResult> results = experiment.run(options);
        ASSERT_EQ(results.size(), 1u);
        const FaultSweepStats &stats = results[0].faults;
        EXPECT_GE(stats.capacityLost.mean, last_capacity);
        EXPECT_GE(stats.msPerIteration.mean, last_ms);
        EXPECT_GE(stats.failedTrials, last_failed);
        last_capacity = stats.capacityLost.mean;
        last_ms = stats.msPerIteration.mean;
        last_failed = stats.failedTrials;
    }
    EXPECT_GT(last_capacity, 0.0);
}

} // namespace
} // namespace lergan
