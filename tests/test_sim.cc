/**
 * @file
 * Unit tests for the discrete-event kernel, resources and task graphs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/calendar_queue.hh"
#include "sim/heap_event_queue.hh"
#include "sim/resource.hh"
#include "sim/task_graph.hh"

namespace lergan {
namespace {

// The event queue is sim::CalendarQueue, driven here with integer tags
// the way the task-graph executor drives it with task events: a
// "callback" is the handler the drain loop runs for each popped event.
using EventQueue = sim::CalendarQueue<std::uint64_t>;

/** Pop every live event; @p onFire handles each one as it fires. */
template <typename OnFire>
std::vector<std::uint64_t>
drain(EventQueue &queue, OnFire onFire)
{
    std::vector<std::uint64_t> fired;
    std::uint64_t tag = 0;
    while (queue.pop(tag)) {
        fired.push_back(tag);
        onFire(tag);
    }
    return fired;
}

std::vector<std::uint64_t>
drain(EventQueue &queue)
{
    return drain(queue, [](std::uint64_t) {});
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue queue;
    queue.scheduleAt(30, 3);
    queue.scheduleAt(10, 1);
    queue.scheduleAt(20, 2);
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueue, SameTimeFiresInScheduleOrder)
{
    EventQueue queue;
    for (std::uint64_t i = 0; i < 5; ++i)
        queue.scheduleAt(7, i);
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMore)
{
    EventQueue queue;
    queue.scheduleAt(1, 1);
    const auto fired = drain(queue, [&](std::uint64_t tag) {
        if (tag == 1)
            queue.scheduleAt(queue.now() + 5, 2);
    });
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(queue.now(), 6u);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue queue;
    queue.scheduleAt(5, 1);
    queue.scheduleAt(9, 2);
    std::uint64_t tag = 0;
    ASSERT_TRUE(queue.pop(tag));
    queue.reset();
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(queue.now(), 0u);
    EXPECT_FALSE(queue.pop(tag));
    // Ids restart too: the first event after a reset is id 0 again.
    EXPECT_EQ(queue.scheduleAt(0, 3), 0u);
}

TEST(EventQueueDeath, PastSchedulingIsABug)
{
    EventQueue queue;
    queue.scheduleAt(10, 1);
    std::uint64_t tag = 0;
    ASSERT_TRUE(queue.pop(tag));
    EXPECT_DEATH(queue.scheduleAt(5, 2), "past");
}

TEST(EventQueue, CancelledEventNeverFires)
{
    EventQueue queue;
    queue.scheduleAt(10, 1);
    const sim::EventId doomed = queue.scheduleAt(20, 2);
    queue.scheduleAt(30, 3);
    EXPECT_TRUE(queue.cancel(doomed));
    EXPECT_EQ(queue.pending(), 2u);
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{1, 3}));
    EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueue, CancelReportsWhetherTheEventWasPending)
{
    EventQueue queue;
    const sim::EventId id = queue.scheduleAt(5, 1);
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id)); // already cancelled
    const sim::EventId fired = queue.scheduleAt(6, 2);
    drain(queue);
    EXPECT_FALSE(queue.cancel(fired));  // already fired
    EXPECT_FALSE(queue.cancel(99999)); // never existed
}

TEST(EventQueue, CancelFromWithinACallback)
{
    EventQueue queue;
    const sim::EventId victim = queue.scheduleAt(20, 2);
    queue.scheduleAt(10, 1);
    const auto fired = drain(queue, [&](std::uint64_t tag) {
        if (tag == 1) {
            EXPECT_TRUE(queue.cancel(victim));
        }
    });
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{1}));
}

TEST(Resource, FifoReservations)
{
    Resource res("r");
    EXPECT_EQ(res.reserve(0, 10), 0u);
    EXPECT_EQ(res.reserve(0, 10), 10u);  // queued behind the first
    EXPECT_EQ(res.reserve(50, 10), 50u); // idle gap honored
    EXPECT_EQ(res.busyTime(), 30u);
    EXPECT_EQ(res.reservations(), 3u);
}

TEST(Resource, ResetForgetsHistory)
{
    Resource res("r");
    res.reserve(0, 100);
    res.reset();
    EXPECT_EQ(res.nextFree(), 0u);
    EXPECT_EQ(res.busyTime(), 0u);
}

TEST(TaskGraph, ChainRespectsDependencies)
{
    ResourcePool pool;
    const auto r = pool.create("unit");
    TaskGraph graph;
    const TaskId a = graph.addTask("a", {r}, 10);
    const TaskId b = graph.addTask("b", {r}, 20);
    graph.addDep(b, a);
    ExecRecord record;
    const ExecResult result =
        graph.execute(pool, nullptr, nullptr, &record);
    EXPECT_EQ(result.makespan, 30u);
    EXPECT_EQ(record.start[b], 10u);
    EXPECT_EQ(record.end[a], 10u);
    EXPECT_EQ(record.end[b], 30u);
}

TEST(TaskGraph, IndependentTasksContendOnSharedResource)
{
    ResourcePool pool;
    const auto r = pool.create("unit");
    TaskGraph graph;
    for (int i = 0; i < 4; ++i)
        graph.addTask("t", {r}, 10);
    const ExecResult result = graph.execute(pool);
    EXPECT_EQ(result.makespan, 40u); // serialized on one resource
}

TEST(TaskGraph, IndependentTasksOnDistinctResourcesOverlap)
{
    ResourcePool pool;
    TaskGraph graph;
    for (int i = 0; i < 4; ++i) {
        const auto r = pool.create("unit" + std::to_string(i));
        graph.addTask("t", {r}, 10);
    }
    EXPECT_EQ(graph.execute(pool).makespan, 10u);
}

TEST(TaskGraph, PipelineOverlapsStages)
{
    // Two-stage pipeline, 3 items: makespan = (3 + 2 - 1) * 10.
    ResourcePool pool;
    const auto s1 = pool.create("stage1");
    const auto s2 = pool.create("stage2");
    TaskGraph graph;
    for (int item = 0; item < 3; ++item) {
        const TaskId a = graph.addTask("s1", {s1}, 10);
        const TaskId b = graph.addTask("s2", {s2}, 10);
        graph.addDep(b, a);
    }
    EXPECT_EQ(graph.execute(pool).makespan, 40u);
}

TEST(TaskGraph, MultiResourceTaskHoldsAll)
{
    ResourcePool pool;
    const auto r1 = pool.create("r1");
    const auto r2 = pool.create("r2");
    TaskGraph graph;
    graph.addTask("uses r1", {r1}, 10);
    graph.addTask("uses both", {r1, r2}, 10);
    graph.addTask("uses r2", {r2}, 10);
    const ExecResult result = graph.execute(pool);
    // The both-task starts after r1 frees; the r2-task waits for it.
    EXPECT_EQ(result.makespan, 30u);
}

TEST(TaskGraph, ZeroDurationBarrier)
{
    ResourcePool pool;
    const auto r = pool.create("r");
    TaskGraph graph;
    const TaskId a = graph.addTask("a", {r}, 15);
    const TaskId barrier = graph.addTask("barrier", {}, 0);
    const TaskId b = graph.addTask("b", {r}, 5);
    graph.addDep(barrier, a);
    graph.addDep(b, barrier);
    ExecRecord record;
    const ExecResult result =
        graph.execute(pool, nullptr, nullptr, &record);
    EXPECT_EQ(record.end[barrier], 15u);
    EXPECT_EQ(result.makespan, 20u);
}

TEST(TaskGraph, ReexecutableAfterPoolReset)
{
    ResourcePool pool;
    const auto r = pool.create("r");
    TaskGraph graph;
    graph.addTask("a", {r}, 10);
    EXPECT_EQ(graph.execute(pool).makespan, 10u);
    pool.resetAll();
    EXPECT_EQ(graph.execute(pool).makespan, 10u);
}

TEST(TaskGraph, ScratchReuseMatchesFreshExecution)
{
    ResourcePool pool;
    const auto r0 = pool.create("r0");
    const auto r1 = pool.create("r1");
    TaskGraph graph;
    const TaskId a = graph.addTask("a", {r0}, 10);
    const TaskId b = graph.addTask("b", {r1}, 20);
    const TaskId c = graph.addTask("c", {r0, r1}, 5);
    graph.addDep(c, a);
    graph.addDep(c, b);

    ExecRecord fresh;
    const ExecResult freshResult =
        graph.execute(pool, nullptr, nullptr, &fresh);
    ExecScratch scratch;
    for (int round = 0; round < 3; ++round) {
        pool.resetAll();
        ExecRecord reused;
        const ExecResult reusedResult =
            graph.execute(pool, nullptr, &scratch, &reused);
        EXPECT_EQ(reusedResult.makespan, freshResult.makespan);
        EXPECT_EQ(reused.start, fresh.start);
        EXPECT_EQ(reused.end, fresh.end);
    }
}

TEST(TaskGraph, MovableAcrossBuildAndExecute)
{
    // Templates move frozen graphs into shared caches; both a built-but-
    // unexecuted and an already-executed graph must survive the move.
    ResourcePool pool;
    const auto r = pool.create("r");
    TaskGraph built;
    built.addTask("a", {r}, 7);
    TaskGraph moved = std::move(built);
    EXPECT_EQ(moved.execute(pool).makespan, 7u);

    pool.resetAll();
    TaskGraph again = std::move(moved);
    EXPECT_EQ(again.execute(pool).makespan, 7u);
}

TEST(TaskGraph, SuccessorsKeepAddDepOrderIncludingDuplicates)
{
    ResourcePool pool;
    TaskGraph graph;
    const TaskId a = graph.addTask("a", {}, 1);
    const TaskId b = graph.addTask("b", {}, 1);
    const TaskId c = graph.addTask("c", {}, 1);
    const TaskId d = graph.addTask("d", {}, 1);
    graph.addDep(c, a);
    graph.addDep(b, a);
    graph.addDep(d, c);
    graph.addDep(d, a);
    graph.addDep(b, a); // duplicated edge: kept, and counted twice
    const auto succ = [&](TaskId id) {
        const auto list = graph.successors(id);
        return std::vector<TaskId>(list.begin(), list.end());
    };
    EXPECT_EQ(succ(a), (std::vector<TaskId>{c, b, d, b}));
    EXPECT_EQ(succ(b), std::vector<TaskId>{});
    EXPECT_EQ(succ(c), std::vector<TaskId>{d});
    EXPECT_EQ(succ(d), std::vector<TaskId>{});
    EXPECT_EQ(graph.dependencyCounts()[b], 2u);
    EXPECT_EQ(graph.execute(pool).makespan, 3u);
}

TEST(TaskGraph, ResourceSlotsIndexTheRecordedReservations)
{
    ResourcePool pool;
    const auto r0 = pool.create("r0");
    const auto r1 = pool.create("r1");
    const auto r2 = pool.create("r2");
    TaskGraph graph;
    const TaskId x = graph.addTask("x", {r0}, 10);
    const TaskId y = graph.addTask("y", {r1, r0, r2}, 10);
    const TaskId z = graph.addTask("z", {r2, r1}, 10);
    ExecRecord record;
    graph.execute(pool, nullptr, nullptr, &record);
    ASSERT_EQ(record.resPrev.size(), 6u);

    // Slot j of a task holds its j-th resource; the executor writes
    // that reservation's previous holder there.
    const auto prevs = [&](TaskId id) {
        const auto slots = graph.resourceSlots(id);
        EXPECT_EQ(slots.size(), graph.resources(id).size());
        std::vector<TaskId> out;
        for (const std::uint32_t slot : slots)
            out.push_back(record.resPrev[slot]);
        return out;
    };
    EXPECT_EQ(*graph.resourceSlots(x).begin(), 0u);
    EXPECT_EQ(*graph.resourceSlots(y).begin(), 1u);
    EXPECT_EQ(*graph.resourceSlots(z).begin(), 4u);
    EXPECT_EQ(graph.resources(y)[1], r0);
    EXPECT_EQ(prevs(x), std::vector<TaskId>{kNoTask});
    EXPECT_EQ(prevs(y), (std::vector<TaskId>{kNoTask, x, kNoTask}));
    EXPECT_EQ(prevs(z), (std::vector<TaskId>{y, y}));
}

TEST(TaskGraph, EqualLabelsShareOneLabelId)
{
    TaskGraph graph;
    const std::string dynamic = std::string("a");
    const TaskId a0 = graph.addTask("a", {}, 1);
    const TaskId b0 = graph.addTask("b", {}, 1);
    const TaskId a1 = graph.addTask(dynamic, {}, 2);
    const TaskId c0 = graph.addTask("c", {}, 1);
    const TaskId b1 = graph.addTask("b", {}, 3);
    EXPECT_EQ(graph.labelId(a0), graph.labelId(a1));
    EXPECT_EQ(graph.labelId(b0), graph.labelId(b1));
    EXPECT_NE(graph.labelId(a0), graph.labelId(c0));
    EXPECT_EQ(graph.labels(), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(graph.label(a1), "a");
    EXPECT_EQ(graph.label(b1), "b");
    EXPECT_EQ(graph.duration(b1), 3u);
}

TEST(TaskGraphDeath, AddTaskAfterExecuteIsABug)
{
    ResourcePool pool;
    TaskGraph graph;
    graph.addTask("a", {}, 1);
    graph.execute(pool);
    EXPECT_DEATH(graph.addTask("late", {}, 1), "addTask after");
}

TEST(TaskGraphDeath, AddDepAfterExecuteIsABug)
{
    ResourcePool pool;
    TaskGraph graph;
    const TaskId a = graph.addTask("a", {}, 1);
    const TaskId b = graph.addTask("b", {}, 1);
    graph.execute(pool);
    EXPECT_DEATH(graph.addDep(b, a), "addDep after");
}

TEST(TaskGraphDeath, CycleIsDetected)
{
    ResourcePool pool;
    TaskGraph graph;
    const TaskId a = graph.addTask("a", {}, 1);
    const TaskId b = graph.addTask("b", {}, 1);
    graph.addDep(a, b);
    graph.addDep(b, a);
    EXPECT_DEATH(graph.execute(pool), "cycle");
}

TEST(EventQueueDeath, LaneScheduleBeforeTheLanesTailIsABug)
{
    // The executor's lane precondition: within one lane, when never
    // decreases. Both queues check it, so a violation dies in the
    // product queue and in the reference alike.
    sim::CalendarQueue<std::uint64_t> calendar;
    calendar.reset(2);
    calendar.scheduleAt(10, 0, 1);
    calendar.scheduleAt(5, 1, 0); // another lane: fine
    calendar.scheduleAt(10, 2, 1); // equal time: fine
    EXPECT_DEATH(calendar.scheduleAt(9, 3, 1), "before the lane's tail");
    EXPECT_DEATH(calendar.scheduleAt(9, 3, 2), "out of range");

    sim::HeapEventQueue<std::uint64_t> heap;
    heap.reset(2);
    heap.scheduleAt(10, 0, 1);
    EXPECT_DEATH(heap.scheduleAt(9, 1, 1), "before the lane's tail");
}

} // namespace
} // namespace lergan
