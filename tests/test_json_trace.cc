/**
 * @file
 * Tests for the JSON writer, the execution tracer and the utilization
 * reporter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/json.hh"
#include "sim/task_graph.hh"
#include "sim/trace.hh"
#include "sim/trace_tracks.hh"
#include "sim/utilization.hh"

namespace lergan {
namespace {

TEST(Json, ObjectsAndArrays)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginObject();
    json.key("name").value("DCGAN");
    json.key("n").value(42);
    json.key("ratio").value(0.5);
    json.key("ok").value(true);
    json.key("list").beginArray();
    json.value(1).value(2).value(3);
    json.endArray();
    json.endObject();
    EXPECT_EQ(oss.str(),
              "{\"name\":\"DCGAN\",\"n\":42,\"ratio\":0.5,\"ok\":true,"
              "\"list\":[1,2,3]}");
}

TEST(Json, NestedObjects)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginArray();
    json.beginObject();
    json.key("a").value(1);
    json.endObject();
    json.beginObject();
    json.key("b").beginObject().endObject();
    json.endObject();
    json.endArray();
    EXPECT_EQ(oss.str(), "[{\"a\":1},{\"b\":{}}]");
}

TEST(Json, Escaping)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Trace, RecordsTaskIntervals)
{
    ResourcePool pool;
    const auto r = pool.create("unit");
    TaskGraph graph;
    const TaskId a = graph.addTask({"first", {r}, 10});
    const TaskId b = graph.addTask({"second", {r}, 5});
    graph.addDep(b, a);

    ExecRecord record;
    graph.execute(pool, nullptr, nullptr, &record);
    const Tracer tracer = traceRun(graph, record);
    ASSERT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.events()[0].label, "first");
    EXPECT_EQ(tracer.events()[0].start, 0u);
    EXPECT_EQ(tracer.events()[0].end, 10u);
    EXPECT_EQ(tracer.events()[1].start, 10u);
    EXPECT_EQ(tracer.events()[1].end, 15u);
    EXPECT_EQ(tracer.events()[0].lane, r);
}

TEST(Trace, NullTracerIsFine)
{
    ResourcePool pool;
    TaskGraph graph;
    graph.addTask({"t", {}, 1});
    EXPECT_EQ(graph.execute(pool).makespan, 1u);
}

TEST(Trace, ChromeExportIsValidJsonShape)
{
    Tracer tracer;
    tracer.record("task \"x\"", 0, nsToPs(1.0), 0);
    std::ostringstream oss;
    tracer.exportChromeTrace(oss, {"lane0"});
    const std::string out = oss.str();
    EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(out.find("\\\"x\\\""), std::string::npos);
    EXPECT_NE(out.find("thread_name"), std::string::npos);
    EXPECT_NE(out.find("lane0"), std::string::npos);
}

TEST(Trace, UnlanedTasksGetNamedTrack)
{
    Tracer tracer;
    tracer.record("detached", 0, 10, SIZE_MAX);
    std::ostringstream oss;
    tracer.exportChromeTrace(oss, {"lane0"});
    const std::string out = oss.str();
    // SIZE_MAX lanes map to tid 0 with a human-readable name, not to
    // tid 18446744073709551615.
    EXPECT_EQ(out.find("18446744073709551615"), std::string::npos);
    EXPECT_NE(out.find("(no resource)"), std::string::npos);
    std::string error;
    EXPECT_TRUE(isValidJson(out, &error)) << error;
}

TEST(Trace, CounterSamplesBecomeCounterTracks)
{
    Tracer tracer;
    tracer.recordCounter("sim.queue.depth", 0, 1.0);
    tracer.recordCounter("sim.queue.depth", 100, 3.0);
    // Same track + time overwrites: one instant keeps its final value.
    tracer.recordCounter("sim.queue.depth", 100, 2.0);
    ASSERT_EQ(tracer.counterSamples().size(), 2u);
    EXPECT_DOUBLE_EQ(tracer.counterSamples()[1].value, 2.0);
    // Only the last sample of any track is compared: once another
    // track's sample intervenes, a same-instant update is kept.
    tracer.recordCounter("sim.other", 100, 7.0);
    tracer.recordCounter("sim.queue.depth", 100, 4.0);
    ASSERT_EQ(tracer.counterSamples().size(), 4u);
    EXPECT_DOUBLE_EQ(tracer.counterSamples()[1].value, 2.0);
    EXPECT_DOUBLE_EQ(tracer.counterSamples()[3].value, 4.0);

    std::ostringstream oss;
    tracer.exportChromeTrace(oss, {});
    const std::string out = oss.str();
    EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(out.find("sim.queue.depth"), std::string::npos);
    std::string error;
    EXPECT_TRUE(isValidJson(out, &error)) << error;
}

TEST(Trace, InflightTrackIsRebuiltFromTheRecord)
{
    ResourcePool pool;
    const auto r = pool.create("unit");
    TaskGraph graph;
    const TaskId a = graph.addTask({"first", {r}, 10});
    const TaskId b = graph.addTask({"second", {r}, 5});
    graph.addDep(b, a);

    ExecRecord record;
    graph.execute(pool, nullptr, nullptr, &record);
    const Tracer tracer = traceRun(graph, record);
    // "first" is in flight over [0, 10), "second" over [10, 15): the
    // hand-over at 10 leaves the count at 1, so the step curve has two
    // samples, and it is the only counter track.
    std::vector<std::pair<PicoSeconds, double>> samples;
    for (const CounterSample &sample : tracer.counterSamples()) {
        EXPECT_EQ(sample.track, "sim.inflight.tasks");
        samples.emplace_back(sample.time, sample.value);
    }
    const std::vector<std::pair<PicoSeconds, double>> expected = {
        {0, 1.0}, {15, 0.0}};
    EXPECT_EQ(samples, expected);
}

TEST(TraceTracks, SpanOccupancyAndBusiestLane)
{
    Tracer tracer;
    // Two overlapping transfers and one compute span on another lane.
    tracer.record("xfer:a->b", 0, 10, 0);
    tracer.record("xfer:b->c", 5, 25, 1);
    tracer.record("mmv", 0, 100, 2);

    const std::size_t samples =
        addSpanOccupancyTrack(tracer, "xfer:", "ic.xfer.active");
    EXPECT_GT(samples, 0u);
    // Occupancy rises to 2 in [5,10) and returns to 0 at 25.
    double peak = 0.0, last = -1.0;
    for (const CounterSample &sample : tracer.counterSamples()) {
        if (sample.track != "ic.xfer.active")
            continue;
        peak = std::max(peak, sample.value);
        last = sample.value;
    }
    EXPECT_DOUBLE_EQ(peak, 2.0);
    EXPECT_DOUBLE_EQ(last, 0.0);

    const std::vector<std::string> names = {"wire.0", "wire.1",
                                            "tile.compute"};
    EXPECT_EQ(busiestLane(tracer, names, "wire"), 1u);
    EXPECT_EQ(busiestLane(tracer, names, ".compute"), 2u);
    EXPECT_EQ(busiestLane(tracer, names, "nonesuch"), SIZE_MAX);

    const std::size_t lane_samples =
        addLaneOccupancyTrack(tracer, 2, "tile.busy");
    EXPECT_GT(lane_samples, 0u);
}

TEST(Trace, TimelinePrintsAndTruncates)
{
    Tracer tracer;
    for (int i = 0; i < 10; ++i)
        tracer.record("t" + std::to_string(i), i, i + 1, 0);
    std::ostringstream oss;
    tracer.printTimeline(oss, 3);
    EXPECT_NE(oss.str().find("7 more events"), std::string::npos);
}

TEST(Utilization, TopBusySortsByBusyTime)
{
    ResourcePool pool;
    const auto a = pool.create("a");
    const auto b = pool.create("b");
    pool[a].reserve(0, 10);
    pool[b].reserve(0, 30);
    const auto top = topBusyResources(pool, 100, 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].name, "b");
    EXPECT_DOUBLE_EQ(top[0].utilization, 0.3);
    EXPECT_EQ(top[1].name, "a");
}

TEST(Utilization, FragmentAveraging)
{
    ResourcePool pool;
    const auto a = pool.create("tile.compute.0");
    const auto b = pool.create("tile.compute.1");
    pool.create("wire.x");
    pool[a].reserve(0, 50);
    pool[b].reserve(0, 100);
    EXPECT_DOUBLE_EQ(utilizationOf(pool, 100, ".compute"), 0.75);
    EXPECT_DOUBLE_EQ(utilizationOf(pool, 100, "wire"), 0.0);
    EXPECT_DOUBLE_EQ(utilizationOf(pool, 100, "nonexistent"), 0.0);
}

TEST(Utilization, PrintsTable)
{
    ResourcePool pool;
    pool[pool.create("busy.thing")].reserve(0, 42);
    std::ostringstream oss;
    printUtilization(oss, pool, 100, 5);
    EXPECT_NE(oss.str().find("busy.thing"), std::string::npos);
}

} // namespace
} // namespace lergan
