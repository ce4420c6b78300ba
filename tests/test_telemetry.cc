/**
 * @file
 * Tests for the telemetry subsystem: registry create-or-get semantics,
 * histogram bucketing, snapshot/delta/prefix-filter algebra, the three
 * exporters, the span-to-host-phase aggregator, and a worker-pool hammer
 * that the
 * TSan stage of scripts/check.sh re-runs (label "telemetry").
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "exec/thread_pool.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/metrics.hh"

namespace lergan {
namespace {

TEST(MetricsRegistry, CreateOrGetReturnsSameInstrument)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("sim.tasks.executed");
    Counter &b = registry.counter("sim.tasks.executed");
    EXPECT_EQ(&a, &b);
    a.add(3);
    b.add(4);
    EXPECT_EQ(a.value(), 7u);
    EXPECT_EQ(registry.size(), 1u);

    registry.gauge("cache.model.size").set(2.0);
    registry.histogram("sim.queue.depth").observe(5);
    EXPECT_EQ(registry.size(), 3u);

    registry.clear();
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_TRUE(registry.snapshot().empty());
}

TEST(MetricsRegistry, KindMismatchPanics)
{
    MetricsRegistry registry;
    registry.counter("sim.iterations");
    EXPECT_DEATH(registry.gauge("sim.iterations"), "");
    EXPECT_DEATH(registry.histogram("sim.iterations"), "");
}

TEST(Histogram, BucketsByBitWidth)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0);
    EXPECT_EQ(Histogram::bucketOf(1), 1);
    EXPECT_EQ(Histogram::bucketOf(2), 2);
    EXPECT_EQ(Histogram::bucketOf(3), 2);
    EXPECT_EQ(Histogram::bucketOf(4), 3);
    EXPECT_EQ(Histogram::bucketOf(1023), 10);
    EXPECT_EQ(Histogram::bucketOf(1024), 11);
    EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 64);

    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(Histogram::bucketUpperBound(10), 1023u);
    EXPECT_EQ(Histogram::bucketUpperBound(64), UINT64_MAX);

    Histogram hist;
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 0u);
    hist.observe(0);
    hist.observe(7);
    hist.observe(8);
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_EQ(hist.sum(), 15u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 8u);
    EXPECT_EQ(hist.bucketCount(0), 1u); // the zero
    EXPECT_EQ(hist.bucketCount(3), 1u); // 7 in [4,7]
    EXPECT_EQ(hist.bucketCount(4), 1u); // 8 in [8,15]
}

TEST(MetricsSnapshot, DeltaSubtractsAccumulativeFields)
{
    MetricsRegistry registry;
    registry.counter("sim.graph.runs").add(2);
    registry.gauge("cache.model.size").set(1.0);
    registry.histogram("sim.queue.depth").observe(4);
    const MetricsSnapshot before = registry.snapshot();

    registry.counter("sim.graph.runs").add(3);
    registry.gauge("cache.model.size").set(5.0);
    registry.histogram("sim.queue.depth").observe(4);
    registry.counter("ic.bus.flits").add(9); // absent from `before`
    const MetricsSnapshot after = registry.snapshot();

    const MetricsSnapshot delta = after.delta(before);
    EXPECT_EQ(delta.counters.at("sim.graph.runs"), 3u);
    EXPECT_EQ(delta.counters.at("ic.bus.flits"), 9u);
    // Gauges are not accumulative: delta keeps the later value.
    EXPECT_DOUBLE_EQ(delta.gauges.at("cache.model.size"), 5.0);
    EXPECT_EQ(delta.histograms.at("sim.queue.depth").count, 1u);
    EXPECT_EQ(delta.histograms.at("sim.queue.depth").sum, 4u);
}

TEST(MetricsSnapshot, WithoutPrefixStripsHostMetrics)
{
    MetricsRegistry registry;
    registry.counter("sim.graph.runs").add(1);
    registry.gauge("host.pool.threads").set(4.0);
    registry.counter("host.pool.tasks.run").add(10);
    const MetricsSnapshot full = registry.snapshot();
    const MetricsSnapshot sim = full.withoutPrefix("host.");
    EXPECT_EQ(sim.counters.size(), 1u);
    EXPECT_EQ(sim.counters.count("sim.graph.runs"), 1u);
    EXPECT_TRUE(sim.gauges.empty());
    // The source snapshot is untouched.
    EXPECT_EQ(full.counters.size(), 2u);
}

MetricsSnapshot
exampleSnapshot()
{
    MetricsRegistry registry;
    registry.counter("ic.htree.wire.flits").add(12);
    registry.gauge("cache.model.hits").set(3.0);
    Histogram &hist = registry.histogram("sim.queue.depth");
    hist.observe(0);
    hist.observe(5);
    return registry.snapshot();
}

TEST(MetricsSnapshot, JsonExportIsValidJson)
{
    std::ostringstream oss;
    exampleSnapshot().writeJson(oss);
    std::string error;
    EXPECT_TRUE(isValidJson(oss.str(), &error)) << error << "\n"
                                                << oss.str();
    EXPECT_NE(oss.str().find("ic.htree.wire.flits"), std::string::npos);
}

TEST(MetricsSnapshot, PrometheusExportShape)
{
    std::ostringstream oss;
    exampleSnapshot().writePrometheus(oss);
    const std::string text = oss.str();
    // Names are sanitized: dots become underscores.
    EXPECT_NE(text.find("ic_htree_wire_flits 12"), std::string::npos);
    EXPECT_NE(text.find("cache_model_hits 3"), std::string::npos);
    EXPECT_NE(text.find("sim_queue_depth_count 2"), std::string::npos);
    EXPECT_NE(text.find("sim_queue_depth_sum 5"), std::string::npos);
    // Cumulative buckets end with exactly one +Inf line.
    const std::string inf = "le=\"+Inf\"";
    const std::size_t first = text.find(inf);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find(inf, first + 1), std::string::npos);
}

TEST(MetricsSnapshot, CsvExportShape)
{
    std::ostringstream oss;
    exampleSnapshot().writeCsv(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("counter,ic.htree.wire.flits"),
              std::string::npos);
    EXPECT_NE(text.find("gauge,cache.model.hits"), std::string::npos);
    EXPECT_NE(text.find("histogram,sim.queue.depth"), std::string::npos);
}

TEST(MetricsSnapshot, EqualContentsSerializeByteIdentically)
{
    // The determinism goldens rely on this: same instrument values,
    // independent of recording order, produce the same bytes.
    MetricsRegistry a;
    a.counter("ic.bus.flits").add(2);
    a.counter("sim.graph.runs").add(1);
    MetricsRegistry b;
    b.counter("sim.graph.runs").add(1);
    b.counter("ic.bus.flits").add(1);
    b.counter("ic.bus.flits").add(1);
    std::ostringstream oa, ob;
    a.snapshot().writePrometheus(oa);
    b.snapshot().writePrometheus(ob);
    EXPECT_EQ(oa.str(), ob.str());
}

SpanEvent
timedSpan(TraceId trace, SpanId span, const char *name,
          std::uint64_t begin_ns, std::uint64_t end_ns)
{
    SpanEvent event;
    event.trace = trace;
    event.span = span;
    event.parent = span == 1 ? 0 : 1;
    event.name = name;
    event.beginNs = begin_ns;
    event.endNs = end_ns;
    return event;
}

TEST(SpanTotals, SumPerNameAcrossTracesAndFileHostPhaseGauges)
{
    // Two traces of a hand-built point: compile appears once per trace,
    // so its total spans both.
    const std::vector<SpanEvent> events = {
        timedSpan(1, 1, "point", 0, 9'000'000),
        timedSpan(1, 2, "compile", 0, 2'000'000),
        timedSpan(1, 3, "simulate", 2'000'000, 8'500'000),
        timedSpan(2, 1, "point", 10'000'000, 11'000'000),
        timedSpan(2, 2, "compile", 10'000'000, 10'250'000),
    };
    MetricsRegistry registry;
    const auto totals = sumSpansByName(events, &registry);

    ASSERT_EQ(totals.size(), 3u);
    EXPECT_EQ(totals.at("point").ns, 10'000'000u);
    EXPECT_EQ(totals.at("point").calls, 2u);
    EXPECT_EQ(totals.at("compile").ns, 2'250'000u);
    EXPECT_EQ(totals.at("compile").calls, 2u);
    EXPECT_DOUBLE_EQ(totals.at("compile").ms(), 2.25);
    EXPECT_EQ(totals.at("simulate").calls, 1u);

    const MetricsSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.gauges.size(), 6u);
    EXPECT_DOUBLE_EQ(snapshot.gauges.at("host.phase.compile.ms"), 2.25);
    EXPECT_DOUBLE_EQ(snapshot.gauges.at("host.phase.compile.calls"), 2.0);
    EXPECT_DOUBLE_EQ(snapshot.gauges.at("host.phase.simulate.ms"), 6.5);
    EXPECT_DOUBLE_EQ(snapshot.gauges.at("host.phase.point.calls"), 2.0);
    // Everything lands under "host.", which the goldens strip.
    EXPECT_TRUE(snapshot.withoutPrefix("host.").empty());
}

TEST(MetricsRegistry, ConcurrentRecordingFromWorkerPool)
{
    // The registry's whole job is lock-free recording from sweep
    // workers; hammer one registry from every worker and check the
    // integer totals are exact. scripts/check.sh re-runs this under
    // -fsanitize=thread (ctest -L telemetry).
    MetricsRegistry registry;
    constexpr int kTasks = 64;
    constexpr int kOpsPerTask = 1000;
    {
        ThreadPool pool(4);
        for (int t = 0; t < kTasks; ++t) {
            pool.submit([&registry, t] {
                // Mix instrument *creation* (mutex path) with hot-path
                // recording (atomics) across many dotted names.
                Counter &flits = registry.counter("ic.bus.flits");
                Histogram &depth =
                    registry.histogram("sim.queue.depth");
                Counter &mine = registry.counter(
                    "sim.task." + std::to_string(t % 8));
                for (int i = 0; i < kOpsPerTask; ++i) {
                    flits.add(1);
                    depth.observe(static_cast<std::uint64_t>(i));
                    mine.add(1);
                }
                registry.gauge("cache.model.size").set(1.0);
            });
        }
        pool.drain();
    }
    const MetricsSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counters.at("ic.bus.flits"),
              static_cast<std::uint64_t>(kTasks) * kOpsPerTask);
    const HistogramSnapshot &depth =
        snapshot.histograms.at("sim.queue.depth");
    EXPECT_EQ(depth.count, static_cast<std::uint64_t>(kTasks) *
                               kOpsPerTask);
    EXPECT_EQ(depth.min, 0u);
    EXPECT_EQ(depth.max, static_cast<std::uint64_t>(kOpsPerTask - 1));
    std::uint64_t per_task_total = 0;
    for (int t = 0; t < 8; ++t)
        per_task_total += snapshot.counters.at("sim.task." +
                                               std::to_string(t));
    EXPECT_EQ(per_task_total,
              static_cast<std::uint64_t>(kTasks) * kOpsPerTask);
}

TEST(MetricsRegistry, ShardedSnapshotsMatchSingleThreadedReference)
{
    // The per-worker shards are an implementation detail: after the
    // snapshot merge, a registry hammered from 8 threads must
    // serialize byte-identically to one fed the same observations on a
    // single thread. This is the contract the determinism goldens rest
    // on; scripts/check.sh re-runs it under -fsanitize=thread.
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 2000;

    MetricsRegistry sharded;
    {
        ThreadPool pool(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            pool.submit([&sharded] {
                Counter &runs = sharded.counter("sim.graph.runs");
                Histogram &lat = sharded.histogram("sim.task.latency");
                for (int i = 0; i < kOpsPerThread; ++i) {
                    runs.add(2);
                    lat.observe(static_cast<std::uint64_t>(i * 3));
                }
            });
        }
        pool.drain();
    }
    sharded.gauge("cache.model.size").set(7.0);

    MetricsRegistry reference;
    {
        Counter &runs = reference.counter("sim.graph.runs");
        Histogram &lat = reference.histogram("sim.task.latency");
        for (int t = 0; t < kThreads; ++t)
            for (int i = 0; i < kOpsPerThread; ++i) {
                runs.add(2);
                lat.observe(static_cast<std::uint64_t>(i * 3));
            }
        reference.gauge("cache.model.size").set(7.0);
    }

    std::ostringstream got, want;
    sharded.snapshot().writePrometheus(got);
    reference.snapshot().writePrometheus(want);
    EXPECT_EQ(got.str(), want.str());

    // The merged extrema are exact, not bucket-rounded.
    const MetricsSnapshot snap = sharded.snapshot();
    const HistogramSnapshot &lat =
        snap.histograms.at("sim.task.latency");
    EXPECT_EQ(lat.min, 0u);
    EXPECT_EQ(lat.max,
              static_cast<std::uint64_t>((kOpsPerThread - 1) * 3));
    EXPECT_EQ(lat.count, static_cast<std::uint64_t>(kThreads) *
                             kOpsPerThread);
}

} // namespace
} // namespace lergan
