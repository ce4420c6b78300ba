/**
 * @file
 * google-benchmark microbenchmarks for the simulator substrate: event
 * queue throughput, routing, reshape enumeration and whole-iteration
 * simulation.
 */

#include <benchmark/benchmark.h>

#include "core/api.hh"
#include "sim/calendar_queue.hh"
#include "zfdr/reshape.hh"

namespace {

using namespace lergan;

void
BM_CalendarQueue(benchmark::State &state)
{
    // Preload n events, then drain: the queue depth the executor sees
    // grows with batch size (perfbench's batch-scale averages 18K
    // pending events and peaks at 65K), so the 1<<14 and 1<<17 rows
    // track the deep-queue cost against the shallow 1<<10 one.
    // Items/s should fall only logarithmically with n; a far level
    // that is rescanned per window shows up here as a throughput cliff
    // at 1<<17.
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::CalendarQueue<std::uint64_t> queue;
        for (int i = 0; i < n; ++i)
            queue.scheduleAt(static_cast<PicoSeconds>(i * 7 % 1000),
                             static_cast<std::uint64_t>(i));
        std::uint64_t sum = 0;
        std::uint64_t tag = 0;
        while (queue.pop(tag))
            sum += tag;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CalendarQueue)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void
BM_CalendarQueueFanOut(benchmark::State &state)
{
    // One pop releases k events at its own instant, as a controller
    // barrier releases 2 x batch successors (8,192 at batch 4096).
    // Items/s should be flat in k: an ordered insert per same-instant
    // event would make one fan-out O(k^2).
    const auto k = static_cast<std::uint64_t>(state.range(0));
    sim::CalendarQueue<std::uint64_t> queue;
    for (auto _ : state) {
        queue.reset();
        queue.scheduleAt(5, k);
        std::uint64_t tag = 0;
        queue.pop(tag);
        for (std::uint64_t i = 0; i < k; ++i)
            queue.scheduleAt(queue.now(), i);
        std::uint64_t sum = 0;
        while (queue.pop(tag))
            sum += tag;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(k));
}
BENCHMARK(BM_CalendarQueueFanOut)->Arg(128)->Arg(2048)->Arg(8192);

void
BM_CalendarQueueLaneDrain(benchmark::State &state)
{
    // The 1<<17 preload of BM_CalendarQueue, but spread over 717 lanes
    // (LerGAN-low's resource count) in non-decreasing time per lane,
    // the way the executor files completions: the calendar holds one
    // head per lane, so items/s should stay near the shallow row's.
    const int n = static_cast<int>(state.range(0));
    constexpr int kLanes = 717;
    sim::CalendarQueue<std::uint64_t> queue;
    for (auto _ : state) {
        queue.reset(kLanes);
        for (int i = 0; i < n; ++i) {
            const int lane = i % kLanes;
            queue.scheduleAt(
                static_cast<PicoSeconds>(i / kLanes * 7 + lane % 5),
                static_cast<std::uint64_t>(i),
                static_cast<std::size_t>(lane));
        }
        std::uint64_t sum = 0;
        std::uint64_t tag = 0;
        while (queue.pop(tag))
            sum += tag;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CalendarQueueLaneDrain)->Arg(1 << 17);

void
BM_RouteHTree(benchmark::State &state)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    Machine machine(config);
    int i = 0;
    for (auto _ : state) {
        // Alternate endpoints to defeat the route cache.
        const Route route = machine.topo().route(
            machine.bank(0).tiles[i % 16],
            machine.bank(5).tiles[(i * 7) % 16]);
        benchmark::DoNotOptimize(route.latencyNs);
        ++i;
    }
}
BENCHMARK(BM_RouteHTree);

void
BM_ReshapeAnalysis(benchmark::State &state)
{
    const GanModel model = makeBenchmark("DCGAN");
    const auto ops = opsForPhase(model, Phase::GFwd);
    for (auto _ : state) {
        for (const LayerOp &op : ops) {
            if (!op.zfdrApplicable())
                continue;
            const ReshapeAnalysis analysis = analyzeReshape(op);
            benchmark::DoNotOptimize(analysis.distinctMatrices());
        }
    }
}
BENCHMARK(BM_ReshapeAnalysis);

void
BM_CompileGan(benchmark::State &state)
{
    const GanModel model = makeBenchmark("DCGAN");
    const AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Middle);
    for (auto _ : state) {
        const CompiledGan compiled = compileGan(model, config);
        benchmark::DoNotOptimize(compiled.crossbarsUsed);
    }
}
BENCHMARK(BM_CompileGan);

void
BM_TrainIteration(benchmark::State &state)
{
    const GanModel model = makeBenchmark("cGAN");
    LerGanAccelerator acc(model,
                          AcceleratorConfig::lerGan(ReplicaDegree::Low));
    for (auto _ : state) {
        const TrainingReport report = acc.trainIterations(1);
        benchmark::DoNotOptimize(report.iterationTime);
    }
}
BENCHMARK(BM_TrainIteration);

} // namespace

BENCHMARK_MAIN();
