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
    // grows with batch size, so the 1<<14 row tracks the deep-queue
    // cost against the shallow 1<<10 one.
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
BENCHMARK(BM_CalendarQueue)->Arg(1 << 10)->Arg(1 << 14);

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
