/**
 * @file
 * Table V reproduction: the eight GAN benchmark topologies, as parsed and
 * shape-resolved by the library — plus a wall-clock measurement of the
 * parallel sweep engine on the Table-V grid (all benchmarks x
 * {LerGAN-low, PRIME}), verifying that 1-worker and 4-worker runs
 * export byte-identical JSON.
 */

#include <chrono>
#include <sstream>

#include "core/sweep_io.hh"
#include "exec/thread_pool.hh"
#include "runner.hh"

namespace {

/** Fresh Table-V grid (fresh = cold compile cache). */
lergan::ExperimentSweep
tableVGrid()
{
    using namespace lergan;
    ExperimentSweep sweep;
    for (const GanModel &model : allBenchmarks())
        sweep.addBenchmark(model);
    sweep.addConfig("lergan-low",
                    AcceleratorConfig::lerGan(ReplicaDegree::Low));
    sweep.addConfig("prime", AcceleratorConfig::prime());
    return sweep;
}

/** Run the grid on @p threads workers and return (results, seconds). */
std::pair<std::vector<lergan::SweepResult>, double>
timedRun(const lergan::ExperimentSweep &sweep, int threads)
{
    lergan::RunOptions options;
    options.threads = threads;
    options.iterations = lergan::bench::kIterations;
    const auto start = std::chrono::steady_clock::now();
    auto results = sweep.run(options);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return {std::move(results), elapsed.count()};
}

/**
 * @param golden mask wall-clock, speedup and host-thread values (they
 * differ run to run) so the output byte-diffs cleanly against a
 * committed snapshot. The byte-identity verdict lines stay live.
 */
std::string
sweepEngineSection(bool golden)
{
    using namespace lergan;
    using lergan::bench::kIterations;

    std::ostringstream out;
    out << "\nParallel sweep engine on the Table-V grid ("
        << tableVGrid().pointCount() << " points x " << kIterations
        << " iterations):\n";

    const auto cacheState = [](const ExperimentSweep &sweep) {
        return std::to_string(sweep.cache().hits()) + " hits / " +
               std::to_string(sweep.cache().misses()) + " misses";
    };

    const ExperimentSweep seqSweep = tableVGrid();
    const auto [seqResults, seqSeconds] = timedRun(seqSweep, 1);
    const std::string seqCache = cacheState(seqSweep);
    const ExperimentSweep parSweep = tableVGrid();
    const auto [parResults, parSeconds] = timedRun(parSweep, 4);
    const std::string parCache = cacheState(parSweep);
    // Warm rerun: every compile is a cache hit, simulation only.
    const auto [warmResults, warmSeconds] = timedRun(seqSweep, 1);
    const std::string warmCache = cacheState(seqSweep);

    std::ostringstream seqJson, parJson, warmJson;
    writeSweepJson(seqJson, seqResults);
    writeSweepJson(parJson, parResults);
    writeSweepJson(warmJson, warmResults);

    TextTable table({"run", "workers", "wall-clock ms", "speedup",
                     "compile cache"});
    const auto row = [&](const char *name, int workers, double seconds,
                         const std::string &cache) {
        table.addRow({name, std::to_string(workers),
                      golden ? "-" : TextTable::num(seconds * 1e3, 1),
                      golden ? "-"
                             : TextTable::num(seqSeconds / seconds, 2) +
                                   "x",
                      cache});
    };
    row("sequential", 1, seqSeconds, seqCache);
    row("parallel", 4, parSeconds, parCache);
    row("warm rerun", 1, warmSeconds, warmCache);
    table.print(out);

    out << "1-worker vs 4-worker JSON byte-identical: "
        << (seqJson.str() == parJson.str() ? "yes" : "NO")
        << "; warm rerun byte-identical: "
        << (seqJson.str() == warmJson.str() ? "yes" : "NO")
        << "\n(speedup scales with the host's cores; this run saw "
        << (golden ? std::string("-")
                   : std::to_string(defaultThreadCount()))
        << " hardware thread(s))\n";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lergan;
    bench::Runner runner("Table V: GAN benchmark topologies",
                         "8 GANs; f/c/t layer chains with kernel+stride "
                         "specs");
    runner.args().addOption("golden",
                            "mask host-dependent values for golden "
                            "snapshots",
                            "", /*is_flag=*/true);
    runner.parse(argc, argv, "Table V benchmark topology reproduction");

    TextTable table({"name", "G layers", "D layers", "item", "dims",
                     "G weights", "D weights", "G tconv", "G conv"});
    for (const GanModel &model : allBenchmarks()) {
        std::uint64_t g_weights = 0, d_weights = 0;
        int tconv = 0, conv = 0;
        for (const LayerSpec &l : model.generator) {
            g_weights += l.numWeights();
            tconv += l.kind == LayerKind::TConv;
            conv += l.kind == LayerKind::Conv;
        }
        for (const LayerSpec &l : model.discriminator)
            d_weights += l.numWeights();
        table.addRow({model.name, std::to_string(model.generator.size()),
                      std::to_string(model.discriminator.size()),
                      std::to_string(model.itemSize),
                      std::to_string(model.spatialDims),
                      std::to_string(g_weights), std::to_string(d_weights),
                      std::to_string(tconv), std::to_string(conv)});
    }
    table.print(std::cout);

    std::cout << "\nPer-layer shapes:\n";
    for (const GanModel &model : allBenchmarks()) {
        std::cout << model.name << "\n";
        for (const auto *net : {&model.generator, &model.discriminator}) {
            for (const LayerSpec &l : *net) {
                std::cout << "  " << l.name << ": " << l.inChannels << "x"
                          << l.inSize << "^" << l.spatialDims << " -> "
                          << l.outChannels << "x" << l.outSize << "^"
                          << l.spatialDims;
                if (l.kind != LayerKind::FullyConnected) {
                    std::cout << "  k" << l.kernel << " s" << l.stride
                              << " p" << l.pad << "/" << l.padHi << " r"
                              << l.rem;
                }
                std::cout << "\n";
            }
        }
    }

    std::cout << sweepEngineSection(runner.args().getFlag("golden"));
    runner.finish();
    return 0;
}
