/**
 * @file
 * Integration tests: full training-iteration simulations across
 * configurations, checking the structural properties the paper's
 * evaluation rests on.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "core/api.hh"

namespace lergan {
namespace {

AcceleratorConfig
configOf(Connection conn, ReshapeMode reshape, bool dup,
         ReplicaDegree degree = ReplicaDegree::Low)
{
    AcceleratorConfig config;
    config.connection = conn;
    config.reshape = reshape;
    config.duplicate = dup;
    config.degree = degree;
    return config;
}

TEST(Accelerator, IterationCompletesAndReports)
{
    const GanModel model = makeBenchmark("cGAN");
    const TrainingReport report =
        simulateTraining(model, AcceleratorConfig::lerGan(
                                    ReplicaDegree::Low));
    EXPECT_GT(report.iterationTime, 0u);
    EXPECT_GT(report.totalEnergyPj(), 0.0);
    EXPECT_GT(report.computeEnergyPj(), 0.0);
    EXPECT_GT(report.commEnergyPj(), 0.0);
    EXPECT_GT(report.stats.get("energy.update"), 0.0);
    EXPECT_GT(report.stats.get("sim.tasks"), 1000.0);
    EXPECT_EQ(report.benchmark, "cGAN");
}

TEST(Accelerator, DeterministicAcrossRuns)
{
    const GanModel model = makeBenchmark("cGAN");
    LerGanAccelerator acc(model,
                          AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const TrainingReport a = acc.trainIterations(1);
    const TrainingReport b = acc.trainIterations(1);
    EXPECT_EQ(a.iterationTime, b.iterationTime);
    EXPECT_DOUBLE_EQ(a.totalEnergyPj(), b.totalEnergyPj());
}

TEST(Accelerator, ThreeDBeatsHTreeWithZfdr)
{
    // Fig. 17: with ZFDR, the 3D connection clearly beats H-tree.
    for (const char *name : {"DCGAN", "cGAN", "GPGAN"}) {
        const GanModel model = makeBenchmark(name);
        const TrainingReport htree = simulateTraining(
            model, configOf(Connection::HTree, ReshapeMode::Zfdr, false));
        const TrainingReport three_d = simulateTraining(
            model, configOf(Connection::ThreeD, ReshapeMode::Zfdr, false));
        EXPECT_LT(three_d.iterationTime, htree.iterationTime) << name;
    }
}

TEST(Accelerator, ZfdrBeatsNormalReshapeOn3D)
{
    // Fig. 18: with the 3D connection, ZFDR beats normal reshaping.
    for (const char *name : {"DCGAN", "cGAN", "GPGAN"}) {
        const GanModel model = makeBenchmark(name);
        const TrainingReport zfdr = simulateTraining(
            model, configOf(Connection::ThreeD, ReshapeMode::Zfdr, false));
        const TrainingReport normal = simulateTraining(
            model,
            configOf(Connection::ThreeD, ReshapeMode::Normal, false));
        EXPECT_LT(zfdr.iterationTime, normal.iterationTime) << name;
    }
}

TEST(Accelerator, DuplicationHelpsMoreOn3DThanHTree)
{
    // Fig. 17's second finding: duplication gains little on H-tree
    // (I/O-bound) but much more on the 3D connection.
    const GanModel model = makeBenchmark("DCGAN");
    const double gain_2d =
        static_cast<double>(
            simulateTraining(model, configOf(Connection::HTree,
                                             ReshapeMode::Zfdr, false))
                .iterationTime) /
        simulateTraining(model,
                         configOf(Connection::HTree, ReshapeMode::Zfdr,
                                  true, ReplicaDegree::High))
            .iterationTime;
    const double gain_3d =
        static_cast<double>(
            simulateTraining(model, configOf(Connection::ThreeD,
                                             ReshapeMode::Zfdr, false))
                .iterationTime) /
        simulateTraining(model,
                         configOf(Connection::ThreeD, ReshapeMode::Zfdr,
                                  true, ReplicaDegree::High))
            .iterationTime;
    EXPECT_GT(gain_3d, gain_2d);
}

TEST(Accelerator, LerGanBeatsPrimeOnTconvHeavyGans)
{
    // Fig. 19's headline: LerGAN > PRIME wherever T-CONVs dominate.
    for (const char *name : {"DCGAN", "cGAN", "3D-GAN", "GPGAN"}) {
        const GanModel model = makeBenchmark(name);
        const TrainingReport lergan = simulateTraining(
            model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
        const TrainingReport prime =
            simulateTraining(model, AcceleratorConfig::prime());
        EXPECT_LT(lergan.iterationTime, prime.iterationTime) << name;
        EXPECT_LT(lergan.totalEnergyPj(), prime.totalEnergyPj()) << name;
    }
}

TEST(Accelerator, HigherDuplicationFasterButMoreEnergy)
{
    // Fig. 19/20: LerGAN-high gains speed over LerGAN-low at an energy
    // cost (more replicas to keep updated).
    const GanModel model = makeBenchmark("GPGAN");
    const TrainingReport low = simulateTraining(
        model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const TrainingReport high = simulateTraining(
        model, AcceleratorConfig::lerGan(ReplicaDegree::High));
    EXPECT_LE(high.iterationTime, low.iterationTime);
    EXPECT_GT(high.stats.get("energy.update"),
              low.stats.get("energy.update"));
}

TEST(Accelerator, EnergyBreakdownSumsToTotal)
{
    const GanModel model = makeBenchmark("DCGAN");
    const TrainingReport report = simulateTraining(
        model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const double parts = report.computeEnergyPj() + report.commEnergyPj() +
                         report.stats.get("energy.buffer") +
                         report.stats.get("energy.storage") +
                         report.stats.get("energy.update") +
                         report.stats.get("energy.control");
    EXPECT_NEAR(parts, report.totalEnergyPj(),
                1e-6 * report.totalEnergyPj());
}

TEST(Accelerator, ComputeDominatesLerGanEnergy)
{
    // Fig. 23: computing is the dominant share (70.4% in the paper).
    const GanModel model = makeBenchmark("DCGAN");
    const TrainingReport report = simulateTraining(
        model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const double share =
        report.computeEnergyPj() / report.totalEnergyPj();
    EXPECT_GT(share, 0.5);
    EXPECT_LT(share, 0.9);
}

TEST(Accelerator, MaganGainsLittle)
{
    // The all-FC discriminator and near-dense generator of MAGAN-MNIST
    // leave ZFDR little to remove (Sec. VI-C).
    const GanModel magan = makeBenchmark("MAGAN-MNIST");
    auto ratio = [](const GanModel &m) {
        const auto lergan = simulateTraining(
            m, AcceleratorConfig::lerGan(ReplicaDegree::High));
        const auto prime = simulateTraining(m, AcceleratorConfig::prime());
        return static_cast<double>(prime.iterationTime) /
               lergan.iterationTime;
    };
    double sum = 0;
    int n = 0;
    for (const GanModel &model : allBenchmarks()) {
        if (model.name == "MAGAN-MNIST")
            continue;
        sum += ratio(model);
        ++n;
    }
    EXPECT_LT(ratio(magan), sum / n);
}

TEST(Accelerator, IterationsScaleTotals)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    LerGanAccelerator acc(model,
                          AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const TrainingReport ten = acc.trainIterations(10);
    EXPECT_DOUBLE_EQ(ten.stats.get("total.iterations"), 10.0);
    EXPECT_NEAR(ten.stats.get("total.time_ms"), 10 * ten.timeMs(), 1e-9);
}

TEST(Accelerator, SmallerBatchRunsFaster)
{
    const GanModel model = makeBenchmark("cGAN");
    AcceleratorConfig small = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    small.batchSize = 8;
    AcceleratorConfig big = small;
    big.batchSize = 64;
    EXPECT_LT(simulateTraining(model, small).iterationTime,
              simulateTraining(model, big).iterationTime);
}

TEST(Accelerator, TemplateReplayMatchesRebuild)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    const AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);

    // A template built by one accelerator, replayed by another of the
    // same (model, config) pair, must reproduce the rebuild path
    // exactly: simulated time, every stat, the execution record and
    // the metrics.
    LerGanAccelerator maker(model, config);
    const auto tmpl = maker.makeIterationTemplate();

    LerGanAccelerator rebuilt(model, config);
    LerGanAccelerator replayed(model, config);
    ExecRecord rebuiltRecord, replayedRecord;
    MetricsRegistry rebuiltMetrics, replayedMetrics;
    const TrainingReport a = rebuilt.trainIterations(
        10, &rebuiltMetrics, nullptr, &rebuiltRecord);
    const TrainingReport b = replayed.trainIterations(
        10, &replayedMetrics, tmpl.get(), &replayedRecord);

    EXPECT_EQ(a.iterationTime, b.iterationTime);
    EXPECT_DOUBLE_EQ(a.totalEnergyPj(), b.totalEnergyPj());

    std::ostringstream aSummary, bSummary;
    a.stats.print(aSummary);
    b.stats.print(bSummary);
    EXPECT_EQ(aSummary.str(), bSummary.str());

    std::ostringstream aProm, bProm;
    rebuiltMetrics.snapshot().writePrometheus(aProm);
    replayedMetrics.snapshot().writePrometheus(bProm);
    EXPECT_EQ(aProm.str(), bProm.str());

    ASSERT_EQ(rebuiltRecord.start.size(), tmpl->graph.size());
    EXPECT_EQ(rebuiltRecord.start, replayedRecord.start);
    EXPECT_EQ(rebuiltRecord.end, replayedRecord.end);
    EXPECT_EQ(rebuiltRecord.bindingPred, replayedRecord.bindingPred);
}

TEST(Accelerator, TemplateReplayIsRepeatable)
{
    // Replaying the same template many times on one accelerator (the
    // sweep's steady state, reusing its ExecScratch) never drifts.
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    const AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    LerGanAccelerator acc(model, config);
    const auto tmpl = acc.makeIterationTemplate();
    const TrainingReport first =
        acc.trainIterations(1, nullptr, tmpl.get());
    for (int i = 0; i < 3; ++i) {
        const TrainingReport next =
            acc.trainIterations(1, nullptr, tmpl.get());
        EXPECT_EQ(next.iterationTime, first.iterationTime);
        EXPECT_DOUBLE_EQ(next.totalEnergyPj(), first.totalEnergyPj());
    }
}

/** FNV-1a over the little-endian bytes of every field fed to it. */
struct Fnv1a {
    std::uint64_t hash = 14695981039346656037ull;

    void
    byte(unsigned char b)
    {
        hash ^= b;
        hash *= 1099511628211ull;
    }
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        for (const char c : s)
            byte(static_cast<unsigned char>(c));
    }
};

/** Digest of everything a template carries: per task its label,
 *  duration, resources and successors (addDep order), then the
 *  build-time energies, counter deltas and controller advances. */
std::uint64_t
templateDigest(const IterationTemplate &tmpl)
{
    const TaskGraph &graph = tmpl.graph;
    Fnv1a f;
    f.u64(graph.size());
    for (TaskId id = 0; id < graph.size(); ++id) {
        f.str(graph.label(id));
        f.u64(graph.duration(id));
        f.u64(graph.resources(id).size());
        for (const std::uint32_t rid : graph.resources(id))
            f.u64(rid);
        f.u64(graph.successors(id).size());
        for (const std::uint32_t succ : graph.successors(id))
            f.u64(succ);
    }
    f.u64(tmpl.buildEnergy.size());
    for (const auto &[name, value] : tmpl.buildEnergy) {
        f.str(name);
        f.u64(std::bit_cast<std::uint64_t>(value));
    }
    f.u64(tmpl.counterDeltas.size());
    for (const auto &[name, delta] : tmpl.counterDeltas) {
        f.str(name);
        f.u64(delta);
    }
    f.u64(static_cast<std::uint64_t>(tmpl.controllerAdvances));
    return f.hash;
}

TEST(Accelerator, LoweringMatchesPinnedTemplateDigests)
{
    // Pins the lowering: any change to a template's tasks, edges,
    // energies or counters over this grid changes its digest. After an
    // intended lowering change, regenerate the table with this digest.
    const std::map<std::string, std::uint64_t> expected = {
        {"DCGAN prime HTree b1", 0x9a8e6bd7e6926d13ull},
        {"DCGAN prime HTree b64", 0xec730bac13dc87ebull},
        {"DCGAN prime ThreeD b1", 0x683bac5ff91e5a6dull},
        {"DCGAN prime ThreeD b64", 0xfc3e686116a6bf92ull},
        {"DCGAN low HTree b1", 0x985826ad46971d35ull},
        {"DCGAN low HTree b64", 0x716cea4072c3fdfdull},
        {"DCGAN low ThreeD b1", 0x0dfb18ee866e9196ull},
        {"DCGAN low ThreeD b64", 0x5bff1080d86dee78ull},
        {"DCGAN high HTree b1", 0x05fd247de2a95077ull},
        {"DCGAN high HTree b64", 0x0be28da9d075eff0ull},
        {"DCGAN high ThreeD b1", 0x9a70fbcfa716d8ebull},
        {"DCGAN high ThreeD b64", 0x053d1397a0ad00f4ull},
        {"cGAN prime HTree b1", 0x8eaa6bfae1079cbfull},
        {"cGAN prime HTree b64", 0xd2bd7093e5e242bcull},
        {"cGAN prime ThreeD b1", 0x7cfe0efe2db63533ull},
        {"cGAN prime ThreeD b64", 0x3cd7dc2a50e5324eull},
        {"cGAN low HTree b1", 0x105c156cb3f4d060ull},
        {"cGAN low HTree b64", 0x574c60660b74eb0aull},
        {"cGAN low ThreeD b1", 0x075c013054e0ab5cull},
        {"cGAN low ThreeD b64", 0xc8850352bd9edaf0ull},
        {"cGAN high HTree b1", 0xc176603a09ebeef0ull},
        {"cGAN high HTree b64", 0x5cf88c864c275525ull},
        {"cGAN high ThreeD b1", 0x5d3c35ec1bee9e9dull},
        {"cGAN high ThreeD b64", 0x62df46282edaefa5ull},
        {"3D-GAN prime HTree b1", 0x0a78163395c77113ull},
        {"3D-GAN prime HTree b64", 0x7f9903b748594deaull},
        {"3D-GAN prime ThreeD b1", 0xeedc83f0fe9e7f6eull},
        {"3D-GAN prime ThreeD b64", 0x0e9f20e93dbe6aa2ull},
        {"3D-GAN low HTree b1", 0x7cc402b0068c3903ull},
        {"3D-GAN low HTree b64", 0x3762d2d34d0e4655ull},
        {"3D-GAN low ThreeD b1", 0xd63bf56bda73a87dull},
        {"3D-GAN low ThreeD b64", 0x26ced595c5067f86ull},
        {"3D-GAN high HTree b1", 0x5e1b48fd4e42ed20ull},
        {"3D-GAN high HTree b64", 0x776f0c3e5bdc4548ull},
        {"3D-GAN high ThreeD b1", 0x95cdf02d84cdaa2aull},
        {"3D-GAN high ThreeD b64", 0x690d7289d9101f30ull},
        {"ArtGAN-CIFAR-10 prime HTree b1", 0x73d0952b68abac14ull},
        {"ArtGAN-CIFAR-10 prime HTree b64", 0xa62b801395fca5bfull},
        {"ArtGAN-CIFAR-10 prime ThreeD b1", 0x10e651cfccd831c9ull},
        {"ArtGAN-CIFAR-10 prime ThreeD b64", 0x653c6197378d5352ull},
        {"ArtGAN-CIFAR-10 low HTree b1", 0xabe6cd37e4db63c5ull},
        {"ArtGAN-CIFAR-10 low HTree b64", 0x5b65bf35841ce74bull},
        {"ArtGAN-CIFAR-10 low ThreeD b1", 0xa2c9258f0f67b2c6ull},
        {"ArtGAN-CIFAR-10 low ThreeD b64", 0x61a5022321bf798dull},
        {"ArtGAN-CIFAR-10 high HTree b1", 0x97d806d79d68b248ull},
        {"ArtGAN-CIFAR-10 high HTree b64", 0xa15168dbe6b1d052ull},
        {"ArtGAN-CIFAR-10 high ThreeD b1", 0xb2509ddfe4d0ada4ull},
        {"ArtGAN-CIFAR-10 high ThreeD b64", 0x3c055bbde70ea754ull},
        {"GPGAN prime HTree b1", 0xef45bfcbcecc2633ull},
        {"GPGAN prime HTree b64", 0xae5fe51cf24d651aull},
        {"GPGAN prime ThreeD b1", 0xfad80d6278c50b0dull},
        {"GPGAN prime ThreeD b64", 0xffdb7b01292d7d18ull},
        {"GPGAN low HTree b1", 0xff09ee18b5d0ef5eull},
        {"GPGAN low HTree b64", 0x023e23f3fbb0c596ull},
        {"GPGAN low ThreeD b1", 0x79f8868264a0d6bdull},
        {"GPGAN low ThreeD b64", 0x2a532c2af894bf5eull},
        {"GPGAN high HTree b1", 0xe1fcf274a5b160d1ull},
        {"GPGAN high HTree b64", 0x52a5ac6087b616b2ull},
        {"GPGAN high ThreeD b1", 0xcec90348cf3643f0ull},
        {"GPGAN high ThreeD b64", 0xddc3b4320fbe6913ull},
        {"MAGAN-MNIST prime HTree b1", 0x9c4d0d3331fda317ull},
        {"MAGAN-MNIST prime HTree b64", 0x28315d87219a395full},
        {"MAGAN-MNIST prime ThreeD b1", 0xd3112ec10459c427ull},
        {"MAGAN-MNIST prime ThreeD b64", 0xddbb01386e54335eull},
        {"MAGAN-MNIST low HTree b1", 0x3a553efaa18c4531ull},
        {"MAGAN-MNIST low HTree b64", 0x58fff0ecb7393777ull},
        {"MAGAN-MNIST low ThreeD b1", 0x31a0c23856563aa6ull},
        {"MAGAN-MNIST low ThreeD b64", 0xca1f5fac0d40b03cull},
        {"MAGAN-MNIST high HTree b1", 0x9d3fefc9f865ce7full},
        {"MAGAN-MNIST high HTree b64", 0x02dc91f4c48f9480ull},
        {"MAGAN-MNIST high ThreeD b1", 0x2f41753653b28e16ull},
        {"MAGAN-MNIST high ThreeD b64", 0x33a30b6276c41019ull},
        {"DiscoGAN-4pairs prime HTree b1", 0x8b524f63b26915b0ull},
        {"DiscoGAN-4pairs prime HTree b64", 0xadcafc38c05d8eabull},
        {"DiscoGAN-4pairs prime ThreeD b1", 0x94637145b35af3e9ull},
        {"DiscoGAN-4pairs prime ThreeD b64", 0x9409411996b190b0ull},
        {"DiscoGAN-4pairs low HTree b1", 0x16004875ace35b26ull},
        {"DiscoGAN-4pairs low HTree b64", 0x93383486c127e98full},
        {"DiscoGAN-4pairs low ThreeD b1", 0x1815dab0768c03f5ull},
        {"DiscoGAN-4pairs low ThreeD b64", 0x7cc52ad756457755ull},
        {"DiscoGAN-4pairs high HTree b1", 0x0afa9b312bbfcc11ull},
        {"DiscoGAN-4pairs high HTree b64", 0xcf6cd93ec455c76cull},
        {"DiscoGAN-4pairs high ThreeD b1", 0x72eb9d3247a4be71ull},
        {"DiscoGAN-4pairs high ThreeD b64", 0xd99ea7f7d051c32bull},
        {"DiscoGAN-5pairs prime HTree b1", 0x540b8088bb13ed74ull},
        {"DiscoGAN-5pairs prime HTree b64", 0xc4bba01ff5f11ebaull},
        {"DiscoGAN-5pairs prime ThreeD b1", 0x8715d1ac2097526dull},
        {"DiscoGAN-5pairs prime ThreeD b64", 0xa3c85c384b534338ull},
        {"DiscoGAN-5pairs low HTree b1", 0x4c5a444fe1b1bfd7ull},
        {"DiscoGAN-5pairs low HTree b64", 0x90d59b9abba8d92aull},
        {"DiscoGAN-5pairs low ThreeD b1", 0x0c3b0c281bd16b60ull},
        {"DiscoGAN-5pairs low ThreeD b64", 0x947834fd27cf1081ull},
        {"DiscoGAN-5pairs high HTree b1", 0xfd138d309600f047ull},
        {"DiscoGAN-5pairs high HTree b64", 0x44968b9e482acf45ull},
        {"DiscoGAN-5pairs high ThreeD b1", 0x85d3f8b8c884e9b9ull},
        {"DiscoGAN-5pairs high ThreeD b64", 0x7730ed033edf5adbull},
    };
    const std::pair<const char *, AcceleratorConfig> configs[] = {
        {"prime", AcceleratorConfig::prime()},
        {"low", AcceleratorConfig::lerGan(ReplicaDegree::Low)},
        {"high", AcceleratorConfig::lerGan(ReplicaDegree::High)},
    };
    std::size_t checked = 0;
    for (const std::string &name : benchmarkNames()) {
        const GanModel model = makeBenchmark(name);
        for (const auto &[label, base] : configs) {
            for (Connection conn : {Connection::HTree, Connection::ThreeD}) {
                for (int batch : {1, 64}) {
                    AcceleratorConfig config = base;
                    config.connection = conn;
                    config.batchSize = batch;
                    const std::string key =
                        name + " " + label + " " +
                        (conn == Connection::HTree ? "HTree" : "ThreeD") +
                        " b" + std::to_string(batch);
                    LerGanAccelerator acc(model, config);
                    const auto digest =
                        templateDigest(*acc.makeIterationTemplate());
                    const auto pinned = expected.find(key);
                    ASSERT_NE(pinned, expected.end()) << key;
                    EXPECT_EQ(digest, pinned->second) << key;
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, expected.size());
}

TEST(Accelerator, AllBenchmarksRunOnAllConnections)
{
    for (const GanModel &model : allBenchmarks()) {
        for (Connection conn : {Connection::HTree, Connection::ThreeD}) {
            AcceleratorConfig config =
                AcceleratorConfig::lerGan(ReplicaDegree::Low);
            config.connection = conn;
            config.batchSize = 4; // keep the sweep fast
            const TrainingReport report =
                simulateTraining(model, config);
            EXPECT_GT(report.iterationTime, 0u)
                << model.name << " " << report.config;
        }
    }
}

} // namespace
} // namespace lergan
