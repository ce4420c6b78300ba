/**
 * @file
 * Tests for the report type, the public API entry points and the
 * workload zoo helpers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/api.hh"

namespace lergan {
namespace {

TEST(Report, PrintSummarizesKeyNumbers)
{
    TrainingReport report;
    report.benchmark = "X";
    report.config = "Y";
    report.iterationTime = nsToPs(2e6); // 2 ms
    report.stats.add("energy.compute.adc", 1e9);
    report.crossbarsUsed = 42;
    std::ostringstream oss;
    report.print(oss);
    EXPECT_NE(oss.str().find("X on Y"), std::string::npos);
    EXPECT_NE(oss.str().find("2.000 ms/iter"), std::string::npos);
    EXPECT_NE(oss.str().find("42 crossbars"), std::string::npos);
}

TEST(Report, VerbosePrintDumpsStats)
{
    TrainingReport report;
    report.stats.add("energy.update", 7);
    std::ostringstream terse, verbose;
    report.print(terse, false);
    report.print(verbose, true);
    EXPECT_EQ(terse.str().find("energy.update"), std::string::npos);
    EXPECT_NE(verbose.str().find("energy.update"), std::string::npos);
}

TEST(Report, JsonRoundsOutEveryField)
{
    TrainingReport report;
    report.benchmark = "DCGAN";
    report.config = "3D+ZFDR(low)";
    report.iterationTime = nsToPs(1e6);
    report.stats.add("energy.buffer", 5.5);
    report.crossbarsUsed = 9;
    std::ostringstream oss;
    report.writeJson(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("\"benchmark\":\"DCGAN\""), std::string::npos);
    EXPECT_NE(out.find("\"crossbars\":9"), std::string::npos);
    EXPECT_NE(out.find("\"energy.buffer\":5.5"), std::string::npos);
}

TEST(Report, EnergyAccessorsSliceTheStats)
{
    TrainingReport report;
    report.stats.add("energy.compute.adc", 10);
    report.stats.add("energy.compute.cell", 5);
    report.stats.add("energy.comm.bus", 3);
    report.stats.add("energy.update", 2);
    EXPECT_DOUBLE_EQ(report.computeEnergyPj(), 15.0);
    EXPECT_DOUBLE_EQ(report.commEnergyPj(), 3.0);
    EXPECT_DOUBLE_EQ(report.totalEnergyPj(), 20.0);
}

TEST(Api, SimulateTrainingMatchesAcceleratorPath)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    const TrainingReport via_api = simulateTraining(model, config);
    LerGanAccelerator accelerator(model, config);
    const TrainingReport direct = accelerator.trainIterations(1);
    EXPECT_EQ(via_api.iterationTime, direct.iterationTime);
}

TEST(Zoo, NamesMatchTableOrder)
{
    const auto names = benchmarkNames();
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names.front(), "DCGAN");
    EXPECT_EQ(names.back(), "DiscoGAN-5pairs");
    for (const std::string &name : names)
        EXPECT_EQ(makeBenchmark(name).name, name);
}

TEST(ZooDeath, UnknownBenchmarkIsFatal)
{
    EXPECT_EXIT(makeBenchmark("NoSuchGAN"), testing::ExitedWithCode(1),
                "");
}

TEST(Zoo, ScaledDcganChainsAcrossSizes)
{
    for (int item : {8, 16, 32, 64, 128}) {
        const GanModel model = dcganScaled(item);
        EXPECT_EQ(model.itemSize, item);
        EXPECT_EQ(model.generator.back().outSize, item);
        EXPECT_EQ(model.discriminator.front().inSize, item);
        // Seed stays 4x4.
        EXPECT_EQ(model.generator[1].inSize, 4);
    }
    // Bigger items mean strictly more weights.
    EXPECT_LT(dcganScaled(32).totalWeights(),
              dcganScaled(64).totalWeights());
}

TEST(ZooDeath, ScaledDcganRejectsBadSizes)
{
    EXPECT_DEATH(dcganScaled(48), "power of two");
    EXPECT_DEATH(dcganScaled(4), "power of two");
}

TEST(Config, LabelsAreDescriptive)
{
    EXPECT_EQ(AcceleratorConfig::lerGan(ReplicaDegree::High).label(),
              "3D+ZFDR(high)");
    EXPECT_EQ(AcceleratorConfig::prime().label(), "2D+NR(middle)");
    AcceleratorConfig ns = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    ns.normalizedSpace = true;
    EXPECT_EQ(ns.label(), "3D+ZFDR(low)-NS");
    AcceleratorConfig nodup = ns;
    nodup.normalizedSpace = false;
    nodup.duplicate = false;
    EXPECT_EQ(nodup.label(), "3D+ZFDR(nodup)");
}

} // namespace
} // namespace lergan
