/**
 * @file
 * Tests for the experiment-sweep library and its exporters.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/sweep.hh"
#include "core/sweep_io.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

ExperimentSweep
smallSweep()
{
    AcceleratorConfig lergan = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    lergan.batchSize = 4;
    AcceleratorConfig prime = AcceleratorConfig::prime();
    prime.batchSize = 4;
    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addBenchmark(makeBenchmark("cGAN"))
        .addConfig("lergan", lergan)
        .addConfig("prime", prime);
    return sweep;
}

TEST(Sweep, RunsTheFullGrid)
{
    const auto results = smallSweep().run();
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].benchmark, "MAGAN-MNIST");
    EXPECT_EQ(results[0].configLabel, "lergan");
    EXPECT_EQ(results[1].configLabel, "prime");
    EXPECT_EQ(results[2].benchmark, "cGAN");
    for (const SweepResult &result : results) {
        EXPECT_GT(result.report.iterationTime, 0u);
        EXPECT_GT(result.crossbarsUsed, 0u);
    }
}

TEST(Sweep, TemplateCacheBuildsOncePerPairAndStaysDeterministic)
{
    const ExperimentSweep sweep = smallSweep();
    const auto first = sweep.run();
    // 2 models x 2 configs: one DAG template per distinct pair.
    EXPECT_EQ(sweep.templates().misses(), 4u);
    EXPECT_EQ(sweep.templates().size(), 4u);

    const auto second = sweep.run();
    EXPECT_EQ(sweep.templates().misses(), 4u); // all replays now
    EXPECT_EQ(sweep.templates().hits(), 4u);

    std::ostringstream a, b;
    writeSweepJson(a, first);
    writeSweepJson(b, second);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Sweep, TemplatedRunsAreWorkerCountInvariant)
{
    const ExperimentSweep sweep = smallSweep();
    RunOptions serial;
    serial.threads = 1;
    RunOptions parallel;
    parallel.threads = 4;
    std::ostringstream a, b;
    writeSweepJson(a, sweep.run(serial));
    writeSweepJson(b, sweep.run(parallel));
    EXPECT_EQ(a.str(), b.str());
}

TEST(Sweep, JsonExportContainsEveryPoint)
{
    const auto results = smallSweep().run();
    std::ostringstream oss;
    writeSweepJson(oss, results);
    const std::string out = oss.str();
    EXPECT_EQ(out.front(), '[');
    EXPECT_NE(out.find("\"benchmark\":\"MAGAN-MNIST\""),
              std::string::npos);
    EXPECT_NE(out.find("\"config\":\"prime\""), std::string::npos);
    EXPECT_NE(out.find("\"ms_per_iteration\":"), std::string::npos);
    EXPECT_NE(out.find("energy.compute.adc"), std::string::npos);
}

TEST(Sweep, CsvExportHasHeaderAndRows)
{
    const auto results = smallSweep().run();
    std::ostringstream oss;
    writeSweepCsv(oss, results);
    const std::string out = oss.str();
    // Header + 4 rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
    EXPECT_NE(out.find("benchmark,config,"), std::string::npos);
    EXPECT_NE(out.find("cGAN,prime,"), std::string::npos);
}

TEST(SweepDeath, EmptyGridIsFatal)
{
    ExperimentSweep sweep;
    EXPECT_DEATH(sweep.run(), "at least one");
}

} // namespace
} // namespace lergan
