/**
 * @file
 * Tests for the cross-layer audit subsystem (src/audit): a clean run
 * passes every invariant, and each seeded corruption — a post-run
 * energy mutation, an orphan statistic, a tampered makespan, a record
 * entry past the makespan, a corrupted mapping, a task on a killed
 * tile — is caught by the matching check.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "audit/audit.hh"
#include "core/api.hh"
#include "core/sweep.hh"
#include "core/sweep_io.hh"
#include "core/machine.hh"
#include "core/validate.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

/** One simulated run plus everything the audit layer inspects. */
struct SimRun {
    GanModel model;
    AcceleratorConfig config;
    CompiledGan compiled;
    TrainingReport report;
    std::shared_ptr<const IterationTemplate> tmpl;
    ExecRecord record;

    AuditInput
    input() const
    {
        return {.model = &model,
                .config = &config,
                .compiled = &compiled,
                .report = &report,
                .graph = &tmpl->graph,
                .record = &record};
    }
};

/** Small recorded run (MAGAN-MNIST on LerGAN-low, ZFDR active). */
SimRun
makeRun()
{
    SimRun run;
    run.model = makeBenchmark("MAGAN-MNIST");
    run.config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    run.config.batchSize = 4;
    LerGanAccelerator accelerator(run.model, run.config);
    run.tmpl = accelerator.makeIterationTemplate();
    run.report =
        accelerator.trainIterations(2, nullptr, run.tmpl.get(), &run.record);
    run.compiled = accelerator.compiled();
    return run;
}

TEST(Audit, CleanRunPassesEveryCheck)
{
    const SimRun run = makeRun();
    const AuditContext context;
    // Five registered checks; the faults check skips on this healthy
    // run, so four actually execute.
    EXPECT_EQ(context.checkCount(), 5u);

    const AuditVerdict verdict = context.run(run.input());
    EXPECT_TRUE(verdict.ran);
    EXPECT_EQ(verdict.checksRun, 4u);
    EXPECT_TRUE(verdict.ok()) << verdict.summary();
    EXPECT_EQ(verdict.summary(), "ok (4 checks)");
}

TEST(Audit, DefaultVerdictHasNotRun)
{
    const AuditVerdict verdict;
    EXPECT_FALSE(verdict.ran);
    EXPECT_TRUE(verdict.ok());
}

TEST(Audit, PostRunEnergyMutationIsCaught)
{
    SimRun run = makeRun();
    // The acceptance scenario: someone bumps a component after the run.
    run.report.stats.add("energy.compute.adc", 1.0e6);

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.failures[0].check, "energy");
    EXPECT_NE(verdict.summary().find("changed after the run"),
              std::string::npos)
        << verdict.summary();
}

TEST(Audit, OrphanEnergyComponentIsCaught)
{
    SimRun run = makeRun();
    run.report.stats.set("energy.mystery", 1.0);

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.summary().find(
                  "energy.mystery belongs to no known component family"),
              std::string::npos)
        << verdict.summary();
}

TEST(Audit, NegativeAndNonFiniteEnergiesAreCaught)
{
    SimRun run = makeRun();
    run.report.stats.set("energy.buffer", -5.0);
    run.report.stats.set("energy.control",
                         std::numeric_limits<double>::quiet_NaN());

    const AuditVerdict verdict = AuditContext().run(run.input());
    EXPECT_NE(verdict.summary().find("energy.buffer is negative"),
              std::string::npos)
        << verdict.summary();
    EXPECT_NE(verdict.summary().find("energy.control is not finite"),
              std::string::npos)
        << verdict.summary();
}

TEST(Audit, MissingSnapshotIsCaught)
{
    SimRun run = makeRun();
    TrainingReport bare;
    bare.stats.set("energy.update", 1.0);
    bare.iterationTime = 1;
    run.report = bare; // hand-built report, never ran on an accelerator

    AuditOptions options = AuditOptions::full();
    options.timing = options.zeros = options.mapping = false;
    const AuditVerdict verdict = AuditContext(options).run(run.input());
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.summary().find("missing audit.energy_total_pj"),
              std::string::npos)
        << verdict.summary();
}

TEST(Audit, TamperedMakespanIsCaught)
{
    SimRun run = makeRun();
    run.report.iterationTime += 12345;

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    bool timing_failure = false;
    for (const AuditFinding &finding : verdict.failures)
        timing_failure |= finding.check == "timing";
    EXPECT_TRUE(timing_failure) << verdict.summary();
}

TEST(Audit, RecordEndPastTheMakespanIsCaught)
{
    SimRun run = makeRun();
    run.record.end[0] = run.report.iterationTime + 999;

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.summary().find("after the makespan"),
              std::string::npos)
        << verdict.summary();
    EXPECT_NE(verdict.summary().find("last task ends at"),
              std::string::npos)
        << verdict.summary();
}

TEST(Audit, MissingRecordSkipsTheTimingCheck)
{
    const SimRun run = makeRun();
    AuditInput input = run.input();
    input.record = nullptr;

    const AuditVerdict verdict = AuditContext().run(input);
    EXPECT_TRUE(verdict.ok()) << verdict.summary();
    EXPECT_EQ(verdict.checksRun, 3u); // timing skipped, not failed
}

TEST(Audit, TaskOnAKilledTileIsCaught)
{
    const SimRun run = makeRun();
    // Find a tile whose compute pipeline some task of the healthy run
    // used as its first resource, then audit the run against a config
    // that lists that tile as failed.
    const Machine machine(run.config);
    std::set<std::size_t> used;
    for (TaskId id = 0; id < run.tmpl->graph.size(); ++id) {
        const Task &task = run.tmpl->graph.task(id);
        if (!task.resources.empty())
            used.insert(task.resources.front());
    }
    std::optional<std::pair<int, int>> victim;
    for (int bank = 0; bank < 6 * run.config.cuPairs && !victim; ++bank)
        for (int tile = 0; tile < run.config.reram.tilesPerBank; ++tile)
            if (used.count(machine.tileComputeRes(bank, tile))) {
                victim = {bank, tile};
                break;
            }
    ASSERT_TRUE(victim.has_value());

    AcceleratorConfig killed = run.config;
    killed.failedTiles.push_back(*victim);
    AuditInput input = run.input();
    input.config = &killed;

    AuditOptions options = AuditOptions::full();
    options.mapping = false;
    const AuditVerdict verdict = AuditContext(options).run(input);
    EXPECT_NE(verdict.summary().find("executed on the compute resource "
                                     "of a killed tile"),
              std::string::npos)
        << verdict.summary();

    // Without the record the per-task part is skipped; the placement
    // findings on that tile remain.
    input.record = nullptr;
    const AuditVerdict placementOnly = AuditContext(options).run(input);
    EXPECT_FALSE(placementOnly.ok());
    EXPECT_EQ(placementOnly.summary().find("executed on the compute"),
              std::string::npos)
        << placementOnly.summary();
}

TEST(Audit, CorruptedMappingIsCaught)
{
    SimRun run = makeRun();
    run.compiled.updateElemsD += 1;

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.failures[0].check, "mapping");
}

TEST(Audit, DisabledChecksAreNotRegistered)
{
    AuditOptions options = AuditOptions::full();
    options.zeros = false;
    options.timing = false;
    options.faults = false;
    const AuditContext context(options);
    EXPECT_EQ(context.checkCount(), 2u);

    const SimRun run = makeRun();
    const AuditVerdict verdict = context.run(run.input());
    EXPECT_EQ(verdict.checksRun, 2u);
    EXPECT_TRUE(verdict.ok()) << verdict.summary();
}

TEST(Audit, CustomChecksRunAfterStandardOnes)
{
    AuditContext context;
    context.registerCheck(
        "custom", [](const AuditInput &, const AuditOptions &,
                     AuditVerdict &verdict) {
            verdict.fail("custom", "always fails");
            return true;
        });
    EXPECT_EQ(context.checkCount(), 6u);

    const SimRun run = makeRun();
    const AuditVerdict verdict = context.run(run.input());
    // The faults check skips on this healthy run.
    EXPECT_EQ(verdict.checksRun, 5u);
    ASSERT_EQ(verdict.failures.size(), 1u);
    EXPECT_EQ(verdict.failures[0].check, "custom");
}

TEST(Audit, AuditErrorCarriesTheVerdict)
{
    AuditVerdict verdict;
    verdict.ran = true;
    verdict.checksRun = 1;
    verdict.fail("energy", "component sums diverged");

    const AuditError error(verdict);
    EXPECT_NE(std::string(error.what()).find(
                  "energy: component sums diverged"),
              std::string::npos);
    EXPECT_FALSE(error.verdict().ok());
    EXPECT_EQ(error.verdict().failures.size(), 1u);
}

TEST(Audit, SessionAuditReturnsAnOkVerdict)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    const SimulationSession session(config);

    TrainingReport report;
    const AuditVerdict verdict =
        session.audit(makeBenchmark("MAGAN-MNIST"), 2, &report);
    EXPECT_TRUE(verdict.ran);
    EXPECT_EQ(verdict.checksRun, 4u);
    EXPECT_TRUE(verdict.ok()) << verdict.summary();
    EXPECT_GT(report.iterationTime, 0u);
}

TEST(Audit, AuditedSessionRunMatchesUnaudited)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    const GanModel model = makeBenchmark("MAGAN-MNIST");

    SimulationSession plain(config);
    const TrainingReport baseline = plain.run(model, 2);

    SimulationSession audited(config);
    audited.auditWith(AuditOptions::full());
    const TrainingReport checked = audited.run(model, 2);

    EXPECT_EQ(checked.iterationTime, baseline.iterationTime);
    EXPECT_DOUBLE_EQ(checked.totalEnergyPj(), baseline.totalEnergyPj());
}

TEST(Audit, SweepSurfacesPerPointVerdicts)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addConfig("lergan", config);
    sweep.auditWith(AuditOptions::full());

    const auto results = sweep.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].audit.ran);
    EXPECT_EQ(results[0].audit.checksRun, 4u);
    EXPECT_TRUE(results[0].audit.ok()) << results[0].audit.summary();

    std::ostringstream json;
    writeSweepJson(json, results);
    EXPECT_NE(json.str().find("\"audit\":{\"ok\":true,\"checks\":4}"),
              std::string::npos)
        << json.str();
}

TEST(Audit, UnauditedSweepLeavesVerdictEmpty)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addConfig("lergan", config);

    const auto results = sweep.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].audit.ran);

    std::ostringstream json;
    writeSweepJson(json, results);
    EXPECT_EQ(json.str().find("\"audit\""), std::string::npos);
}

TEST(Audit, ValidatedCompileAcceptsAndRejects)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;

    CompiledGan compiled = compileGanValidated(model, config);
    EXPECT_GT(compiled.crossbarsUsed, 0u);

    compiled.updateElemsG += 7;
    EXPECT_THROW(throwIfInvalid(model, config, compiled),
                 std::runtime_error);
}

} // namespace
} // namespace lergan
