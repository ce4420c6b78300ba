/**
 * @file
 * Tests for the phase-time analysis over recorded runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "core/api.hh"
#include "core/phase_report.hh"

namespace lergan {
namespace {

/** A hand-built recorded run: tasks with fixed intervals. */
struct Recorded {
    TaskGraph graph;
    ExecRecord record;

    void
    add(const std::string &label, PicoSeconds start, PicoSeconds end)
    {
        graph.addTask(label, {}, end - start);
        record.start.push_back(start);
        record.end.push_back(end);
        record.makespan = std::max(record.makespan, end);
    }
};

/** One recorded iteration of @p model on @p config. */
struct RealRun {
    std::shared_ptr<const IterationTemplate> tmpl;
    ExecRecord record;
    TrainingReport report;
};

RealRun
recordRun(const GanModel &model, const AcceleratorConfig &config)
{
    LerGanAccelerator accelerator(model, config);
    RealRun run;
    run.tmpl = accelerator.makeIterationTemplate();
    run.report =
        accelerator.trainIterations(1, nullptr, run.tmpl.get(), &run.record);
    return run;
}

TEST(PhaseReport, GroupsByLabelFamilies)
{
    Recorded run;
    run.add("G.l1.fc@G.fwd", 0, 10);
    run.add("G.l2.tconv@G.fwd", 10, 30);
    run.add("xfer:a->b", 5, 15);
    run.add("update:D.l1.conv@D.fwd", 30, 40);
    run.add("ctrl:train_disc", 0, 1);

    const auto phases = phaseTimes(run.graph, run.record);
    ASSERT_EQ(phases.size(), 4u);
    auto find = [&](const std::string &name) -> const PhaseTime & {
        for (const PhaseTime &p : phases)
            if (p.name == name)
                return p;
        ADD_FAILURE() << "missing family " << name;
        static PhaseTime none;
        return none;
    };
    EXPECT_EQ(find("G.fwd").tasks, 2u);
    EXPECT_EQ(find("G.fwd").busy, 30u);
    EXPECT_EQ(find("G.fwd").span(), 30u);
    EXPECT_EQ(find("transfers").tasks, 1u);
    EXPECT_EQ(find("updates").tasks, 1u);
    EXPECT_EQ(find("other").tasks, 1u);
}

TEST(PhaseReport, RealRunCoversAllSixPhases)
{
    const GanModel model = makeBenchmark("cGAN");
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    const RealRun run = recordRun(model, config);
    const TrainingReport &report = run.report;

    const auto phases = phaseTimes(run.tmpl->graph, run.record);
    int named_phases = 0;
    for (const PhaseTime &phase : phases) {
        for (Phase p : kAllPhases)
            if (phase.name == phaseName(p))
                ++named_phases;
        EXPECT_LE(phase.lastEnd, report.iterationTime);
        EXPECT_LE(phase.firstStart, phase.lastEnd);
    }
    EXPECT_EQ(named_phases, 6);
}

TEST(PhaseReport, PhasesOverlapUnderPipelining)
{
    // The D-forward window must start before the G-forward window ends:
    // the first items reach the discriminator while later items are
    // still in the generator.
    const GanModel model = makeBenchmark("cGAN");
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 16;
    const RealRun run = recordRun(model, config);

    const auto phases = phaseTimes(run.tmpl->graph, run.record);
    const PhaseTime *g_fwd = nullptr, *d_fwd = nullptr;
    for (const PhaseTime &phase : phases) {
        if (phase.name == "G.fwd")
            g_fwd = &phase;
        if (phase.name == "D.fwd")
            d_fwd = &phase;
    }
    ASSERT_TRUE(g_fwd && d_fwd);
    EXPECT_LT(d_fwd->firstStart, g_fwd->lastEnd);
}

TEST(PhaseReport, PrintsTable)
{
    Recorded run;
    run.add("G.l1.fc@G.fwd", 0, nsToPs(100));
    run.record.makespan = nsToPs(200);
    std::ostringstream oss;
    printPhaseTimes(oss, run.graph, run.record);
    EXPECT_NE(oss.str().find("G.fwd"), std::string::npos);
    EXPECT_NE(oss.str().find("50.0%"), std::string::npos);
}

} // namespace
} // namespace lergan
