/**
 * @file
 * Property tests for the critical-path engine (src/critpath).
 *
 * Three families, all exact rather than statistical:
 *
 *   - Chain/slack invariants on every golden grid point (all zoo
 *     benchmarks x prime + the three LerGAN replica degrees): the
 *     binding-predecessor chain telescopes, so its durations sum to the
 *     makespan exactly and every chain task has zero slack. Off the
 *     chain slack is strictly positive except on the DiscoGAN models,
 *     whose structurally symmetric GAN pairs produce a handful of
 *     co-critical tasks.
 *   - What-if soundness against real resimulation: the identity
 *     transform is bit-exact, and under arbitrary duration transforms
 *     the [lower, upper] bounds bracket the truth — upper is the
 *     executor-mirror reschedule, which reproduces the resimulated
 *     makespan exactly when copy counts are unchanged.
 *   - Sweep bound pruning: pruned points report the same timing and
 *     energy a full simulation would, carry "critpath.estimated", and
 *     the telemetry counters account for every point.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/api.hh"
#include "core/sweep.hh"
#include "critpath/critpath.hh"
#include "critpath/whatif.hh"
#include "sim/resource.hh"
#include "sim/task_graph.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

std::vector<std::pair<std::string, AcceleratorConfig>>
goldenConfigs()
{
    return {
        {"prime", AcceleratorConfig::prime()},
        {"low", AcceleratorConfig::lerGan(ReplicaDegree::Low)},
        {"middle", AcceleratorConfig::lerGan(ReplicaDegree::Middle)},
        {"high", AcceleratorConfig::lerGan(ReplicaDegree::High)},
    };
}

/** One recorded single-iteration run of (model, config). */
struct Recorded {
    std::shared_ptr<const IterationTemplate> tmpl;
    std::vector<std::string> resourceNames;
    ExecRecord record;
};

Recorded
recordPoint(const GanModel &model, const AcceleratorConfig &config)
{
    LerGanAccelerator accelerator(model, config);
    Recorded out;
    out.tmpl = accelerator.makeIterationTemplate();
    out.resourceNames = accelerator.resourceNames();
    accelerator.trainIterations(1, nullptr, out.tmpl.get(), &out.record);
    return out;
}

std::shared_ptr<const RecordedRun>
toRun(Recorded recorded)
{
    std::shared_ptr<const TaskGraph> graph(recorded.tmpl,
                                           &recorded.tmpl->graph);
    return makeRecordedRun(std::move(graph),
                           std::move(recorded.resourceNames),
                           std::move(recorded.record));
}

TEST(CritPathGolden, ChainSumsToMakespanOnEveryGridPoint)
{
    for (const GanModel &model : allBenchmarks()) {
        for (const auto &[label, config] : goldenConfigs()) {
            const Recorded recorded = recordPoint(model, config);
            const CriticalPath path = extractCriticalPath(
                recorded.tmpl->graph, recorded.record,
                recorded.resourceNames);
            SCOPED_TRACE(model.name + "/" + label);
            ASSERT_FALSE(path.entries.empty());
            EXPECT_EQ(path.makespan, recorded.record.makespan);
            // The satellite property: the chain durations sum to the
            // reported makespan exactly, no tolerance.
            EXPECT_EQ(path.criticalDuration(), recorded.record.makespan);
            // Because the chain telescopes: the first link starts at
            // zero and every later link starts the instant its binding
            // predecessor ends.
            EXPECT_EQ(path.entries.front().start, 0u);
            for (std::size_t i = 1; i < path.entries.size(); ++i) {
                EXPECT_EQ(path.entries[i].start,
                          path.entries[i - 1].start +
                              path.entries[i - 1].duration);
            }
            EXPECT_EQ(path.entries.back().start +
                          path.entries.back().duration,
                      recorded.record.makespan);
        }
    }
}

TEST(CritPathGolden, SlackIsZeroOnChainAndPositiveOffChain)
{
    for (const GanModel &model : allBenchmarks()) {
        // The DiscoGAN models train 4/5 structurally identical GAN
        // pairs in parallel: several pairs finish at the same instant,
        // so a handful of off-chain tasks are co-critical (zero slack
        // without being the extracted chain). Every other benchmark has
        // a unique critical chain.
        const bool symmetric = model.name.rfind("DiscoGAN", 0) == 0;
        for (const auto &[label, config] : goldenConfigs()) {
            const Recorded recorded = recordPoint(model, config);
            const CriticalPath path = extractCriticalPath(
                recorded.tmpl->graph, recorded.record,
                recorded.resourceNames);
            SCOPED_TRACE(model.name + "/" + label);
            std::vector<char> onChain(recorded.tmpl->graph.size(), 0);
            for (const CritEntry &entry : path.entries)
                onChain[entry.task] = 1;
            std::size_t coCritical = 0;
            for (TaskId id = 0; id < recorded.tmpl->graph.size(); ++id) {
                if (onChain[id]) {
                    EXPECT_EQ(path.slack[id], 0u) << "task " << id;
                } else if (path.slack[id] == 0) {
                    ++coCritical;
                }
            }
            if (symmetric) {
                EXPECT_LE(coCritical, 32u);
            } else {
                EXPECT_EQ(coCritical, 0u);
            }
            EXPECT_GE(path.zeroSlackTasks(), path.entries.size());
        }
    }
}

TEST(CritPathGolden, IdentityWhatIfIsBitExactOnEveryGridPoint)
{
    for (const GanModel &model : allBenchmarks()) {
        for (const auto &[label, config] : goldenConfigs()) {
            const std::shared_ptr<const RecordedRun> run =
                toRun(recordPoint(model, config));
            SCOPED_TRACE(model.name + "/" + label);
            const PicoSeconds recorded = run->record.makespan;
            const WhatIfEstimate estimate =
                whatIf(*run, identityTransform(*run));
            EXPECT_EQ(estimate.makespan, recorded);
            // The executor-mirror upper bound replays the identical
            // schedule, so it reproduces the makespan exactly too.
            EXPECT_EQ(estimate.upper, recorded);
            EXPECT_LE(estimate.lower, recorded);
            EXPECT_GT(estimate.lower, 0u);
        }
    }
}

TEST(CritPath, DuplicateCopiesKeepBoundsOrdered)
{
    const std::shared_ptr<const RecordedRun> run = toRun(
        recordPoint(makeBenchmark("DCGAN"),
                    AcceleratorConfig::lerGan(ReplicaDegree::Low)));
    for (const char *category : {"compute", "wire"}) {
        const WhatIfEstimate estimate =
            whatIf(*run, duplicateResourceCategory(*run, category, 2));
        SCOPED_TRACE(category);
        EXPECT_GT(estimate.makespan, 0u);
        EXPECT_LE(estimate.lower, estimate.upper);
        // A single copy of everything is the identity.
        const WhatIfEstimate one =
            whatIf(*run, duplicateResourceCategory(*run, category, 1));
        EXPECT_EQ(one.makespan, run->record.makespan);
        EXPECT_EQ(one.upper, run->record.makespan);
    }
}

// ---------------------------------------------------------------------
// Seeded random graphs: the properties must hold for arbitrary DAG
// shapes and resource conflicts, not just the structured GAN DAGs.

struct RandomModel {
    std::shared_ptr<TaskGraph> graph;
    std::vector<std::string> resourceNames;
    std::vector<PicoSeconds> durations;
};

RandomModel
makeRandomModel(std::uint32_t seed)
{
    std::mt19937 rng(seed);
    const std::size_t n = 120 + rng() % 200;
    const std::size_t resources = 4 + rng() % 8;
    RandomModel model;
    model.graph = std::make_shared<TaskGraph>();
    for (std::size_t i = 0; i < n; ++i) {
        Task task;
        task.label =
            (i % 3 == 0 ? "xfer:t" : "t") + std::to_string(i);
        task.duration = 1 + rng() % 1000;
        const std::size_t r = rng() % resources;
        task.resources = {r};
        if (rng() % 4 == 0 && resources > 1)
            task.resources.push_back((r + 1) % resources);
        model.durations.push_back(task.duration);
        model.graph->addTask(std::move(task));
    }
    for (TaskId task = 1; task < n; ++task) {
        const unsigned deps = rng() % 3;
        for (unsigned d = 0; d < deps; ++d)
            model.graph->addDep(task, rng() % task);
    }
    for (std::size_t r = 0; r < resources; ++r) {
        model.resourceNames.push_back(
            r % 2 ? "b.t" + std::to_string(r) + ".compute"
                  : "b.wire.d" + std::to_string(r));
    }
    return model;
}

/** Real event simulation of @p model with @p durations substituted. */
PicoSeconds
resimulate(const RandomModel &model,
           const std::vector<PicoSeconds> &durations, ExecRecord *record)
{
    TaskGraph graph;
    for (TaskId id = 0; id < model.graph->size(); ++id) {
        Task task = model.graph->task(id);
        task.duration = durations[id];
        graph.addTask(std::move(task));
    }
    for (const auto &[dep, task] : model.graph->edges())
        graph.addDep(task, dep);
    ResourcePool pool;
    for (const std::string &name : model.resourceNames)
        pool.create(name);
    return graph.execute(pool, nullptr, nullptr, record)
        .makespan;
}

TEST(CritPathRandom, ChainAndIdentityHoldOnSeededGraphs)
{
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        const RandomModel model = makeRandomModel(seed);
        ExecRecord record;
        const PicoSeconds makespan =
            resimulate(model, model.durations, &record);
        SCOPED_TRACE("seed " + std::to_string(seed));
        const CriticalPath path = extractCriticalPath(
            *model.graph, record, model.resourceNames);
        EXPECT_EQ(path.criticalDuration(), makespan);
        for (const CritEntry &entry : path.entries)
            EXPECT_EQ(path.slack[entry.task], 0u);

        ExecRecord copy;
        resimulate(model, model.durations, &copy);
        const auto run = makeRecordedRun(model.graph,
                                         model.resourceNames,
                                         std::move(copy));
        const WhatIfEstimate identity =
            whatIf(*run, identityTransform(*run));
        EXPECT_EQ(identity.makespan, makespan);
        EXPECT_EQ(identity.upper, makespan);
        EXPECT_LE(identity.lower, makespan);
    }
}

TEST(CritPathRandom, BoundsBracketResimulationUnderDurationTransforms)
{
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        const RandomModel model = makeRandomModel(seed);
        ExecRecord record;
        resimulate(model, model.durations, &record);
        const auto run = makeRecordedRun(model.graph,
                                         model.resourceNames,
                                         std::move(record));
        std::mt19937 rng(seed * 977);
        for (int k = 0; k < 4; ++k) {
            WhatIfTransform transform;
            transform.description = "random scale";
            transform.durations = model.durations;
            const double scale = k % 2 ? 0.5 : 2.0;
            for (PicoSeconds &duration : transform.durations) {
                if (rng() % 2) {
                    duration = static_cast<PicoSeconds>(
                        static_cast<double>(duration) * scale + 0.5);
                }
            }
            const WhatIfEstimate estimate = whatIf(*run, transform);
            const PicoSeconds truth =
                resimulate(model, transform.durations, nullptr);
            SCOPED_TRACE("seed " + std::to_string(seed) + " k" +
                         std::to_string(k));
            // The sound bracket of the satellite property...
            EXPECT_LE(estimate.lower, truth);
            EXPECT_GE(estimate.upper, truth);
            // ...which the upper bound meets with equality: the mirror
            // replays the executor's greedy policy decision for
            // decision when copy counts are unchanged. (The fixed-
            // grant-order replay estimate deliberately has no such
            // guarantee — list-scheduling anomalies put the truth on
            // either side of it.)
            EXPECT_EQ(estimate.upper, truth);
        }
    }
}

TEST(CritPathRandom, MakespanBoundsBracketTheTrueMakespan)
{
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        const RandomModel model = makeRandomModel(seed);
        const PicoSeconds truth =
            resimulate(model, model.durations, nullptr);
        const MakespanBounds bounds = makespanBounds(
            *model.graph, model.resourceNames.size());
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_LE(bounds.lower, truth);
        // The upper bound is the executor mirror: exact, not merely an
        // overestimate — this is what makes sweep pruning decisions
        // match a full simulation.
        EXPECT_EQ(bounds.upper, truth);
        EXPECT_GT(bounds.lower, 0u);
        EXPECT_FALSE(bounds.provenFasterThan(truth));
        EXPECT_FALSE(bounds.provenSlowerThan(truth));
        EXPECT_TRUE(bounds.provenFasterThan(truth + 1));
        EXPECT_TRUE(bounds.provenSlowerThan(bounds.lower - 1));
    }
}

// ---------------------------------------------------------------------
// Session and sweep integration.

TEST(CritPathSession, RecordingAttachesRunAndNeverChangesResults)
{
    AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    const GanModel model = makeBenchmark("MAGAN-MNIST");

    SimulationSession session(config);
    const TrainingReport plain = session.run(model);
    EXPECT_EQ(plain.critpath, nullptr);

    session.withCriticalPath();
    const TrainingReport recorded = session.run(model);
    ASSERT_NE(recorded.critpath, nullptr);
    EXPECT_EQ(recorded.iterationTime, plain.iterationTime);
    EXPECT_DOUBLE_EQ(recorded.totalEnergyPj(), plain.totalEnergyPj());

    const RecordedRun &run = *recorded.critpath;
    EXPECT_EQ(run.record.makespan, recorded.iterationTime);
    EXPECT_EQ(run.path.criticalDuration(), recorded.iterationTime);

    session.withCriticalPath(false);
    EXPECT_EQ(session.run(model).critpath, nullptr);
}

ExperimentSweep
smallSweep()
{
    AcceleratorConfig prime = AcceleratorConfig::prime();
    prime.batchSize = 4;
    AcceleratorConfig low = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    low.batchSize = 4;
    AcceleratorConfig middle =
        AcceleratorConfig::lerGan(ReplicaDegree::Middle);
    middle.batchSize = 4;
    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addBenchmark(makeBenchmark("cGAN"))
        .addConfig("prime", prime)
        .addConfig("low", low)
        .addConfig("middle", middle)
        .addPoint(makeBenchmark("MAGAN-MNIST"), "extra", low);
    return sweep;
}

TEST(CritPathSweep, BoundPruningMatchesFullSimulationExactly)
{
    const std::vector<SweepResult> reference = smallSweep().run();

    ExperimentSweep pruned = smallSweep();
    const auto registry = std::make_shared<MetricsRegistry>();
    pruned.withBoundPruning().withTelemetry(registry);
    const std::vector<SweepResult> results = pruned.run();

    ASSERT_EQ(results.size(), reference.size());
    std::size_t estimated = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(results[i].benchmark + "/" + results[i].configLabel);
        ASSERT_FALSE(results[i].failed) << results[i].error;
        // The pruning estimate is the executor mirror, so even pruned
        // points report the timing and energy a full event simulation
        // would have produced.
        EXPECT_EQ(results[i].report.iterationTime,
                  reference[i].report.iterationTime);
        EXPECT_DOUBLE_EQ(results[i].report.totalEnergyPj(),
                         reference[i].report.totalEnergyPj());
        if (results[i].report.stats.has("critpath.estimated")) {
            ++estimated;
            // Baselines (first config) and explicit extra points are
            // never pruned.
            EXPECT_NE(results[i].configLabel, "prime");
            EXPECT_NE(results[i].configLabel, "extra");
        }
    }
    // LerGAN low/middle beat the prime baseline on both models by a
    // wide margin, so the bounds decide every non-baseline grid point.
    EXPECT_GT(estimated, 0u);
    const double prunedCount = registry->counter("critpath.pruned").value();
    const double simulated = registry->counter("critpath.simulated").value();
    EXPECT_EQ(prunedCount, static_cast<double>(estimated));
    EXPECT_EQ(prunedCount + simulated,
              static_cast<double>(results.size()));
}

TEST(CritPathSweep, RecordingSweepAttachesRunsAndCountsThem)
{
    ExperimentSweep sweep = smallSweep();
    const auto registry = std::make_shared<MetricsRegistry>();
    sweep.withCriticalPath().withTelemetry(registry);
    const std::vector<SweepResult> results = sweep.run();
    for (const SweepResult &result : results) {
        SCOPED_TRACE(result.benchmark + "/" + result.configLabel);
        ASSERT_NE(result.report.critpath, nullptr);
        EXPECT_EQ(result.report.critpath->path.criticalDuration(),
                  result.report.iterationTime);
    }
    EXPECT_EQ(registry->counter("critpath.records").value(),
              static_cast<double>(results.size()));
}

} // namespace
} // namespace lergan
