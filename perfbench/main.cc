/**
 * @file
 * perfbench: the repository benchmark.
 *
 * Drives the simulator's public API from one process, closed loop: the
 * next pass over a workload's grid starts only after the previous one
 * finished. Every pass's simulated outputs are checked against stored
 * expected values. The untraced run (--trace 0) prints the end-to-end
 * metrics; the traced run (--trace 1) times each call into a layer's
 * public function from this file's own spans and prints the per-layer
 * metrics. Wall times are host time. See README.md beside this file.
 *
 *   perfbench --workload fig19-cold --seed 1 --seconds 10 --trace 0 \
 *             --expected perfbench/expected.tsv
 */

#include <sched.h>
#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hh"
#include "common/logging.hh"
#include "core/sweep_io.hh"
#include "hostprobe.hh"
#include "workload.hh"

namespace {

using namespace perfbench;
using lergan::ExperimentSweep;
using lergan::SweepResult;
using Clock = std::chrono::steady_clock;

/** Set-ups per run, each followed by a fifth of the timed passes;
 *  setup_s is their median. */
constexpr int kSetUps = 5;
/** Timed passes each segment makes at least, however long they take. */
constexpr std::size_t kMinSegmentPasses = 2;
/** Host-speed probe time per unit of timed pass time, at most. */
constexpr double kProbeShare = 0.25;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** CPU time of the whole process (every thread), in milliseconds. */
double
processCpuMs()
{
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) * 1e3 +
           static_cast<double>(now.tv_nsec) / 1e6;
}

/**
 * Wall and process-CPU time since construction. The gated times are
 * CPU times scaled by the host-speed probe: on a virtual machine whose
 * vCPUs the host preempts, wall time swings with the neighbours' load
 * (see README.md, "Why normalized CPU time").
 */
struct Stopwatch {
    Clock::time_point wall = Clock::now();
    double cpu = processCpuMs();

    double wallMs() const { return msSince(wall); }
    double cpuMs() const { return processCpuMs() - cpu; }
};

/** The @p q quantile, interpolated between the closest ranks. */
double
quantile(std::vector<double> values, double q)
{
    LERGAN_ASSERT(!values.empty(), "quantile of no samples");
    std::sort(values.begin(), values.end());
    const double at = q * static_cast<double>(values.size() - 1);
    const std::size_t below = static_cast<std::size_t>(at);
    if (below + 1 >= values.size())
        return values.back();
    const double frac = at - static_cast<double>(below);
    return values[below] + frac * (values[below + 1] - values[below]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * The highest percentile with at least ten samples beyond it. A tail
 * is never below the median: with fewer than 21 samples no percentile
 * above the median has ten beyond it, so the tail is the maximum, with
 * the samples beyond it (none) printed beside it.
 */
struct Tail {
    double value = 0.0;
    double percentile = 100.0;
    std::size_t beyond = 0;
    std::size_t samples = 0;
};

Tail
tailOf(std::vector<double> values)
{
    LERGAN_ASSERT(!values.empty(), "tail of no samples");
    std::sort(values.begin(), values.end());
    Tail tail;
    tail.samples = values.size();
    if (values.size() < 21) {
        tail.value = values.back();
        return tail;
    }
    tail.beyond = 10;
    tail.value = values[values.size() - 11];
    tail.percentile = 100.0 * static_cast<double>(values.size() - 10) /
                      static_cast<double>(values.size());
    return tail;
}

std::string
tailNote(const Tail &tail)
{
    std::ostringstream note;
    note << "p" << std::fixed << std::setprecision(1) << tail.percentile
         << ", " << tail.beyond << " of " << tail.samples
         << " samples beyond";
    return note.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

unsigned
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

/** The measuring host's facts, printed next to every result. */
std::string
hostFacts(const std::string &commit)
{
    std::ostringstream facts;
    facts << "nproc=" << hostThreads() << " build=" << PERFBENCH_BUILD_TYPE
          << " compiler=" << PERFBENCH_COMPILER << " commit=" << commit;
    return facts.str();
}

/**
 * Metrics by name with their unit. Printed as an aligned table, then
 * the gated ones as the one-line JSON result that ends standard output.
 */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "", bool gated = true)
    {
        LERGAN_ASSERT(std::isfinite(value), "metric ", name,
                      " is not finite");
        metrics_.push_back({name, value, unit, note, gated});
    }

    void
    print(std::ostream &os, bool correct, std::size_t attempted,
          std::size_t failed) const
    {
        for (const Metric &m : metrics_) {
            os << std::left << std::setw(34) << m.name << std::right
               << std::setw(18) << std::setprecision(8) << m.value << ' '
               << std::left << std::setw(9) << m.unit << m.note << '\n';
        }
        os << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {" << std::setprecision(17);
        const char *separator = "";
        for (const Metric &m : metrics_) {
            if (!m.gated)
                continue;
            os << separator << '"' << m.name << "\": {\"value\": " << m.value
               << ", \"unit\": \"" << m.unit << "\"}";
            separator = ", ";
        }
        os << "}}" << std::endl;
    }

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
        std::string note;
        bool gated;
    };
    std::vector<Metric> metrics_;
};

/** One pass over the grid through ExperimentSweep. */
struct SweepPass {
    double wallMs = 0.0;
    double cpuMs = 0.0;
    std::vector<SweepResult> results;
};

/** Wall and CPU seconds of one set-up. */
struct SetUpTime {
    double wallS = 0.0;
    double cpuS = 0.0;
};

/**
 * A workload's measured state: the seeded order stream, the parsed
 * grid and warm caches of the warm workloads, and the tally of every
 * point checked so far. Every pass adds the grid's points to its sweep
 * in a fresh order drawn from the seed, so one run averages over many
 * orders and the 4-worker load balance of any single order does not
 * decide the result.
 */
class Bench
{
  public:
    Bench(Workload workload, std::uint64_t seed, const Expected &expected)
        : workload_(workload), observers_(workloadObservers(workload)),
          rng_(seed), expected_(expected)
    {
    }

    Workload workload() const { return workload_; }
    const Observers &observers() const { return observers_; }
    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }
    Sinks &sinks() { return sinks_; }

    /**
     * Everything before the first timed pass; returns its time.
     * Warm workloads parse their grid and fill fresh compile and
     * template caches with one pass. The cold workload pays all of that
     * inside every pass, so its set-up is one untimed warm-up pass that
     * settles the allocator and code pages.
     */
    SetUpTime
    setUp()
    {
        const Stopwatch watch;
        if (workload_ == Workload::Fig19Cold) {
            pass(kWorkers, observers_, false);
        } else {
            SpanLog off;
            grid_ = buildGrid(workload_, off);
            caches_ = ExperimentSweep();
            check(makeSweep(reorder(grid_, drawOrder(workload_, rng_)),
                            observers_, sinks_, caches_)
                      .run(options(kWorkers, false)));
        }
        return {watch.wallMs() / 1000.0, watch.cpuMs() / 1000.0};
    }

    /**
     * One pass at @p workers with @p observers. A cold pass parses,
     * builds a new sweep with empty caches, runs it and exports JSON +
     * CSV to memory; a warm pass runs a sweep sharing the set-up caches
     * (its construction is not timed).
     */
    SweepPass
    pass(int workers, const Observers &observers, bool pointTelemetry)
    {
        const Order order = drawOrder(workload_, rng_);
        SweepPass out;
        if (workload_ == Workload::Fig19Cold) {
            const Stopwatch watch;
            SpanLog off;
            const ExperimentSweep sweep = makeSweep(
                reorder(buildGrid(workload_, off), order), observers, sinks_);
            out.results = sweep.run(options(workers, pointTelemetry));
            std::ostringstream json, csv;
            lergan::writeSweepJson(json, out.results);
            lergan::writeSweepCsv(csv, out.results);
            out.wallMs = watch.wallMs();
            out.cpuMs = watch.cpuMs();
            checkExport(json.str(), csv.str(), out.results.size());
        } else {
            const ExperimentSweep sweep = makeSweep(
                reorder(grid_, order), observers, sinks_, caches_);
            const Stopwatch watch;
            out.results = sweep.run(options(workers, pointTelemetry));
            out.wallMs = watch.wallMs();
            out.cpuMs = watch.cpuMs();
        }
        check(out.results);
        return out;
    }

    /** One checked pass of the benchmark's own 1-worker pipeline. */
    PipelinePass
    pipelinePass(SpanLog &log, std::uint64_t &nextTrace,
                 std::map<std::uint64_t, PointFacts> &facts)
    {
        PipelineContext context;
        context.workload = workload_;
        context.observers = observers_;
        context.metrics = sinks_.metrics.get();
        context.recorder = sinks_.recorder.get();
        if (workload_ != Workload::Fig19Cold) {
            context.grid = &grid_;
            context.cache = &caches_.cache();
            context.templates = &caches_.templates();
        }
        PipelinePass pass = runPipelinePass(
            context, drawOrder(workload_, rng_), log, nextTrace, facts);
        check(pass.results);
        if (workload_ == Workload::Fig19Cold && pass.exportBytes == 0)
            failed_ += pass.results.size();
        return pass;
    }

    /**
     * The Fig. 19 speedup error of one untimed run of the Fig. 19 grid,
     * for the batch ladder, which has no PRIME points of its own.
     */
    double
    fig19SpeedupErr()
    {
        SpanLog off;
        const auto results =
            makeSweep(buildGrid(Workload::Fig19Cold, off), Observers{},
                      sinks_)
                .run(options(kWorkers, false));
        check(results);
        return speedupErrPct(results);
    }

  private:
    static lergan::RunOptions
    options(int workers, bool pointTelemetry)
    {
        lergan::RunOptions options;
        options.threads = workers;
        options.iterations = kIterations;
        options.pointTelemetry = pointTelemetry;
        return options;
    }

    void
    check(const std::vector<SweepResult> &results)
    {
        attempted_ += results.size();
        failed_ += countBadPoints(results, expected_, observers_.audit);
    }

    /** The exports must carry one record per point. */
    void
    checkExport(const std::string &json, const std::string &csv,
                std::size_t points)
    {
        std::size_t records = 0;
        for (std::size_t at = json.find("{\"benchmark\":");
             at != std::string::npos;
             at = json.find("{\"benchmark\":", at + 1))
            ++records;
        const std::size_t rows =
            static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
        if (records != points || rows != points + 1)
            failed_ += points;
    }

    Workload workload_;
    Observers observers_;
    lergan::Rng rng_;
    const Expected &expected_;
    Sinks sinks_;
    /** Warm workloads: the parsed grid, in table order. */
    Grid grid_;
    /** Warm workloads: an empty sweep owning the filled caches. */
    ExperimentSweep caches_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

/** "wall p50 12.3 ms": a host figure printed beside a gated metric. */
std::string
rawNote(const std::string &what, double value, const std::string &unit)
{
    std::ostringstream note;
    note << what << " " << std::setprecision(6) << value << ' ' << unit;
    return note.str();
}

/** The untraced run: end-to-end metrics. */
bool
measureEndToEnd(Bench &bench, double seconds, Report &report)
{
    // The run is kSetUps segments, each a set-up followed by its share
    // of the timed passes: the warm workloads' caches are rebuilt per
    // segment, so one run samples several heap layouts of the templates
    // it replays instead of betting on one. The host-speed probe runs
    // before every set-up and between passes, a quarter as long as the
    // passes, so its median sees the same host as the passes do.
    HostProbe probe(kWorkers);
    std::vector<double> probeCpuMs;
    double probeWallMs = 0.0;
    const auto runProbe = [&] {
        const Stopwatch watch;
        probe.run();
        probeCpuMs.push_back(watch.cpuMs());
        probeWallMs += watch.wallMs();
    };
    std::vector<double> setupWall, setupCpu, wallMs, cpuMs, parallelism;
    double passWallMs = 0.0;
    std::size_t pointsPerPass = 0;
    std::uint64_t tasksPerPass = 0;
    std::vector<double> speedupErrs;
    for (int segment = 0; segment < kSetUps; ++segment) {
        runProbe();
        const SetUpTime setup = bench.setUp();
        setupWall.push_back(setup.wallS);
        setupCpu.push_back(setup.cpuS);
        const auto start = Clock::now();
        const double segmentMs = seconds * 1000.0 / kSetUps;
        for (std::size_t n = 0;
             n < kMinSegmentPasses || msSince(start) < segmentMs; ++n) {
            while (probeWallMs < passWallMs * kProbeShare)
                runProbe();
            const SweepPass pass =
                bench.pass(kWorkers, bench.observers(), false);
            wallMs.push_back(pass.wallMs);
            cpuMs.push_back(pass.cpuMs);
            parallelism.push_back(pass.cpuMs / pass.wallMs);
            passWallMs += pass.wallMs;
            pointsPerPass = pass.results.size();
            tasksPerPass = simulatedTasks(pass.results);
            if (bench.workload() != Workload::BatchScale)
                speedupErrs.push_back(speedupErrPct(pass.results));
        }
    }
    if (bench.workload() == Workload::BatchScale)
        speedupErrs.push_back(bench.fig19SpeedupErr());
    // The speedup is a pure function of the simulated outputs, so every
    // pass must reproduce it bit for bit.
    const double speedupErr = speedupErrs.front();
    bool repeatable = true;
    for (double err : speedupErrs)
        repeatable = repeatable && err == speedupErr;

    // Gated times are CPU times at the reference host's speed.
    const double probeMs = median(probeCpuMs);
    const double speed = kProbeReferenceCpuMs / probeMs;
    const double points = static_cast<double>(pointsPerPass);
    const double tasks = static_cast<double>(tasksPerPass);
    const double cpuP50 = median(cpuMs), passP50 = cpuP50 * speed;
    const double wallP50 = median(wallMs);
    const Tail tail = tailOf(cpuMs);
    const double failedFrac = static_cast<double>(bench.failed()) /
                              static_cast<double>(bench.attempted());
    std::ostringstream failedNote, passNote, probeNote;
    failedNote << "failed_frac=" << failedFrac << " (" << bench.failed()
               << " of " << bench.attempted() << " points)";
    passNote << cpuMs.size() << " passes of " << pointsPerPass
             << " points; " << rawNote("CPU p50", cpuP50, "ms") << "; "
             << rawNote("wall p50", wallP50, "ms");
    probeNote << "not gated; CPU, " << probeCpuMs.size()
              << " probes, reference " << kProbeReferenceCpuMs
              << " ms: speed factor " << std::setprecision(4) << speed;
    report.add("setup_s", median(setupCpu) * speed, "s",
               "median of " + std::to_string(kSetUps) + " set-ups; " +
                   rawNote("CPU", median(setupCpu), "s") + "; " +
                   rawNote("wall", median(setupWall), "s"));
    report.add("points_per_cpu_s", points * 1000.0 / passP50, "points/s",
               rawNote("wall", points * 1000.0 / wallP50, "points/s"));
    report.add("sim_tasks_per_cpu_s", tasks * 1000.0 / passP50, "tasks/s",
               rawNote("wall", tasks * 1000.0 / wallP50, "tasks/s"));
    report.add("pass_cpu_ms_p50", passP50, "ms", passNote.str());
    // Printed, not gated: with ten samples beyond it the tail follows
    // bursts of the host's load more than the simulator (README.md).
    report.add("pass_cpu_ms_tail", tail.value * speed, "ms",
               "not gated; " + tailNote(tail) + "; " +
                   rawNote("raw CPU", tail.value, "ms"),
               false);
    // The passes least slowed by steal: a serialized or worse-balanced
    // sweep lowers every pass, steal only some of them.
    report.add("parallelism_p90", quantile(parallelism, 0.9), "threads",
               "pass CPU / pass wall, 90th percentile of the passes; " +
                   rawNote("p50", median(parallelism), "threads"));
    report.add("probe_cpu_ms_p50", probeMs, "ms", probeNote.str(), false);
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("points_ok_frac", 1.0 - failedFrac, "ratio",
               failedNote.str());
    report.add("speedup_err_pct", speedupErr, "%",
               "|high-degree mean speedup - 7.46x| / 7.46x");
    return repeatable;
}

/** Median of pairwise (on - off) / off, in percent. */
double
medianOnCostPct(const std::vector<double> &offMs,
                const std::vector<double> &onMs)
{
    std::vector<double> pct;
    for (std::size_t i = 0; i < offMs.size(); ++i)
        pct.push_back(100.0 * (onMs[i] - offMs[i]) / offMs[i]);
    return median(pct);
}

/**
 * The traced run: per-layer metrics.
 *
 *  A. Half of the time: the benchmark's own per-point pipeline at 1
 *     worker, alternating traced and untraced passes. Self times of the
 *     traced passes' spans give the layer table; the paired passes' CPU
 *     times give the tracing overhead.
 *  B. A fifth: the product sweep at 4 workers with per-point host
 *     telemetry and the flight recorder (the only source of queue
 *     wait), for the pool and memo-cache numbers.
 *  C. The rest: each product observer switched on and off around the
 *     workload's 1-worker sweep pass, pairwise, for its on-cost in CPU
 *     time.
 */
void
measureLayers(Bench &bench, double seconds, Report &report,
              SpanLog &traced)
{
    bench.setUp();
    const double budgetMs = seconds * 1000.0;

    // --- A: layer self times from the 1-worker pipeline.
    traced.enabled = true;
    SpanLog untraced;
    std::uint64_t nextTrace = 0;
    std::map<std::uint64_t, PointFacts> facts;
    std::vector<double> offMs, onMs;
    PipelinePass totals;
    std::uint64_t tasks = 0;
    double checks = 0.0, auditFailures = 0.0;
    auto start = Clock::now();
    while (onMs.size() < 2 || msSince(start) < budgetMs * 0.5) {
        const bool tracedFirst = onMs.size() % 2 == 0;
        for (int side = 0; side < 2; ++side) {
            const bool on = (side == 0) == tracedFirst;
            const Stopwatch watch;
            const PipelinePass pass =
                bench.pipelinePass(on ? traced : untraced, nextTrace, facts);
            (on ? onMs : offMs).push_back(watch.cpuMs());
            if (!on)
                continue;
            totals.exportBytes += pass.exportBytes;
            totals.compileHits += pass.compileHits;
            totals.compileRequests += pass.compileRequests;
            totals.templateHits += pass.templateHits;
            totals.templateRequests += pass.templateRequests;
            totals.templateTasks += pass.templateTasks;
            tasks += simulatedTasks(pass.results);
            for (const SweepResult &result : pass.results) {
                checks += static_cast<double>(result.audit.checksRun);
                auditFailures +=
                    static_cast<double>(result.audit.failures.size());
            }
        }
    }
    const double passes = static_cast<double>(onMs.size());
    const std::map<std::string, double> self = traced.selfNs();
    const auto selfNs = [&](const std::string &name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const auto perPassMs = [&](const std::string &name) {
        return selfNs(name) / 1e6 / passes;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    // Per-batch executor cost, from each point's sim.exec span.
    std::map<int, std::pair<double, double>> byBatch; // ns, tasks
    double passNs = 0.0;
    for (const SpanRecord &span : traced.spans()) {
        const double ns = static_cast<double>(span.endNs - span.beginNs);
        if (span.name == "pass")
            passNs += ns;
        if (span.name != "sim.exec")
            continue;
        const PointFacts &point = facts.at(span.trace);
        byBatch[point.batch].first += ns;
        byBatch[point.batch].second += static_cast<double>(point.tasks);
    }

    // --- B: pool and caches at 4 workers, product sweep.
    std::vector<double> pointMs, waitMs;
    double hostMs = 0.0, wallMs = 0.0, spans = 0.0;
    std::size_t sweepPasses = 0;
    start = Clock::now();
    while (sweepPasses < 3 || msSince(start) < budgetMs * 0.2) {
        Observers observers = bench.observers();
        observers.tracing = true;
        const SweepPass pass = bench.pass(kWorkers, observers, true);
        wallMs += pass.wallMs;
        for (const SweepResult &result : pass.results) {
            pointMs.push_back(result.telemetry.hostMs);
            waitMs.push_back(result.telemetry.queueWaitMs);
            hostMs += result.telemetry.hostMs;
            spans += static_cast<double>(result.telemetry.spanCount);
        }
        ++sweepPasses;
    }

    // --- C: each observer's on-cost on this workload, 1 worker.
    const auto onCost = [&](bool Observers::*observer) {
        Observers off = bench.observers(), on = bench.observers();
        off.*observer = false;
        on.*observer = true;
        std::vector<double> offTimes, onTimes;
        const auto begin = Clock::now();
        while (onTimes.size() < 2 || msSince(begin) < budgetMs * 0.1) {
            const bool onFirst = onTimes.size() % 2 == 1;
            for (int side = 0; side < 2; ++side) {
                const bool isOn = (side == 0) == onFirst;
                (isOn ? onTimes : offTimes)
                    .push_back(bench.pass(1, isOn ? on : off, false).cpuMs);
            }
        }
        return medianOnCostPct(offTimes, onTimes);
    };
    const double telemetryCost = onCost(&Observers::telemetry);
    const double critpathCost = onCost(&Observers::critpath);
    const double tracingCost = onCost(&Observers::tracing);
    const auto depth =
        bench.sinks().metrics->snapshot().histograms["sim.queue.depth"];

    report.add("nn.parse_ms", perPassMs("nn.parse"), "ms");
    report.add("core.compile_ms", perPassMs("core.compile"), "ms");
    report.add("core.compile_calls",
               static_cast<double>(traced.count("core.compile")) / passes,
               "count");
    report.add("core.machine_ms", perPassMs("core.machine"), "ms");
    report.add("core.template_ms", perPassMs("core.template"), "ms");
    report.add("core.template_ns_per_task",
               ratio(selfNs("core.template"),
                     static_cast<double>(totals.templateTasks)),
               "ns");
    report.add("core.template_tasks",
               static_cast<double>(totals.templateTasks) / passes, "count");
    report.add("sim.exec_ms", perPassMs("sim.exec"), "ms");
    report.add("sim.tasks", static_cast<double>(tasks) / passes, "count");
    report.add("sim.exec_ns_per_task",
               ratio(selfNs("sim.exec"), static_cast<double>(tasks)), "ns");
    for (int batch : {64, 256, 1024, 4096}) {
        const auto &[ns, n] = byBatch[batch];
        report.add("sim.exec_ns_per_task.b" + std::to_string(batch),
                   ratio(ns, n), "ns");
    }
    report.add("sim.queue_depth_mean",
               ratio(static_cast<double>(depth.sum),
                     static_cast<double>(depth.count)),
               "events");
    report.add("sim.queue_depth_max", static_cast<double>(depth.max),
               "events");
    report.add("exec.compile_cache_hit_ratio",
               ratio(static_cast<double>(totals.compileHits),
                     static_cast<double>(totals.compileRequests)),
               "ratio");
    report.add("exec.template_cache_hit_ratio",
               ratio(static_cast<double>(totals.templateHits),
                     static_cast<double>(totals.templateRequests)),
               "ratio");
    report.add("exec.cache_lookup_ms",
               perPassMs("exec.compile_cache") +
                   perPassMs("exec.template_cache"),
               "ms");
    report.add("exec.pool_util", ratio(hostMs, wallMs * kWorkers), "ratio");
    report.add("exec.queue_wait_ms_p50", median(waitMs), "ms");
    report.add("exec.point_ms_p50", median(pointMs), "ms");
    const Tail pointTail = tailOf(pointMs);
    report.add("exec.point_ms_tail", pointTail.value, "ms",
               tailNote(pointTail));
    report.add("audit.ms", perPassMs("audit"), "ms");
    report.add("audit.checks", checks / passes, "count");
    report.add("audit.failures", auditFailures / passes, "count");
    report.add("export.ms", perPassMs("export.json") + perPassMs("export.csv"),
               "ms");
    report.add("export.bytes",
               static_cast<double>(totals.exportBytes) / passes, "bytes");
    report.add("telemetry.on_cost_pct", telemetryCost, "%");
    report.add("critpath.record_on_cost_pct", critpathCost, "%");
    report.add("critpath.extract_ms", perPassMs("critpath.extract"), "ms");
    report.add("tracing.on_cost_pct", tracingCost, "%");
    report.add("tracing.spans", spans / static_cast<double>(sweepPasses),
               "count");
    report.add("trace.overhead_pct", medianOnCostPct(offMs, onMs), "%",
               "traced vs untraced 1-worker pipeline passes");
    report.add("trace.unaccounted_pct",
               ratio(100.0 * (selfNs("pass") + selfNs("point")), passNs),
               "%", "pass time outside every layer span");
}

/** Expected-value table of every point any workload runs. */
void
printExpected()
{
    Sinks sinks;
    SpanLog off;
    lergan::RunOptions options;
    options.threads = kWorkers;
    options.iterations = kIterations;
    std::vector<SweepResult> all;
    for (Workload workload : {Workload::Fig19Cold, Workload::BatchScale}) {
        const auto results =
            makeSweep(buildGrid(workload, off), Observers{}, sinks)
                .run(options);
        all.insert(all.end(), results.begin(), results.end());
    }
    std::sort(all.begin(), all.end(),
              [](const SweepResult &a, const SweepResult &b) {
                  return std::tie(a.benchmark, a.configLabel) <
                         std::tie(b.benchmark, b.configLabel);
              });
    writeExpected(std::cout, all);
}

} // namespace

int
main(int argc, char **argv)
{
    lergan::ArgParser args;
    args.addOption("workload",
                   "fig19-cold, fig19-warm, fig19-observed or batch-scale",
                   "fig19-warm");
    args.addOption("seed", "permutes the order points enter the sweep",
                   "1");
    args.addOption("seconds", "how long the timed passes run", "10");
    args.addOption("trace", "1 = traced run (per-layer metrics)", "0");
    args.addOption("expected", "expected-value table to check against",
                   "perfbench/expected.tsv");
    args.addOption("spans", "traced run: write its spans here (NDJSON)");
    args.addOption("commit", "identity of the measured source tree",
                   "unknown");
    args.addOption("print-expected",
                   "print the expected-value table of the current code "
                   "and exit",
                   "", /*is_flag=*/true);
    args.parse(argc, argv, "LerGAN simulator benchmark");

    if (args.getFlag("print-expected")) {
        printExpected();
        return 0;
    }

    const Workload workload = parseWorkload(args.get("workload"));
    const std::uint64_t seed = std::stoull(args.get("seed"));
    const double seconds = args.getDouble("seconds");
    const bool traceRun = args.getInt("trace") != 0;
    const Expected expected(args.get("expected"));
    const std::string host = hostFacts(args.get("commit"));

    std::cout << "perfbench " << args.get("workload") << " seed=" << seed
              << " seconds=" << seconds << " trace=" << traceRun
              << " workers=" << kWorkers << " iterations=" << kIterations
              << "\nhost: " << host << "\n";

    Bench bench(workload, seed, expected);
    Report report;
    bool repeatable = true;
    if (traceRun) {
        SpanLog spans;
        measureLayers(bench, seconds, report, spans);
        if (args.given("spans")) {
            std::ofstream out(args.get("spans"));
            if (!out)
                LERGAN_FATAL("cannot write spans '", args.get("spans"), "'");
            out << "{\"workload\":\"" << args.get("workload")
                << "\",\"seed\":" << seed << ",\"host\":\"" << host
                << "\"}\n";
            spans.writeNdjson(out);
        }
    } else {
        repeatable = measureEndToEnd(bench, seconds, report);
    }
    report.print(std::cout, repeatable && bench.failed() == 0,
                 bench.attempted(), bench.failed());
    return 0;
}
