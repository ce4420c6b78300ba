#include "workload.hh"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>

#include "audit/audit.hh"
#include "common/logging.hh"
#include "core/sweep_io.hh"
#include "core/validate.hh"
#include "critpath/critpath.hh"
#include "telemetry/tracing.hh"
#include "workloads/zoo.hh"

namespace perfbench {

using namespace lergan;

namespace {

/** The Fig. 19 grid configurations, in the figure's column order. */
const std::pair<const char *, AcceleratorConfig> kFig19Configs[] = {
    {"prime", AcceleratorConfig::prime()},
    {"low", AcceleratorConfig::lerGan(ReplicaDegree::Low)},
    {"middle", AcceleratorConfig::lerGan(ReplicaDegree::Middle)},
    {"high", AcceleratorConfig::lerGan(ReplicaDegree::High)},
};

/**
 * The batch ladder: the largest 2-D and the 3-D benchmark on LerGAN-low
 * from the paper's batch of 64 up to 4096, where the event queue runs
 * tens of thousands of events deep.
 */
const char *const kBatchModels[] = {"DCGAN", "3D-GAN"};
const int kBatchSizes[] = {64, 256, 1024, 4096};

constexpr std::size_t kBatchPoints =
    std::size(kBatchModels) * std::size(kBatchSizes);

std::vector<std::size_t>
shuffled(std::size_t n, Rng &rng)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);
    return order;
}

GanModel
parseTimed(const std::string &name, SpanLog &log)
{
    SpanLog::Scope span(log, "nn.parse");
    return makeBenchmark(name);
}

/** LerGAN-low granted only the PRIME mapping's CArray space. */
AcceleratorConfig
lowNormalizedSpace(const GanModel &model, SpanLog &log)
{
    std::uint64_t primeCrossbars = 0;
    {
        SpanLog::Scope span(log, "core.compile");
        primeCrossbars =
            compileGan(model, AcceleratorConfig::prime()).crossbarsUsed;
    }
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.normalizedSpace = true;
    config.spaceBudgetCrossbars = primeCrossbars;
    return config;
}

double
relDiff(double a, double b)
{
    const double scale = std::max(std::abs(a), std::abs(b));
    return scale == 0.0 ? 0.0 : std::abs(a - b) / scale;
}

/** A grid point in the order ExperimentSweep runs it. */
struct PointRef {
    const GanModel *model;
    const std::string *label;
    const AcceleratorConfig *config;
};

std::vector<PointRef>
sweepOrder(const Grid &grid)
{
    std::vector<PointRef> points;
    for (const GanModel &model : grid.models) {
        for (const auto &[label, config] : grid.configs)
            points.push_back({&model, &label, &config});
    }
    for (const ExtraPoint &extra : grid.extras)
        points.push_back({&extra.model, &extra.label, &extra.config});
    return points;
}

} // namespace

Workload
parseWorkload(const std::string &name)
{
    if (name == "fig19-cold")
        return Workload::Fig19Cold;
    if (name == "fig19-warm")
        return Workload::Fig19Warm;
    if (name == "fig19-observed")
        return Workload::Fig19Observed;
    if (name == "batch-scale")
        return Workload::BatchScale;
    LERGAN_FATAL("unknown workload '", name,
                 "' (fig19-cold, fig19-warm, fig19-observed, batch-scale)");
}

Order
drawOrder(Workload workload, Rng &rng)
{
    Order order;
    if (workload == Workload::BatchScale) {
        order.extras = shuffled(kBatchPoints, rng);
        return order;
    }
    const std::size_t benchmarks = benchmarkNames().size();
    order.benchmarks = shuffled(benchmarks, rng);
    order.configs = shuffled(std::size(kFig19Configs), rng);
    order.extras = shuffled(benchmarks, rng);
    return order;
}

Grid
buildGrid(Workload workload, SpanLog &log)
{
    Grid grid;
    if (workload == Workload::BatchScale) {
        for (const char *name : kBatchModels) {
            const GanModel model = parseTimed(name, log);
            for (int batch : kBatchSizes) {
                AcceleratorConfig config =
                    AcceleratorConfig::lerGan(ReplicaDegree::Low);
                config.batchSize = batch;
                grid.extras.push_back(
                    {model, "low-b" + std::to_string(batch), config});
            }
        }
        return grid;
    }
    for (const std::string &name : benchmarkNames())
        grid.models.push_back(parseTimed(name, log));
    for (const auto &[label, config] : kFig19Configs)
        grid.configs.emplace_back(label, config);
    // The equal-space budget depends on each benchmark's own PRIME
    // mapping, so those points are explicit, one per benchmark.
    for (const GanModel &model : grid.models)
        grid.extras.push_back(
            {model, "low-NS", lowNormalizedSpace(model, log)});
    return grid;
}

Grid
reorder(const Grid &grid, const Order &order)
{
    Grid out;
    for (std::size_t i : order.benchmarks)
        out.models.push_back(grid.models.at(i));
    for (std::size_t i : order.configs)
        out.configs.push_back(grid.configs.at(i));
    for (std::size_t i : order.extras)
        out.extras.push_back(grid.extras.at(i));
    return out;
}

Observers
workloadObservers(Workload workload)
{
    Observers observers;
    observers.audit = workload == Workload::Fig19Cold;
    if (workload == Workload::Fig19Observed) {
        observers.telemetry = true;
        observers.critpath = true;
        observers.tracing = true;
    }
    return observers;
}

ExperimentSweep
makeSweep(const Grid &grid, const Observers &observers, const Sinks &sinks,
          const ExperimentSweep &caches)
{
    ExperimentSweep sweep = caches;
    for (const GanModel &model : grid.models)
        sweep.addBenchmark(model);
    for (const auto &[label, config] : grid.configs)
        sweep.addConfig(label, config);
    for (const ExtraPoint &extra : grid.extras)
        sweep.addPoint(extra.model, extra.label, extra.config);
    if (observers.audit)
        sweep.auditWith(AuditOptions::full());
    if (observers.telemetry)
        sweep.withTelemetry(sinks.metrics);
    if (observers.critpath)
        sweep.withCriticalPath();
    if (observers.tracing)
        sweep.withTracing(sinks.recorder);
    return sweep;
}

Expected::Expected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        LERGAN_FATAL("cannot read expected values '", path, "'");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string benchmark, config;
        Entry entry;
        if (!std::getline(fields, benchmark, '\t') ||
            !std::getline(fields, config, '\t') ||
            !(fields >> entry.msPerIteration >> entry.mjPerIteration))
            LERGAN_FATAL("malformed expected-value line '", line, "'");
        entries_[{benchmark, config}] = entry;
    }
    if (entries_.empty())
        LERGAN_FATAL("no expected values in '", path, "'");
}

const Expected::Entry *
Expected::find(const std::string &benchmark, const std::string &config) const
{
    const auto it = entries_.find({benchmark, config});
    return it == entries_.end() ? nullptr : &it->second;
}

std::size_t
countBadPoints(const std::vector<SweepResult> &results,
               const Expected &expected, bool requireAudit)
{
    // Same relative tolerance the audit layer uses for its sums: far
    // below any modelling change, above last-bit summation noise.
    constexpr double kTolerance = 1e-9;
    std::size_t bad = 0;
    for (const SweepResult &result : results) {
        const Expected::Entry *entry =
            expected.find(result.benchmark, result.configLabel);
        const bool ok =
            !result.failed && entry &&
            relDiff(result.report.timeMs(), entry->msPerIteration) <=
                kTolerance &&
            relDiff(pjToMj(result.report.totalEnergyPj()),
                    entry->mjPerIteration) <= kTolerance &&
            (!requireAudit || (result.audit.ran && result.audit.ok() &&
                               result.audit.checksRun > 0));
        bad += !ok;
    }
    return bad;
}

double
speedupErrPct(const std::vector<SweepResult> &results)
{
    std::map<std::string, double> prime, high;
    for (const SweepResult &result : results) {
        if (result.configLabel == "prime")
            prime[result.benchmark] = result.report.timeMs();
        else if (result.configLabel == "high")
            high[result.benchmark] = result.report.timeMs();
    }
    LERGAN_ASSERT(!prime.empty() && prime.size() == high.size(),
                  "speedup needs the prime and high point of every "
                  "benchmark");
    // Sum in benchmark-name order so the figure repeats exactly
    // whatever order the points ran in.
    double sum = 0.0;
    for (const auto &[name, ms] : prime)
        sum += ms / high.at(name);
    const double mean = sum / static_cast<double>(prime.size());
    return 100.0 * std::abs(mean - kPaperHighSpeedup) / kPaperHighSpeedup;
}

std::uint64_t
simulatedTasks(const std::vector<SweepResult> &results)
{
    std::uint64_t tasks = 0;
    for (const SweepResult &result : results)
        tasks += static_cast<std::uint64_t>(
            result.report.stats.get("sim.tasks"));
    return tasks;
}

void
writeExpected(std::ostream &os, const std::vector<SweepResult> &results)
{
    os << "# benchmark\tconfig\tms_per_iteration\tmj_per_iteration\n"
       << std::setprecision(17);
    for (const SweepResult &result : results) {
        os << result.benchmark << '\t' << result.configLabel << '\t'
           << result.report.timeMs() << '\t'
           << pjToMj(result.report.totalEnergyPj()) << '\n';
    }
}

PipelinePass
runPipelinePass(const PipelineContext &context, const Order &order,
                SpanLog &log, std::uint64_t &nextTrace,
                std::map<std::uint64_t, PointFacts> &facts)
{
    SpanLog::Scope passSpan(log, "pass");
    PipelinePass pass;

    // Cold passes pay for parsing and fresh caches every time, like a
    // user's first run; warm passes reuse the set-up sweep's.
    const Grid grid = reorder(
        context.grid ? *context.grid : buildGrid(context.workload, log),
        order);
    CompiledModelCache freshCache;
    MemoCache<IterationTemplate> freshTemplates;
    CompiledModelCache *cache = context.cache;
    MemoCache<IterationTemplate> *templates = context.templates;
    if (!cache) {
        cache = &freshCache;
        templates = &freshTemplates;
    }

    const Observers &obs = context.observers;
    const AuditOptions auditOptions = AuditOptions::full();
    const AuditContext audit(auditOptions);
    ExecScratch scratch;
    ExecRecord record;

    // The tracing observer's lane binding: the product spans below are
    // inert unless it is on, exactly as in the sweep's point body.
    std::unique_ptr<TraceLaneBinding> binding;
    if (obs.tracing && context.recorder) {
        context.recorder->prepareLanes(1);
        binding = std::make_unique<TraceLaneBinding>(
            context.recorder->lane(0), 0);
    }

    for (const PointRef &point : sweepOrder(grid)) {
        const std::uint64_t trace = ++nextTrace;
        SpanLog::Scope pointSpan(log, "point", trace);
        Span productRoot(trace, "point");
        annotate("benchmark", point.model->name);
        annotate("config", *point.label);
        point.config->checkUsable();

        SweepResult result;
        result.benchmark = point.model->name;
        result.configLabel = *point.label;

        std::shared_ptr<const CompiledGan> compiled;
        {
            Span span("compile");
            SpanLog::Scope lookup(log, "exec.compile_cache");
            bool hit = false;
            compiled = cache->get(
                *point.model, *point.config,
                [&](const GanModel &model, const AcceleratorConfig &config) {
                    SpanLog::Scope build(log, "core.compile");
                    return compileGanValidated(model, config);
                },
                &hit);
            pass.compileHits += hit;
            ++pass.compileRequests;
        }
        std::optional<LerGanAccelerator> built;
        {
            SpanLog::Scope span(log, "core.machine");
            built.emplace(*point.model, *point.config, std::move(compiled),
                          LerGanAccelerator::Prevalidated{});
        }
        LerGanAccelerator &accelerator = *built;
        accelerator.useScratch(&scratch);

        std::shared_ptr<const IterationTemplate> tmpl;
        {
            Span span("template");
            SpanLog::Scope lookup(log, "exec.template_cache");
            bool hit = false;
            tmpl = templates->get(
                pairFingerprint(*point.model, *point.config),
                [&] {
                    SpanLog::Scope build(log, "core.template");
                    auto built = accelerator.makeIterationTemplate();
                    pass.templateTasks += built->graph.size();
                    return built;
                },
                &hit);
            pass.templateHits += hit;
            ++pass.templateRequests;
        }

        Tracer tracer;
        Tracer *simTrace = obs.audit ? &tracer : nullptr;
        {
            Span span("simulate");
            SpanLog::Scope exec(log, "sim.exec");
            result.report = accelerator.trainIterations(
                kIterations, simTrace, obs.telemetry ? context.metrics
                                                     : nullptr,
                tmpl.get(), obs.critpath ? &record : nullptr);
        }
        if (obs.critpath) {
            SpanLog::Scope extract(log, "critpath.extract");
            result.report.critpath = makeRecordedRun(
                std::shared_ptr<const TaskGraph>(tmpl, &tmpl->graph),
                accelerator.resourceNames(), std::move(record));
            record = ExecRecord{};
        }
        result.crossbarsUsed = accelerator.compiled().crossbarsUsed;
        result.oversubscribed =
            accelerator.compiled().oversubscribedCrossbars;
        if (obs.audit) {
            Span span("audit");
            SpanLog::Scope check(log, "audit");
            result.audit = audit.run({point.model, point.config,
                                      &accelerator.compiled(),
                                      &result.report, simTrace});
        }
        facts[trace] = {point.config->batchSize,
                        static_cast<std::uint64_t>(
                            result.report.stats.get("sim.tasks"))};
        pass.results.push_back(std::move(result));
    }

    if (context.workload == Workload::Fig19Cold) {
        // The cold path ends in the user-facing export, to memory.
        std::ostringstream json, csv;
        {
            SpanLog::Scope span(log, "export.json");
            writeSweepJson(json, pass.results);
        }
        {
            SpanLog::Scope span(log, "export.csv");
            writeSweepCsv(csv, pass.results);
        }
        pass.exportBytes = json.str().size() + csv.str().size();
    }
    return pass;
}

} // namespace perfbench
