#include "core/sweep.hh"

#include <chrono>
#include <unordered_map>

#include "common/logging.hh"
#include "core/validate.hh"
#include "exec/thread_pool.hh"
#include "critpath/critpath.hh"
#include "critpath/whatif.hh"
#include "telemetry/tracing.hh"

namespace lergan {

PointOutcome
simulatePoint(const GanModel &model, const AcceleratorConfig &config,
              int iterations, const PointContext &context,
              SweepResult &result)
{
    config.checkUsable();
    const PointObservers &observers = context.observers;
    MetricsRegistry *metrics = observers.telemetry.get();
    PointOutcome outcome;

    // The stage spans below are inert (one TL load per scope) when the
    // thread is untraced. Validated compile: every mapping entering the
    // cache passes validateMapping, with full diagnostics on failure
    // (core/validate.hh).
    std::shared_ptr<const CompiledGan> compiled;
    {
        Span span("compile");
        compiled = context.models.get(model, config, compileGanValidated,
                                      &outcome.cacheHit);
        span.attr("cache_hit", outcome.cacheHit);
    }
    // The cache only holds validated mappings, so the point skips
    // re-validating them per run.
    LerGanAccelerator accelerator(model, config, std::move(compiled),
                                  LerGanAccelerator::Prevalidated{});
    accelerator.useScratch(context.scratch);
    result.crossbarsUsed = accelerator.compiled().crossbarsUsed;
    result.oversubscribed = accelerator.compiled().oversubscribedCrossbars;
    // The iteration DAG is a pure function of (model, config): lower
    // it once per pair, replay it for every later run of the pair.
    std::shared_ptr<const IterationTemplate> tmpl;
    {
        Span span("template");
        tmpl = context.templates.get(
            pairFingerprint(model, config),
            [&] { return accelerator.makeIterationTemplate(); });
    }

    if (context.pruneAgainst) {
        const PicoSeconds baseline = *context.pruneAgainst;
        const MakespanBounds bounds = makespanBounds(
            tmpl->graph, accelerator.machine().pool().size());
        if (bounds.provenFasterThan(baseline) ||
            bounds.provenSlowerThan(baseline)) {
            // The bracket already decides which side of the baseline
            // this point lands on: skip the full event simulation and
            // report the executor-mirror makespan, which equals what
            // the simulation would have produced (energies are
            // build-time facts and stay exact). No execution, so no
            // audit or record.
            Span span("estimate");
            span.attr("pruned", true);
            result.report = accelerator.estimateIterations(
                iterations, tmpl.get(), bounds.upper);
            outcome.pruned = true;
            return outcome;
        }
    }

    // One record serves the audit and the critical path. makeRecordedRun
    // keeps a critpath record, so that one is fresh; an audit-only
    // record reuses the lane's buffer.
    ExecRecord kept;
    ExecRecord *record = nullptr;
    if (observers.critpath)
        record = &kept;
    else if (observers.audit.enabled && observers.audit.timing)
        record = context.record ? context.record : &kept;
    {
        Span span("simulate");
        result.report = accelerator.trainIterations(iterations, metrics,
                                                    tmpl.get(), record);
    }
    if (observers.audit.enabled) {
        Span span("audit");
        const AuditContext audit(observers.audit);
        result.audit = audit.run({.model = &model,
                                  .config = &config,
                                  .compiled = &accelerator.compiled(),
                                  .report = &result.report,
                                  .graph = &tmpl->graph,
                                  .record = record});
        span.attr("clean", result.audit.ok());
        span.attr("checks",
                  static_cast<std::int64_t>(result.audit.checksRun));
    }
    if (observers.critpath) {
        // The record is only meaningful against the graph it was taken
        // from, so the RecordedRun shares ownership of the template
        // (aliasing pointer).
        result.report.critpath = makeRecordedRun(
            std::shared_ptr<const TaskGraph>(tmpl, &tmpl->graph),
            accelerator.resourceNames(), std::move(kept));
    }
    return outcome;
}

ExperimentSweep::ExperimentSweep()
    : cache_(std::make_shared<CompiledModelCache>()),
      templates_(std::make_shared<MemoCache<IterationTemplate>>())
{
}

ExperimentSweep &
ExperimentSweep::addBenchmark(const GanModel &model)
{
    models_.push_back(model);
    return *this;
}

ExperimentSweep &
ExperimentSweep::addConfig(const std::string &label,
                           const AcceleratorConfig &config)
{
    configs_.emplace_back(label, config);
    return *this;
}

ExperimentSweep &
ExperimentSweep::addPoint(const GanModel &model, const std::string &label,
                          const AcceleratorConfig &config)
{
    extraPoints_.push_back({model, label, config});
    return *this;
}

ExperimentSweep &
ExperimentSweep::auditWith(AuditOptions options)
{
    observers_.audit = std::move(options);
    observers_.audit.enabled = true;
    return *this;
}

ExperimentSweep &
ExperimentSweep::withTelemetry(std::shared_ptr<MetricsRegistry> registry)
{
    observers_.telemetry = std::move(registry);
    return *this;
}

ExperimentSweep &
ExperimentSweep::withTracing(std::shared_ptr<FlightRecorder> recorder)
{
    observers_.recorder = std::move(recorder);
    return *this;
}

ExperimentSweep &
ExperimentSweep::withCriticalPath(bool enabled)
{
    observers_.critpath = enabled;
    return *this;
}

ExperimentSweep &
ExperimentSweep::withBoundPruning(bool enabled)
{
    pruning_ = enabled;
    return *this;
}

std::size_t
ExperimentSweep::pointCount() const
{
    return models_.size() * configs_.size() + extraPoints_.size();
}

std::vector<SweepResult>
ExperimentSweep::run(const RunOptions &options) const
{
    struct Point {
        const GanModel *model;
        const std::string *label;
        const AcceleratorConfig *config;
        /** First-config grid point: the pruning reference, always
         *  simulated fully. */
        bool baseline = false;
        /** Non-baseline grid point: bound pruning may skip its event
         *  simulation. Explicit extra points are never prunable. */
        bool prunable = false;
    };
    std::vector<Point> points;
    points.reserve(pointCount());
    for (const GanModel &model : models_) {
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            points.push_back({&model, &configs_[c].first,
                              &configs_[c].second, c == 0, c != 0});
        }
    }
    for (const ExplicitPoint &extra : extraPoints_)
        points.push_back({&extra.model, &extra.label, &extra.config});
    LERGAN_ASSERT(!points.empty(),
                  "sweep needs at least one benchmark and one config");
    LERGAN_ASSERT(options.iterations > 0, "need at least one iteration");
    LERGAN_ASSERT(options.threads >= 0,
                  "threads must be >= 0 (0 = hardware concurrency)");

    MetricsRegistry *metrics = observers_.telemetry.get();
    std::vector<SweepResult> results(points.size());

    // Per-benchmark baseline makespans the pruning decisions compare
    // against. Filled on the main thread between the baseline batch and
    // the rest, so the point bodies only ever read it.
    std::unordered_map<std::string, PicoSeconds> baselineTime;

    // One executor arena per worker lane, reused across every point
    // that lane runs (and across the pruning path's two batches): the
    // calendar/counter buffers and the audit-only record grow to the
    // largest graph once, then steady-state points allocate nothing.
    // Lanes never run two bodies concurrently (ThreadPool::forEach), so
    // indexing by lane is race-free. Each arena starts on its own cache
    // line: the calendar's hot fields of one lane must not share a line
    // with the neighbouring lane's buffers.
    struct alignas(64) LaneArena {
        ExecScratch scratch;
        ExecRecord record;
    };
    const unsigned workerCount =
        options.threads == 0 ? defaultThreadCount()
                             : static_cast<unsigned>(options.threads);
    std::vector<LaneArena> arenas(workerCount);

    const auto body = [&](std::size_t i, std::size_t lane) {
        const Point &point = points[i];
        const auto began = options.pointTelemetry
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
        PointContext context{.models = *cache_,
                             .templates = *templates_,
                             .observers = observers_,
                             .scratch = &arenas[lane].scratch,
                             .record = &arenas[lane].record};
        if (pruning_ && point.prunable) {
            const auto base = baselineTime.find(point.model->name);
            if (base != baselineTime.end())
                context.pruneAgainst = base->second;
        }
        // Under withTracing, the engine's root "point" span is open on
        // this thread; name it and hang the stage spans below it.
        annotate("benchmark", point.model->name);
        annotate("config", *point.label);
        SweepResult &result = results[i];
        const PointOutcome outcome =
            simulatePoint(*point.model, *point.config, options.iterations,
                          context, result);
        if (pruning_ && metrics) {
            metrics->counter(outcome.pruned ? "critpath.pruned"
                                            : "critpath.simulated")
                .add(1);
        }
        if (options.pointTelemetry) {
            result.telemetry.ran = true;
            result.telemetry.cacheHit = outcome.cacheHit;
            result.telemetry.hostMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - began)
                    .count();
        }
    };

    FlightRecorder *recorder = observers_.recorder.get();
    std::vector<PointStatus> statuses;
    if (!pruning_) {
        statuses = runPoints(points.size(),
                             static_cast<unsigned>(options.threads),
                             body, options.onProgress, metrics,
                             recorder);
    } else {
        // Baselines first (they anchor the pruning decisions), then
        // everything else; progress counts stay monotonic across the
        // two batches.
        statuses.resize(points.size());
        std::vector<std::size_t> first, rest;
        for (std::size_t i = 0; i < points.size(); ++i)
            (points[i].baseline ? first : rest).push_back(i);
        const auto runBatch = [&](const std::vector<std::size_t> &batch,
                                  std::size_t done_before) {
            if (batch.empty())
                return;
            ProgressFn progress;
            if (options.onProgress) {
                progress = [&, done_before](std::size_t done,
                                            std::size_t) {
                    options.onProgress(done_before + done,
                                       points.size());
                };
            }
            // Batch index != grid index, so map trace ids back to the
            // original grid: a point keeps one trace id no matter
            // which batch ran it.
            const auto batch_statuses = runPoints(
                batch.size(), static_cast<unsigned>(options.threads),
                [&](std::size_t k, std::size_t lane) {
                    body(batch[k], lane);
                },
                progress, metrics, recorder, [&](std::size_t k) {
                    return static_cast<TraceId>(batch[k]) + 1;
                });
            for (std::size_t k = 0; k < batch.size(); ++k)
                statuses[batch[k]] = batch_statuses[k];
        };
        runBatch(first, 0);
        for (std::size_t i : first) {
            if (statuses[i].ok) {
                baselineTime[points[i].model->name] =
                    results[i].report.iterationTime;
            }
        }
        runBatch(rest, first.size());
    }

    if (metrics) {
        // Exact totals (deterministic: misses = distinct compiled
        // pairs, regardless of worker count or completion order).
        metrics->gauge("cache.model.hits")
            .set(static_cast<double>(cache_->hits()));
        metrics->gauge("cache.model.misses")
            .set(static_cast<double>(cache_->misses()));
        metrics->gauge("cache.model.size")
            .set(static_cast<double>(cache_->size()));
    }

    for (std::size_t i = 0; i < points.size(); ++i) {
        SweepResult &result = results[i];
        if (!statuses[i].ok) {
            // Discard anything a partially-run body left behind.
            result = SweepResult{};
            result.failed = true;
            result.error = statuses[i].error;
            result.traceDump = std::move(statuses[i].spanDump);
        }
        result.benchmark = points[i].model->name;
        result.configLabel = *points[i].label;
        if (recorder && options.pointTelemetry) {
            result.telemetry.traced = true;
            result.telemetry.spanCount = statuses[i].spanCount;
            result.telemetry.queueWaitMs = statuses[i].queueWaitMs;
        }
    }
    return results;
}

std::vector<SweepResult>
ExperimentSweep::run(int iterations) const
{
    RunOptions options;
    options.iterations = iterations;
    return run(options);
}

} // namespace lergan
