/**
 * @file
 * Experiment sweeps: run a grid of (benchmark x configuration) points
 * and export the results for plotting.
 *
 * The figure benches print human-readable tables; this library is the
 * programmatic counterpart — downstream users compose their own
 * comparisons and get JSON/CSV out (core/sweep_io.hh). Every point runs
 * the one stage sequence in simulatePoint(), which SimulationSession
 * (core/api.hh) runs too.
 *
 * Points execute on a worker pool (RunOptions::threads) with the
 * compiled mapping of every (model, config) pair cached across run()
 * calls. Results are always ordered benchmark-major regardless of which
 * worker finishes first, and a point that throws is reported as a
 * failed SweepResult instead of aborting the grid, so a 1-thread and an
 * N-thread run of the same grid export byte-identical JSON/CSV.
 */

#ifndef LERGAN_CORE_SWEEP_HH
#define LERGAN_CORE_SWEEP_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/audit.hh"
#include "core/accelerator.hh"
#include "exec/engine.hh"
#include "exec/model_cache.hh"
#include "faults/fault_stats.hh"

namespace lergan {

/** Host-side observations of one executed point (never goldened). */
struct PointTelemetry {
    /** False unless the sweep ran with RunOptions::pointTelemetry. */
    bool ran = false;
    /** Whether this point's compile was served from the cache. */
    bool cacheHit = false;
    /** Wall-clock time of the point body on its worker. */
    double hostMs = 0.0;
    /** False unless the sweep ran with a tracing recorder attached. */
    bool traced = false;
    /** Spans this point recorded into the flight recorder. */
    std::uint64_t spanCount = 0;
    /** Milliseconds the point waited before a lane claimed it. */
    double queueWaitMs = -1.0;
};

/** One executed experiment point. */
struct SweepResult {
    std::string benchmark;
    std::string configLabel;
    TrainingReport report;
    std::uint64_t crossbarsUsed = 0;
    std::uint64_t oversubscribed = 0;
    /** True when this point threw instead of producing a report. */
    bool failed = false;
    /** Exception message of a failed point. */
    std::string error;
    /**
     * Cross-layer invariant verdict of this point (audit.ran is false
     * unless the sweep was configured with auditWith). A failed audit
     * does not fail the point — it is surfaced here and in the JSON
     * export; an audit failure is a simulator bug, not a user error.
     */
    AuditVerdict audit;
    /**
     * Monte Carlo trial distributions (faults.ran() is false unless the
     * point came out of a FaultMonteCarlo run, faults/montecarlo.hh).
     */
    FaultSweepStats faults;
    /** Host-side point observations (RunOptions::pointTelemetry). */
    PointTelemetry telemetry;
    /**
     * Causal history of a failed point: the span tree the point left
     * in the flight recorder, rendered as text (empty unless the
     * sweep ran with withTracing and this point failed).
     */
    std::string traceDump;
};

/**
 * The observers a session or sweep attaches to every point it runs.
 * SimulationSession and ExperimentSweep each hold one and fill it
 * through their auditWith/withTelemetry/withTracing/withCriticalPath
 * setters.
 */
struct PointObservers {
    /** Audit policy; audit.enabled false audits nothing. */
    AuditOptions audit;
    /** Sim-time telemetry sink (null = off). */
    std::shared_ptr<MetricsRegistry> telemetry;
    /** Span sink (null = untraced). */
    std::shared_ptr<FlightRecorder> recorder;
    /** Attach the dependence record to every report (report.critpath). */
    bool critpath = false;
};

/** The caches, observers and lane buffers one point runs against. */
struct PointContext {
    /** Compiled mappings; filled through compileGanValidated only. */
    CompiledModelCache &models;
    /** Iteration DAG templates, keyed by pairFingerprint. */
    MemoCache<IterationTemplate> &templates;
    const PointObservers &observers;
    /** Executor buffers of the running lane (null = the accelerator's
     *  own). Must not be shared with a concurrent point. */
    ExecScratch *scratch = nullptr;
    /** The running lane's record for audit-only points (null = a
     *  fresh one). Must not be shared with a concurrent point. */
    ExecRecord *record = nullptr;
    /**
     * Bound pruning: the benchmark's baseline makespan. When set and
     * the point's analytic makespan bounds already decide which side
     * of it the point lands on, the event simulation is skipped (see
     * ExperimentSweep::withBoundPruning).
     */
    std::optional<PicoSeconds> pruneAgainst = std::nullopt;
};

/** What simulatePoint() observed besides the result it filled. */
struct PointOutcome {
    /** The compile was served from the compiled-model cache. */
    bool cacheHit = false;
    /** Bound pruning replaced the event simulation by an estimate. */
    bool pruned = false;
};

/**
 * One point's stage sequence, the single pipeline behind
 * ExperimentSweep::run and SimulationSession::run/audit: validated
 * compile through the compiled-model cache, the Prevalidated
 * accelerator, the iteration template through the template cache,
 * optional bound pruning, simulate, audit, critical-path record.
 *
 * Fills @p result's report, crossbar counts and audit verdict; the
 * caller owns its benchmark/label and failure fields. Stage spans
 * ("compile", "template", "estimate" or "simulate", "audit") nest under
 * the calling thread's open span. An unusable configuration throws
 * std::invalid_argument before anything compiles.
 */
PointOutcome simulatePoint(const GanModel &model,
                           const AcceleratorConfig &config, int iterations,
                           const PointContext &context,
                           SweepResult &result);

/** A grid of benchmarks x configurations (plus explicit extra points). */
class ExperimentSweep
{
  public:
    ExperimentSweep();

    /** Add a benchmark model to the grid. */
    ExperimentSweep &addBenchmark(const GanModel &model);

    /** Add a configuration (with a display label) to the grid. */
    ExperimentSweep &addConfig(const std::string &label,
                               const AcceleratorConfig &config);

    /**
     * Add one explicit (model, config) point outside the grid — for
     * per-benchmark configurations like the normalized-space variants,
     * whose crossbar budget depends on the model. Explicit points run
     * after the grid, in insertion order.
     */
    ExperimentSweep &addPoint(const GanModel &model,
                              const std::string &label,
                              const AcceleratorConfig &config);

    /**
     * Audit every point of every subsequent run() under @p options:
     * each point records its execution (an ExecRecord per lane, reused
     * across points) and its SweepResult::audit carries the verdict.
     * Adds the recording's bookkeeping but no extra simulation — the
     * audited run is the measured run.
     */
    ExperimentSweep &auditWith(AuditOptions options);

    /**
     * Attach a metrics registry: every point of every subsequent run()
     * accumulates sim-time telemetry into it (same contract as
     * SimulationSession::withTelemetry — integer instruments only, so
     * totals are independent of worker count), plus compile-cache
     * gauges and the worker pool's "host."-prefixed stats after each
     * run. Pass null to detach.
     */
    ExperimentSweep &withTelemetry(
        std::shared_ptr<MetricsRegistry> registry =
            std::make_shared<MetricsRegistry>());

    /** The attached metrics registry (null when telemetry is off). */
    const std::shared_ptr<MetricsRegistry> &telemetry() const
    {
        return observers_.telemetry;
    }

    /**
     * Attach a flight recorder: every point of every subsequent run()
     * executes under a root "point" span (trace id = point index + 1)
     * with compile/template/simulate/audit stage children recorded
     * into per-lane lock-free rings (telemetry/flight_recorder.hh).
     * The recorder keeps the newest laneCapacity() spans per lane;
     * read it after run() with collect()/collectTrace(), export with
     * writeSpanNdjson(), or summarize with writeAnomalyReport().
     * Pass null to detach.
     */
    ExperimentSweep &withTracing(
        std::shared_ptr<FlightRecorder> recorder =
            std::make_shared<FlightRecorder>());

    /** The attached flight recorder (null when tracing is off). */
    const std::shared_ptr<FlightRecorder> &recorder() const
    {
        return observers_.recorder;
    }

    /**
     * Record every point's dependence graph: each successful
     * SweepResult's report.critpath carries the execution record, the
     * extracted critical path and the inputs of the what-if estimator
     * (critpath/whatif.hh). Recording never changes simulated results.
     */
    ExperimentSweep &withCriticalPath(bool enabled = true);

    /**
     * Bound-based pruning of comparison sweeps: the first addConfig'd
     * configuration is the per-benchmark baseline and always simulates
     * fully; every other grid point first computes analytic makespan
     * bounds (critpath/whatif.hh makespanBounds) and skips the event
     * simulation when the bracket already decides which side of the
     * baseline it lands on. Pruned points report the bound's
     * list-schedule estimate as their time (stats carry
     * "critpath.estimated" = 1; energies stay exact — they are
     * build-time facts), skip auditing and recording, and count into
     * the attached telemetry's "critpath.pruned" counter; fully
     * simulated points count into "critpath.simulated". Explicit
     * addPoint() points are never pruned. Off by default — the golden
     * figure grids always simulate every point exactly.
     */
    ExperimentSweep &withBoundPruning(bool enabled = true);

    /**
     * Simulate every point under @p options; results are ordered
     * benchmark-major (then explicit points in insertion order)
     * regardless of completion order. A throwing point yields a failed
     * SweepResult; the other points are unaffected.
     */
    std::vector<SweepResult> run(const RunOptions &options) const;

    /** Sequential convenience: run(RunOptions{1, iterations}). */
    std::vector<SweepResult> run(int iterations = 1) const;

    /** Total experiment points the next run() will execute. */
    std::size_t pointCount() const;

    /**
     * The compiled-model cache shared by every run() of this sweep
     * (exact hit/miss counters; a repeated run recompiles nothing).
     */
    CompiledModelCache &cache() const { return *cache_; }

    /**
     * The per-iteration DAG template cache shared by every run() of
     * this sweep, keyed by pairFingerprint like the compiled-model
     * cache: each (model, config) pair lowers its training iteration
     * to a task graph once, and every run of the pair replays it.
     */
    MemoCache<IterationTemplate> &templates() const { return *templates_; }

  private:
    struct ExplicitPoint {
        GanModel model;
        std::string label;
        AcceleratorConfig config;
    };

    std::vector<GanModel> models_;
    std::vector<std::pair<std::string, AcceleratorConfig>> configs_;
    std::vector<ExplicitPoint> extraPoints_;
    std::shared_ptr<CompiledModelCache> cache_;
    std::shared_ptr<MemoCache<IterationTemplate>> templates_;
    PointObservers observers_;
    bool pruning_ = false;
};

} // namespace lergan

#endif // LERGAN_CORE_SWEEP_HH
