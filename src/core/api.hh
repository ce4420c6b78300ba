/**
 * @file
 * Public umbrella API.
 *
 * Downstream users include this single header to parse or pick a GAN,
 * choose a configuration and simulate training. The primary entry point
 * is the session: construct it once per configuration, then run any
 * number of models — each distinct (model, config) pair is compiled
 * exactly once and the immutable compiled mapping is reused by every
 * subsequent run:
 *
 * @code
 *   #include "core/api.hh"
 *   using namespace lergan;
 *
 *   SimulationSession session(
 *       AcceleratorConfig::lerGan(ReplicaDegree::Low));
 *   GanModel dcgan = makeBenchmark("DCGAN");
 *   TrainingReport report = session.run(dcgan, 10); // compiles DCGAN
 *   report.print(std::cout);
 *   session.run(dcgan);                             // cache hit
 * @endcode
 *
 * Grids of (benchmark x configuration) points run through
 * ExperimentSweep (core/sweep.hh), which executes points in parallel
 * under RunOptions{threads, iterations, onProgress}. A session run is a
 * one-point sweep: both run the same stage sequence (simulatePoint)
 * against the same pair of memo caches.
 *
 * Below the session, LerGanAccelerator::trainIterations is the one
 * simulation entry point (optional metrics, template and execution
 * record).
 */

#ifndef LERGAN_CORE_API_HH
#define LERGAN_CORE_API_HH

#include <cstdint>
#include <memory>

#include "audit/audit.hh"
#include "core/accelerator.hh"
#include "core/compiler.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "exec/model_cache.hh"
#include "nn/parser.hh"
#include "telemetry/flight_recorder.hh"
#include "nn/zero_analysis.hh"
#include "workloads/zoo.hh"

namespace lergan {

/**
 * A reusable simulation context for one accelerator configuration.
 *
 * The session owns (or shares) a CompiledModelCache and owns an
 * iteration-template cache — the same pair an ExperimentSweep holds:
 * run() compiles and lowers a given model at most once and reuses the
 * cached mapping and task graph afterwards, which is what makes
 * repeated runs — convergence studies, parameter explorations, serving
 * many queries against the same configuration — pay those costs once
 * instead of per call. Every run goes through simulatePoint
 * (core/sweep.hh), the stage sequence of a sweep point.
 *
 * Thread safety: run() may be called concurrently from several threads;
 * the cache serializes compilation per (model, config) pair and every
 * run simulates on its own private machine state.
 *
 * Faults are part of the configuration: a session constructed with
 * config.faults set runs every model on mappings degraded around that
 * sampled fault map (stuck cells/columns, killed tiles, wear). Distinct
 * fault configs are distinct cache keys, so sessions sharing a cache
 * never alias a healthy mapping with a degraded one.
 *
 * Bound pruning (ExperimentSweep::withBoundPruning) stays on the sweep:
 * it skips a point whose makespan bracket already decides its side of
 * a baseline point's makespan, and a one-point session has no baseline.
 *
 * User errors (an unusable configuration, see
 * AcceleratorConfig::checkUsable, or fewer than one iteration) surface
 * as std::invalid_argument; internal invariant violations still panic.
 */
class SimulationSession
{
  public:
    /** Session with a private compiled-model cache. */
    explicit SimulationSession(AcceleratorConfig config);

    /** Session sharing @p cache with other sessions or sweeps. */
    SimulationSession(AcceleratorConfig config,
                      std::shared_ptr<CompiledModelCache> cache);

    /**
     * Simulate @p iterations training iterations of @p model.
     *
     * With auditing enabled (auditWith), the run is additionally
     * recorded and cross-checked by an AuditContext; a violated invariant
     * throws AuditError. Audit failures are simulator bugs, not user errors.
     * @p iterations < 1 throws std::invalid_argument.
     */
    TrainingReport run(const GanModel &model, int iterations = 1) const;

    /**
     * Enable (or reconfigure) result auditing for every subsequent
     * run() of this session. Not thread-safe against concurrent run()
     * calls; configure before handing the session out.
     */
    SimulationSession &auditWith(AuditOptions options);

    /**
     * Simulate and audit @p model, returning the verdict instead of
     * throwing — for tooling that wants the full finding list. Always
     * audits (every check on), regardless of auditWith(). The audited
     * report lands in @p report when non-null.
     */
    AuditVerdict audit(const GanModel &model, int iterations = 1,
                       TrainingReport *report = nullptr) const;

    /**
     * Attach a metrics registry: every subsequent run() accumulates
     * sim-time telemetry (sim.*, ic.*, ctrl.* — see docs/INTERNALS.md)
     * into it. Pass null to detach. A default-constructed registry is
     * created when called with no argument. The registry may be shared
     * across sessions and threads; sim-time metrics only use integer
     * instruments, so totals are independent of run interleaving. Not
     * thread-safe against concurrent run() calls; configure before
     * handing the session out.
     */
    SimulationSession &withTelemetry(
        std::shared_ptr<MetricsRegistry> registry =
            std::make_shared<MetricsRegistry>());

    /** The attached metrics registry (null when telemetry is off). */
    const std::shared_ptr<MetricsRegistry> &telemetry() const
    {
        return observers_.telemetry;
    }

    /**
     * Attach a flight recorder: every subsequent run() executes under
     * a root "run" span (trace id from allocateTraceId(), so session
     * traces never collide with sweep-point traces in a shared
     * recorder) with compile/template/simulate/audit stage children
     * recorded into the recorder's main-thread ring. Pass null to
     * detach.
     *
     * NOT thread-safe against concurrent run() calls: the main ring is
     * single-writer, and two threads running one traced session would
     * both record into it. Trace single-threaded sessions, or give
     * each thread its own session + recorder; parallel grids should
     * use ExperimentSweep::withTracing (per-lane rings) instead.
     */
    SimulationSession &withTracing(
        std::shared_ptr<FlightRecorder> recorder =
            std::make_shared<FlightRecorder>());

    /** The attached flight recorder (null when tracing is off). */
    const std::shared_ptr<FlightRecorder> &recorder() const
    {
        return observers_.recorder;
    }

    /**
     * Record the dependence graph of every subsequent run(): each
     * report comes back with report.critpath set — the execution
     * record, the extracted critical path and everything the what-if
     * estimator (critpath/whatif.hh) needs. Recording never changes
     * simulation results; it adds bounded bookkeeping per task (a
     * noticeable fraction of the lean executor's ~80ns/task — the
     * fig19 critpath guard fails check.sh if the ratio regresses more
     * than 4 points past the committed baseline). Not thread-safe
     * against concurrent run() calls; configure before handing the
     * session out.
     */
    SimulationSession &withCriticalPath(bool enabled = true);

    const AcceleratorConfig &config() const { return config_; }

    /** @name Compile-cache observability (exact counters) */
    ///@{
    std::uint64_t cacheHits() const { return cache_->hits(); }
    std::uint64_t cacheMisses() const { return cache_->misses(); }
    const std::shared_ptr<CompiledModelCache> &cache() const
    {
        return cache_;
    }
    ///@}

  private:
    /** Run @p model as a one-point sweep under @p observers. */
    SweepResult simulate(const GanModel &model, int iterations,
                         const PointObservers &observers) const;

    AcceleratorConfig config_;
    std::shared_ptr<CompiledModelCache> cache_;
    std::shared_ptr<MemoCache<IterationTemplate>> templates_;
    PointObservers observers_;
};

/**
 * Convenience one-shot: compile @p model for @p config and simulate
 * @p iterations training iterations.
 *
 * @deprecated Thin forwarding wrapper kept for existing callers; it
 * constructs a throwaway session per call, so repeated invocations
 * recompile the model every time. New code should hold a
 * SimulationSession (or an ExperimentSweep for grids) instead.
 */
TrainingReport simulateTraining(const GanModel &model,
                                const AcceleratorConfig &config,
                                int iterations = 1);

} // namespace lergan

#endif // LERGAN_CORE_API_HH
