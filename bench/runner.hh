/**
 * @file
 * Unified driver for the figure/table bench binaries.
 *
 * Every bench used to copy-paste the same plumbing: an ArgParser, the
 * shared Observability options, a --threads knob for sweep-based grids
 * and the final export calls. bench::Runner owns all of that, plus the
 * host-performance measurement facility behind --bench-json: any bench
 * built on the Runner can emit a machine-readable points/sec +
 * p50/p95-host-ms-per-point entry (schema below) without writing a line
 * of measurement code.
 *
 * Usage (sweep-based bench):
 * @code
 *   bench::Runner runner("fig19", "Fig. 19: ...", "paper claim ...");
 *   runner.args().addOption("trace", "...");     // bench-specific flags
 *   runner.parse(argc, argv, "Fig. 19 reproduction");
 *   ExperimentSweep sweep;  ...build grid...
 *   const auto results = runner.runSweep(sweep, kIterations);
 *   ...print tables from results...
 *   return runner.finish();
 * @endcode
 *
 * Non-sweep benches wrap their simulation work in measure():
 * @code
 *   const auto rows = runner.measure(points, [&] { ...simulate...; });
 *   ...print rows...
 * @endcode
 *
 * --bench-json FILE writes (or, with --bench-append, appends an entry
 * to) a BENCH_*.json performance-trajectory file:
 *
 *   {
 *     "schema": "lergan-bench/2",
 *     "bench": "fig19",
 *     "entries": [
 *       { "label": "scaling", "commit": "<sha>", "grid_points": 48,
 *         "iterations": 10, "hardware_threads": 8,
 *         "measurements": [
 *           { "workers": 1, "repetitions": 3, "wall_ms": ...,
 *             "points_per_sec": ..., "scaling_efficiency": ...,
 *             "p50_host_ms_per_point": ...,
 *             "p95_host_ms_per_point": ...,
 *             "host_phases_ms": { "compile": ..., "point": ...,
 *                                 "simulate": ..., "template": ... } },
 *           ... ] },
 *       ... ]
 *   }
 *
 * "host_phases_ms" sums the timed repetitions' lifecycle spans per span
 * name (sumSpansByName in telemetry/flight_recorder.hh): a sweep's
 * "point" roots and their compile/template/simulate/audit/estimate
 * stages; a measure() body's "bench" roots and the parse and session
 * stages it runs on the main thread. Entries recorded before spans
 * became the only host clock carry the old self-profiler's phase names
 * instead (parse, compile, schedule, simulate, export), where
 * "schedule" is today's "template" and "compile" counted compileGan
 * calls rather than compile-stage spans (cache hits included).
 *
 * Schema lergan-bench/2 added "hardware_threads" (the measuring
 * machine's defaultThreadCount()) per entry and "scaling_efficiency"
 * per measurement. Efficiency is points/sec at W workers divided by
 * (1-worker points/sec × min(W, hardware_threads)) — 1.0 means the
 * curve is ideal for the cores actually available, so the number stays
 * meaningful on machines with fewer cores than workers (oversubscribed
 * worker counts are expected to hold ~1.0, not W×). Appending to a
 * schema/1 file upgrades the schema line in place; old entries are
 * preserved and simply lack the new fields. Host wall-clock numbers
 * are facts about the machine that ran the bench; they are never part
 * of golden comparisons. The committed BENCH_*.json files track the
 * simulator's speed trajectory on the reference container
 * (scripts/bench_baseline.sh regenerates them).
 *
 * --bench-check FILE is the perf-regression guard: it re-measures the
 * bench and fails the process (exit 1) when (a) the measured 1-worker
 * points/sec drops more than 20% below the last committed entry's
 * 1-worker baseline, or (b) any measured multi-worker scaling
 * efficiency drops more than 20% below the efficiency the last
 * committed entry records for that worker count (contention
 * regressions show up here even when 1-worker throughput is intact).
 * scripts/check.sh runs it at 1 and 4 workers (skippable via
 * LERGAN_SKIP_PERF_GUARD=1 for slow or noisy machines).
 */

#ifndef LERGAN_BENCH_RUNNER_HH
#define LERGAN_BENCH_RUNNER_HH

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/sweep.hh"

namespace lergan {
namespace bench {

/** One timed configuration (worker count) of a bench's workload. */
struct BenchMeasurement {
    int workers = 1;
    int repetitions = 0;
    std::size_t points = 0;            ///< grid points per repetition
    double wallMs = 0.0;               ///< total wall time of the reps
    double pointsPerSec = 0.0;
    /**
     * points/sec ÷ (1-worker points/sec × min(workers, hardware
     * threads)); 1.0 = ideal scaling for the available cores. Negative
     * when the run had no 1-worker reference to normalize against
     * (then omitted from the JSON).
     */
    double scalingEfficiency = -1.0;
    double p50HostMsPerPoint = 0.0;
    double p95HostMsPerPoint = 0.0;
    /** Host ms per span name over the timed reps (schema above). */
    std::map<std::string, double> hostPhasesMs;
};

/** Unified bench driver: argument parsing, observability, perf. */
class Runner
{
  public:
    /**
     * @param bench_name  short id recorded in the JSON entry ("fig19").
     * @param title       banner headline.
     * @param paper_claim banner "paper:" line.
     */
    Runner(std::string bench_name, std::string title,
           std::string paper_claim);

    /** Declare bench-specific options here before parse(). */
    ArgParser &args() { return args_; }

    /**
     * Declare the shared options (threads, observability, bench-json),
     * parse argv, construct the Observability plumbing and print the
     * banner — the exact sequence every bench main used to open with.
     */
    void parse(int argc, char **argv, const std::string &program_doc);

    /** The shared observability plumbing (valid after parse()). */
    Observability &obs();

    /** --threads value (0 = hardware concurrency). */
    int threads() const;

    /** True when --bench-json or --bench-check was given. */
    bool measurementWanted() const;

    /**
     * Run @p sweep once under the shared flags (--threads, --metrics
     * telemetry, --progress) and return the results for printing. When
     * --bench-json / --bench-check is active, afterwards re-runs the
     * (now warm) sweep per measured worker count — one warm-up plus
     * --bench-repeats timed repetitions each — with per-point host
     * telemetry and a private flight recorder, and records the
     * measurements.
     */
    std::vector<SweepResult> runSweep(ExperimentSweep &sweep,
                                      int iterations);

    /**
     * Non-sweep benches: run @p body once and return its result (the
     * data the bench prints). When measurement is active, re-runs the
     * body (warm-up + timed repetitions, single configuration at the
     * --threads setting) and records a measurement over @p points
     * simulated grid points; the percentile fields then describe
     * per-repetition ms/point rather than true per-point times.
     */
    template <typename Fn>
    auto
    measure(std::size_t points, Fn &&body)
    {
        auto result = body();
        if (measurementWanted())
            measureBody(points, [&body] { (void)body(); });
        return result;
    }

    /**
     * Export everything: the --bench-json entry, the --bench-check
     * verdict and the Observability (--metrics / --self-profile) output.
     *
     * @return the process exit code: 1 when the --bench-check guard
     * detected a regression, else 0. Bench mains end with
     * `return runner.finish();`.
     */
    int finish();

  private:
    void measureSweep(ExperimentSweep &sweep, int iterations);
    void measureBody(std::size_t points,
                     const std::function<void()> &body);
    /** Worker counts to measure (--bench-workers, 0 = hardware). */
    std::vector<int> measuredWorkerCounts() const;
    /** Fill scalingEfficiency on every measurement from the 1-worker
     *  reference (no-op when the run measured no 1-worker count). */
    void computeScalingEfficiencies();
    /** Apply the --bench-check guard against @p measured points/sec. */
    void applyGuard(const BenchMeasurement &measured);
    /** Apply the scaling-efficiency side of --bench-check against
     *  every measured multi-worker count. */
    void applyScalingGuard(const std::string &baseline_text);

    std::string benchName_;
    std::string title_;
    std::string paperClaim_;
    ArgParser args_;
    std::unique_ptr<Observability> obs_;
    std::vector<BenchMeasurement> measurements_;
    int measuredIterations_ = kIterations;
    bool guardFailed_ = false;
    bool guardRan_ = false;
};

/**
 * Write one BENCH_*.json file (or append an entry to an existing one).
 * Exposed for tests; benches go through Runner::finish().
 *
 * @param append splice the entry into @p path's existing entries array
 *        instead of rewriting the file (fatal when the file does not
 *        end with the writer's own "\n  ]\n}" tail).
 */
void writeBenchJson(const std::string &path, const std::string &bench,
                    const std::string &label, const std::string &commit,
                    std::size_t grid_points, int iterations,
                    unsigned hardware_threads,
                    const std::vector<BenchMeasurement> &measurements,
                    bool append);

/**
 * @return the "points_per_sec" of the last 1-worker measurement in
 * @p bench_json_text (a file produced by writeBenchJson), or a negative
 * value when the file contains none.
 */
double lastOneWorkerPointsPerSec(const std::string &bench_json_text);

/**
 * @return the "scaling_efficiency" of the last @p workers-worker
 * measurement in @p bench_json_text, or a negative value when the file
 * records none for that worker count (e.g. schema/1 entries).
 */
double lastScalingEfficiency(const std::string &bench_json_text,
                             int workers);

} // namespace bench
} // namespace lergan

#endif // LERGAN_BENCH_RUNNER_HH
