/**
 * @file
 * The benchmark's workloads: the Fig. 19 grid and the batch-scaling
 * ladder, the seeded order their points are added to a sweep, the
 * expected simulated outputs every pass is checked against, and the
 * 1-worker pipeline the traced run times layer by layer.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/sweep.hh"
#include "spans.hh"

namespace perfbench {

enum class Workload { Fig19Cold, Fig19Warm, Fig19Observed, BatchScale };

/** Parse a workload name; fatal on an unknown one. */
Workload parseWorkload(const std::string &name);

/** Every run simulates ten training iterations per point (Sec. VI-C). */
constexpr int kIterations = 10;
/** Worker threads of the measured sweeps (the reference host's nproc). */
constexpr int kWorkers = 4;
/** Paper's Fig. 19 high-degree mean speedup over PRIME. */
constexpr double kPaperHighSpeedup = 7.46;

/**
 * Order in which benchmarks, configurations and explicit points are
 * added to a sweep. The seed only permutes these; results are keyed by
 * (benchmark, config), so the order cannot change what is checked.
 */
struct Order {
    std::vector<std::size_t> benchmarks;
    std::vector<std::size_t> configs;
    std::vector<std::size_t> extras;
};

/** A fresh permutation of @p workload's points drawn from @p rng. */
Order drawOrder(Workload workload, lergan::Rng &rng);

/** One explicit point added with ExperimentSweep::addPoint. */
struct ExtraPoint {
    lergan::GanModel model;
    std::string label;
    lergan::AcceleratorConfig config;
};

/** The inputs of one sweep, in the order they are added to it. */
struct Grid {
    std::vector<lergan::GanModel> models;
    std::vector<std::pair<std::string, lergan::AcceleratorConfig>> configs;
    std::vector<ExtraPoint> extras;
};

/**
 * Parse the workload's models and build its configurations, in table
 * order. Parsing (makeBenchmark) and the PRIME compile that sizes each
 * equal-space point are recorded into @p log.
 */
Grid buildGrid(Workload workload, SpanLog &log);

/** @p grid with its benchmarks, configs and explicit points in @p order. */
Grid reorder(const Grid &grid, const Order &order);

/** Product observers a sweep or pipeline pass runs with. */
struct Observers {
    bool audit = false;
    bool telemetry = false;
    bool critpath = false;
    bool tracing = false;
};

/** The observers @p workload's measured passes run with. */
Observers workloadObservers(Workload workload);

/** Where the telemetry and span-tracing observers write. */
struct Sinks {
    std::shared_ptr<lergan::MetricsRegistry> metrics =
        std::make_shared<lergan::MetricsRegistry>();
    std::shared_ptr<lergan::FlightRecorder> recorder =
        std::make_shared<lergan::FlightRecorder>();
};

/**
 * A sweep over @p grid with @p observers attached, copied from the
 * empty sweep @p caches: copies of a sweep share its compile and
 * template caches, so every sweep built from one warm @p caches replays
 * the templates it holds, whatever order its points are added in.
 */
lergan::ExperimentSweep makeSweep(
    const Grid &grid, const Observers &observers, const Sinks &sinks,
    const lergan::ExperimentSweep &caches = lergan::ExperimentSweep());

/** Expected simulated outputs, keyed by (benchmark, config label). */
class Expected
{
  public:
    struct Entry {
        double msPerIteration = 0.0;
        double mjPerIteration = 0.0;
    };

    /** Load a tab-separated table; fatal when unreadable or malformed. */
    explicit Expected(const std::string &path);

    const Entry *find(const std::string &benchmark,
                      const std::string &config) const;

  private:
    std::map<std::pair<std::string, std::string>, Entry> entries_;
};

/**
 * Points of @p results that failed, have no expected entry, differ
 * from it, or (with @p requireAudit) lack a clean audit verdict.
 */
std::size_t countBadPoints(const std::vector<lergan::SweepResult> &results,
                           const Expected &expected, bool requireAudit);

/**
 * |high-degree mean speedup over PRIME - 7.46| / 7.46, in percent.
 * @p results must hold the prime and high points of every benchmark.
 */
double speedupErrPct(const std::vector<lergan::SweepResult> &results);

/** Simulated tasks of one pass's results (one iteration per point). */
std::uint64_t simulatedTasks(const std::vector<lergan::SweepResult> &results);

/** Write @p results as the expected-value table Expected loads. */
void writeExpected(std::ostream &os,
                   const std::vector<lergan::SweepResult> &results);

/**
 * What a pipeline pass needs besides the grid: the memo caches it
 * compiles and lowers through, and the observers' sinks.
 */
struct PipelineContext {
    Workload workload = Workload::Fig19Cold;
    Observers observers;
    /** Warm workloads: the set-up sweep's caches. Null = fresh per pass. */
    lergan::CompiledModelCache *cache = nullptr;
    lergan::MemoCache<lergan::IterationTemplate> *templates = nullptr;
    /** Warm workloads: the parsed grid. Null = parse per pass. */
    const Grid *grid = nullptr;
    lergan::MetricsRegistry *metrics = nullptr;
    lergan::FlightRecorder *recorder = nullptr;
};

/** Per-point facts a pipeline pass leaves for the layer summary. */
struct PointFacts {
    int batch = 0;
    std::uint64_t tasks = 0;
};

/** Output of one pipeline pass. */
struct PipelinePass {
    std::vector<lergan::SweepResult> results;
    std::size_t exportBytes = 0;
    std::uint64_t compileHits = 0;
    std::uint64_t compileRequests = 0;
    std::uint64_t templateHits = 0;
    std::uint64_t templateRequests = 0;
    /** Tasks of the templates this pass lowered (cache misses only). */
    std::uint64_t templateTasks = 0;
};

/**
 * One pass of the workload's grid through the benchmark's own copy of
 * the sweep's per-point pipeline, at 1 worker, with a span around
 * every call into a layer's public function: parse, compile, template
 * build, execute, critical-path extraction, audit and export. Point
 * spans get trace ids from @p nextTrace; @p facts maps each to its
 * batch and simulated task count.
 */
PipelinePass runPipelinePass(const PipelineContext &context,
                             const Order &order, SpanLog &log,
                             std::uint64_t &nextTrace,
                             std::map<std::uint64_t, PointFacts> &facts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
