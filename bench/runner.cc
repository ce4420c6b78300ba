#include "runner.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/strings.hh"
#include "exec/thread_pool.hh"

namespace lergan {
namespace bench {

namespace {

/** Nearest-rank percentile of an unsorted sample set (q in [0,1]). */
double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size()));
    return samples[std::min(rank, samples.size() - 1)];
}

/**
 * A recorder for @p repeats timed repetitions of a workload whose
 * warm-up pushed @p probe.recorded() spans: every lane ring can hold
 * them all, so none is dropped however the points land on lanes.
 */
std::shared_ptr<FlightRecorder>
recorderFor(const FlightRecorder &probe, int repeats)
{
    return std::make_shared<FlightRecorder>(
        static_cast<std::size_t>(probe.recorded()) *
        static_cast<std::size_t>(repeats));
}

/** Host milliseconds per span name over everything @p recorder holds. */
std::map<std::string, double>
phaseMs(const FlightRecorder &recorder)
{
    LERGAN_ASSERT(recorder.dropped() == 0,
                  "bench measurement dropped ", recorder.dropped(),
                  " spans");
    std::map<std::string, double> ms;
    for (const auto &[name, total] : sumSpansByName(recorder.collect()))
        ms[name] = total.ms();
    return ms;
}

/** Fixed-point number with enough digits for a perf trajectory. */
std::string
num(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", value);
    return buf;
}

std::string
formatEntry(const std::string &label, const std::string &commit,
            std::size_t grid_points, int iterations,
            unsigned hardware_threads,
            const std::vector<BenchMeasurement> &measurements)
{
    std::ostringstream os;
    os << "    {\n";
    os << "      \"label\": \"" << JsonWriter::escape(label) << "\",\n";
    os << "      \"commit\": \"" << JsonWriter::escape(commit) << "\",\n";
    os << "      \"grid_points\": " << grid_points << ",\n";
    os << "      \"iterations\": " << iterations << ",\n";
    os << "      \"hardware_threads\": " << hardware_threads << ",\n";
    os << "      \"measurements\": [\n";
    for (std::size_t i = 0; i < measurements.size(); ++i) {
        const BenchMeasurement &m = measurements[i];
        os << "        {\n";
        os << "          \"workers\": " << m.workers << ",\n";
        os << "          \"repetitions\": " << m.repetitions << ",\n";
        os << "          \"wall_ms\": " << num(m.wallMs) << ",\n";
        os << "          \"points_per_sec\": " << num(m.pointsPerSec)
           << ",\n";
        if (m.scalingEfficiency >= 0.0) {
            os << "          \"scaling_efficiency\": "
               << num(m.scalingEfficiency) << ",\n";
        }
        os << "          \"p50_host_ms_per_point\": "
           << num(m.p50HostMsPerPoint) << ",\n";
        os << "          \"p95_host_ms_per_point\": "
           << num(m.p95HostMsPerPoint) << ",\n";
        os << "          \"host_phases_ms\": {";
        bool first = true;
        for (const auto &[phase, ms] : m.hostPhasesMs) {
            os << (first ? " " : ", ") << '"'
               << JsonWriter::escape(phase) << "\": " << num(ms);
            first = false;
        }
        os << (first ? "}" : " }") << "\n";
        os << "        }" << (i + 1 < measurements.size() ? "," : "")
           << "\n";
    }
    os << "      ]\n";
    os << "    }";
    return os.str();
}

} // namespace

void
writeBenchJson(const std::string &path, const std::string &bench,
               const std::string &label, const std::string &commit,
               std::size_t grid_points, int iterations,
               unsigned hardware_threads,
               const std::vector<BenchMeasurement> &measurements,
               bool append)
{
    const std::string entry = formatEntry(
        label, commit, grid_points, iterations, hardware_threads,
        measurements);

    std::string content;
    if (append) {
        std::ifstream in(path);
        if (!in)
            LERGAN_FATAL("--bench-append: cannot read '", path, "'");
        std::ostringstream buffer;
        buffer << in.rdbuf();
        content = buffer.str();
        // Appending to a schema/1 file upgrades the header in place:
        // /2 only adds fields, so the old entries stay valid (they
        // simply lack hardware_threads / scaling_efficiency).
        const std::string oldSchema = "\"schema\": \"lergan-bench/1\"";
        const std::size_t schemaAt = content.find(oldSchema);
        if (schemaAt != std::string::npos)
            content.replace(schemaAt, oldSchema.size(),
                            "\"schema\": \"lergan-bench/2\"");
        // The writer's own tail is the splice anchor; anything else
        // means the file was not produced (or was edited) by us.
        const std::string tail = "\n  ]\n}";
        const std::size_t pos = content.rfind(tail);
        if (pos == std::string::npos)
            LERGAN_FATAL("--bench-append: '", path,
                         "' does not end with a bench-json entries "
                         "array");
        content.insert(pos, ",\n" + entry);
    } else {
        std::ostringstream os;
        os << "{\n";
        os << "  \"schema\": \"lergan-bench/2\",\n";
        os << "  \"bench\": \"" << JsonWriter::escape(bench) << "\",\n";
        os << "  \"entries\": [\n";
        os << entry << "\n";
        os << "  ]\n}\n";
        content = os.str();
    }

    std::string error;
    if (!isValidJson(content, &error))
        LERGAN_FATAL("bench-json writer produced invalid JSON for '",
                     path, "': ", error);

    std::ofstream out(path);
    if (!out)
        LERGAN_FATAL("cannot write bench-json file '", path, "'");
    out << content;
}

double
lastOneWorkerPointsPerSec(const std::string &bench_json_text)
{
    const std::string anchor = "\"workers\": 1,";
    const std::size_t at = bench_json_text.rfind(anchor);
    if (at == std::string::npos)
        return -1.0;
    const std::string key = "\"points_per_sec\": ";
    const std::size_t keyAt = bench_json_text.find(key, at);
    if (keyAt == std::string::npos)
        return -1.0;
    return std::strtod(bench_json_text.c_str() + keyAt + key.size(),
                       nullptr);
}

double
lastScalingEfficiency(const std::string &bench_json_text, int workers)
{
    const std::string anchor =
        "\"workers\": " + std::to_string(workers) + ",";
    const std::size_t at = bench_json_text.rfind(anchor);
    if (at == std::string::npos)
        return -1.0;
    const std::string key = "\"scaling_efficiency\": ";
    const std::size_t keyAt = bench_json_text.find(key, at);
    // The field is optional (schema/1 entries lack it), so the search
    // must not run past this measurement object into the next one.
    const std::size_t objEnd = bench_json_text.find('}', at);
    if (keyAt == std::string::npos || keyAt > objEnd)
        return -1.0;
    return std::strtod(bench_json_text.c_str() + keyAt + key.size(),
                       nullptr);
}

Runner::Runner(std::string bench_name, std::string title,
               std::string paper_claim)
    : benchName_(std::move(bench_name)), title_(std::move(title)),
      paperClaim_(std::move(paper_claim))
{
}

void
Runner::parse(int argc, char **argv, const std::string &program_doc)
{
    args_.addOption("threads", "worker threads (0 = hardware threads)",
                    "0");
    args_.addOption("bench-json",
                    "measure host performance (points/sec, p50/p95 host "
                    "ms/point) and write a BENCH_*.json entry to this "
                    "file");
    args_.addOption("bench-append",
                    "append the entry to an existing --bench-json file",
                    "", /*is_flag=*/true);
    args_.addOption("bench-label",
                    "label recorded in the bench-json entry", "current");
    args_.addOption("bench-commit",
                    "commit id recorded in the bench-json entry",
                    "unknown");
    args_.addOption("bench-workers",
                    "comma-separated worker counts to measure (0 = "
                    "hardware threads)",
                    "1,2,4,8");
    args_.addOption("bench-repeats",
                    "timed repetitions per measured worker count", "3");
    args_.addOption("bench-check",
                    "perf-regression guard: fail when measured 1-worker "
                    "points/sec (or any measured multi-worker scaling "
                    "efficiency) drops >20% below this committed "
                    "BENCH_*.json baseline");
    Observability::addOptions(args_);
    args_.parse(argc, argv, program_doc);
    obs_ = std::make_unique<Observability>(args_);
    banner(title_, paperClaim_);
}

Observability &
Runner::obs()
{
    LERGAN_ASSERT(obs_ != nullptr, "Runner::parse() not called");
    return *obs_;
}

int
Runner::threads() const
{
    return args_.getInt("threads");
}

bool
Runner::measurementWanted() const
{
    return args_.given("bench-json") || args_.given("bench-check");
}

std::vector<int>
Runner::measuredWorkerCounts() const
{
    std::vector<int> counts;
    for (const std::string &item : split(args_.get("bench-workers"), ',')) {
        if (item.empty())
            continue;
        int workers = std::atoi(item.c_str());
        if (workers <= 0)
            workers = static_cast<int>(defaultThreadCount());
        if (std::find(counts.begin(), counts.end(), workers) ==
            counts.end())
            counts.push_back(workers);
    }
    if (counts.empty())
        counts.push_back(1);
    return counts;
}

std::vector<SweepResult>
Runner::runSweep(ExperimentSweep &sweep, int iterations)
{
    if (obs().registry())
        sweep.withTelemetry(obs().registry());
    if (obs().recorder())
        sweep.withTracing(obs().recorder());

    RunOptions options;
    options.threads = threads();
    options.iterations = iterations;
    options.onProgress = obs().progress();
    // The anomaly report ranks points by host time, so the traced run
    // needs the per-point telemetry it is ranked by.
    options.pointTelemetry = obs().anomaliesWanted();
    auto results = sweep.run(options);
    obs().reportSweep(results);

    if (measurementWanted())
        measureSweep(sweep, iterations);
    return results;
}

void
Runner::measureSweep(ExperimentSweep &sweep, int iterations)
{
    measuredIterations_ = iterations;
    // Measurement runs are silent: no telemetry, no progress. Their
    // only observer is a private flight recorder, the clock of the
    // per-phase host times.
    const auto registry = sweep.telemetry();
    const auto recorder = sweep.recorder();
    sweep.withTelemetry(nullptr);

    const int repeats = std::max(1, args_.getInt("bench-repeats"));
    for (int workers : measuredWorkerCounts()) {
        RunOptions options;
        options.threads = workers;
        options.iterations = iterations;
        options.pointTelemetry = true;

        // Warm-up: caches hot, allocators settled. A one-slot recorder
        // counts its spans to size the timed repetitions' recorder.
        const auto probe = std::make_shared<FlightRecorder>(1);
        sweep.withTracing(probe);
        sweep.run(options);
        const auto timed = recorderFor(*probe, repeats);
        sweep.withTracing(timed);

        std::vector<double> pointMs;
        PerfTimer timer;
        for (int rep = 0; rep < repeats; ++rep) {
            const auto results = sweep.run(options);
            for (const SweepResult &result : results)
                pointMs.push_back(result.telemetry.hostMs);
        }
        const double wallMs = timer.elapsedMs();

        BenchMeasurement m;
        m.workers = workers;
        m.repetitions = repeats;
        m.points = sweep.pointCount();
        m.wallMs = wallMs;
        m.pointsPerSec =
            wallMs > 0.0 ? static_cast<double>(pointMs.size()) /
                               (wallMs / 1e3)
                         : 0.0;
        m.p50HostMsPerPoint = percentile(pointMs, 0.5);
        m.p95HostMsPerPoint = percentile(pointMs, 0.95);
        m.hostPhasesMs = phaseMs(*timed);
        measurements_.push_back(m);

        std::cerr << "bench: " << benchName_ << " workers=" << workers
                  << " " << num(m.pointsPerSec) << " points/sec (p50 "
                  << num(m.p50HostMsPerPoint) << " ms/point, p95 "
                  << num(m.p95HostMsPerPoint) << " ms/point)\n";
    }

    sweep.withTelemetry(registry);
    sweep.withTracing(recorder);
}

void
Runner::measureBody(std::size_t points, const std::function<void()> &body)
{
    // Each repetition runs under a "bench" root on the main ring, so
    // the main-thread stages of the body (parse, session runs) record
    // as its children.
    const auto traced = [&body](FlightRecorder &recorder) {
        MainLaneBinding bind(recorder);
        Span root(recorder.allocateTraceId(), "bench");
        body();
    };
    const int repeats = std::max(1, args_.getInt("bench-repeats"));
    FlightRecorder probe(1);
    traced(probe); // warm-up; its span count sizes the timed recorder
    const auto timed = recorderFor(probe, repeats);

    std::vector<double> repMsPerPoint;
    PerfTimer timer;
    for (int rep = 0; rep < repeats; ++rep) {
        PerfTimer repTimer;
        traced(*timed);
        if (points > 0)
            repMsPerPoint.push_back(repTimer.elapsedMs() /
                                    static_cast<double>(points));
    }
    const double wallMs = timer.elapsedMs();

    BenchMeasurement m;
    m.workers = 1;
    m.repetitions = repeats;
    m.points = points;
    m.wallMs = wallMs;
    m.pointsPerSec =
        wallMs > 0.0
            ? static_cast<double>(points) * repeats / (wallMs / 1e3)
            : 0.0;
    // No per-point host times outside the sweep engine: the percentiles
    // describe per-repetition ms/point instead (documented in the
    // header).
    m.p50HostMsPerPoint = percentile(repMsPerPoint, 0.5);
    m.p95HostMsPerPoint = percentile(repMsPerPoint, 0.95);
    m.hostPhasesMs = phaseMs(*timed);
    measurements_.push_back(m);

    std::cerr << "bench: " << benchName_ << " " << num(m.pointsPerSec)
              << " points/sec\n";
}

void
Runner::computeScalingEfficiencies()
{
    const BenchMeasurement *one = nullptr;
    for (const BenchMeasurement &m : measurements_)
        if (m.workers == 1) {
            one = &m;
            break;
        }
    if (!one || one->pointsPerSec <= 0.0)
        return; // no 1-worker reference in this run
    // Normalize by the cores actually available: W workers on an
    // H-core machine can at best run min(W, H) points concurrently, so
    // ideal is 1.0 on every machine and oversubscribed counts are not
    // penalized for the cores they do not have.
    const double hw = static_cast<double>(defaultThreadCount());
    for (BenchMeasurement &m : measurements_) {
        const double ideal =
            one->pointsPerSec *
            std::min(static_cast<double>(m.workers), hw);
        m.scalingEfficiency = m.pointsPerSec / ideal;
    }
}

void
Runner::applyScalingGuard(const std::string &baseline_text)
{
    for (const BenchMeasurement &m : measurements_) {
        if (m.workers == 1 || m.scalingEfficiency < 0.0)
            continue;
        const double committed =
            lastScalingEfficiency(baseline_text, m.workers);
        if (committed <= 0.0)
            continue; // baseline predates the scaling schema
        const double floor = committed * 0.8;
        const bool ok = m.scalingEfficiency >= floor;
        std::cerr << "perf guard: " << m.workers
                  << "-worker scaling efficiency "
                  << num(m.scalingEfficiency)
                  << " vs committed baseline " << num(committed)
                  << " (floor " << num(floor) << "): "
                  << (ok ? "ok" : "REGRESSION") << "\n";
        if (!ok)
            guardFailed_ = true;
    }
}

void
Runner::applyGuard(const BenchMeasurement &measured)
{
    guardRan_ = true;
    const std::string path = args_.get("bench-check");
    std::ifstream in(path);
    if (!in)
        LERGAN_FATAL("--bench-check: cannot read baseline '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const double baseline = lastOneWorkerPointsPerSec(buffer.str());
    if (baseline <= 0.0)
        LERGAN_FATAL("--bench-check: no 1-worker points_per_sec entry "
                     "in '",
                     path, "'");
    const double floor = baseline * 0.8;
    const bool ok = measured.pointsPerSec >= floor;
    std::cerr << "perf guard: measured " << num(measured.pointsPerSec)
              << " points/sec vs committed baseline " << num(baseline)
              << " (floor " << num(floor) << "): "
              << (ok ? "ok" : "REGRESSION") << "\n";
    if (!ok)
        guardFailed_ = true;
}

int
Runner::finish()
{
    computeScalingEfficiencies();

    if (args_.given("bench-check") && !measurements_.empty()) {
        // Guard against the 1-worker measurement when present (it is
        // the least scheduler-noisy one), else the first.
        const BenchMeasurement *oneWorker = nullptr;
        for (const BenchMeasurement &m : measurements_)
            if (m.workers == 1) {
                oneWorker = &m;
                break;
            }
        applyGuard(oneWorker ? *oneWorker : measurements_.front());
        // Second half of the guard: every measured multi-worker count
        // must hold its committed scaling efficiency.
        std::ifstream in(args_.get("bench-check"));
        if (in) {
            std::ostringstream buffer;
            buffer << in.rdbuf();
            applyScalingGuard(buffer.str());
        }
    }

    if (args_.given("bench-json")) {
        LERGAN_ASSERT(!measurements_.empty(),
                      "--bench-json given but the bench never ran a "
                      "measurable workload");
        writeBenchJson(args_.get("bench-json"), benchName_,
                       args_.get("bench-label"),
                       args_.get("bench-commit"),
                       measurements_.front().points,
                       measuredIterations_, defaultThreadCount(),
                       measurements_, args_.getFlag("bench-append"));
    }

    obs().finish();
    return guardFailed_ ? 1 : 0;
}

} // namespace bench
} // namespace lergan
