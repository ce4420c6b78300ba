#include "core/api.hh"

#include <optional>
#include <stdexcept>
#include <string>

#include "telemetry/tracing.hh"

namespace lergan {

SimulationSession::SimulationSession(AcceleratorConfig config)
    : SimulationSession(std::move(config),
                        std::make_shared<CompiledModelCache>())
{
}

SimulationSession::SimulationSession(
    AcceleratorConfig config, std::shared_ptr<CompiledModelCache> cache)
    : config_(std::move(config)), cache_(std::move(cache)),
      templates_(std::make_shared<MemoCache<IterationTemplate>>())
{
}

SimulationSession &
SimulationSession::auditWith(AuditOptions options)
{
    observers_.audit = std::move(options);
    observers_.audit.enabled = true;
    return *this;
}

SimulationSession &
SimulationSession::withTelemetry(std::shared_ptr<MetricsRegistry> registry)
{
    observers_.telemetry = std::move(registry);
    return *this;
}

SimulationSession &
SimulationSession::withTracing(std::shared_ptr<FlightRecorder> recorder)
{
    observers_.recorder = std::move(recorder);
    return *this;
}

SimulationSession &
SimulationSession::withCriticalPath(bool enabled)
{
    observers_.critpath = enabled;
    return *this;
}

SweepResult
SimulationSession::simulate(const GanModel &model, int iterations,
                            const PointObservers &observers) const
{
    if (iterations < 1) {
        throw std::invalid_argument(
            "a session run needs at least one iteration, got " +
            std::to_string(iterations));
    }
    // With a recorder attached, the whole run executes under a root
    // "run" span on the main-thread ring (trace id from
    // allocateTraceId, so it never collides with sweep-point traces).
    std::optional<MainLaneBinding> bind;
    std::optional<Span> root;
    if (observers.recorder) {
        bind.emplace(*observers.recorder);
        root.emplace(observers.recorder->allocateTraceId(), "run");
        root->attr("benchmark", model.name);
        root->attr("iterations", static_cast<std::int64_t>(iterations));
    }
    SweepResult result;
    simulatePoint(model, config_, iterations,
                  {.models = *cache_,
                   .templates = *templates_,
                   .observers = observers},
                  result);
    return result;
}

TrainingReport
SimulationSession::run(const GanModel &model, int iterations) const
{
    SweepResult result = simulate(model, iterations, observers_);
    if (!result.audit.ok())
        throw AuditError(std::move(result.audit));
    return std::move(result.report);
}

AuditVerdict
SimulationSession::audit(const GanModel &model, int iterations,
                         TrainingReport *report) const
{
    PointObservers observers = observers_;
    observers.audit = AuditOptions::full();
    SweepResult result = simulate(model, iterations, observers);
    if (report)
        *report = std::move(result.report);
    return std::move(result.audit);
}

TrainingReport
simulateTraining(const GanModel &model, const AcceleratorConfig &config,
                 int iterations)
{
    return SimulationSession(config).run(model, iterations);
}

} // namespace lergan
