/**
 * @file
 * Cross-layer result auditing (the "does the simulator agree with
 * itself" layer).
 *
 * Every headline number this repo produces is the sum of independent
 * estimates made in different layers: the tile model charges energies,
 * the event queue produces a makespan, the compiler sizes reshape
 * classes from closed forms, the allocator reserves crossbars. An
 * AuditContext re-derives each of those from the *other* side of the
 * layer boundary and flags disagreement:
 *
 *  - energy:  component families must account for every `energy.*`
 *    statistic, and the prefix-summed total must match the snapshot the
 *    accelerator took when the run finished (catches post-run mutation
 *    and scaling bugs in `total.*` aggregates);
 *  - timing:  the execution record must hold one interval per task of
 *    the executed graph, all inside [0, makespan], the last ending
 *    exactly at the event-queue makespan;
 *  - zeros:   the paper's closed-form ZFDR class counts (Eq. 11-13)
 *    must match direct window enumeration for every reshaped op of the
 *    compiled model;
 *  - mapping: validateMapping() must pass on the compiled mapping;
 *  - faults:  a degraded run (fault injection or manual failed tiles)
 *    must never place crossbars or schedule work on an unusable tile,
 *    and killed tiles must hold zero bank usage. Skipped on healthy
 *    runs — the verdict of a fault-free simulation is unchanged.
 *
 * Checks run after a simulation, over its immutable outputs (the
 * executed graph and its ExecRecord among them); they never mutate
 * anything. Wire-up: SimulationSession::auditWith() /
 * ExperimentSweep::auditWith() run a context after every point and
 * surface the verdict (core/api.hh, core/sweep.hh).
 */

#ifndef LERGAN_AUDIT_AUDIT_HH
#define LERGAN_AUDIT_AUDIT_HH

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lergan {

class AcceleratorConfig;
class TaskGraph;
class Tracer;
struct CompiledGan;
struct ExecRecord;
struct GanModel;
struct TrainingReport;

/** Which invariants to audit, and how strictly. */
struct AuditOptions {
    /** Master switch: disabled contexts audit nothing. */
    bool enabled = false;
    /** (a) energy conservation across component families. */
    bool energy = true;
    /** (b) record/makespan consistency of the executed run. */
    bool timing = true;
    /** (c) ZFDR closed forms vs. direct enumeration. */
    bool zeros = true;
    /** (d) validateMapping() on the compiled mapping. */
    bool mapping = true;
    /** (e) degraded runs never touch unusable tiles (skipped when the
     *  run is healthy: no fault map and no manual failed tiles). */
    bool faults = true;
    /** Relative tolerance for floating-point sum comparisons. */
    double relTolerance = 1e-9;

    /** Everything on. */
    static AuditOptions
    full()
    {
        AuditOptions options;
        options.enabled = true;
        return options;
    }
};

/** One violated invariant. */
struct AuditFinding {
    /** Name of the check that failed ("energy", "timing", ...). */
    std::string check;
    /** Human-readable description of the violation. */
    std::string detail;
};

/** Outcome of auditing one simulation. */
struct AuditVerdict {
    /** True once a context actually ran (default-constructed = not). */
    bool ran = false;
    /** Checks that executed (a record-less timing check is skipped). */
    std::size_t checksRun = 0;
    /** Every violated invariant, in check order. */
    std::vector<AuditFinding> failures;

    bool ok() const { return failures.empty(); }

    /** Record one violation. */
    void
    fail(std::string check, std::string detail)
    {
        failures.push_back({std::move(check), std::move(detail)});
    }

    /** "ok (4 checks)" or a semicolon-joined failure list. */
    std::string summary() const;
};

/** Everything a check may inspect. All outputs of one simulation. */
struct AuditInput {
    const GanModel *model = nullptr;
    const AcceleratorConfig *config = nullptr;
    const CompiledGan *compiled = nullptr;
    const TrainingReport *report = nullptr;
    /** Unread; keeps perfbench/workload.cc's five-member initializer
     *  compiling until it moves to graph/record (ROADMAP item 5). */
    const Tracer *unusedTrace = nullptr;
    /** The executed graph and its record; either null skips the
     *  timing check and the per-task part of the faults check. */
    const TaskGraph *graph = nullptr;
    const ExecRecord *record = nullptr;
};

/** Thrown by audited session runs when a check fails. */
class AuditError : public std::runtime_error
{
  public:
    explicit AuditError(AuditVerdict verdict);

    const AuditVerdict &verdict() const { return verdict_; }

  private:
    AuditVerdict verdict_;
};

/**
 * A registry of invariant checks, run over a simulation's outputs.
 *
 * Construction registers the standard checks selected by the options;
 * registerCheck() appends custom invariants, which run after the
 * standard ones in registration order. A context is immutable once
 * built and may audit many runs (also concurrently).
 */
class AuditContext
{
  public:
    /**
     * One invariant. Inspects the input, appends failures to the
     * verdict, and returns whether it actually ran (false = skipped,
     * e.g. the timing check without a record).
     */
    using CheckFn = std::function<bool(const AuditInput &,
                                       const AuditOptions &,
                                       AuditVerdict &)>;

    explicit AuditContext(AuditOptions options = AuditOptions::full());

    /** Append a custom invariant check. */
    void registerCheck(std::string name, CheckFn check);

    /** Run every registered check over @p input. */
    AuditVerdict run(const AuditInput &input) const;

    const AuditOptions &options() const { return options_; }

    /** Registered checks (standard + custom). */
    std::size_t checkCount() const { return checks_.size(); }

  private:
    AuditOptions options_;
    std::vector<std::pair<std::string, CheckFn>> checks_;
};

} // namespace lergan

#endif // LERGAN_AUDIT_AUDIT_HH
