#include "audit/audit.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/strings.hh"
#include "core/compiler.hh"
#include "core/machine.hh"
#include "core/report.hh"
#include "core/validate.hh"
#include "sim/exec_record.hh"
#include "sim/task_graph.hh"
#include "zfdr/formulas.hh"
#include "zfdr/reshape.hh"

namespace lergan {

namespace {

/** Relative closeness under the context tolerance. */
bool
near(double a, double b, double tol)
{
    return std::abs(a - b) <=
           tol * std::max({std::abs(a), std::abs(b), 1.0});
}

/** printf-lite failure helper. */
template <typename... Args>
void
fail(AuditVerdict &verdict, const char *check, Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    verdict.fail(check, oss.str());
}

/**
 * The component families of the accelerator's energy accounting. The
 * breakdowns (fig23, the exporters, TrainingReport::print) enumerate
 * exactly these; an `energy.*` key outside them is charged into the
 * total but silently missing from every breakdown.
 */
constexpr const char *kEnergyPrefixFamilies[] = {
    "energy.compute.",
    "energy.comm.",
};
constexpr const char *kEnergyScalarComponents[] = {
    "energy.control",
    "energy.buffer",
    "energy.storage",
    "energy.update",
};

bool
knownEnergyComponent(const std::string &name)
{
    for (const char *prefix : kEnergyPrefixFamilies)
        if (startsWith(name, prefix))
            return true;
    for (const char *scalar : kEnergyScalarComponents)
        if (name == scalar)
            return true;
    return false;
}

/**
 * (a) Energy conservation. Every `energy.*` statistic must be finite,
 * non-negative and claimed by a known component family; the family sum
 * must equal the prefix-summed total; and the total must still match
 * the snapshot the accelerator took when the run finished
 * ("audit.energy_total_pj"), which catches post-run mutation. The
 * scaled "total.energy_mj" aggregate is re-derived too.
 */
bool
checkEnergy(const AuditInput &input, const AuditOptions &options,
            AuditVerdict &verdict)
{
    const StatSet &stats = input.report->stats;
    double family_sum = 0.0;
    for (const auto &[name, value] : stats) {
        if (!startsWith(name, "energy."))
            continue;
        if (!std::isfinite(value)) {
            fail(verdict, "energy", name, " is not finite");
            continue;
        }
        if (value < 0.0)
            fail(verdict, "energy", name, " is negative: ", value);
        if (!knownEnergyComponent(name)) {
            fail(verdict, "energy", name,
                 " belongs to no known component family (breakdowns"
                 " will not account for it)");
            continue;
        }
        family_sum += value;
    }

    const double total = input.report->totalEnergyPj();
    if (!near(family_sum, total, options.relTolerance)) {
        fail(verdict, "energy", "component families sum to ", family_sum,
             " pJ but the energy.* total is ", total, " pJ");
    }
    if (!stats.has("audit.energy_total_pj")) {
        fail(verdict, "energy",
             "missing audit.energy_total_pj snapshot (report did not"
             " come from an accelerator run)");
    } else if (!near(stats.get("audit.energy_total_pj"), total,
                     options.relTolerance)) {
        fail(verdict, "energy", "energy statistics changed after the"
                                " run: snapshot ",
             stats.get("audit.energy_total_pj"), " pJ vs current total ",
             total, " pJ");
    }
    if (stats.has("total.energy_mj")) {
        const double expected =
            pjToMj(total) * stats.get("total.iterations");
        if (!near(stats.get("total.energy_mj"), expected,
                  options.relTolerance)) {
            fail(verdict, "energy", "total.energy_mj is ",
                 stats.get("total.energy_mj"), " but ",
                 stats.get("total.iterations"),
                 " iterations of the per-iteration total give ",
                 expected);
        }
    }
    return true;
}

/**
 * (b) Time consistency. One record entry per task of the executed
 * graph, every interval inside [0, makespan], the last end exactly the
 * event-queue makespan, and the scaled "total.time_ms" aggregate
 * consistent with the iteration time.
 */
bool
checkTiming(const AuditInput &input, const AuditOptions &options,
            AuditVerdict &verdict)
{
    if (input.graph == nullptr || input.record == nullptr)
        return false; // nothing to audit against

    const StatSet &stats = input.report->stats;
    const PicoSeconds makespan = input.report->iterationTime;
    const TaskGraph &graph = *input.graph;
    const ExecRecord &record = *input.record;
    const std::size_t tasks = graph.size();

    if (stats.has("sim.tasks") &&
        stats.get("sim.tasks") != static_cast<double>(tasks)) {
        fail(verdict, "timing", "graph has ", tasks, " tasks for ",
             stats.get("sim.tasks"), " simulated tasks");
    }
    if (record.start.size() != tasks || record.end.size() != tasks) {
        fail(verdict, "timing", "record has ", record.start.size(),
             " starts and ", record.end.size(), " ends for ", tasks,
             " tasks");
        return true; // intervals cannot be matched to tasks
    }

    PicoSeconds last_end = 0;
    for (TaskId id = 0; id < tasks; ++id) {
        const PicoSeconds start = record.start[id];
        const PicoSeconds end = record.end[id];
        if (end < start) {
            fail(verdict, "timing", graph.label(id), " ends (", end,
                 ") before it starts (", start, ")");
        }
        if (end > makespan) {
            fail(verdict, "timing", graph.label(id), " ends at ",
                 end, " ps, after the makespan ", makespan, " ps");
        }
        last_end = std::max(last_end, end);
    }
    if (tasks > 0 && last_end != makespan) {
        fail(verdict, "timing", "last task ends at ", last_end,
             " ps but the event-queue makespan is ", makespan, " ps");
    }

    if (stats.has("total.time_ms")) {
        const double expected =
            input.report->timeMs() * stats.get("total.iterations");
        if (!near(stats.get("total.time_ms"), expected,
                  options.relTolerance)) {
            fail(verdict, "timing", "total.time_ms is ",
                 stats.get("total.time_ms"), " but ",
                 stats.get("total.iterations"),
                 " iterations of the makespan give ", expected);
        }
    }
    return true;
}

/**
 * (c) Zero accounting. For every reshaped op of the compiled model the
 * closed-form class counts (Eq. 11-13) must match direct window
 * enumeration, and the classes must jointly serve every output
 * position. Asymmetrically padded ops are skipped (the paper's closed
 * forms assume symmetry; enumeration is authoritative there).
 */
bool
checkZeros(const AuditInput &input, const AuditOptions &,
           AuditVerdict &verdict)
{
    for (const CompiledPhase &phase : input.compiled->phases) {
        for (const MappedOp &mapped : phase.ops) {
            const LayerOp &op = mapped.op;
            if (!mapped.usesZfdr || !op.zfdrApplicable())
                continue;
            if (op.padLo != op.padHi)
                continue;

            const ReshapeAnalysis analysis = analyzeReshape(op);
            ClassCounts counts;
            if (op.pattern == OpPattern::SparseGridConv) {
                counts = tconvClassCounts(op.data, op.stride, op.padLo,
                                          op.rem, op.spatialDims);
            } else {
                counts = wconvClassCounts(op.data, op.padLo, op.window,
                                          op.stride, op.rem,
                                          op.spatialDims);
            }
            const auto mismatch = [&](const char *cls,
                                      std::uint64_t enumerated,
                                      std::uint64_t formula) {
                if (enumerated != formula) {
                    fail(verdict, "zeros", op.label, ": ", cls,
                         " class enumerates ", enumerated,
                         " matrices but the closed form gives ",
                         formula);
                }
            };
            mismatch("corner", analysis.corner.matrices, counts.corner);
            mismatch("edge", analysis.edge.matrices, counts.edge);
            mismatch("inside", analysis.inside.matrices, counts.inside);

            const std::uint64_t served = analysis.corner.servedPositions +
                                         analysis.edge.servedPositions +
                                         analysis.inside.servedPositions;
            if (served != analysis.totalPositions) {
                fail(verdict, "zeros", op.label,
                     ": reshape classes serve ", served, " of ",
                     analysis.totalPositions, " output positions");
            }
        }
    }
    return true;
}

/** (d) Mapping validity: every validateMapping violation is a finding. */
bool
checkMapping(const AuditInput &input, const AuditOptions &,
             AuditVerdict &verdict)
{
    const ValidationResult result =
        validateMapping(*input.model, *input.config, *input.compiled);
    for (const std::string &violation : result.violations)
        verdict.fail("mapping", violation);
    return true;
}

/**
 * (e) Graceful degradation. A run compiled against a fault map (or a
 * manual failed-tile list) must route around every unusable tile: no
 * allocation range reserves crossbars there, the placement's bank usage
 * is zero there, and — when the executed graph and its record are
 * given — no task ran with a killed tile's compute resource as its
 * first resource. Skipped entirely on healthy runs so their verdicts
 * (and the goldens that pin them) are unchanged.
 */
bool
checkFaults(const AuditInput &input, const AuditOptions &,
            AuditVerdict &verdict)
{
    const FaultImpact &impact = input.compiled->faultImpact;
    const auto &manual = input.config->failedTiles;
    if (!impact.active && manual.empty())
        return false; // healthy run: nothing to audit against

    std::set<std::pair<int, int>> unusable(manual.begin(), manual.end());
    if (impact.active) {
        unusable.insert(impact.unusableTiles.begin(),
                        impact.unusableTiles.end());
    }

    for (const CompiledPhase &phase : input.compiled->phases) {
        for (const MappedOp &mapped : phase.ops) {
            for (const CrossbarRange &range : mapped.allocation.ranges) {
                if (range.count > 0 &&
                    unusable.count({range.bank, range.tile})) {
                    fail(verdict, "faults", mapped.op.label,
                         " reserves ", range.count,
                         " crossbars on unusable tile (bank ", range.bank,
                         ", tile ", range.tile, ")");
                }
            }
        }
    }

    const auto &usage = input.compiled->bankUsage;
    for (const auto &[bank, tile] : unusable) {
        if (bank < 0 || tile < 0 ||
            static_cast<std::size_t>(bank) >= usage.size() ||
            static_cast<std::size_t>(tile) >= usage[bank].size()) {
            fail(verdict, "faults", "unusable tile (bank ", bank,
                 ", tile ", tile, ") is outside the machine");
            continue;
        }
        if (usage[bank][tile] != 0) {
            fail(verdict, "faults", "killed tile (bank ", bank,
                 ", tile ", tile, ") still holds ", usage[bank][tile],
                 " crossbars of placement");
        }
    }

    if (input.graph != nullptr && input.record != nullptr) {
        // Re-derive the resource ids of the killed tiles' compute
        // pipelines from a fresh machine of the same config and make
        // sure no executed task ran on one.
        const Machine machine(*input.config);
        std::set<std::size_t> dead;
        for (const auto &[bank, tile] : unusable) {
            if (bank >= 0 && tile >= 0 && bank < 6 * input.config->cuPairs &&
                tile < input.config->reram.tilesPerBank)
                dead.insert(machine.tileComputeRes(bank, tile));
        }
        const TaskGraph &graph = *input.graph;
        for (TaskId id = 0; id < graph.size(); ++id) {
            const auto resources = graph.resources(id);
            if (!resources.empty() && dead.count(resources.front())) {
                fail(verdict, "faults", graph.label(id),
                     " executed on the compute resource of a killed"
                     " tile (resource ",
                     resources.front(), ")");
            }
        }
    }
    return true;
}

} // namespace

std::string
AuditVerdict::summary() const
{
    if (ok()) {
        return "ok (" + std::to_string(checksRun) + " check" +
               (checksRun == 1 ? "" : "s") + ")";
    }
    std::string out;
    for (const AuditFinding &finding : failures) {
        if (!out.empty())
            out += "; ";
        out += finding.check + ": " + finding.detail;
    }
    return out;
}

AuditError::AuditError(AuditVerdict verdict)
    : std::runtime_error("audit failed: " + verdict.summary()),
      verdict_(std::move(verdict))
{
}

AuditContext::AuditContext(AuditOptions options)
    : options_(std::move(options))
{
    if (options_.energy)
        checks_.emplace_back("energy", checkEnergy);
    if (options_.timing)
        checks_.emplace_back("timing", checkTiming);
    if (options_.zeros)
        checks_.emplace_back("zeros", checkZeros);
    if (options_.mapping)
        checks_.emplace_back("mapping", checkMapping);
    if (options_.faults)
        checks_.emplace_back("faults", checkFaults);
}

void
AuditContext::registerCheck(std::string name, CheckFn check)
{
    checks_.emplace_back(std::move(name), std::move(check));
}

AuditVerdict
AuditContext::run(const AuditInput &input) const
{
    AuditVerdict verdict;
    verdict.ran = true;
    for (const auto &[name, check] : checks_) {
        if (check(input, options_, verdict))
            ++verdict.checksRun;
    }
    return verdict;
}

} // namespace lergan
