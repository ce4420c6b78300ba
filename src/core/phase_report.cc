#include "core/phase_report.hh"

#include <algorithm>
#include <iomanip>
#include <map>

#include "critpath/critpath.hh"

namespace lergan {

std::vector<PhaseTime>
phaseTimes(const TaskGraph &graph, const ExecRecord &record)
{
    // Labels classify into the same phase families the critical-path
    // rollups use (taskPhaseOf), so both reports bucket identically.
    std::map<std::string, PhaseTime> families;
    for (TaskId id = 0; id < graph.size(); ++id) {
        const PicoSeconds start = record.start[id];
        const PicoSeconds end = record.end[id];
        PhaseTime &family = families[taskPhaseOf(graph.task(id).label)];
        if (family.tasks == 0) {
            family.firstStart = start;
            family.lastEnd = end;
        } else {
            family.firstStart = std::min(family.firstStart, start);
            family.lastEnd = std::max(family.lastEnd, end);
        }
        family.busy += end - start;
        ++family.tasks;
    }
    std::vector<PhaseTime> result;
    for (auto &[name, family] : families) {
        family.name = name;
        result.push_back(family);
    }
    std::sort(result.begin(), result.end(),
              [](const PhaseTime &a, const PhaseTime &b) {
                  return a.firstStart < b.firstStart;
              });
    return result;
}

void
printPhaseTimes(std::ostream &os, const TaskGraph &graph,
                const ExecRecord &record)
{
    const PicoSeconds makespan = record.makespan;
    os << std::left << std::setw(12) << "phase" << std::right
       << std::setw(12) << "window ms" << std::setw(12) << "busy ms"
       << std::setw(10) << "tasks" << std::setw(14) << "span/iter"
       << '\n';
    for (const PhaseTime &phase : phaseTimes(graph, record)) {
        os << std::left << std::setw(12) << phase.name << std::right
           << std::fixed << std::setprecision(3) << std::setw(12)
           << psToMs(phase.span()) << std::setw(12)
           << psToMs(phase.busy) << std::setw(10) << phase.tasks
           << std::setw(13) << std::setprecision(1)
           << (makespan ? 100.0 * static_cast<double>(phase.span()) /
                              static_cast<double>(makespan)
                        : 0.0)
           << "%" << '\n';
    }
}

} // namespace lergan
