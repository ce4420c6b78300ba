/**
 * @file
 * What-if makespan estimation over a recorded execution.
 *
 * A recorded run fixes the complete timing graph of one simulation:
 * dependency edges plus, for every resource, the order reservations
 * were granted in. Replaying that graph with transformed task durations
 * (or extra resource copies) gives an analytic makespan estimate in one
 * linear pass — no event queue, no resimulation. With the identity
 * transform the replay reproduces the recorded makespan bit-exactly,
 * because the replay recurrence
 *
 *     end(t) = max(max_deps end(d), max_res end(prev holder)) + dur(t)
 *
 * is precisely how the executor computed each start time.
 *
 * Each estimate comes with bounds on the *true* (resimulated) makespan
 * under the transform:
 *
 *   - lower: max of the longest dependency-only chain and every
 *     resource's total work divided by its copy count. Provably sound:
 *     any schedule respects dependencies, and a resource with c copies
 *     can retire at most c seconds of work per second.
 *   - upper: the executor's own greedy policy re-run on the transformed
 *     graph by a lean event-loop mirror (same (time, seq) event order,
 *     no pool/stats/trace machinery). For transforms that keep every
 *     copy count at one the mirror's schedule is decision-for-decision
 *     the resimulated one, so lower <= true <= upper holds by
 *     construction; extra copies generalize the mirror to c
 *     interchangeable FIFO units per resource.
 *
 * The fixed-grant-order replay is deliberately NOT used as the upper
 * bound: resimulation re-orders grants where the transform changes
 * release times, and classic list-scheduling anomalies push the true
 * makespan above the fixed-order replay on a sizable fraction of
 * graphs (measured: up to ~15% on seeded random DAGs). The replay is
 * the instant estimate; the mirror is the bound.
 *
 * The mirror is a second full event loop, so it costs about as much as
 * the simulation it mirrors. That is why no sweep uses it to skip
 * simulating a point: the bounds exist to judge a what-if, not to
 * replace the executor.
 */

#ifndef LERGAN_CRITPATH_WHATIF_HH
#define LERGAN_CRITPATH_WHATIF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "critpath/critpath.hh"

namespace lergan {

/**
 * A transform of the recorded run: per-task durations and/or per-
 * resource copy counts. Empty vectors mean "unchanged".
 */
struct WhatIfTransform {
    /** Human-readable description ("wire throughput x2"). */
    std::string description;
    /** New duration per TaskId; empty = recorded durations. */
    std::vector<PicoSeconds> durations;
    /** Copies per resource id (>= 1); empty = one of each. */
    std::vector<std::uint32_t> copies;
};

/** Analytic estimate of the transformed run's makespan. */
struct WhatIfEstimate {
    /** Fixed-grant-order replay makespan (one linear pass, no event
     *  queue; exact for the identity transform). */
    PicoSeconds makespan = 0;
    /** Sound lower bound on the resimulated makespan. */
    PicoSeconds lower = 0;
    /** Upper bound from the executor-mirror reschedule; equals the
     *  resimulated makespan when copy counts are unchanged. */
    PicoSeconds upper = 0;
};

/** The do-nothing transform; whatIf() on it returns the recorded
 *  makespan exactly. */
WhatIfTransform identityTransform(const RecordedRun &run);

/**
 * Scale the duration of every task in phase family @p phase (see
 * taskPhaseOf) by @p scale. scale < 1 shrinks the phase.
 */
WhatIfTransform scalePhase(const RecordedRun &run,
                           const std::string &phase, double scale);

/**
 * Divide the duration of every task holding a resource of category
 * @p category (see resourceCategoryOf) by @p throughput_scale — e.g.
 * 2.0 models wires twice as fast.
 */
WhatIfTransform scaleResourceCategory(const RecordedRun &run,
                                      const std::string &category,
                                      double throughput_scale);

/**
 * Give every resource of category @p category @p copies
 * interchangeable copies (e.g. duplicate the tile class a congested
 * crossbar belongs to). Durations are unchanged; the replay lets
 * @p copies reservations overlap per resource.
 */
WhatIfTransform duplicateResourceCategory(const RecordedRun &run,
                                          const std::string &category,
                                          std::uint32_t copies);

/** Replay the recorded timing graph under @p transform. */
WhatIfEstimate whatIf(const RecordedRun &run,
                      const WhatIfTransform &transform);

} // namespace lergan

#endif // LERGAN_CRITPATH_WHATIF_HH
