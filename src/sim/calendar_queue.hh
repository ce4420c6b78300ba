/**
 * @file
 * Two-level calendar (ladder) priority queue for discrete-event
 * simulation.
 *
 * The simulator's previous kernel was a binary heap: every push and pop
 * paid O(log n) comparisons plus a sift that moves whole entries. A DES
 * workload is far friendlier than the general case — events cluster
 * near the current time and the queue drains monotonically — which is
 * exactly what a calendar queue exploits:
 *
 *  - "near" holds the events inside the current time window, kept as a
 *    run sorted DESCENDING by (when, seq) so the next event pops off the
 *    back in O(1);
 *  - "far" holds everything beyond the window, completely unsorted, so
 *    scheduling a distant event is an O(1) append.
 *
 * When near drains, the next window is carved out of far: the window
 * width adapts to the observed event density (span / count), the
 * matching entries are swept into near with one partition + sort, and
 * the rest stay unsorted. Each event is therefore touched O(1) times
 * amortized outside of one small sort per window.
 *
 * Determinism contract (same as the old heap): events fire in ascending
 * (when, seq) order, where seq is the schedule order — equal-time
 * events fire exactly in the order they were scheduled. The property
 * test in tests/test_properties.cc drives this queue and the reference
 * binary heap (sim/heap_event_queue.hh) with ~1M randomized operations
 * and asserts identical firing sequences.
 *
 * The queue is a template over the payload type so the task-graph
 * executor stores POD task events directly (no type erasure, no
 * indirect call); the tests drive it with integer tags.
 *
 * Cancellation: scheduleAt returns the event's id; cancel(id) marks it
 * dead in O(1). Dead entries are skipped (and destroyed) at pop time,
 * so cancel never has to search either level.
 */

#ifndef LERGAN_SIM_CALENDAR_QUEUE_HH
#define LERGAN_SIM_CALENDAR_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lergan {
namespace sim {

/** Handle of one scheduled event (its global schedule sequence). */
using EventId = std::uint64_t;

/** Deterministic two-level calendar queue over arbitrary payloads. */
template <typename Payload>
class CalendarQueue
{
  public:
    /** Current simulated time (the when of the last popped event). */
    PicoSeconds now() const { return now_; }

    /** Events scheduled and neither fired nor cancelled. */
    std::size_t pending() const { return live_; }

    bool empty() const { return live_ == 0; }

    /**
     * Schedule @p payload at absolute time @p when.
     *
     * @pre when >= now(); scheduling into the past is a simulator bug.
     * @return the event's id (usable with cancel()).
     */
    EventId
    scheduleAt(PicoSeconds when, Payload payload)
    {
        LERGAN_ASSERT(when >= now_,
                      "event scheduled into the past: ", when, " < ",
                      now_);
        const EventId id = states_.size();
        states_.push_back(State::Pending);
        ++live_;
        Entry entry{when, id, std::move(payload)};
        if (when < windowEnd_) {
            // Ordered insert into the sorted (descending) near run.
            const auto at = std::upper_bound(
                near_.begin(), near_.end(), entry, laterFirst);
            near_.insert(at, std::move(entry));
        } else {
            far_.push_back(std::move(entry));
        }
        return id;
    }

    /**
     * Cancel a pending event in O(1).
     *
     * @return true when @p id was pending (now it never fires); false
     * when it already fired, was already cancelled, or never existed.
     */
    bool
    cancel(EventId id)
    {
        if (id >= states_.size() || states_[id] != State::Pending)
            return false;
        states_[id] = State::Cancelled;
        --live_;
        return true;
    }

    /**
     * Pop the next live event: advances now() to its time and moves its
     * payload into @p out.
     *
     * @return false when the queue is drained (now() unchanged).
     */
    bool
    pop(Payload &out)
    {
        while (true) {
            if (near_.empty() && !advanceWindow())
                return false;
            Entry entry = std::move(near_.back());
            near_.pop_back();
            const State state = states_[entry.seq];
            if (state == State::Cancelled)
                continue; // destroyed with the entry
            states_[entry.seq] = State::Fired;
            --live_;
            now_ = entry.when;
            out = std::move(entry.payload);
            return true;
        }
    }

    /** Drop all pending events and reset time and ids to zero. */
    void
    reset()
    {
        near_.clear();
        far_.clear();
        states_.clear();
        live_ = 0;
        now_ = 0;
        windowEnd_ = 0;
    }

  private:
    struct Entry {
        PicoSeconds when;
        EventId seq;
        Payload payload;
    };

    /** Descending (when, seq): the next event to fire sorts last. */
    static bool
    laterFirst(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    /**
     * Carve the next window out of far: pick a width matched to the
     * observed density, sweep the in-window entries into near (sorted),
     * keep the rest unsorted.
     *
     * @return false when far is empty too (the queue is drained).
     */
    bool
    advanceWindow()
    {
        if (far_.empty())
            return false;
        PicoSeconds lo = far_.front().when;
        PicoSeconds hi = lo;
        for (const Entry &entry : far_) {
            lo = std::min(lo, entry.when);
            hi = std::max(hi, entry.when);
        }
        // Aim for ~kTargetPerWindow events per window; always make
        // progress (width >= 1 guarantees the minimum entry moves).
        const PicoSeconds span = hi - lo + 1;
        const std::size_t windows =
            std::max<std::size_t>(1, far_.size() / kTargetPerWindow);
        const PicoSeconds width =
            std::max<PicoSeconds>(1, span / windows);
        // Unsigned-overflow-safe end of window.
        windowEnd_ = (lo + width < lo) ? hi + 1 : lo + width;

        auto inWindow = [this](const Entry &entry) {
            return entry.when < windowEnd_;
        };
        auto firstKept =
            std::partition(far_.begin(), far_.end(), inWindow);
        near_.reserve(near_.size() +
                      static_cast<std::size_t>(firstKept - far_.begin()));
        for (auto it = far_.begin(); it != firstKept; ++it)
            near_.push_back(std::move(*it));
        far_.erase(far_.begin(), firstKept);
        std::sort(near_.begin(), near_.end(), laterFirst);
        return true;
    }

    static constexpr std::size_t kTargetPerWindow = 32;

    std::vector<Entry> near_; ///< current window, sorted descending
    std::vector<Entry> far_;  ///< beyond the window, unsorted
    /** Lifecycle per event id; ids are dense, so a flat vector. */
    enum class State : std::uint8_t { Pending, Fired, Cancelled };
    std::vector<State> states_;
    std::size_t live_ = 0;
    PicoSeconds now_ = 0;
    PicoSeconds windowEnd_ = 0;
};

} // namespace sim
} // namespace lergan

#endif // LERGAN_SIM_CALENDAR_QUEUE_HH
