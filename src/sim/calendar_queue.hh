/**
 * @file
 * Calendar (ladder) priority queue for discrete-event simulation.
 *
 * A plain binary heap pays O(log n) comparisons plus a sift that moves
 * whole entries on every push and pop. A DES workload is friendlier
 * than the general case: events cluster at and near the current time,
 * the queue drains monotonically, and most future events complete work
 * on a resource that serves its reservations in order. The queue has
 * three levels plus lanes:
 *
 *  - "current" is a FIFO of events scheduled at the current instant
 *    now(). A freshly scheduled event has the largest seq ever issued,
 *    so at now() it fires after every pending event there: appending
 *    keeps (when, seq) order at O(1), however many events one firing
 *    releases at its own instant (a barrier with thousands of
 *    successors);
 *  - "near" holds the other events inside the current time window,
 *    kept as a run sorted DESCENDING by (when, seq) so the next event
 *    pops off the back in O(1);
 *  - "far" holds everything beyond the window as a binary min-heap on
 *    (when, seq), so scheduling a distant event costs O(log n) and the
 *    earliest far event is always at the top.
 *
 * While the FIFO holds events, pop() takes near's back only when it is
 * at now() with a smaller seq than the FIFO's front (an older event due
 * at the same instant), else the FIFO's front, so time advances only
 * once the FIFO is empty. When near
 * drains, the next window is carved off the top of far: the window
 * width adapts to the observed event density (span / count, with the
 * span read from the heap top and a running maximum, so no scan), and
 * the in-window entries are popped off the heap in ascending order
 * straight into near.
 *
 * Lanes: reset(lanes) provides lanes 0..lanes-1, and
 * scheduleAt(when, payload, lane) puts an event on one. Within a lane,
 * when never decreases (asserted), so the lane is already a sorted run
 * in (when, seq) order: only its earliest event sits in the calendar,
 * the rest wait in the lane's FIFO. Popping a lane's head, or skipping
 * it because it was cancelled, promotes the lane's next event with the
 * seq it got when it was scheduled, into near or far. That is a k-way
 * merge of sorted runs, so the firing order is exactly the unlaned one,
 * while near and far hold one entry per busy lane instead of every
 * future event. The executor schedules each completion on the lane of
 * the task's first resource, whose FIFO reservations end in schedule
 * order, so calendar depth tracks the resource count, not the batch.
 * A lane's FIFO is a ring sized by the lane's peak occupancy, not by
 * everything the lane ever carried.
 *
 * pending() counts every live event: FIFO, near, far and lane-buffered
 * ones alike.
 *
 * Determinism contract (same as the reference heap): events fire in
 * ascending (when, seq) order, where seq is the schedule order —
 * equal-time events fire exactly in the order they were scheduled. The
 * property tests in tests/test_properties.cc drive this queue and the
 * reference binary heap (sim/heap_event_queue.hh) through the same
 * ~1M randomized operations, including a 1<<17-deep preload, laned
 * scenarios and an 8,192-event fan-out at one instant, and assert
 * identical firing sequences.
 *
 * The queue is a template over the payload type so the task-graph
 * executor stores POD task events directly (no type erasure, no
 * indirect call); the tests drive it with integer tags.
 *
 * Cancellation: scheduleAt returns the event's id; cancel(id) marks it
 * dead in O(1). Dead entries are skipped (and destroyed) at pop time,
 * so cancel never has to search any level or lane.
 */

#ifndef LERGAN_SIM_CALENDAR_QUEUE_HH
#define LERGAN_SIM_CALENDAR_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lergan {
namespace sim {

/** Handle of one scheduled event (its global schedule sequence). */
using EventId = std::uint64_t;

/** Deterministic calendar queue over arbitrary payloads. */
template <typename Payload>
class CalendarQueue
{
  public:
    /** Current simulated time (the when of the last popped event). */
    PicoSeconds now() const { return now_; }

    /** Events scheduled and neither fired nor cancelled, lane-buffered
     *  ones included. */
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
        const EventId id = newId(when);
        enqueue(Entry{when, keyOf(id, kNoLane), std::move(payload)});
        return id;
    }

    /**
     * Schedule @p payload at @p when on lane @p lane (see the file
     * comment): only the lane's earliest event is in the calendar, the
     * rest wait in the lane's FIFO.
     *
     * @pre lane < the count given to reset(), and @p when is no earlier
     * than any event scheduled on the lane before.
     * @return the event's id (usable with cancel()).
     */
    EventId
    scheduleAt(PicoSeconds when, Payload payload, std::size_t lane)
    {
        LERGAN_ASSERT(lane < lanes_.size(), "event lane ", lane,
                      " out of range (", lanes_.size(), " lanes)");
        Lane &l = lanes_[lane];
        LERGAN_ASSERT(when >= l.tail, "event scheduled on lane ", lane,
                      " before the lane's tail: ", when, " < ", l.tail);
        l.tail = when;
        const EventId id = newId(when);
        Entry entry{when, keyOf(id, lane), std::move(payload)};
        if (l.queued) {
            l.waiting.push_back(std::move(entry));
        } else {
            l.queued = true;
            enqueue(std::move(entry));
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
        // Some level holds a live event whenever live_ is nonzero: a
        // lane with waiting events always has its head in the calendar.
        while (live_ != 0) {
            Entry entry = takeNext();
            const std::uint64_t lane = entry.key & kNoLane;
            if (lane != kNoLane)
                promote(lane);
            const EventId seq = entry.key >> kLaneBits;
            if (states_[seq] == State::Cancelled)
                continue; // destroyed with the entry
            states_[seq] = State::Fired;
            --live_;
            now_ = entry.when;
            out = std::move(entry.payload);
            return true;
        }
        return false;
    }

    /** Drop all pending events, reset time and ids to zero and provide
     *  @p lanes empty lanes (0..lanes-1) for the lane scheduleAt. */
    void
    reset(std::size_t lanes = 0)
    {
        LERGAN_ASSERT(lanes < kNoLane, "too many event lanes: ", lanes);
        near_.clear();
        far_.clear();
        current_.clear();
        head_ = 0;
        // Lanes keep their buffers' capacity across resets.
        lanes_.resize(lanes);
        for (Lane &l : lanes_) {
            l.waiting.clear();
            l.tail = 0;
            l.queued = false;
        }
        states_.clear();
        live_ = 0;
        now_ = 0;
        windowEnd_ = 0;
        farHi_ = 0;
    }

  private:
    /**
     * An entry's key packs its seq above its lane (kNoLane when
     * unlaned). Seqs are unique, so keys order exactly as seqs do, and
     * the lane costs the entry no space. 40 bits of seq outlast any
     * run: their states alone would take a terabyte.
     */
    static constexpr unsigned kLaneBits = 24;
    static constexpr std::uint64_t kNoLane =
        (std::uint64_t{1} << kLaneBits) - 1;

    static std::uint64_t
    keyOf(EventId seq, std::uint64_t lane)
    {
        return seq << kLaneBits | lane;
    }

    struct Entry {
        PicoSeconds when;
        std::uint64_t key; ///< seq << kLaneBits | lane
        Payload payload;
    };

    /**
     * FIFO of one lane's events behind its head (the head is in the
     * calendar): a ring whose capacity is a power of two that doubles
     * when full, so it holds under twice the lane's peak occupancy
     * rather than every event the lane ever carried.
     */
    struct LaneFifo {
        std::vector<Entry> ring; ///< size zero or a power of two
        std::size_t head = 0;
        std::size_t count = 0;

        bool empty() const { return count == 0; }

        void
        push_back(Entry entry)
        {
            if (count == ring.size())
                grow();
            ring[(head + count) & (ring.size() - 1)] = std::move(entry);
            ++count;
        }

        Entry
        pop_front()
        {
            Entry entry = std::move(ring[head]);
            head = (head + 1) & (ring.size() - 1);
            --count;
            return entry;
        }

        void
        grow()
        {
            std::vector<Entry> bigger(
                std::max<std::size_t>(8, 2 * ring.size()));
            for (std::size_t i = 0; i < count; ++i)
                bigger[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
            ring = std::move(bigger);
            head = 0;
        }

        void
        clear()
        {
            head = 0;
            count = 0;
        }
    };

    struct Lane {
        LaneFifo waiting;
        PicoSeconds tail = 0; ///< latest when scheduled on the lane
        bool queued = false;  ///< the lane's head is in the calendar
    };

    /**
     * Descending (when, seq): the next event to fire sorts last. A
     * function object rather than a function, so the heap algorithms
     * inline it instead of calling through a pointer.
     */
    static constexpr struct {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.key > b.key;
        }
    } laterFirst{};

    /** Check @p when and allocate the next event id. */
    EventId
    newId(PicoSeconds when)
    {
        LERGAN_ASSERT(when >= now_,
                      "event scheduled into the past: ", when, " < ",
                      now_);
        const EventId id = states_.size();
        states_.push_back(State::Pending);
        ++live_;
        return id;
    }

    /**
     * Place a freshly scheduled entry. Its seq is the largest ever
     * issued, so at now() it fires after every pending event there:
     * appending to the at-instant FIFO keeps (when, seq) order.
     */
    void
    enqueue(Entry entry)
    {
        if (entry.when == now_)
            current_.push_back(std::move(entry));
        else
            place(std::move(entry));
    }

    /** Insert into near (inside the window) or far (beyond it). */
    void
    place(Entry entry)
    {
        if (entry.when < windowEnd_) {
            // Ordered insert into the sorted (descending) near run.
            const auto at = std::upper_bound(
                near_.begin(), near_.end(), entry, laterFirst);
            near_.insert(at, std::move(entry));
        } else {
            farHi_ = std::max(farHi_, entry.when);
            far_.push_back(std::move(entry));
            std::push_heap(far_.begin(), far_.end(), laterFirst);
        }
    }

    /** Move @p lane's next waiting entry, with its original seq, into
     *  the calendar; the lane goes idle when none waits. */
    void
    promote(std::uint64_t lane)
    {
        Lane &l = lanes_[lane];
        if (l.waiting.empty())
            l.queued = false;
        else
            place(l.waiting.pop_front());
    }

    /** Remove the earliest entry, live or dead. @pre one exists. */
    Entry
    takeNext()
    {
        if (head_ != current_.size() && !calendarDueFirst()) {
            Entry entry = std::move(current_[head_++]);
            if (head_ == current_.size()) {
                current_.clear();
                head_ = 0;
            }
            return entry;
        }
        if (near_.empty())
            advanceWindow();
        Entry entry = std::move(near_.back());
        near_.pop_back();
        return entry;
    }

    /**
     * With the at-instant FIFO non-empty: whether near or far holds an
     * event at now() with a smaller seq than the FIFO's front (one
     * scheduled before time reached now(), or a lane entry promoted
     * since). Only before the first window can such an event sit in
     * far; it is carved into near first.
     */
    bool
    calendarDueFirst()
    {
        if (near_.empty()) {
            if (far_.empty() || far_.front().when != now_)
                return false;
            advanceWindow();
        }
        return near_.back().when == now_ &&
               near_.back().key < current_[head_].key;
    }

    /**
     * Carve the next window off the far heap: pick a width matched to
     * the observed density, then pop the in-window entries into near
     * (empty here) and reverse them into descending order.
     *
     * @pre near is empty and far is not.
     */
    void
    advanceWindow()
    {
        const PicoSeconds lo = far_.front().when;
        const PicoSeconds hi = farHi_;
        // Aim for ~kTargetPerWindow events per window; always make
        // progress (width >= 1 guarantees the minimum entry moves).
        const PicoSeconds span = hi - lo + 1;
        const std::size_t windows =
            std::max<std::size_t>(1, far_.size() / kTargetPerWindow);
        const PicoSeconds width =
            std::max<PicoSeconds>(1, span / windows);
        // Unsigned-overflow-safe end of window.
        windowEnd_ = (lo + width < lo) ? hi + 1 : lo + width;

        while (!far_.empty() && far_.front().when < windowEnd_) {
            std::pop_heap(far_.begin(), far_.end(), laterFirst);
            near_.push_back(std::move(far_.back()));
            far_.pop_back();
        }
        std::reverse(near_.begin(), near_.end());
        // Entries leave far in ascending order, so the running maximum
        // stays exact until far empties.
        if (far_.empty())
            farHi_ = 0;
    }

    static constexpr std::size_t kTargetPerWindow = 32;

    std::vector<Entry> near_; ///< current window, sorted descending
    /** Beyond the window: a heap whose top is the earliest entry. */
    std::vector<Entry> far_;
    /** Fresh events at now(), in seq order; read from head_. */
    std::vector<Entry> current_;
    std::size_t head_ = 0;
    std::vector<Lane> lanes_;
    /** Lifecycle per event id; ids are dense, so a flat vector. */
    enum class State : std::uint8_t { Pending, Fired, Cancelled };
    std::vector<State> states_;
    std::size_t live_ = 0;
    PicoSeconds now_ = 0;
    PicoSeconds windowEnd_ = 0;
    PicoSeconds farHi_ = 0; ///< latest when in far (0 when far is empty)
};

} // namespace sim
} // namespace lergan

#endif // LERGAN_SIM_CALENDAR_QUEUE_HH
