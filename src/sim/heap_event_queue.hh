/**
 * @file
 * Reference binary-heap event queue.
 *
 * This is the simulator's original O(log n) kernel, kept as the
 * executable specification of the (when, seq) determinism contract: the
 * property tests in tests/test_properties.cc drive it and the
 * production calendar queue (sim/calendar_queue.hh) through one
 * scenario loop of ~1M randomized schedule/fire/cancel operations and
 * assert identical firing sequences. It therefore has the calendar
 * queue's surface — scheduleAt/cancel/pop(Payload &)/reset over the
 * same payload type — and nothing more. Cancellation works the same
 * way too: a per-id state mark plus a pop-time skip. Lanes only change
 * where the calendar queue keeps an event, never when it fires, so the
 * heap checks the lane precondition and otherwise ignores the lane.
 */

#ifndef LERGAN_SIM_HEAP_EVENT_QUEUE_HH
#define LERGAN_SIM_HEAP_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/calendar_queue.hh"

namespace lergan {
namespace sim {

/** Binary-heap implementation of the deterministic event queue. */
template <typename Payload>
class HeapEventQueue
{
  public:
    PicoSeconds now() const { return now_; }

    /** Events scheduled and neither fired nor cancelled. */
    std::size_t pending() const { return live_; }

    /**
     * Schedule @p payload at absolute time @p when (@pre when >= now()).
     * @return the event's id, usable with cancel().
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
        events_.push_back(Entry{when, id, std::move(payload)});
        std::push_heap(events_.begin(), events_.end(), laterFirst);
        return id;
    }

    /**
     * scheduleAt() on lane @p lane: @pre lane < the count given to
     * reset(), and @p when is no earlier than the lane's last event.
     */
    EventId
    scheduleAt(PicoSeconds when, Payload payload, std::size_t lane)
    {
        LERGAN_ASSERT(lane < laneTails_.size(), "event lane ", lane,
                      " out of range (", laneTails_.size(), " lanes)");
        LERGAN_ASSERT(when >= laneTails_[lane], "event scheduled on lane ",
                      lane, " before the lane's tail: ", when, " < ",
                      laneTails_[lane]);
        laneTails_[lane] = when;
        return scheduleAt(when, std::move(payload));
    }

    /** Cancel a pending event; @return true when it was pending. */
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
     * Pop the next live event into @p out and advance now() to it.
     * @return false when the queue is drained (now() unchanged).
     */
    bool
    pop(Payload &out)
    {
        while (!events_.empty()) {
            std::pop_heap(events_.begin(), events_.end(), laterFirst);
            Entry entry = std::move(events_.back());
            events_.pop_back();
            if (states_[entry.seq] == State::Cancelled)
                continue;
            states_[entry.seq] = State::Fired;
            --live_;
            now_ = entry.when;
            out = std::move(entry.payload);
            return true;
        }
        return false;
    }

    /** Drop all pending events, reset time and ids to zero and provide
     *  @p lanes empty lanes. */
    void
    reset(std::size_t lanes = 0)
    {
        laneTails_.assign(lanes, 0);
        events_.clear();
        states_.clear();
        live_ = 0;
        now_ = 0;
    }

  private:
    struct Entry {
        PicoSeconds when;
        EventId seq;
        Payload payload;
    };

    /** Heap order: the earliest (when, seq) sits on top. */
    static bool
    laterFirst(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    enum class State : std::uint8_t { Pending, Fired, Cancelled };

    std::vector<Entry> events_;
    std::vector<State> states_;
    std::vector<PicoSeconds> laneTails_; ///< latest when per lane
    std::size_t live_ = 0;
    PicoSeconds now_ = 0;
};

} // namespace sim
} // namespace lergan

#endif // LERGAN_SIM_HEAP_EVENT_QUEUE_HH
