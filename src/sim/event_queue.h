/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue.
 *
 * Events scheduled at the same timestamp fire in insertion order
 * (stable FIFO tie-break via a monotonically increasing sequence
 * number), which keeps simulations deterministic.
 *
 * Hot-path design: callbacks live in a recycled slot pool indexed by
 * the low bits of the id. Cancellation just invalidates the slot in
 * O(1) -- the stale queue item is recognised (sequence mismatch or
 * non-pending slot) and dropped when it surfaces. Slot reuse is
 * ABA-safe because the sequence number in the id's high bits is never
 * reused.
 *
 * Timers are ordered as 16-byte POD items {when, id} in a
 * hierarchical timing wheel: 4 levels of 256 slots at 1ns resolution
 * (spans 256ns / 64us / 16.7ms / 4.29s ahead of the cascade cursor),
 * with a min-heap holding the far overflow (> 2^32 ns ahead). Schedule
 * and cancel are O(1); dispatch walks per-level occupancy bitmaps and
 * cascades one slot at a time, so cost per event is O(1) amortised and
 * independent of the pending population. Live items execute in exactly
 * (when, sequence) order, the order a binary heap would give (asserted
 * against a heap oracle by the differential tests in
 * tests/test_sim.cc).
 */

#ifndef DITTO_SIM_EVENT_QUEUE_H_
#define DITTO_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace ditto::sim {

/**
 * Opaque handle used to cancel a scheduled event.
 * Packs (sequence << kSlotBits | slot); sequence order == schedule
 * order, so comparing ids preserves the FIFO tie-break.
 */
using EventId = std::uint64_t;

/**
 * Time-ordered queue of callbacks driving the simulation.
 *
 * The queue owns the simulated clock: now() advances only when an
 * event is popped, never backwards.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /** Schedule a callback at an absolute timestamp (>= now). */
    EventId scheduleAt(Time when, Callback cb);

    /** Schedule a callback after a relative delay from now. */
    EventId scheduleAfter(Time delay, Callback cb);

    /**
     * Cancel a previously scheduled event. O(1).
     * @retval true if the event was pending and is now cancelled;
     *         false for ids that already fired or were cancelled.
     */
    bool cancel(EventId id);

    /** True when no runnable events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return liveEvents_; }

    /**
     * Pop and run the next event.
     * @retval false when the queue was empty and nothing ran.
     */
    bool runOne();

    /**
     * Run events until the queue drains or the clock passes `limit`.
     * Events stamped exactly at `limit` still run.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Time limit);

    /** Run all events to exhaustion. @return number executed. */
    std::uint64_t runAll();

    /** Total number of events ever executed. */
    std::uint64_t executedCount() const { return executed_; }

  private:
    /** Low bits of an EventId address the slot pool (<= 16M pending). */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;

    /** 16-byte POD ordering item. */
    struct QueueItem
    {
        Time when;
        EventId id;

        bool
        operator>(const QueueItem &other) const
        {
            if (when != other.when)
                return when > other.when;
            return id > other.id;  // sequence dominates -> FIFO
        }
    };

    /** Pooled callback storage; recycled via freeSlots_. */
    struct Slot
    {
        Callback cb;
        std::uint64_t seq = 0;
        bool pending = false;
    };

    // ---- hierarchical timing wheel ----------------------------------
    //
    // Level k slots are 2^(8k) ns wide; level k spans 2^(8(k+1)) ns.
    // A live item sits at the deepest level whose current window
    // (relative to cursor_) contains its timestamp, at slot index
    // (when >> 8k) & 255 -- for level 0 that means one slot holds
    // exactly one timestamp, so the FIFO tie-break reduces to a
    // min-sequence scan of a single slot. Items further than 2^32 ns
    // ahead of the cursor wait in the far_ min-heap and are pulled
    // into the wheel when the cursor enters their 2^32 ns epoch.
    // cursor_ <= every live timestamp; it advances only toward a live
    // item that is about to execute (or to a cascade boundary at or
    // below the caller's runUntil limit), which keeps insertion
    // windows consistent with the clamp-to-now() rule for new events.
    static constexpr unsigned kWheelLevels = 4;
    static constexpr unsigned kWheelBits = 8;
    static constexpr unsigned kWheelSlots = 1u << kWheelBits;  // 256
    static constexpr std::uint64_t kWheelSlotMask = kWheelSlots - 1;

    struct WheelState
    {
        /** wheel[level][index]: items awaiting cascade/dispatch. */
        std::vector<QueueItem> slots[kWheelLevels][kWheelSlots];
        /** 256-bit occupancy bitmap per level (4 x u64). */
        std::uint64_t occupied[kWheelLevels][kWheelSlots / 64] = {};
        /** Overflow: items >= 2^32 ns ahead of cursor. */
        std::priority_queue<QueueItem, std::vector<QueueItem>,
                            std::greater<>>
            far;
        /** Cascade position; <= every live timestamp. */
        Time cursor = 0;
    };

    std::unique_ptr<WheelState> wheel_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    Time now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::size_t liveEvents_ = 0;
    std::uint64_t executed_ = 0;

    /** True when the queue item still references a live slot. */
    bool isLive(EventId id) const;

    /** Allocate a pool slot and build the id for a new event. */
    EventId makeEvent(Callback cb);

    /** Move the callback out of `id`'s slot and retire the slot. */
    Callback takeCallback(EventId id);

    // ---- wheel internals --------------------------------------------
    void wheelInsert(Time when, EventId id);
    void wheelSetBit(unsigned level, unsigned idx);
    void wheelClearBit(unsigned level, unsigned idx);
    /** Lowest occupied slot index of `level`, or kWheelSlots. */
    unsigned wheelFirstOccupied(unsigned level) const;
    /**
     * Drop dead items from wheel_->slots[level][idx]; returns false
     * (and clears the occupancy bit) when the slot came up empty.
     */
    bool wheelCompactSlot(unsigned level, unsigned idx);
    /**
     * Timestamp of the next live event, advancing the cascade cursor
     * no further than `bound`; kTimeNever when none exists at or
     * below `bound` (the cursor then stays put, so later insertions
     * clamped to now() remain >= cursor).
     */
    Time wheelNextLiveTime(Time bound);
    /** Pop the (when, min-seq) live item of the earliest L0 slot. */
    QueueItem wheelPopFront();
};

} // namespace ditto::sim

#endif // DITTO_SIM_EVENT_QUEUE_H_
