#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ditto::sim {

EventQueue::EventQueue() : wheel_(std::make_unique<WheelState>())
{
}

EventId
EventQueue::makeEvent(Callback cb)
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        assert(slots_.size() < kSlotMask && "too many pending events");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }

    Slot &s = slots_[slot];
    s.seq = nextSeq_++;
    s.pending = true;
    s.cb = std::move(cb);
    ++liveEvents_;
    return (s.seq << kSlotBits) | slot;
}

EventQueue::Callback
EventQueue::takeCallback(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
    // Move the callback out and free the slot *before* invoking: the
    // callback may schedule new events, which can recycle the slot or
    // grow the pool.
    Callback cb = std::move(slots_[slot].cb);
    slots_[slot].pending = false;
    freeSlots_.push_back(slot);
    --liveEvents_;
    return cb;
}

EventId
EventQueue::scheduleAt(Time when, Callback cb)
{
    assert(cb && "scheduling a null callback");
    const Time effective = std::max(when, now_);
    const EventId id = makeEvent(std::move(cb));
    wheelInsert(effective, id);
    return id;
}

EventId
EventQueue::scheduleAfter(Time delay, Callback cb)
{
    return scheduleAt(now_ + delay, std::move(cb));
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
    if (slot >= slots_.size())
        return false;
    Slot &s = slots_[slot];
    if (!s.pending || s.seq != (id >> kSlotBits))
        return false;  // already fired, already cancelled, or bogus id
    s.pending = false;
    s.cb.reset();  // release captured resources immediately
    freeSlots_.push_back(slot);
    --liveEvents_;
    // The wheel slot (or far heap) still holds a stale item for this id;
    // it is recognised (sequence mismatch / non-pending slot) and
    // dropped during compaction, cascade, or pop.
    return true;
}

bool
EventQueue::isLive(EventId id) const
{
    const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
    const Slot &s = slots_[slot];
    return s.pending && s.seq == (id >> kSlotBits);
}

// ---- wheel internals ------------------------------------------------

void
EventQueue::wheelSetBit(unsigned level, unsigned idx)
{
    wheel_->occupied[level][idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void
EventQueue::wheelClearBit(unsigned level, unsigned idx)
{
    wheel_->occupied[level][idx >> 6] &=
        ~(std::uint64_t{1} << (idx & 63));
}

unsigned
EventQueue::wheelFirstOccupied(unsigned level) const
{
    const std::uint64_t *words = wheel_->occupied[level];
    for (unsigned w = 0; w < kWheelSlots / 64; ++w) {
        if (words[w] != 0) {
            return w * 64 +
                static_cast<unsigned>(std::countr_zero(words[w]));
        }
    }
    return kWheelSlots;
}

void
EventQueue::wheelInsert(Time when, EventId id)
{
    WheelState &w = *wheel_;
    assert(when >= w.cursor && "insert behind the cascade cursor");
    for (unsigned level = 0; level < kWheelLevels; ++level) {
        const unsigned spanBits = kWheelBits * (level + 1);
        const Time span = Time{1} << spanBits;
        const Time windowStart = w.cursor & ~(span - 1);
        if (when - windowStart < span) {
            const auto idx = static_cast<unsigned>(
                (when >> (kWheelBits * level)) & kWheelSlotMask);
            w.slots[level][idx].push_back(QueueItem{when, id});
            wheelSetBit(level, idx);
            return;
        }
    }
    w.far.push(QueueItem{when, id});
}

bool
EventQueue::wheelCompactSlot(unsigned level, unsigned idx)
{
    std::vector<QueueItem> &slot = wheel_->slots[level][idx];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
        if (isLive(slot[i].id))
            slot[kept++] = slot[i];
    }
    slot.resize(kept);
    if (kept == 0) {
        wheelClearBit(level, idx);
        return false;
    }
    return true;
}

Time
EventQueue::wheelNextLiveTime(Time bound)
{
    WheelState &w = *wheel_;
    constexpr Time kEpochSpan = Time{1}
        << (kWheelBits * kWheelLevels);  // 2^32 ns

    for (;;) {
        // Level 0: the lowest occupied slot with a survivor holds the
        // earliest live timestamp (live L0 items all sit in the
        // cursor's 256ns window, so slot index order is time order;
        // lower-index slots can only contain cancelled leftovers from
        // earlier windows, which compaction drops).
        const unsigned idx0 = wheelFirstOccupied(0);
        if (idx0 < kWheelSlots) {
            if (!wheelCompactSlot(0, idx0))
                continue;
            return w.slots[0][idx0].front().when;
        }

        // Cascade the earliest occupied slot of the shallowest
        // non-empty level, but never advance the cursor past `bound`:
        // a later runUntil() only moves now() to its limit, and new
        // events clamp to now(), so the cursor must not outrun it.
        unsigned level = 1;
        unsigned idx = kWheelSlots;
        while (level < kWheelLevels &&
               (idx = wheelFirstOccupied(level)) >= kWheelSlots) {
            ++level;
        }
        if (level < kWheelLevels) {
            if (!wheelCompactSlot(level, idx))
                continue;
            const Time slotWidth = Time{1} << (kWheelBits * level);
            const Time span = slotWidth << kWheelBits;
            const Time windowStart = w.cursor & ~(span - 1);
            const Time slotStart = windowStart + idx * slotWidth;
            if (slotStart > bound)
                return kTimeNever;
            assert(slotStart >= w.cursor);
            w.cursor = slotStart;
            // Re-place the slot's items; each lands at a strictly
            // shallower level because its timestamp is within one
            // level-(k-1) span of the new cursor.
            std::vector<QueueItem> items =
                std::move(w.slots[level][idx]);
            w.slots[level][idx].clear();
            wheelClearBit(level, idx);
            for (const QueueItem &item : items)
                wheelInsert(item.when, item.id);
            continue;
        }

        // Whole wheel empty: pull the next live epoch from the far
        // heap. Far items are >= one full top-level span ahead of the
        // cursor (any epoch the cursor entered was drained into the
        // wheel at entry), so the wheel-first drain order is exact.
        while (!w.far.empty() && !isLive(w.far.top().id))
            w.far.pop();
        if (w.far.empty())
            return kTimeNever;
        const Time t = w.far.top().when;
        if (t > bound)
            return kTimeNever;
        w.cursor = std::max(w.cursor, t & ~(kEpochSpan - 1));
        const Time epochEnd =
            (w.cursor & ~(kEpochSpan - 1)) + kEpochSpan;
        while (!w.far.empty() && w.far.top().when < epochEnd) {
            const QueueItem item = w.far.top();
            w.far.pop();
            if (isLive(item.id))
                wheelInsert(item.when, item.id);
        }
    }
}

EventQueue::QueueItem
EventQueue::wheelPopFront()
{
    WheelState &w = *wheel_;
    const unsigned idx = wheelFirstOccupied(0);
    assert(idx < kWheelSlots && "pop from an empty wheel");
    std::vector<QueueItem> &slot = w.slots[0][idx];
    // One L0 slot holds exactly one timestamp, so FIFO among equals
    // is the minimum id (sequence dominates the id's high bits).
    std::size_t best = 0;
    for (std::size_t i = 1; i < slot.size(); ++i) {
        assert(slot[i].when == slot[best].when);
        if (slot[i].id < slot[best].id)
            best = i;
    }
    const QueueItem item = slot[best];
    slot[best] = slot.back();
    slot.pop_back();
    if (slot.empty())
        wheelClearBit(0, idx);
    return item;
}

// ---- execution ------------------------------------------------------

bool
EventQueue::runOne()
{
    if (wheelNextLiveTime(kTimeNever) == kTimeNever)
        return false;
    const QueueItem item = wheelPopFront();
    assert(item.when >= now_ && "time went backwards");
    now_ = item.when;
    Callback cb = takeCallback(item.id);
    ++executed_;
    cb();
    return true;
}

std::uint64_t
EventQueue::runUntil(Time limit)
{
    std::uint64_t count = 0;
    for (;;) {
        const Time next = wheelNextLiveTime(limit);
        if (next == kTimeNever || next > limit)
            break;
        if (!runOne())
            break;
        ++count;
    }
    // Even if no event fired at `limit`, the caller observed that much
    // simulated time pass.
    now_ = std::max(now_, limit);
    return count;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t count = 0;
    while (runOne())
        ++count;
    return count;
}

} // namespace ditto::sim
