#include "os/scheduler.h"

#include <algorithm>
#include <cassert>

#include "os/kernel.h"
#include "os/kernel_code.h"
#include "os/machine.h"

namespace ditto::os {

Scheduler::Scheduler(Machine &machine, sim::EventQueue &events)
    : machine_(machine), events_(events)
{
}

Thread *
Scheduler::add(std::unique_ptr<Thread> thread)
{
    if (slots_.empty())
        slots_.resize(machine_.coreCount());
    Thread *t = thread.get();
    threads_.push_back(std::move(thread));
    t->setState(Thread::State::Blocked);
    wake(t);
    return t;
}

void
Scheduler::wake(Thread *t)
{
    ++stats_.wakeups;
    switch (t->state()) {
      case Thread::State::Running:
        // Woken while (conceptually) deciding to block mid-slice:
        // resolve at slice end.
        t->setWakePending(true);
        return;
      case Thread::State::Ready:
        return;  // already queued
      case Thread::State::Zombie:
        return;
      case Thread::State::Created:
      case Thread::State::Blocked:
        t->setState(Thread::State::Ready);
        ready_.push_back(t);
        break;
    }
    if (!dispatchScheduled_) {
        // Defer to an event so wakers finish their own bookkeeping
        // first and batched wakeups dispatch once.
        dispatchScheduled_ = true;
        events_.scheduleAfter(0, [this] {
            dispatchScheduled_ = false;
            dispatch();
        });
    }
}

std::size_t
Scheduler::liveThreads() const
{
    return static_cast<std::size_t>(std::count_if(
        threads_.begin(), threads_.end(), [](const auto &t) {
            return t->state() != Thread::State::Zombie;
        }));
}

void
Scheduler::updateSmtContention(unsigned coreIdx)
{
    if (machine_.smtWays() < 2)
        return;
    const unsigned base = coreIdx & ~1u;
    if (base + 1 >= slots_.size())
        return;
    const bool both = slots_[base].busy && slots_[base + 1].busy;
    const double factor = both ? kSmtContention : 1.0;
    machine_.core(base).setContentionFactor(factor);
    machine_.core(base + 1).setContentionFactor(factor);
}

void
Scheduler::setFrozen(bool frozen)
{
    if (frozen_ == frozen)
        return;
    frozen_ = frozen;
    if (!frozen_ && !ready_.empty())
        dispatch();
}

void
Scheduler::dispatch()
{
    if (frozen_)
        return;
    if (slots_.empty())
        slots_.resize(machine_.coreCount());

    // For each ready thread (FIFO), pick a core: pinned threads get
    // their core or wait; unpinned threads prefer their previous core
    // (cache affinity), then an idle primary SMT slot, then any idle
    // slot.
    bool progress = true;
    while (progress && !ready_.empty()) {
        progress = false;
        for (auto it = ready_.begin(); it != ready_.end(); ++it) {
            Thread *t = *it;
            int target = -1;
            if (t->affinity() >= 0) {
                const auto c = static_cast<unsigned>(t->affinity());
                if (c < slots_.size() && !slots_[c].busy)
                    target = t->affinity();
            } else {
                const int last = t->lastCore();
                if (last >= 0 &&
                    static_cast<unsigned>(last) < slots_.size() &&
                    !slots_[static_cast<unsigned>(last)].busy) {
                    target = last;
                } else {
                    const unsigned step =
                        machine_.smtWays() < 2 ? 1 : 2;
                    for (unsigned c = 0; c < slots_.size();
                         c += step) {
                        if (!slots_[c].busy) {
                            target = static_cast<int>(c);
                            break;
                        }
                    }
                    if (target < 0) {
                        for (unsigned c = 0; c < slots_.size(); ++c) {
                            if (!slots_[c].busy) {
                                target = static_cast<int>(c);
                                break;
                            }
                        }
                    }
                }
            }
            if (target >= 0) {
                ready_.erase(it);
                runOn(static_cast<unsigned>(target), t);
                progress = true;
                break;
            }
        }
    }
}

void
Scheduler::runOn(unsigned coreIdx, Thread *t)
{
    CoreSlot &slot = slots_[coreIdx];
    assert(!slot.busy);
    slot.busy = true;
    slot.current = t;
    t->setState(Thread::State::Running);
    t->setLastCore(static_cast<int>(coreIdx));
    updateSmtContention(coreIdx);

    hw::CpuCore &core = machine_.core(coreIdx);
    StepCtx ctx{core, machine_.kernel(), machine_,
                machine_.timeslicCycles(), 0};

    // Context switch: kernel sched path + private cache pollution.
    if (slot.lastThread != t) {
        ++stats_.contextSwitches;
        core.contextSwitch(++switchSalt_);
        machine_.kernel().runPath(ctx, *t, KernelPath::SchedSwitch);
    } else if (events_.now() - slot.lastRelease >
               sim::microseconds(200)) {
        // The core sat idle: timer ticks, softirqs and other OS noise
        // erode the warm private-cache state. This is what makes
        // services *less* efficient per request at low load.
        core.caches().pollute(0.15, ++switchSalt_);
    }
    slot.lastThread = t;

    ++stats_.slices;
    const StepResult result = t->step(ctx);

    // Threads must consume time: a spinning thread that repeatedly
    // yields for free would live-lock the event loop.
    const double cycles = std::max(ctx.cyclesUsed, 100.0);
    const sim::Time consumed = machine_.cyclesToTime(cycles);

    events_.scheduleAfter(consumed, [this, coreIdx, t, result] {
        onSliceDone(coreIdx, t, result);
    });
}

void
Scheduler::onSliceDone(unsigned coreIdx, Thread *t, StepResult result)
{
    CoreSlot &slot = slots_[coreIdx];
    slot.busy = false;
    slot.current = nullptr;
    slot.lastRelease = events_.now();
    updateSmtContention(coreIdx);

    switch (result.reason) {
      case StopReason::Exit:
        t->setState(Thread::State::Zombie);
        break;
      case StopReason::Yield:
        ++t->involuntarySwitches;
        t->setState(Thread::State::Ready);
        ready_.push_back(t);
        break;
      case StopReason::Block:
        ++t->voluntarySwitches;
        if (t->wakePending()) {
            // The wake raced with the slice: runnable again.
            t->setWakePending(false);
            t->setState(Thread::State::Ready);
            ready_.push_back(t);
        } else {
            t->setState(Thread::State::Blocked);
        }
        break;
    }
    dispatch();
}

} // namespace ditto::os
