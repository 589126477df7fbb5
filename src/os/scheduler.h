/**
 * @file
 * Per-machine thread scheduler.
 *
 * A simple multi-core run-queue scheduler: threads become Ready via
 * wake(), idle cores pull from a FIFO ready queue (respecting core
 * affinity), and each slice runs until the thread blocks, yields, or
 * exhausts its timeslice. Context switches charge the kernel's
 * sched-switch path and pollute the incoming core's private caches.
 *
 * SMT: logical cores come in sibling pairs sharing one cache
 * hierarchy; when both siblings are busy the scheduler applies a
 * pipeline contention factor to both (issue bandwidth is shared).
 */

#ifndef DITTO_OS_SCHEDULER_H_
#define DITTO_OS_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "os/thread.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace ditto::os {

class Machine;

/** Scheduler statistics. */
struct SchedStats
{
    std::uint64_t contextSwitches = 0;
    std::uint64_t slices = 0;
    std::uint64_t wakeups = 0;
};

class Scheduler
{
  public:
    Scheduler(Machine &machine, sim::EventQueue &events);

    /** Register and immediately wake a thread; takes ownership. */
    Thread *add(std::unique_ptr<Thread> thread);

    /** Make a blocked (or about-to-block) thread runnable. */
    void wake(Thread *t);

    /** Timeslice length. */
    void setTimeslice(sim::Time slice) { timeslice_ = slice; }

    /**
     * Freeze/unfreeze dispatching (machine crash model). Running
     * slices finish and their threads queue up as Ready; nothing new
     * is dispatched until unfrozen.
     */
    void setFrozen(bool frozen);
    bool frozen() const { return frozen_; }

    const SchedStats &stats() const { return stats_; }

    /** Number of threads not yet terminated. */
    std::size_t liveThreads() const;

    /** Cycle contention multiplier when SMT siblings co-run. */
    static constexpr double kSmtContention = 1.45;

  private:
    struct CoreSlot
    {
        Thread *current = nullptr;
        Thread *lastThread = nullptr;
        bool busy = false;
        sim::Time lastRelease = 0;
    };

    Machine &machine_;
    sim::EventQueue &events_;
    std::vector<std::unique_ptr<Thread>> threads_;
    std::deque<Thread *> ready_;
    std::vector<CoreSlot> slots_;
    sim::Time timeslice_ = sim::milliseconds(1);
    SchedStats stats_;
    std::uint64_t switchSalt_ = 0;
    bool dispatchScheduled_ = false;
    bool frozen_ = false;

    void dispatch();
    void runOn(unsigned coreIdx, Thread *t);
    void onSliceDone(unsigned coreIdx, Thread *t, StepResult result);
    void updateSmtContention(unsigned coreIdx);
};

} // namespace ditto::os

#endif // DITTO_OS_SCHEDULER_H_
