/**
 * @file
 * Tests for the OS model: page cache, disk queueing, sockets, epoll,
 * scheduler behaviour, network delivery, and kernel syscall costs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "hw/platform.h"
#include "os/disk.h"
#include "os/kernel.h"
#include "os/machine.h"
#include "os/network.h"
#include "os/page_cache.h"
#include "os/scheduler.h"
#include "sim/event_queue.h"

namespace {

using namespace ditto;
using namespace ditto::os;

TEST(Vfs, CreatesFilesWithIds)
{
    Vfs vfs;
    const auto a = vfs.create("a", 1000);
    const auto b = vfs.create("b", 2000);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(vfs.file(b).bytes, 2000u);
    EXPECT_EQ(vfs.fileCount(), 2u);
}

TEST(PageCache, MissesThenHits)
{
    PageCache pc(1 << 20);  // 256 pages
    EXPECT_EQ(pc.access(0, 0, 8192), 2u);      // two cold pages
    EXPECT_EQ(pc.access(0, 0, 8192), 0u);      // warm
    EXPECT_EQ(pc.access(0, 4096, 4096), 0u);   // inside
    EXPECT_EQ(pc.access(0, 8192, 1), 1u);      // new page
    EXPECT_NEAR(pc.hitRate(), 0.5, 1e-9);  // 3 of 6 page lookups hit
}

TEST(PageCache, LruEvictionUnderPressure)
{
    PageCache pc(4 * kPageBytes);  // 4 pages
    for (std::uint64_t p = 0; p < 4; ++p)
        pc.access(0, p * kPageBytes, 1);
    pc.access(0, 0, 1);                       // touch page 0
    pc.access(0, 4 * kPageBytes, 1);          // evicts page 1 (LRU)
    EXPECT_EQ(pc.access(0, 0, 1), 0u);        // page 0 kept
    EXPECT_EQ(pc.access(0, kPageBytes, 1), 1u);  // page 1 gone
}

TEST(PageCache, DistinctFilesDoNotCollide)
{
    PageCache pc(1 << 20);
    pc.access(1, 0, 4096);
    EXPECT_EQ(pc.access(2, 0, 4096), 1u);  // same offset, other file
}

TEST(Disk, SsdFasterThanHdd)
{
    sim::EventQueue ev;
    Disk ssd(ev, hw::DiskKind::Ssd, 1);
    sim::Time ssdDone = 0;
    ssd.submit(4096, false, [&] { ssdDone = ev.now(); });
    ev.runAll();

    sim::EventQueue ev2;
    Disk hdd(ev2, hw::DiskKind::Hdd, 1);
    sim::Time hddDone = 0;
    hdd.submit(4096, false, [&] { hddDone = ev2.now(); });
    ev2.runAll();

    EXPECT_LT(ssdDone, sim::milliseconds(1));
    EXPECT_GT(hddDone, sim::milliseconds(2));
    EXPECT_GT(hddDone, 5 * ssdDone);
}

TEST(Disk, QueueingDelaysLaterRequests)
{
    sim::EventQueue ev;
    Disk hdd(ev, hw::DiskKind::Hdd, 1);  // single channel
    std::vector<sim::Time> done;
    for (int i = 0; i < 4; ++i)
        hdd.submit(4096, false, [&] { done.push_back(ev.now()); });
    ev.runAll();
    ASSERT_EQ(done.size(), 4u);
    // Strictly increasing completion times: serialized service.
    for (std::size_t i = 1; i < done.size(); ++i)
        EXPECT_GT(done[i], done[i - 1]);
    // The last one waited about 4 service times.
    EXPECT_GT(done[3], 3 * done[0] / 2);
    EXPECT_EQ(hdd.requests(), 4u);
    EXPECT_EQ(hdd.readBytes(), 4 * 4096u);
}

TEST(Socket, PushWakesWaiterFifo)
{
    Socket s(1);
    int woken = 0;
    s.wakeFn = [&](Thread *) { ++woken; };
    // A fake thread pointer is fine: wakeFn only counts.
    Thread *fake = reinterpret_cast<Thread *>(0x1);
    s.addWaiter(fake);
    Message m;
    m.bytes = 100;
    s.push(m);
    EXPECT_EQ(woken, 1);
    EXPECT_TRUE(s.readable());
    EXPECT_EQ(s.pop().bytes, 100u);
    EXPECT_FALSE(s.readable());
    EXPECT_EQ(s.rxBytes, 100u);
}

TEST(Socket, DeliverHookBypassesQueue)
{
    Socket s(2);
    std::uint32_t seen = 0;
    s.onDeliver = [&](const Message &m) { seen = m.bytes; };
    Message m;
    m.bytes = 77;
    s.push(m);
    EXPECT_EQ(seen, 77u);
    EXPECT_FALSE(s.readable());
}

TEST(Epoll, NotifiesOnReadable)
{
    Socket s(3);
    Epoll ep(4);
    ep.watch(&s);
    int woken = 0;
    ep.wakeFn = [&](Thread *) { ++woken; };
    Thread *fake = reinterpret_cast<Thread *>(0x2);
    ep.addWaiter(fake);
    EXPECT_FALSE(ep.anyReady());
    Message m;
    s.push(m);
    EXPECT_EQ(woken, 1);
    EXPECT_TRUE(ep.anyReady());
    std::vector<Socket *> ready = {&s, &s};  // cleared first
    ep.readySockets(ready);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], &s);
}

TEST(WaitQueue, WakesUpToN)
{
    WaitQueue q;
    int woken = 0;
    q.wakeFn = [&](Thread *) { ++woken; };
    Thread *a = reinterpret_cast<Thread *>(0x10);
    Thread *b = reinterpret_cast<Thread *>(0x20);
    Thread *c = reinterpret_cast<Thread *>(0x30);
    q.addWaiter(a);
    q.addWaiter(b);
    q.addWaiter(c);
    EXPECT_EQ(q.wake(2), 2u);
    EXPECT_EQ(woken, 2);
    EXPECT_TRUE(q.hasWaiters());
    EXPECT_EQ(q.wake(5), 1u);
}

// ---------------------------------------------------------------------------
// Scheduler + kernel integration via a tiny custom thread.
// ---------------------------------------------------------------------------

class SpinThread : public Thread
{
  public:
    SpinThread(std::string name, double cyclesPerSlice, int slices)
        : Thread(std::move(name), 0, 1), cycles_(cyclesPerSlice),
          remaining_(slices)
    {
    }

    StepResult
    step(StepCtx &ctx) override
    {
        ctx.cyclesUsed += cycles_;
        coresSeen.push_back(ctx.core.id());
        if (--remaining_ <= 0)
            return {StopReason::Exit};
        return {StopReason::Yield};
    }

    std::vector<unsigned> coresSeen;

  private:
    double cycles_;
    int remaining_;
};

TEST(Scheduler, RunsThreadsToCompletion)
{
    sim::EventQueue ev;
    Machine m("node", hw::platformA(), ev, 1);
    auto t = std::make_unique<SpinThread>("spin", 1000, 5);
    SpinThread *raw = t.get();
    m.scheduler().add(std::move(t));
    ev.runUntil(sim::milliseconds(10));
    EXPECT_EQ(raw->state(), Thread::State::Zombie);
    EXPECT_EQ(raw->coresSeen.size(), 5u);
}

TEST(Scheduler, AffinityPinsToCore)
{
    sim::EventQueue ev;
    Machine m("node", hw::platformA(), ev, 1);
    auto t = std::make_unique<SpinThread>("pinned", 1000, 4);
    t->setAffinity(5);
    SpinThread *raw = t.get();
    m.scheduler().add(std::move(t));
    ev.runUntil(sim::milliseconds(10));
    for (unsigned core : raw->coresSeen)
        EXPECT_EQ(core, 5u);
}

TEST(Scheduler, CacheAffinityKeepsThreadOnSameCore)
{
    sim::EventQueue ev;
    Machine m("node", hw::platformA(), ev, 1);
    auto t = std::make_unique<SpinThread>("sticky", 1000, 6);
    SpinThread *raw = t.get();
    m.scheduler().add(std::move(t));
    ev.runUntil(sim::milliseconds(10));
    ASSERT_GE(raw->coresSeen.size(), 2u);
    for (std::size_t i = 1; i < raw->coresSeen.size(); ++i)
        EXPECT_EQ(raw->coresSeen[i], raw->coresSeen[0]);
}

TEST(Scheduler, ParallelThreadsUseDistinctCores)
{
    sim::EventQueue ev;
    Machine m("node", hw::platformA(), ev, 1);
    std::vector<SpinThread *> threads;
    for (int i = 0; i < 4; ++i) {
        auto t = std::make_unique<SpinThread>(
            "t" + std::to_string(i), 1e6, 3);
        threads.push_back(t.get());
        m.scheduler().add(std::move(t));
    }
    ev.runUntil(sim::milliseconds(20));
    std::set<unsigned> cores;
    for (auto *t : threads) {
        ASSERT_FALSE(t->coresSeen.empty());
        cores.insert(t->coresSeen[0]);
    }
    EXPECT_EQ(cores.size(), 4u);
}

TEST(Network, LoopbackFasterThanWire)
{
    sim::EventQueue ev;
    Network net(ev);
    Machine m1("a", hw::platformA(), ev, 1);
    Machine m2("b", hw::platformA(), ev, 2);

    Socket *a1 = m1.createSocket();
    Socket *a2 = m1.createSocket();
    Network::connect(*a1, *a2);
    Socket *b1 = m1.createSocket();
    Socket *b2 = m2.createSocket();
    Network::connect(*b1, *b2);

    sim::Time local = 0;
    sim::Time remote = 0;
    a2->onDeliver = [&](const Message &) { local = ev.now(); };
    b2->onDeliver = [&](const Message &) { remote = ev.now(); };

    Message m;
    m.bytes = 1000;
    net.send(*a1, m);
    net.send(*b1, m);
    ev.runAll();
    EXPECT_GT(local, 0u);
    EXPECT_GT(remote, 2 * local);
    EXPECT_EQ(m1.nic().txBytes, 1000u);  // only the remote send
    EXPECT_EQ(m2.nic().rxBytes, 1000u);
}

TEST(Network, BandwidthHogSlowsDelivery)
{
    auto run = [](double hogGbps) {
        sim::EventQueue ev;
        Network net(ev);
        Machine m1("a", hw::platformA(), ev, 1);
        Machine m2("b", hw::platformA(), ev, 2);
        Socket *tx = m1.createSocket();
        Socket *rx = m2.createSocket();
        Network::connect(*tx, *rx);
        m1.nic().hogBytesPerNs = hogGbps / 8.0;
        sim::Time done = 0;
        rx->onDeliver = [&](const Message &) { done = ev.now(); };
        Message m;
        m.bytes = 1 << 20;  // 1MB: serialization matters
        net.send(*tx, m);
        ev.runAll();
        return done;
    };
    EXPECT_GT(run(9.0), 2 * run(0.0));  // 90% of a 10Gbe NIC hogged
}

TEST(Machine, CoherenceDirectoryInvalidatesSharers)
{
    sim::EventQueue ev;
    Machine m("node", hw::platformA(), ev, 1);
    const std::uint64_t addr = 0x123400;
    // Core 0 and core 2 (different physical hierarchies) read.
    m.core(0).caches().accessData(addr, false);
    m.sharedRead(0, addr);
    m.core(2).caches().accessData(addr, false);
    m.sharedRead(2, addr);
    EXPECT_TRUE(m.core(0).caches().l1d().probe(addr));
    EXPECT_TRUE(m.core(2).caches().l1d().probe(addr));
    // Core 0 writes: core 2's copy must be invalidated.
    m.sharedWrite(0, addr);
    EXPECT_FALSE(m.core(2).caches().l1d().probe(addr));
}

TEST(Machine, SmtSiblingsShareHierarchy)
{
    sim::EventQueue ev;
    Machine m("node", hw::platformA(), ev, 1);
    ASSERT_EQ(m.smtWays(), 2u);
    // Logical cores 0 and 1 share; 0 and 2 do not.
    EXPECT_EQ(&m.core(0).caches(), &m.core(1).caches());
    EXPECT_NE(&m.core(0).caches(), &m.core(2).caches());
}

TEST(Machine, AddressRegionsDisjoint)
{
    sim::EventQueue ev;
    Machine m("node", hw::platformA(), ev, 1);
    const auto r1 = m.allocRegion();
    const auto r2 = m.allocRegion();
    EXPECT_NE(r1.textBase, r2.textBase);
    EXPECT_NE(r1.dataBase, r2.dataBase);
    EXPECT_GT(r2.dataBase - r1.dataBase, 1ull << 30);
}

TEST(Kernel, SyscallsChargeCycles)
{
    sim::EventQueue ev;
    Machine m("node", hw::platformA(), ev, 1);
    Network net(ev);
    m.kernel().setNetwork(&net);

    class Dummy : public Thread
    {
      public:
        Dummy() : Thread("dummy", 0, 1) {}
        StepResult step(StepCtx &) override { return {StopReason::Exit}; }
    };
    Dummy t;
    hw::ExecStats sink;
    t.setStatsSink(&sink);
    StepCtx ctx{m.core(0), m.kernel(), m, 1e9, 0};

    m.kernel().runPath(ctx, t, KernelPath::TcpRx);
    EXPECT_GT(ctx.cyclesUsed, 1000);
    EXPECT_GT(sink.kernelInstructions, 1000);
    const double before = ctx.cyclesUsed;
    m.kernel().chargeCopy(ctx, t, 64 * 1024);
    EXPECT_GT(ctx.cyclesUsed, before + 3000);
}

TEST(Kernel, PreadHitsAndMisses)
{
    sim::EventQueue ev;
    Machine m("node", hw::platformA(), ev, 1);
    const auto file = m.vfs().create("f", 1 << 30);

    class Dummy : public Thread
    {
      public:
        Dummy() : Thread("dummy", 0, 1) {}
        StepResult step(StepCtx &) override { return {StopReason::Exit}; }
    };
    Dummy t;
    StepCtx ctx{m.core(0), m.kernel(), m, 1e9, 0};

    std::uint64_t diskBytes = 0;
    // Cold: must block on the disk.
    EXPECT_EQ(m.kernel().sysPread(ctx, t, file, 0, 8192, diskBytes),
              SysResult::WouldBlock);
    EXPECT_EQ(diskBytes, 8192u);
    ev.runAll();  // disk completion wakes the (fake) thread
    // Warm: page-cache hit completes inline.
    EXPECT_EQ(m.kernel().sysPread(ctx, t, file, 0, 8192, diskBytes),
              SysResult::Ok);
    EXPECT_EQ(diskBytes, 0u);
    EXPECT_EQ(m.kernel().counts().pread, 2u);
}

} // namespace
