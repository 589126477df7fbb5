/**
 * @file
 * Tests for load generation and stressors: arrival processes, closed
 * vs open loop semantics, endpoint mixes, pinned LoadGen outcomes,
 * outcome conservation of every client model, and interference knobs.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "app/deployment.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "profile/perf_report.h"
#include "workload/client.h"
#include "workload/engine.h"
#include "workload/loadgen.h"
#include "workload/stressor.h"

namespace {

using namespace ditto;

app::ServiceSpec
echoService(unsigned iters = 5, bool dropExpired = false)
{
    app::ServiceSpec spec;
    spec.name = "echo";
    spec.threads.workers = 2;
    spec.resilience.propagateDeadline = dropExpired;
    hw::BlockSpec bs;
    bs.label = "echo.h";
    bs.instCount = 64;
    bs.seed = 3;
    spec.blocks.push_back(hw::buildBlock(bs));
    app::EndpointSpec a;
    a.name = "a";
    a.handler.ops = {app::opCompute(0, iters)};
    a.responseBytesMin = a.responseBytesMax = 128;
    spec.endpoints.push_back(a);
    app::EndpointSpec b = a;
    b.name = "b";
    b.responseBytesMin = b.responseBytesMax = 4096;
    spec.endpoints.push_back(b);
    return spec;
}

struct World
{
    app::Deployment dep{41};
    os::Machine &machine;
    app::ServiceInstance &svc;

    explicit World(unsigned iters = 5, bool dropExpired = false)
        : machine(dep.addMachine("n", hw::platformA())),
          svc(dep.deploy(echoService(iters, dropExpired), machine))
    {
        dep.wireAll();
    }
};

TEST(LoadGen, OpenLoopAchievesOfferedRate)
{
    World w;
    workload::LoadSpec load;
    load.qps = 3000;
    load.connections = 6;
    load.openLoop = true;
    workload::LoadGen gen(w.dep, w.svc, load, 9);
    gen.start();
    w.dep.runFor(sim::milliseconds(200));
    gen.beginMeasure();
    w.dep.runFor(sim::milliseconds(400));
    EXPECT_NEAR(gen.achievedQps(), 3000, 300);
}

TEST(LoadGen, PoissonArrivalsAreBursty)
{
    // Open-loop Poisson arrivals produce queueing even below
    // capacity: p99 must clearly exceed p50.
    World w;
    workload::LoadSpec load;
    load.qps = 4000;
    load.connections = 8;
    workload::LoadGen gen(w.dep, w.svc, load, 9);
    gen.start();
    w.dep.runFor(sim::milliseconds(400));
    EXPECT_GT(gen.latency().percentile(0.99),
              gen.latency().percentile(0.50));
}

TEST(LoadGen, ClosedLoopNeverExceedsOneOutstandingPerConn)
{
    // With 2 connections and closed loop, at most 2 requests can be
    // in flight: sent - completed <= 2 at the end of any quiescent
    // window.
    World w;
    workload::LoadSpec load;
    load.qps = 100000;  // absurd offered rate
    load.connections = 2;
    load.openLoop = false;
    workload::LoadGen gen(w.dep, w.svc, load, 9);
    gen.start();
    w.dep.runFor(sim::milliseconds(300));
    EXPECT_LE(gen.sent() - gen.completed(), 2u);
    // Latency bounded despite the absurd offered rate.
    EXPECT_LT(gen.latency().percentile(0.99), sim::milliseconds(5));
}

TEST(LoadGen, EndpointMixFollowsWeights)
{
    World w;
    workload::LoadSpec load;
    load.qps = 4000;
    load.connections = 6;
    load.endpoints = {{0, 0.75, 64, 64}, {1, 0.25, 64, 64}};
    workload::LoadGen gen(w.dep, w.svc, load, 9);
    gen.start();
    w.dep.runFor(sim::milliseconds(400));
    // Endpoint b responds with 4KB, a with 128B: tx bytes tell us
    // the realized mix.
    const double perReq =
        static_cast<double>(w.svc.stats().txBytes) /
        static_cast<double>(w.svc.stats().requests);
    const double expected = 0.75 * 128 + 0.25 * 4096;
    EXPECT_NEAR(perReq, expected, expected * 0.15);
}

TEST(LoadGen, StopCeasesArrivals)
{
    World w;
    workload::LoadSpec load;
    load.qps = 2000;
    load.connections = 4;
    workload::LoadGen gen(w.dep, w.svc, load, 9);
    gen.start();
    w.dep.runFor(sim::milliseconds(100));
    gen.stop();
    const auto sentAtStop = gen.sent();
    w.dep.runFor(sim::milliseconds(200));
    EXPECT_EQ(gen.sent(), sentAtStop);
}

TEST(LoadGen, SetQpsTakesEffectImmediately)
{
    // A pending open-loop arrival scheduled under the old (tiny)
    // rate must be rescheduled, not waited out: at 5 qps the next
    // arrival is ~200 ms away, so any burst within 40 ms of the
    // setQps call proves the reschedule happened.
    World w;
    workload::LoadSpec load;
    load.qps = 5;
    load.connections = 4;
    load.openLoop = true;
    workload::LoadGen gen(w.dep, w.svc, load, 9);
    gen.start();
    w.dep.runFor(sim::milliseconds(10));
    const auto sentBefore = gen.sent();
    gen.setQps(20000);
    w.dep.runFor(sim::milliseconds(40));
    EXPECT_GT(gen.sent(), sentBefore + 100);
}

TEST(LoadGen, RequestBytesWithinConfiguredRange)
{
    World w;
    workload::LoadSpec load;
    load.qps = 1000;
    load.connections = 2;
    load.endpoints = {{0, 1.0, 200, 400}};
    workload::LoadGen gen(w.dep, w.svc, load, 9);
    gen.start();
    w.dep.runFor(sim::milliseconds(300));
    const double perReq =
        static_cast<double>(w.svc.stats().rxBytes) /
        static_cast<double>(w.svc.stats().requests);
    EXPECT_GE(perReq, 200.0);
    EXPECT_LE(perReq, 400.0);
}

/** A LoadGen's outcome books plus the world's executed events. */
struct Outcomes
{
    std::uint64_t sent, completed, ok, error, shed, timedOut, late,
        cancels, events;

    bool operator==(const Outcomes &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Outcomes &o)
{
    return os << "{" << o.sent << ", " << o.completed << ", " << o.ok
              << ", " << o.error << ", " << o.shed << ", "
              << o.timedOut << ", " << o.late << ", " << o.cancels
              << ", " << o.events << "}";
}

Outcomes
outcomesOf(World &w, const workload::LoadGen &gen)
{
    return {gen.sent(),          gen.completed(),
            gen.completedOk(),   gen.completedError(),
            gen.completedShed(), gen.timedOut(),
            gen.lateResponses(), gen.cancelsSent(),
            w.dep.events().executedCount()};
}

TEST(LoadGen, PinnedOutcomes)
{
    // Constants captured from the LoadGen that kept its own books
    // (before the shared client base): refactors of the send,
    // response, timeout and cancel paths must reproduce every
    // count and every executed event.
    {
        // Open loop past the knee: some calls time out, their
        // replies arrive late, and each timeout chases a Cancel. The
        // service drops requests whose propagated deadline expired
        // in its queue.
        World w(10000, /*dropExpired=*/true);
        workload::LoadSpec load;
        load.qps = 16000;
        load.connections = 4;
        load.endpoints = {{0, 0.75, 64, 64}, {1, 0.25, 100, 300}};
        load.timeout = sim::microseconds(500);
        load.propagateDeadline = true;
        load.cancelOnTimeout = true;
        workload::LoadGen gen(w.dep, w.svc, load, 9);
        gen.start();
        w.dep.runFor(sim::milliseconds(40));
        gen.stop();
        w.dep.runFor(sim::milliseconds(5));
        EXPECT_EQ(outcomesOf(w, gen),
                  (Outcomes{603, 507, 507, 0, 0, 96, 81, 96, 2488}));
    }
    {
        // Closed loop, saturated, with a client deadline: timeouts
        // free the connection for the next call.
        World w(10000);
        workload::LoadSpec load;
        load.qps = 50000;
        load.connections = 3;
        load.openLoop = false;
        load.timeout = sim::microseconds(250);
        workload::LoadGen gen(w.dep, w.svc, load, 9);
        gen.start();
        w.dep.runFor(sim::milliseconds(40));
        EXPECT_EQ(outcomesOf(w, gen),
                  (Outcomes{464, 423, 423, 0, 0, 38, 38, 0, 2136}));
    }
    {
        // Open loop whose rate changes mid-run: the pending arrival
        // is cancelled and redrawn at the new rate.
        World w;
        workload::LoadSpec load;
        load.qps = 500;
        load.connections = 4;
        workload::LoadGen gen(w.dep, w.svc, load, 9);
        gen.start();
        w.dep.runFor(sim::milliseconds(15));
        gen.setQps(8000);
        w.dep.runFor(sim::milliseconds(20));
        EXPECT_EQ(outcomesOf(w, gen),
                  (Outcomes{145, 144, 144, 0, 0, 0, 0, 0, 724}));
    }
}

// ---- one conservation contract for every client model ---------------

struct ClientCase
{
    const char *name;
    std::function<std::unique_ptr<workload::Client>(World &)> make;
};

void
PrintTo(const ClientCase &c, std::ostream *os)
{
    *os << c.name;
}

/** A LoadGen past the knee, with a client deadline. */
std::unique_ptr<workload::Client>
overloadedLoadGen(World &w, bool openLoop)
{
    workload::LoadSpec load;
    load.qps = openLoop ? 16000 : 50000;
    load.connections = 6;
    load.openLoop = openLoop;
    load.timeout = sim::microseconds(250);
    load.cancelOnTimeout = true;
    return std::make_unique<workload::LoadGen>(w.dep, w.svc, load, 9);
}

const ClientCase kClientCases[] = {
    {"LoadGenOpen",
     [](World &w) { return overloadedLoadGen(w, true); }},
    {"LoadGenClosed",
     [](World &w) { return overloadedLoadGen(w, false); }},
    {"EngineWithRetries",
     [](World &w) -> std::unique_ptr<workload::Client> {
         workload::WorkloadSpec ws;
         ws.sessionsPerSec = 3000;
         ws.connections = 6;
         ws.session.meanThink = sim::microseconds(200);
         ws.timeout = sim::microseconds(500);
         ws.cancelOnTimeout = true;
         ws.retry.maxAttempts = 2;
         return std::make_unique<workload::WorkloadEngine>(
             w.dep, w.svc, ws, 9);
     }},
};

class ClientConservation : public ::testing::TestWithParam<ClientCase>
{
};

std::uint64_t
settledOrInFlight(const workload::Client &c)
{
    return c.completedOk() + c.completedError() + c.completedShed() +
        c.timedOut() + c.inFlight();
}

TEST_P(ClientConservation, SentIsSettledOrInFlight)
{
    // Every client model keeps one book: each sent call is settled
    // (by status or by its deadline) or still in flight, both while
    // load runs and after a drain.
    World w(10000);
    const std::unique_ptr<workload::Client> owned = GetParam().make(w);
    workload::Client &client = *owned;
    client.start();
    w.dep.runFor(sim::milliseconds(30));
    ASSERT_GT(client.inFlight(), 0u);
    EXPECT_GT(client.timedOut(), 0u);
    EXPECT_EQ(client.sent(), settledOrInFlight(client));
    client.stop();
    w.dep.runFor(sim::milliseconds(20));
    EXPECT_EQ(client.inFlight(), 0u);
    EXPECT_EQ(client.sent(), settledOrInFlight(client));
}

INSTANTIATE_TEST_SUITE_P(
    ClientModels, ClientConservation, ::testing::ValuesIn(kClientCases),
    [](const ::testing::TestParamInfo<ClientCase> &info) {
        return std::string(info.param.name);
    });

TEST(Stressor, KindsHaveNames)
{
    EXPECT_EQ(workload::stressKindName(workload::StressKind::Cpu),
              "HT");
    EXPECT_EQ(workload::stressKindName(workload::StressKind::Llc),
              "LLC");
}

TEST(Stressor, LlcStressorRaisesVictimMisses)
{
    auto llcMissRate = [](bool stressed) {
        app::Deployment dep(42);
        os::Machine &m = dep.addMachine("n", hw::platformA());
        // Victim with an LLC-resident working set.
        app::ServiceSpec spec = echoService(40);
        spec.blocks[0] = [] {
            hw::BlockSpec bs;
            bs.label = "echo.h";
            bs.instCount = 64;
            bs.memFraction = 0.5;
            bs.streams = {{12u << 20, hw::StreamKind::Random, false,
                           1.0}};
            bs.seed = 3;
            return hw::buildBlock(bs);
        }();
        app::ServiceInstance &svc = dep.deploy(spec, m);
        dep.wireAll();
        std::unique_ptr<workload::CacheStressor> stressor;
        if (stressed) {
            stressor = std::make_unique<workload::CacheStressor>(
                m, workload::StressKind::Llc, 10);
        }
        workload::LoadSpec load;
        load.qps = 2000;
        load.connections = 4;
        workload::LoadGen gen(dep, svc, load, 9);
        gen.start();
        dep.runFor(sim::milliseconds(150));
        dep.beginMeasureAll();
        dep.runFor(sim::milliseconds(200));
        return profile::snapshotService(svc).llcMissRate;
    };
    EXPECT_GT(llcMissRate(true), llcMissRate(false) + 0.05);
}

TEST(Stressor, NetHogReleasesBandwidthOnDestruction)
{
    app::Deployment dep(43);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    const double base = m.nic().effectiveBytesPerNs();
    {
        workload::NetStressor hog(m, 8.0);
        EXPECT_LT(m.nic().effectiveBytesPerNs(), base * 0.3);
    }
    EXPECT_DOUBLE_EQ(m.nic().effectiveBytesPerNs(), base);
}

} // namespace
