/**
 * @file
 * Tests for the service runtime: server models, op interpreter, RPC
 * (sync + async fanout), locks, background threads, stats windows.
 */

#include <gtest/gtest.h>

#include "app/deployment.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "workload/loadgen.h"

namespace {

using namespace ditto;
using app::Op;
using app::Program;
using app::ServiceSpec;

hw::CodeBlock
tinyBlock(const std::string &label, std::uint64_t seed)
{
    hw::BlockSpec spec;
    spec.label = label;
    spec.instCount = 64;
    spec.seed = seed;
    return hw::buildBlock(spec);
}

ServiceSpec
baseService(const std::string &name, app::ServerModel model)
{
    ServiceSpec spec;
    spec.name = name;
    spec.serverModel = model;
    spec.threads.workers = 2;
    spec.threads.threadPerConnection =
        model == app::ServerModel::BlockingPerConn;
    spec.blocks.push_back(tinyBlock(name + ".work", 1));
    app::EndpointSpec ep;
    ep.name = "op";
    ep.handler.ops = {app::opCompute(0, 10)};
    ep.responseBytesMin = ep.responseBytesMax = 256;
    spec.endpoints.push_back(ep);
    return spec;
}

struct Harness
{
    app::Deployment dep{11};
    os::Machine &machine;
    explicit Harness() : machine(dep.addMachine("n", hw::platformA()))
    {
    }

    workload::LoadGen
    drive(app::ServiceInstance &svc, double qps, unsigned conns,
          bool openLoop = true)
    {
        workload::LoadSpec load;
        load.qps = qps;
        load.connections = conns;
        load.openLoop = openLoop;
        return workload::LoadGen(dep, svc, load, 9);
    }
};

/** Every server model must serve requests correctly. */
class ServerModelTest
    : public ::testing::TestWithParam<app::ServerModel>
{
};

TEST_P(ServerModelTest, ServesRequestsUnderLoad)
{
    Harness h;
    app::ServiceInstance &svc =
        h.dep.deploy(baseService("svc", GetParam()), h.machine);
    h.dep.wireAll();
    auto gen = h.drive(svc, 2000, 4);
    gen.start();
    h.dep.runFor(sim::milliseconds(300));
    EXPECT_GT(gen.completed(), 400u);
    EXPECT_GT(svc.stats().requests, 400u);
    EXPECT_LT(gen.latency().percentile(0.99), sim::milliseconds(5));
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ServerModelTest,
    ::testing::Values(app::ServerModel::IoMultiplex,
                      app::ServerModel::BlockingPerConn,
                      app::ServerModel::NonBlocking));

TEST(ServiceRuntime, NonBlockingBurnsCpuAtIdle)
{
    Harness h;
    app::ServiceInstance &poll = h.dep.deploy(
        baseService("poll", app::ServerModel::NonBlocking), h.machine);
    app::ServiceInstance &epoll = h.dep.deploy(
        baseService("epoll", app::ServerModel::IoMultiplex),
        h.machine);
    h.dep.wireAll();
    auto g1 = h.drive(poll, 50, 2);
    auto g2 = h.drive(epoll, 50, 2);
    g1.start();
    g2.start();
    h.dep.runFor(sim::milliseconds(200));
    // At near-idle load the polling server executes far more
    // (kernel) instructions than the epoll server -- the paper's
    // "wastes CPU time at low loads" observation.
    EXPECT_GT(poll.stats().exec.instructions,
              3 * epoll.stats().exec.instructions);
}

TEST(ServiceRuntime, ChoiceFollowsProbabilities)
{
    Harness h;
    ServiceSpec spec = baseService("choice", app::ServerModel::IoMultiplex);
    spec.blocks.push_back(tinyBlock("choice.rare", 2));
    spec.endpoints[0].handler.ops = {
        app::opChoice({0.2, 0.8},
                      {{{app::opCompute(1, 200)}},
                       {{app::opCompute(0, 1)}}}),
    };
    app::ServiceInstance &svc = h.dep.deploy(spec, h.machine);
    h.dep.wireAll();
    auto gen = h.drive(svc, 2000, 4);
    gen.start();
    h.dep.runFor(sim::milliseconds(300));
    // ~20% of requests run the heavy arm (200 iters vs 1):
    // user-level inst/request must sit between the two extremes
    // (kernel instructions excluded -- they are per-request constant).
    const double perReq =
        (svc.stats().exec.instructions -
         svc.stats().exec.kernelInstructions) /
        static_cast<double>(svc.stats().requests);
    const double heavy = 200.0 * 64;
    EXPECT_GT(perReq, 0.10 * heavy);
    EXPECT_LT(perReq, 0.40 * heavy);
}

TEST(ServiceRuntime, SyncRpcPropagatesDownstream)
{
    Harness h;
    ServiceSpec backend = baseService("backend",
                                      app::ServerModel::IoMultiplex);
    ServiceSpec frontend = baseService("frontend",
                                       app::ServerModel::IoMultiplex);
    frontend.downstreams = {"backend"};
    frontend.endpoints[0].handler.ops = {
        app::opCompute(0, 5),
        app::opRpc(0, 0, 128, 512),
        app::opCompute(0, 5),
    };
    app::ServiceInstance &be = h.dep.deploy(backend, h.machine);
    app::ServiceInstance &fe = h.dep.deploy(frontend, h.machine);
    h.dep.wireAll();
    auto gen = h.drive(fe, 1000, 4);
    gen.start();
    h.dep.runFor(sim::milliseconds(300));
    EXPECT_GT(fe.stats().requests, 200u);
    // Backend served one request per frontend request.
    EXPECT_NEAR(static_cast<double>(be.stats().requests),
                static_cast<double>(fe.stats().requests),
                fe.stats().requests * 0.05 + 10);
    // Frontend latency includes the downstream hop.
    EXPECT_GT(fe.stats().latency.mean(),
              be.stats().latency.mean());
}

TEST(ServiceRuntime, AsyncFanoutFasterThanSyncSequence)
{
    auto build = [](app::ClientModel client) {
        Harness h;
        // Three slow leaves.
        for (int i = 0; i < 3; ++i) {
            ServiceSpec leaf = baseService(
                "leaf" + std::to_string(i),
                app::ServerModel::IoMultiplex);
            leaf.endpoints[0].handler.ops = {app::opCompute(0, 400)};
            h.dep.deploy(leaf, h.machine);
        }
        ServiceSpec root = baseService("root",
                                       app::ServerModel::IoMultiplex);
        root.clientModel = client;
        root.downstreams = {"leaf0", "leaf1", "leaf2"};
        root.endpoints[0].handler.ops = {
            app::opRpcFanout({{0, 0, 64, 64},
                              {1, 0, 64, 64},
                              {2, 0, 64, 64}}),
        };
        app::ServiceInstance &fe = h.dep.deploy(root, h.machine);
        h.dep.wireAll();
        auto gen = h.drive(fe, 500, 4);
        gen.start();
        h.dep.runFor(sim::milliseconds(300));
        EXPECT_GT(gen.completed(), 50u);
        return gen.latency().percentile(0.5);
    };
    const auto async = build(app::ClientModel::Async);
    const auto sync = build(app::ClientModel::Sync);
    // Parallel fanout hides two of the three leaf round trips.
    EXPECT_LT(async, sync);
}

TEST(ServiceRuntime, WideAsyncFanoutConservesCalls)
{
    // A fanout wider than 64 calls: every started call must settle in
    // exactly one outcome bucket and no reply may be mistaken for a
    // stale one, however many legs are in flight at once.
    Harness h;
    h.dep.deploy(baseService("leaf", app::ServerModel::IoMultiplex),
                 h.machine);
    ServiceSpec root = baseService("root", app::ServerModel::IoMultiplex);
    root.clientModel = app::ClientModel::Async;
    root.downstreams = {"leaf"};
    root.resilience.rpcDeadline = sim::milliseconds(50);
    root.endpoints[0].handler.ops = {app::opRpcFanout(
        std::vector<app::RpcCallSpec>(70, app::RpcCallSpec{}))};
    app::ServiceInstance &fe = h.dep.deploy(root, h.machine);
    h.dep.wireAll();
    auto gen = h.drive(fe, 200, 2);
    gen.start();
    h.dep.runFor(sim::milliseconds(100));
    gen.stop();
    h.dep.runFor(sim::milliseconds(200));

    const app::ServiceStats &s = fe.stats();
    EXPECT_GT(s.rpcCallsStarted, 0u);
    EXPECT_EQ(s.rpcCallsStarted % 70, 0u);
    EXPECT_EQ(s.rpcCallsStarted, s.rpcOk + s.rpcTimeouts +
                                     s.rpcBreakerFastFails +
                                     s.rpcCancelled);
    EXPECT_EQ(s.rpcStaleResponses, 0u);
    EXPECT_EQ(gen.completedOk(), gen.sent());
}

TEST(ServiceRuntime, LockSerializesCriticalSection)
{
    Harness h;
    ServiceSpec spec = baseService("locky", app::ServerModel::IoMultiplex);
    spec.threads.workers = 4;
    spec.locks = 1;
    spec.endpoints[0].handler.ops = {
        app::opLock(0),
        app::opCompute(0, 2500),  // ~100us critical section
        app::opUnlock(0),
    };
    app::ServiceInstance &svc = h.dep.deploy(spec, h.machine);
    h.dep.wireAll();
    auto gen = h.drive(svc, 5000, 16);
    gen.start();
    h.dep.runFor(sim::milliseconds(300));
    EXPECT_GT(gen.completed(), 200u);
    // Contention shows up as futex syscalls.
    EXPECT_GT(h.machine.kernel().counts().futex, 10u);
}

TEST(ServiceRuntime, FileReadsHitPageCacheAfterPrewarm)
{
    Harness h;
    ServiceSpec warm = baseService("warm", app::ServerModel::IoMultiplex);
    warm.fileBytes = {8 << 20};
    warm.filePrewarmFraction = 1.0;
    warm.endpoints[0].handler.ops = {app::opFileRead(0, 4096, 8192)};

    ServiceSpec cold = warm;
    cold.name = "cold";
    cold.fileBytes = {4ull << 30};
    cold.filePrewarmFraction = 0.0;
    cold.blocks[0].label = "cold.work";

    app::ServiceInstance &w = h.dep.deploy(warm, h.machine);
    app::ServiceInstance &c = h.dep.deploy(cold, h.machine);
    h.dep.wireAll();
    auto g1 = h.drive(w, 500, 4);
    auto g2 = h.drive(c, 500, 4);
    g1.start();
    g2.start();
    h.dep.runFor(sim::milliseconds(300));
    EXPECT_EQ(w.stats().diskReadBytes, 0u);
    EXPECT_GT(c.stats().diskReadBytes, 1u << 20);
    // Disk I/O shows up in latency.
    EXPECT_GT(c.stats().latency.mean(), 2 * w.stats().latency.mean());
}

TEST(ServiceRuntime, BackgroundThreadRunsPeriodically)
{
    Harness h;
    ServiceSpec spec = baseService("bg", app::ServerModel::IoMultiplex);
    app::BackgroundSpec bg;
    bg.name = "ticker";
    bg.period = sim::milliseconds(10);
    bg.body.ops = {app::opCompute(0, 50)};
    spec.background.push_back(bg);
    app::ServiceInstance &svc = h.dep.deploy(spec, h.machine);
    h.dep.wireAll();
    h.dep.runFor(sim::milliseconds(200));
    // ~20 periods of 50x64 instructions, with no requests at all.
    EXPECT_GT(svc.stats().exec.instructions, 15 * 50 * 64);
    EXPECT_GT(h.machine.kernel().counts().nanosleep, 10u);
}

TEST(ServiceRuntime, MeasureWindowResets)
{
    Harness h;
    app::ServiceInstance &svc = h.dep.deploy(
        baseService("win", app::ServerModel::IoMultiplex), h.machine);
    h.dep.wireAll();
    auto gen = h.drive(svc, 2000, 4);
    gen.start();
    h.dep.runFor(sim::milliseconds(200));
    EXPECT_GT(svc.stats().requests, 0u);
    svc.beginMeasure();
    EXPECT_EQ(svc.stats().requests, 0u);
    EXPECT_EQ(svc.stats().exec.instructions, 0.0);
    h.dep.runFor(sim::milliseconds(100));
    EXPECT_GT(svc.stats().requests, 100u);
    EXPECT_NEAR(svc.stats().qps(h.dep.events().now()), 2000, 500);
}

TEST(ServiceRuntime, ThreadPerConnectionSpawnsPerConn)
{
    Harness h;
    ServiceSpec spec = baseService("tpc",
                                   app::ServerModel::BlockingPerConn);
    spec.threads.threadPerConnection = true;
    app::ServiceInstance &svc = h.dep.deploy(spec, h.machine);
    h.dep.wireAll();
    const std::size_t before = h.machine.scheduler().liveThreads();
    auto gen = h.drive(svc, 500, 6);
    (void)gen;
    const std::size_t after = h.machine.scheduler().liveThreads();
    EXPECT_EQ(after - before, 6u);
}

TEST(ServiceRuntime, RpcTracingRecordsSpansAndEdges)
{
    Harness h;
    ServiceSpec backend = baseService("b", app::ServerModel::IoMultiplex);
    ServiceSpec frontend = baseService("f", app::ServerModel::IoMultiplex);
    frontend.downstreams = {"b"};
    frontend.endpoints[0].handler.ops = {app::opRpc(0, 0, 100, 200)};
    h.dep.deploy(backend, h.machine);
    app::ServiceInstance &fe = h.dep.deploy(frontend, h.machine);
    h.dep.wireAll();
    auto gen = h.drive(fe, 500, 2);
    gen.start();
    h.dep.runFor(sim::milliseconds(200));

    const auto &tracer = h.dep.tracer();
    EXPECT_GT(tracer.spans().size(), 50u);
    EXPECT_GT(tracer.edges().size(), 25u);
    bool sawEdge = false;
    for (const auto &e : tracer.edges()) {
        if (e.caller == "f" && e.callee == "b")
            sawEdge = true;
    }
    EXPECT_TRUE(sawEdge);
}

} // namespace
