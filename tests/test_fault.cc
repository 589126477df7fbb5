/**
 * @file
 * Tests for the fault-injection subsystem and resilience policies:
 * backoff schedules, the circuit-breaker state machine, network drop
 * accounting, crash/restart end-to-end behaviour, load shedding, and
 * bit-exact determinism of faulted runs.
 *
 * These tests carry the `sanitize` ctest label: configure with
 * -DDITTO_SANITIZE=ON and run `ctest -L sanitize` to execute them
 * under ASan+UBSan.
 */

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "app/deployment.h"
#include "app/resilience.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "profile/probe_collector.h"
#include "trace/tracer.h"
#include "workload/loadgen.h"

namespace {

using namespace ditto;

// ---------------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------------

TEST(Backoff, ExponentialScheduleWithCap)
{
    app::RetryPolicy policy;
    policy.baseBackoff = sim::microseconds(100);
    policy.multiplier = 2.0;
    policy.maxBackoff = sim::microseconds(350);
    policy.jitter = 0.0;
    sim::Rng rng(7);

    EXPECT_EQ(app::computeBackoff(policy, 1, rng),
              sim::microseconds(100));
    EXPECT_EQ(app::computeBackoff(policy, 2, rng),
              sim::microseconds(200));
    // 400us would exceed the cap.
    EXPECT_EQ(app::computeBackoff(policy, 3, rng),
              sim::microseconds(350));
    EXPECT_EQ(app::computeBackoff(policy, 4, rng),
              sim::microseconds(350));
}

TEST(Backoff, NoJitterDrawsNoRandomness)
{
    app::RetryPolicy policy;
    policy.jitter = 0.0;
    sim::Rng used(55);
    sim::Rng untouched(55);
    app::computeBackoff(policy, 1, used);
    app::computeBackoff(policy, 2, used);
    // The rng sequence must be unperturbed -- the guarantee that a
    // resilience-disabled run is bit-identical to the seed runtime.
    EXPECT_EQ(used(), untouched());
}

TEST(Backoff, JitterBoundedAndDeterministic)
{
    app::RetryPolicy policy;
    policy.baseBackoff = sim::microseconds(100);
    policy.multiplier = 1.0;
    policy.jitter = 0.5;
    sim::Rng a(11);
    sim::Rng b(11);
    for (unsigned attempt = 1; attempt <= 16; ++attempt) {
        const sim::Time fromA = app::computeBackoff(policy, attempt, a);
        const sim::Time fromB = app::computeBackoff(policy, attempt, b);
        EXPECT_EQ(fromA, fromB);  // same seed, same schedule
        EXPECT_GE(fromA, sim::microseconds(50));
        EXPECT_LE(fromA, sim::microseconds(150));
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker FSM
// ---------------------------------------------------------------------------

app::CircuitBreakerPolicy
testBreakerPolicy()
{
    app::CircuitBreakerPolicy policy;
    policy.enabled = true;
    policy.failureThreshold = 3;
    policy.openDuration = sim::milliseconds(10);
    policy.halfOpenProbes = 1;
    return policy;
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailures)
{
    app::CircuitBreaker cb(testBreakerPolicy());
    sim::Time now = 0;
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Closed);
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(cb.allowRequest(now));
        cb.onFailure(now);
        EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Closed);
    }
    ASSERT_TRUE(cb.allowRequest(now));
    cb.onFailure(now);  // third consecutive failure trips it
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Open);
    EXPECT_EQ(cb.timesOpened(), 1u);
    EXPECT_FALSE(cb.allowRequest(now + sim::milliseconds(9)));
}

TEST(CircuitBreaker, SuccessResetsFailureStreak)
{
    app::CircuitBreaker cb(testBreakerPolicy());
    cb.onFailure(0);
    cb.onFailure(0);
    cb.onSuccess();  // streak broken
    cb.onFailure(0);
    cb.onFailure(0);
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Closed);
    cb.onFailure(0);
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Open);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess)
{
    app::CircuitBreaker cb(testBreakerPolicy());
    for (int i = 0; i < 3; ++i)
        cb.onFailure(0);
    ASSERT_EQ(cb.state(), app::CircuitBreaker::State::Open);
    // Open window elapsed: one probe is admitted.
    ASSERT_TRUE(cb.allowRequest(sim::milliseconds(10)));
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::HalfOpen);
    // Only one probe in flight with halfOpenProbes == 1.
    EXPECT_FALSE(cb.allowRequest(sim::milliseconds(10)));
    cb.onSuccess();
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Closed);
    EXPECT_TRUE(cb.allowRequest(sim::milliseconds(11)));
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopens)
{
    app::CircuitBreaker cb(testBreakerPolicy());
    for (int i = 0; i < 3; ++i)
        cb.onFailure(0);
    ASSERT_TRUE(cb.allowRequest(sim::milliseconds(10)));
    cb.onFailure(sim::milliseconds(10));
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Open);
    EXPECT_EQ(cb.timesOpened(), 2u);
    EXPECT_FALSE(cb.allowRequest(sim::milliseconds(19)));
    EXPECT_TRUE(cb.allowRequest(sim::milliseconds(20)));
}

// With halfOpenProbes == 2, exactly two concurrent probes are
// admitted; the first success closes the breaker and the second
// probe's result is harmless (no double-close side effects).
TEST(CircuitBreaker, HalfOpenConcurrentProbesCloseOnce)
{
    app::CircuitBreakerPolicy policy = testBreakerPolicy();
    policy.halfOpenProbes = 2;
    app::CircuitBreaker cb(policy);
    for (int i = 0; i < 3; ++i)
        cb.onFailure(0);
    ASSERT_EQ(cb.state(), app::CircuitBreaker::State::Open);

    const sim::Time probeAt = sim::milliseconds(10);
    ASSERT_TRUE(cb.allowRequest(probeAt));   // probe A
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::HalfOpen);
    ASSERT_TRUE(cb.allowRequest(probeAt));   // probe B
    EXPECT_FALSE(cb.allowRequest(probeAt));  // accounting caps at 2

    cb.onSuccess();  // probe A settles first: closed
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Closed);
    cb.onSuccess();  // probe B lands on a closed breaker: no-op+
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Closed);
    EXPECT_EQ(cb.timesOpened(), 1u);
    // The late success must not have corrupted the failure streak:
    // the full threshold is still required to re-trip.
    cb.onFailure(probeAt);
    cb.onFailure(probeAt);
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Closed);
    cb.onFailure(probeAt);
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Open);
    EXPECT_EQ(cb.timesOpened(), 2u);
}

// The first failed probe re-trips the breaker; the second concurrent
// probe's failure lands in Open state and must be a no-op -- no
// double-trip (timesOpened once) and no open-window extension.
TEST(CircuitBreaker, HalfOpenConcurrentProbesTripOnce)
{
    app::CircuitBreakerPolicy policy = testBreakerPolicy();
    policy.halfOpenProbes = 2;
    app::CircuitBreaker cb(policy);
    for (int i = 0; i < 3; ++i)
        cb.onFailure(0);
    ASSERT_EQ(cb.timesOpened(), 1u);

    const sim::Time probeAt = sim::milliseconds(10);
    ASSERT_TRUE(cb.allowRequest(probeAt));
    ASSERT_TRUE(cb.allowRequest(probeAt));
    cb.onFailure(probeAt);  // probe A fails: back to Open
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Open);
    EXPECT_EQ(cb.timesOpened(), 2u);
    cb.onFailure(probeAt + sim::milliseconds(5));  // probe B, late
    EXPECT_EQ(cb.timesOpened(), 2u);  // no double-trip
    // The open window still expires at probeAt + openDuration -- the
    // late failure did not extend it.
    EXPECT_FALSE(cb.allowRequest(probeAt + sim::milliseconds(9)));
    EXPECT_TRUE(cb.allowRequest(probeAt + sim::milliseconds(10)));
}

// A probe failure followed by the other probe's *success* must not
// shortcut the fresh open window: the stale success is ignored.
TEST(CircuitBreaker, HalfOpenStaleSuccessDoesNotReclose)
{
    app::CircuitBreakerPolicy policy = testBreakerPolicy();
    policy.halfOpenProbes = 2;
    app::CircuitBreaker cb(policy);
    for (int i = 0; i < 3; ++i)
        cb.onFailure(0);

    const sim::Time probeAt = sim::milliseconds(10);
    ASSERT_TRUE(cb.allowRequest(probeAt));
    ASSERT_TRUE(cb.allowRequest(probeAt));
    cb.onFailure(probeAt);  // probe A: re-trip
    ASSERT_EQ(cb.state(), app::CircuitBreaker::State::Open);
    cb.onSuccess();         // probe B settles Ok after the re-trip
    EXPECT_EQ(cb.state(), app::CircuitBreaker::State::Open);
    EXPECT_FALSE(cb.allowRequest(probeAt + sim::milliseconds(9)));
    EXPECT_TRUE(cb.allowRequest(probeAt + sim::milliseconds(10)));
}

// ---------------------------------------------------------------------------
// Shared two-tier world
// ---------------------------------------------------------------------------

hw::CodeBlock
tinyBlock(const std::string &label, std::uint64_t seed)
{
    hw::BlockSpec bs;
    bs.label = label;
    bs.instCount = 64;
    bs.seed = seed;
    return hw::buildBlock(bs);
}

app::ServiceSpec
backendSpec()
{
    app::ServiceSpec spec;
    spec.name = "back";
    spec.threads.workers = 2;
    spec.blocks.push_back(tinyBlock("back.h", 3));
    app::EndpointSpec ep;
    ep.name = "get";
    ep.handler.ops = {app::opCompute(0, 5)};
    spec.endpoints.push_back(ep);
    return spec;
}

app::ServiceSpec
frontendSpec(const app::ResilienceSpec &resilience,
             app::ClientModel client = app::ClientModel::Sync)
{
    app::ServiceSpec spec;
    spec.name = "front";
    spec.clientModel = client;
    spec.threads.workers = 2;
    spec.downstreams = {"back"};
    spec.blocks.push_back(tinyBlock("front.h", 4));
    app::EndpointSpec ep;
    ep.name = "page";
    ep.handler.ops = {app::opCompute(0, 3),
                      app::opRpc(0, 0, 128, 256),
                      app::opCompute(0, 3)};
    spec.endpoints.push_back(ep);
    spec.resilience = resilience;
    return spec;
}

/** Two services on one machine plus an external open-loop client. */
struct TwoTier
{
    app::Deployment dep;
    os::Machine &machine;
    app::ServiceInstance &back;
    app::ServiceInstance &front;
    workload::LoadGen gen;

    explicit TwoTier(const app::ResilienceSpec &resilience,
                     double qps = 2000, sim::Time clientTimeout =
                         sim::milliseconds(5),
                     app::ClientModel client = app::ClientModel::Sync)
        : dep(17),
          machine(dep.addMachine("n", hw::platformA())),
          back(dep.deploy(backendSpec(), machine)),
          front(dep.deploy(frontendSpec(resilience, client), machine)),
          gen(wired(dep), front, clientLoad(qps, clientTimeout), 23)
    {
    }

    /** wireAll() must run before LoadGen opens its connections. */
    static app::Deployment &
    wired(app::Deployment &dep)
    {
        dep.wireAll();
        return dep;
    }

    static workload::LoadSpec
    clientLoad(double qps, sim::Time timeout)
    {
        workload::LoadSpec load;
        load.qps = qps;
        load.connections = 4;
        load.openLoop = true;
        load.timeout = timeout;
        return load;
    }
};

app::ResilienceSpec
frontResilience()
{
    app::ResilienceSpec res;
    res.rpcDeadline = sim::microseconds(600);
    res.retry.maxAttempts = 2;
    res.retry.baseBackoff = sim::microseconds(100);
    res.breaker.enabled = true;
    res.breaker.failureThreshold = 4;
    res.breaker.openDuration = sim::milliseconds(3);
    return res;
}

// ---------------------------------------------------------------------------
// Network fault accounting
// ---------------------------------------------------------------------------

TEST(NetworkFaults, EveryMessageAccountedUnderDrops)
{
    TwoTier w(app::ResilienceSpec{});
    fault::FaultPlan plan;
    // External-client link: 50% loss for most of the run.
    plan.linkDrop("", "n", sim::milliseconds(10),
                  sim::milliseconds(60), 0.5);
    fault::FaultInjector injector(w.dep);
    injector.install(plan);
    w.gen.start();
    w.dep.runFor(sim::milliseconds(100));

    os::Network &net = w.dep.network();
    EXPECT_GT(net.messagesDropped(), 0u);
    EXPECT_EQ(net.messagesSent(),
              net.messagesDelivered() + net.messagesDropped() +
                  net.messagesInFlight());
    EXPECT_GT(w.gen.timedOut(), 0u);
    // sent == every outcome + still-pending.
    EXPECT_GE(w.gen.sent(),
              w.gen.completedOk() + w.gen.completedError() +
                  w.gen.completedShed() + w.gen.timedOut());
}

TEST(NetworkFaults, PartitionDropsEverythingThenHeals)
{
    TwoTier w(app::ResilienceSpec{});
    fault::FaultPlan plan;
    plan.partition("", "n", sim::milliseconds(20),
                   sim::milliseconds(30));
    fault::FaultInjector injector(w.dep);
    injector.install(plan);
    w.gen.start();
    w.dep.runFor(sim::milliseconds(20));
    const std::uint64_t completedBefore = w.gen.completed();
    EXPECT_GT(completedBefore, 0u);
    w.dep.runFor(sim::milliseconds(30));
    // Nothing came back during the partition.
    EXPECT_GT(w.gen.timedOut(), 0u);
    w.dep.runFor(sim::milliseconds(50));
    // Healed: completions resumed.
    EXPECT_GT(w.gen.completed(), completedBefore);
    EXPECT_EQ(injector.stats().windowsStarted, 1u);
    EXPECT_EQ(injector.stats().windowsEnded, 1u);
}

// ---------------------------------------------------------------------------
// Crash / restart end to end
// ---------------------------------------------------------------------------

TEST(FaultInjection, ServiceCrashCausesTimeoutsAndRecovers)
{
    TwoTier w(frontResilience());
    fault::FaultPlan plan;
    plan.serviceCrash("back", sim::milliseconds(20),
                      sim::milliseconds(30));
    fault::FaultInjector injector(w.dep);
    injector.install(plan);
    w.gen.start();
    w.dep.runFor(sim::milliseconds(50));

    // During the crash the frontend's calls hit their deadline,
    // retried, then gave up and answered degraded.
    const app::ServiceStats &fs = w.front.stats();
    EXPECT_GT(fs.rpcTimeouts, 0u);
    EXPECT_GT(fs.rpcRetries, 0u);
    EXPECT_GT(fs.requestsDegraded, 0u);
    EXPECT_GT(w.gen.completedError(), 0u);
    // Outcome counters surfaced through the tracer agree exactly.
    EXPECT_EQ(w.dep.tracer().outcomeCount(trace::OutcomeKind::RpcTimeout),
              fs.rpcTimeouts);

    const std::uint64_t okDuringCrash = w.gen.completedOk();
    w.dep.runFor(sim::milliseconds(60));
    // Restarted: Ok responses flow again.
    EXPECT_GT(w.gen.completedOk(), okDuringCrash);
    EXPECT_GT(fs.rpcOk, 0u);
}

TEST(FaultInjection, BreakerOpensDuringCrash)
{
    TwoTier w(frontResilience());
    fault::FaultPlan plan;
    plan.serviceCrash("back", sim::milliseconds(15),
                      sim::milliseconds(40));
    fault::FaultInjector injector(w.dep);
    injector.install(plan);
    w.gen.start();
    w.dep.runFor(sim::milliseconds(70));

    app::CircuitBreaker *cb = w.front.breaker(0);
    ASSERT_NE(cb, nullptr);
    EXPECT_GE(cb->timesOpened(), 1u);
    // Fast-fails happened while open (no message sent downstream).
    EXPECT_GT(w.front.stats().rpcBreakerFastFails, 0u);
    EXPECT_EQ(w.dep.tracer().outcomeCount(
                  trace::OutcomeKind::RpcBreakerOpen),
              w.front.stats().rpcBreakerFastFails);
}

TEST(FaultInjection, MachineCrashFreezesAndRestarts)
{
    TwoTier w(app::ResilienceSpec{});
    fault::FaultPlan plan;
    plan.machineCrash("n", sim::milliseconds(20),
                      sim::milliseconds(25));
    fault::FaultInjector injector(w.dep);
    injector.install(plan);
    w.gen.start();
    w.dep.runFor(sim::milliseconds(20));
    const std::uint64_t sentBefore = w.gen.sent();
    const std::uint64_t completedBefore = w.gen.completed();
    EXPECT_GT(completedBefore, 0u);
    w.dep.runFor(sim::milliseconds(12));  // mid crash window
    EXPECT_TRUE(w.machine.down());
    w.dep.runFor(sim::milliseconds(13));
    // Clients kept sending into the dead machine; nothing came back.
    EXPECT_GT(w.gen.sent(), sentBefore);
    EXPECT_GT(w.gen.timedOut(), 0u);
    w.dep.runFor(sim::milliseconds(55));
    EXPECT_FALSE(w.machine.down());
    EXPECT_GT(w.gen.completed(), completedBefore);
}

// ---------------------------------------------------------------------------
// Load shedding
// ---------------------------------------------------------------------------

TEST(FaultInjection, OverloadedServiceShedsRequests)
{
    app::ResilienceSpec res;
    res.shedQueueThreshold = 2;
    // One slow worker + a burst far above capacity.
    app::Deployment dep(19);
    os::Machine &machine = dep.addMachine("n", hw::platformA());
    app::ServiceSpec spec = backendSpec();
    spec.name = "slow";
    spec.threads.workers = 1;
    spec.endpoints[0].handler.ops = {app::opCompute(0, 4000)};
    spec.resilience = res;
    app::ServiceInstance &svc = dep.deploy(spec, machine);
    dep.wireAll();

    workload::LoadSpec load;
    load.qps = 20000;
    load.connections = 2;
    load.openLoop = true;
    workload::LoadGen gen(dep, svc, load, 29);
    gen.start();
    dep.runFor(sim::milliseconds(60));

    EXPECT_GT(svc.stats().requestsShed, 0u);
    EXPECT_GT(gen.completedShed(), 0u);
    EXPECT_EQ(dep.tracer().outcomeCount(
                  trace::OutcomeKind::RequestShed),
              svc.stats().requestsShed);
    // Shed responses come back fast and are not Ok.
    EXPECT_EQ(gen.completed(),
              gen.completedOk() + gen.completedError() +
                  gen.completedShed());
}

// ---------------------------------------------------------------------------
// Disk slowdown
// ---------------------------------------------------------------------------

TEST(FaultInjection, DiskSlowdownStretchesServiceTime)
{
    auto timeOneIo = [](double slowdown) {
        app::Deployment dep(23);
        os::Machine &machine = dep.addMachine("n", hw::platformA());
        machine.disk().setSlowdown(slowdown);
        sim::Time doneAt = 0;
        machine.disk().submit(1u << 20, false,
                              [&] { doneAt = dep.events().now(); });
        dep.runFor(sim::milliseconds(200));
        return doneAt;
    };
    const sim::Time healthy = timeOneIo(1.0);
    const sim::Time degraded = timeOneIo(6.0);
    ASSERT_GT(healthy, 0u);
    // Same seed, same draw: exactly 6x the service time.
    EXPECT_GT(degraded, healthy * 5);
    EXPECT_LE(degraded, healthy * 7);
}

// ---------------------------------------------------------------------------
// Determinism + zero-cost
// ---------------------------------------------------------------------------

struct ScenarioResult
{
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t ok = 0;
    std::uint64_t err = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t late = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t maxLatency = 0;
    std::uint64_t netSent = 0;
    std::uint64_t netDelivered = 0;
    std::uint64_t netDropped = 0;
    std::uint64_t rpcTimeouts = 0;
    std::uint64_t rpcRetries = 0;
    std::uint64_t breakerFastFails = 0;

    bool operator==(const ScenarioResult &) const = default;
};

ScenarioResult
runFaultedScenario(bool withInjector)
{
    TwoTier w(frontResilience());
    fault::FaultPlan plan;
    plan.serviceCrash("back", sim::milliseconds(20),
                      sim::milliseconds(20));
    plan.linkDrop("", "n", sim::milliseconds(50),
                  sim::milliseconds(20), 0.3);
    plan.linkLatency("", "n", sim::milliseconds(55),
                     sim::milliseconds(10), sim::microseconds(200));
    fault::FaultInjector injector(w.dep);
    if (withInjector)
        injector.install(plan);
    w.gen.start();
    w.dep.runFor(sim::milliseconds(120));

    ScenarioResult r;
    r.sent = w.gen.sent();
    r.completed = w.gen.completed();
    r.ok = w.gen.completedOk();
    r.err = w.gen.completedError();
    r.timedOut = w.gen.timedOut();
    r.late = w.gen.lateResponses();
    r.p50 = w.gen.latency().percentile(0.5);
    r.p99 = w.gen.latency().percentile(0.99);
    r.maxLatency = w.gen.latency().maxValue();
    r.netSent = w.dep.network().messagesSent();
    r.netDelivered = w.dep.network().messagesDelivered();
    r.netDropped = w.dep.network().messagesDropped();
    r.rpcTimeouts = w.front.stats().rpcTimeouts;
    r.rpcRetries = w.front.stats().rpcRetries;
    r.breakerFastFails = w.front.stats().rpcBreakerFastFails;
    return r;
}

TEST(FaultInjection, SameSeedSamePlanIsBitIdentical)
{
    const ScenarioResult a = runFaultedScenario(true);
    const ScenarioResult b = runFaultedScenario(true);
    EXPECT_EQ(a, b);
    // And the scenario actually exercised the fault machinery.
    EXPECT_GT(a.netDropped, 0u);
    EXPECT_GT(a.rpcTimeouts, 0u);
}

ScenarioResult
runVanilla(bool withIdleInjector)
{
    TwoTier w(app::ResilienceSpec{}, 2000, /*clientTimeout=*/0);
    fault::FaultInjector injector(w.dep);
    if (withIdleInjector)
        injector.install(fault::FaultPlan{});  // empty plan
    w.gen.start();
    w.dep.runFor(sim::milliseconds(80));

    ScenarioResult r;
    r.sent = w.gen.sent();
    r.completed = w.gen.completed();
    r.ok = w.gen.completedOk();
    r.p50 = w.gen.latency().percentile(0.5);
    r.p99 = w.gen.latency().percentile(0.99);
    r.maxLatency = w.gen.latency().maxValue();
    r.netSent = w.dep.network().messagesSent();
    r.netDelivered = w.dep.network().messagesDelivered();
    r.netDropped = w.dep.network().messagesDropped();
    return r;
}

TEST(FaultInjection, EmptyPlanIsZeroCost)
{
    // Installing an injector with an empty plan must not perturb the
    // simulation at all: identical message counts and latencies.
    const ScenarioResult bare = runVanilla(false);
    const ScenarioResult idle = runVanilla(true);
    EXPECT_EQ(bare, idle);
    EXPECT_EQ(bare.netDropped, 0u);
    EXPECT_EQ(bare.completed, bare.ok);  // all Ok without faults
}

// ---------------------------------------------------------------------------
// Outcome reconciliation: ServiceStats / ServiceProbe / Tracer
// ---------------------------------------------------------------------------

TEST(OutcomeAccounting, StatsProbeAndTracerReconcileUnderFaults)
{
    // Every resilience outcome is recorded through three independent
    // readouts: the per-service counters (ServiceStats), the
    // per-service probe stream (ServiceProbe::onOutcome), and the
    // deployment-wide exact tally (Tracer::recordOutcome, which
    // ignores sampling). The tiers sit on separate machines so the
    // lossy link hits the RPC path itself (loopback traffic bypasses
    // link faults), yielding plain successes, retried successes, and
    // hard timeouts; the three books must balance exactly.
    app::Deployment dep(17);
    os::Machine &web = dep.addMachine("web", hw::platformA());
    os::Machine &db = dep.addMachine("db", hw::platformA());
    app::ServiceInstance &back = dep.deploy(backendSpec(), db);
    app::ServiceInstance &front =
        dep.deploy(frontendSpec(frontResilience()), web);
    dep.wireAll();
    workload::LoadGen gen(dep, front,
                          TwoTier::clientLoad(2000,
                                              sim::milliseconds(5)),
                          23);

    profile::ProbeCollector frontProbe;
    profile::ProbeCollector backProbe;
    front.setProbe(&frontProbe);
    back.setProbe(&backProbe);

    fault::FaultPlan plan;
    plan.serviceCrash("back", sim::milliseconds(20),
                      sim::milliseconds(20));
    plan.linkDrop("web", "db", sim::milliseconds(50),
                  sim::milliseconds(40), 0.3);
    fault::FaultInjector injector(dep);
    injector.install(plan);

    gen.start();
    dep.runFor(sim::milliseconds(120));

    using trace::OutcomeKind;
    const std::vector<const profile::ProbeCollector *> probes = {
        &frontProbe, &backProbe};
    const std::vector<app::ServiceInstance *> services = {
        &front, &back};

    // Book 1 vs book 2: stats counters vs probe tallies, per service.
    for (std::size_t i = 0; i < services.size(); ++i) {
        const app::ServiceStats &s = services[i]->stats();
        const profile::ProbeCollector &p = *probes[i];
        EXPECT_EQ(s.rpcOk, p.outcomeCount(OutcomeKind::RpcOk) +
                               p.outcomeCount(OutcomeKind::RpcRetriedOk));
        EXPECT_EQ(s.rpcTimeouts,
                  p.outcomeCount(OutcomeKind::RpcTimeout));
        EXPECT_EQ(s.rpcBreakerFastFails,
                  p.outcomeCount(OutcomeKind::RpcBreakerOpen));
        EXPECT_EQ(s.requestsShed,
                  p.outcomeCount(OutcomeKind::RequestShed));
        EXPECT_EQ(s.requestsDegraded,
                  p.outcomeCount(OutcomeKind::RequestError));
        // Retry attempts are counted at issue time; outcomes report
        // them at completion, so in-flight retries at shutdown may
        // leave the issue-side count ahead -- never behind.
        EXPECT_GE(s.rpcRetries, p.extraAttempts());
    }

    // Book 2 vs book 3: per-kind probe sums across all services must
    // equal the tracer's exact deployment-wide counts.
    for (std::size_t k = 0; k < trace::kOutcomeKinds; ++k) {
        const auto kind = static_cast<OutcomeKind>(k);
        std::uint64_t probeSum = 0;
        for (const profile::ProbeCollector *p : probes)
            probeSum += p->outcomeCount(kind);
        EXPECT_EQ(probeSum, dep.tracer().outcomeCount(kind))
            << "kind=" << trace::outcomeKindName(kind);
    }

    // The plan actually produced a mixed outcome population: plain
    // successes, retried successes, and hard failures.
    EXPECT_GT(frontProbe.outcomeCount(OutcomeKind::RpcOk), 0u);
    EXPECT_GT(frontProbe.outcomeCount(OutcomeKind::RpcRetriedOk), 0u);
    EXPECT_GT(frontProbe.outcomeCount(OutcomeKind::RpcTimeout), 0u);
    EXPECT_GT(frontProbe.extraAttempts(), 0u);
}

// ---------------------------------------------------------------------------
// Request lifecycle: deadlines, cancellation, hedging
// ---------------------------------------------------------------------------

/** Every started downstream call settles in exactly one bucket. */
void
expectRpcConservation(const app::ServiceStats &s)
{
    EXPECT_EQ(s.rpcCallsStarted, s.rpcOk + s.rpcTimeouts +
                                     s.rpcBreakerFastFails +
                                     s.rpcCancelled);
}

/**
 * The settle paths -- budget fail-fast, cancel chase, crash settle --
 * run once per client model: a sync call and an async fanout leg
 * reach them through the same per-attempt steps.
 */
struct NamedModel
{
    const char *name;
    app::ClientModel model;
};

void
PrintTo(const NamedModel &m, std::ostream *os)
{
    *os << m.name;
}

const NamedModel kClientModels[] = {
    {"Sync", app::ClientModel::Sync},
    {"Async", app::ClientModel::Async},
};

std::string
modelName(const ::testing::TestParamInfo<NamedModel> &info)
{
    return info.param.name;
}

class RequestLifecycleByModel
    : public ::testing::TestWithParam<NamedModel>
{
};

class RetryUnderCrashByModel
    : public ::testing::TestWithParam<NamedModel>
{
};

INSTANTIATE_TEST_SUITE_P(ClientModels, RequestLifecycleByModel,
                         ::testing::ValuesIn(kClientModels), modelName);
INSTANTIATE_TEST_SUITE_P(ClientModels, RetryUnderCrashByModel,
                         ::testing::ValuesIn(kClientModels), modelName);

TEST(RequestLifecycle, ExpiredRequestsDropOnArrival)
{
    // The client-to-frontend link is slower than the end-to-end
    // deadline, so every request arrives already dead. The frontend
    // must drop it without running the handler or calling downstream.
    app::ResilienceSpec res;
    res.propagateDeadline = true;
    TwoTier w(res);
    fault::FaultPlan plan;
    plan.linkLatency("", "n", 0, sim::milliseconds(60),
                     sim::milliseconds(2));
    fault::FaultInjector injector(w.dep);
    injector.install(plan);

    workload::LoadSpec load = TwoTier::clientLoad(2000, sim::milliseconds(1));
    load.propagateDeadline = true;
    workload::LoadGen gen(w.dep, w.front, load, 31);
    gen.start();
    w.dep.runFor(sim::milliseconds(40));
    gen.stop();
    w.dep.runFor(sim::milliseconds(20));

    EXPECT_GT(gen.sent(), 0u);
    EXPECT_EQ(gen.completedOk(), 0u);
    EXPECT_GT(gen.timedOut(), 0u);
    EXPECT_GT(w.front.stats().requestsCancelled, 0u);
    // No work reached the backend: the drop happens before the
    // handler issues its RPC.
    EXPECT_EQ(w.back.stats().rxBytes, 0u);
    EXPECT_EQ(w.front.stats().rpcCallsStarted, 0u);
    EXPECT_EQ(w.dep.tracer().outcomeCount(
                  trace::OutcomeKind::RequestCancelled),
              w.front.stats().requestsCancelled);
}

TEST_P(RequestLifecycleByModel, ExhaustedBudgetFailsFastWithoutTransmitting)
{
    // hopMargin exceeds the whole client deadline, so the forwarded
    // budget is always exhausted by the time the handler reaches its
    // RPC: the call fails fast and nothing is ever sent downstream.
    app::ResilienceSpec res;
    res.propagateDeadline = true;
    res.hopMargin = sim::microseconds(300);
    TwoTier w(res, 2000, sim::milliseconds(5), GetParam().model);
    workload::LoadSpec load =
        TwoTier::clientLoad(2000, sim::microseconds(250));
    load.propagateDeadline = true;
    workload::LoadGen gen(w.dep, w.front, load, 31);
    gen.start();
    w.dep.runFor(sim::milliseconds(30));
    gen.stop();
    w.dep.runFor(sim::milliseconds(10));

    const app::ServiceStats &fs = w.front.stats();
    EXPECT_GT(fs.rpcCancelled, 0u);
    EXPECT_EQ(fs.rpcOk, 0u);
    EXPECT_EQ(w.back.stats().rxBytes, 0u);
    // The frontend still answers (degraded), so the client sees
    // errors, not timeouts.
    EXPECT_GT(gen.completedError(), 0u);
    EXPECT_EQ(w.dep.tracer().outcomeCount(
                  trace::OutcomeKind::RpcCancelled),
              fs.rpcCancelled);
    expectRpcConservation(fs);
}

TEST_P(RequestLifecycleByModel, ClientTimeoutCancelChasesSubtree)
{
    // A slow single-worker backend saturates; requests queue up at
    // both tiers until the client's timeout fires. cancelOnTimeout
    // sends a cancel that must chase the whole subtree: the frontend
    // abandons its open call and forwards the cancel, and the backend
    // releases the queued (or in-flight) work.
    app::Deployment dep(17);
    os::Machine &machine = dep.addMachine("n", hw::platformA());
    app::ServiceSpec slow = backendSpec();
    slow.threads.workers = 1;
    slow.endpoints[0].handler.ops = {app::opCompute(0, 30000)};
    app::ServiceInstance &back = dep.deploy(slow, machine);
    app::ResilienceSpec res;
    res.cancellation = true;
    app::ServiceInstance &front =
        dep.deploy(frontendSpec(res, GetParam().model), machine);
    dep.wireAll();

    workload::LoadSpec load =
        TwoTier::clientLoad(8000, sim::milliseconds(2));
    load.cancelOnTimeout = true;
    workload::LoadGen gen(dep, front, load, 23);
    gen.start();
    dep.runFor(sim::milliseconds(30));
    gen.stop();
    dep.runFor(sim::milliseconds(60));

    EXPECT_GT(gen.cancelsSent(), 0u);
    EXPECT_GT(front.stats().requestsCancelled, 0u);
    EXPECT_GT(front.stats().rpcCancelled, 0u);
    EXPECT_GT(back.stats().requestsCancelled, 0u);
    expectRpcConservation(front.stats());
    // Cancelled work really was released: the drain left nothing in
    // flight anywhere.
    EXPECT_EQ(dep.network().messagesInFlight(), 0u);
    EXPECT_EQ(dep.tracer().outcomeCount(
                  trace::OutcomeKind::RequestCancelled),
              front.stats().requestsCancelled +
                  back.stats().requestsCancelled);
}

TEST(RequestLifecycle, HedgeWinsAgainstSlowReplica)
{
    // Two replicas of the backend; the cross-machine one sits behind
    // a 3ms link. Round-robin sends half the calls there; after the
    // hedge delay the frontend launches a second attempt on the fast
    // replica, which wins. The slow loser is abandoned without ever
    // feeding the breaker.
    app::Deployment dep(17);
    os::Machine &web = dep.addMachine("web", hw::platformA());
    os::Machine &db = dep.addMachine("db", hw::platformA());
    app::ServiceInstance &back = dep.deploy(backendSpec(), web);
    app::ResilienceSpec res;
    res.rpcDeadline = sim::milliseconds(20);
    res.hedge.enabled = true;
    res.hedge.delay = sim::microseconds(300);
    res.breaker.enabled = true;
    res.breaker.failureThreshold = 4;
    app::ServiceInstance &front =
        dep.deploy(frontendSpec(res), web);
    dep.wireAll();
    dep.addReplica("back", db);

    fault::FaultPlan plan;
    plan.linkLatency("web", "db", 0, sim::milliseconds(90),
                     sim::milliseconds(3));
    fault::FaultInjector injector(dep);
    injector.install(plan);

    workload::LoadGen gen(dep, front,
                          TwoTier::clientLoad(2000,
                                              sim::milliseconds(50)),
                          23);
    gen.start();
    dep.runFor(sim::milliseconds(30));
    gen.stop();
    dep.runFor(sim::milliseconds(30));

    const app::ServiceStats &fs = front.stats();
    EXPECT_GT(fs.rpcHedges, 0u);
    EXPECT_GT(fs.rpcHedgeWins, 0u);
    EXPECT_LE(fs.rpcHedgeWins, fs.rpcHedges);
    EXPECT_EQ(fs.rpcTimeouts, 0u);
    EXPECT_EQ(dep.tracer().outcomeCount(
                  trace::OutcomeKind::RpcHedgeWon),
              fs.rpcHedgeWins);
    expectRpcConservation(fs);
    // Hedged losers never feed the breaker: one verdict per call,
    // and every call here ultimately succeeded.
    app::CircuitBreaker *cb = front.breaker(0);
    ASSERT_NE(cb, nullptr);
    EXPECT_EQ(cb->timesOpened(), 0u);
    EXPECT_GT(back.stats().rxBytes, 0u);
}

// ---------------------------------------------------------------------------
// Retry timers vs machine crash/restart windows
// ---------------------------------------------------------------------------

TEST_P(RetryUnderCrashByModel, TimersFireInsideCrashAndRestartWindow)
{
    // Overlapping crashes: the backend's machine freezes first, so
    // the frontend piles up rpc-deadline and backoff timers; then the
    // frontend process itself crashes while those timers are pending.
    // Timers firing for a crashed (or since restarted) worker must
    // neither resurrect work nor leak a call: the books still balance
    // after everything returns.
    app::ResilienceSpec res;
    res.rpcDeadline = sim::microseconds(600);
    res.retry.maxAttempts = 2;
    res.retry.baseBackoff = sim::microseconds(100);
    app::Deployment dep(17);
    os::Machine &web = dep.addMachine("web", hw::platformA());
    os::Machine &db = dep.addMachine("db", hw::platformA());
    dep.deploy(backendSpec(), db);
    app::ServiceInstance &front =
        dep.deploy(frontendSpec(res, GetParam().model), web);
    dep.wireAll();

    fault::FaultPlan plan;
    plan.machineCrash("db", sim::milliseconds(15),
                      sim::milliseconds(10));
    // Starts while an async fanout leg is open as well as a sync call.
    plan.serviceCrash("front", sim::milliseconds(17),
                      sim::milliseconds(9));
    fault::FaultInjector injector(dep);
    injector.install(plan);

    workload::LoadGen gen(dep, front,
                          TwoTier::clientLoad(2000,
                                              sim::milliseconds(5)),
                          23);
    gen.start();
    dep.runFor(sim::milliseconds(30));
    const std::uint64_t okDuringChaos = gen.completedOk();
    dep.runFor(sim::milliseconds(30));
    gen.stop();
    dep.runFor(sim::milliseconds(40));

    const app::ServiceStats &fs = front.stats();
    // Deadline timers fired while the backend was down (an async
    // fanout has no retry loop: its legs time out once)...
    EXPECT_GT(fs.rpcTimeouts, 0u);
    if (GetParam().model == app::ClientModel::Sync)
        EXPECT_GT(fs.rpcRetries, 0u);
    else
        EXPECT_EQ(fs.rpcRetries, 0u);
    // ...and the frontend's own crash settled its open calls.
    EXPECT_GT(fs.rpcCancelled, 0u);
    expectRpcConservation(fs);
    EXPECT_EQ(dep.tracer().outcomeCount(
                  trace::OutcomeKind::RpcTimeout),
              fs.rpcTimeouts);
    // Both machines restarted and traffic recovered.
    EXPECT_FALSE(web.down());
    EXPECT_FALSE(db.down());
    EXPECT_GT(gen.completedOk(), okDuringChaos);
    EXPECT_EQ(dep.network().messagesInFlight(), 0u);
}

TEST(RetryUnderCrash, BudgetExhaustionReportsFinalOutcome)
{
    // The backend is down for most of the run, so calls burn their
    // full retry budget. Exactly one extra attempt is issued per
    // retried call (maxAttempts = 2), every exhausted call reports a
    // single RpcTimeout, and each such request answers degraded.
    app::ResilienceSpec res;
    res.rpcDeadline = sim::microseconds(600);
    res.retry.maxAttempts = 2;
    res.retry.baseBackoff = sim::microseconds(100);
    TwoTier w(res);
    profile::ProbeCollector probe;
    w.front.setProbe(&probe);

    fault::FaultPlan plan;
    plan.serviceCrash("back", sim::milliseconds(5),
                      sim::milliseconds(35));
    fault::FaultInjector injector(w.dep);
    injector.install(plan);
    w.gen.start();
    w.dep.runFor(sim::milliseconds(45));
    w.gen.stop();
    w.dep.runFor(sim::milliseconds(30));

    using trace::OutcomeKind;
    const app::ServiceStats &fs = w.front.stats();
    EXPECT_GT(fs.rpcTimeouts, 0u);
    // Budget accounting: every RpcTimeout and every RpcRetriedOk
    // consumed exactly one extra attempt; plain RpcOk consumed none.
    EXPECT_EQ(fs.rpcRetries,
              fs.rpcTimeouts +
                  probe.outcomeCount(OutcomeKind::RpcRetriedOk));
    EXPECT_EQ(fs.rpcRetries, probe.extraAttempts());
    expectRpcConservation(fs);
    // Final outcome: exhausted calls answer degraded, and every
    // degraded response reached the client (a few may land after the
    // client's own timeout and count as late instead of error).
    EXPECT_GT(fs.requestsDegraded, 0u);
    EXPECT_EQ(fs.requestsDegraded,
              probe.outcomeCount(OutcomeKind::RequestError));
    EXPECT_GE(fs.requestsDegraded, w.gen.completedError());
    EXPECT_LE(fs.requestsDegraded,
              w.gen.completedError() + w.gen.lateResponses());
}

// ---------------------------------------------------------------------------
// Pinned outcomes of the armed call-out path
// ---------------------------------------------------------------------------

/**
 * A sync root over a replicated async tier with every call-out
 * mechanism armed: retry, breaker, hedge, brownout of an optional
 * edge, cancellation, deadline propagation, and one crash window.
 * The root's hop margin decides which settle paths dominate: a wide
 * margin makes its retries run out of budget, a narrow one leaves it
 * still working when the client's cancel arrives. Returns every
 * counter the run produces, keyed by name.
 */
std::map<std::string, std::uint64_t>
runArmedCallOut(sim::Time rootHopMargin)
{
    app::Deployment dep(41);
    os::Machine &web = dep.addMachine("web", hw::platformA());
    os::Machine &db = dep.addMachine("db", hw::platformA());

    app::ServiceSpec leaf = backendSpec();
    leaf.name = "leaf";
    leaf.endpoints[0].handler.ops = {
        app::opCompute(0, 200), app::opSleep(sim::microseconds(400))};
    dep.deploy(leaf, web);
    app::ServiceSpec aux = backendSpec();
    aux.name = "aux";
    dep.deploy(aux, web);

    // Async tier: a three-leg fanout, one leg optional (":opt").
    app::ServiceSpec mid = backendSpec();
    mid.name = "mid";
    mid.clientModel = app::ClientModel::Async;
    mid.downstreams = {"leaf", "aux"};
    mid.endpoints[0].handler.ops = {
        app::opCompute(0, 3),
        app::opRpcFanout({{0, 0, 128, 256, false},
                          {1, 0, 64, 128, true},
                          {0, 0, 96, 192, false}})};
    mid.resilience.rpcDeadline = sim::microseconds(900);
    mid.resilience.breaker.enabled = true;
    mid.resilience.breaker.failureThreshold = 6;
    mid.resilience.breaker.openDuration = sim::milliseconds(2);
    mid.resilience.cancellation = true;
    mid.resilience.propagateDeadline = true;
    mid.resilience.hopMargin = sim::microseconds(50);
    mid.resilience.overload.enabled = true;
    mid.resilience.overload.latencyRatio = 0.5;
    mid.resilience.overload.window = 8;
    mid.resilience.overload.maxLimit = 4096;
    mid.resilience.overload.initialLimit = 4096;
    mid.resilience.overload.brownout = true;
    dep.deploy(mid, web);

    // Sync root: a hedged call into the async tier, then an optional
    // call that brownout may skip.
    app::ServiceSpec root = backendSpec();
    root.name = "root";
    root.downstreams = {"mid", "aux"};
    root.endpoints[0].handler.ops = {
        app::opCompute(0, 3),
        app::opRpcFanout({{0, 0, 128, 512, false},
                          {1, 0, 64, 128, true}}),
        app::opCompute(0, 3)};
    app::ResilienceSpec &res = root.resilience;
    res.rpcDeadline = sim::milliseconds(2);
    res.retry.maxAttempts = 3;
    res.retry.baseBackoff = sim::microseconds(100);
    res.breaker.enabled = true;
    res.breaker.failureThreshold = 8;
    res.breaker.openDuration = sim::milliseconds(3);
    res.hedge.enabled = true;
    res.hedge.delay = sim::microseconds(400);
    res.cancellation = true;
    res.propagateDeadline = true;
    res.hopMargin = rootHopMargin;
    res.overload.enabled = true;
    res.overload.latencyRatio = 1.5;
    res.overload.window = 8;
    res.overload.maxLimit = 4096;
    res.overload.initialLimit = 4096;
    res.overload.brownout = true;
    app::ServiceInstance &rootSvc = dep.deploy(root, web);
    dep.wireAll();
    dep.addReplica("mid", db);

    fault::FaultPlan plan;
    plan.linkLatency("web", "db", sim::milliseconds(5),
                     sim::milliseconds(20), sim::microseconds(800));
    plan.serviceCrash("mid", sim::milliseconds(15),
                      sim::milliseconds(10));
    fault::FaultInjector injector(dep);
    injector.install(plan);

    workload::LoadSpec load =
        TwoTier::clientLoad(3000, sim::milliseconds(4));
    load.propagateDeadline = true;
    load.cancelOnTimeout = true;
    workload::LoadGen gen(dep, rootSvc, load, 43);
    gen.start();
    dep.runFor(sim::milliseconds(40));
    gen.stop();
    dep.runFor(sim::milliseconds(30));

    std::map<std::string, std::uint64_t> got;
    for (const char *name : {"root", "mid", "leaf", "aux"}) {
        for (app::ServiceInstance *svc : dep.replicas(name)) {
            const app::ServiceStats &s = svc->stats();
            const std::string k = svc->instanceLabel() + ".";
            got[k + "requests"] = s.requests;
            got[k + "rxBytes"] = s.rxBytes;
            got[k + "txBytes"] = s.txBytes;
            got[k + "rpcOk"] = s.rpcOk;
            got[k + "rpcRetries"] = s.rpcRetries;
            got[k + "rpcTimeouts"] = s.rpcTimeouts;
            got[k + "rpcBreakerFastFails"] = s.rpcBreakerFastFails;
            got[k + "rpcStaleResponses"] = s.rpcStaleResponses;
            got[k + "requestsShed"] = s.requestsShed;
            got[k + "requestsDegraded"] = s.requestsDegraded;
            got[k + "rpcCallsStarted"] = s.rpcCallsStarted;
            got[k + "rpcCancelled"] = s.rpcCancelled;
            got[k + "rpcHedges"] = s.rpcHedges;
            got[k + "rpcHedgeWins"] = s.rpcHedgeWins;
            got[k + "requestsCancelled"] = s.requestsCancelled;
            got[k + "rpcRetriesSuppressed"] = s.rpcRetriesSuppressed;
            got[k + "rpcBrownoutSkipped"] = s.rpcBrownoutSkipped;
            got[k + "instructions"] = s.exec.instructions;
        }
    }
    // Tracer outcomes by (service, kind, cause): count and the sum of
    // the recorded attempts.
    for (const trace::OutcomeEvent &e : dep.tracer().outcomes()) {
        const std::string k = "outcome." + e.service + "." +
            trace::outcomeKindName(e.kind) + "." +
            (e.cause.empty() ? "-" : e.cause);
        got[k + ".count"] += 1;
        got[k + ".attempts"] += e.attempts;
    }
    got["client.sent"] = gen.sent();
    got["client.completedOk"] = gen.completedOk();
    got["client.completedError"] = gen.completedError();
    got["client.completedShed"] = gen.completedShed();
    got["client.timedOut"] = gen.timedOut();
    got["client.lateResponses"] = gen.lateResponses();
    got["client.cancelsSent"] = gen.cancelsSent();
    got["client.p99"] = gen.latency().percentile(0.99);
    got["net.sent"] = dep.network().messagesSent();
    got["net.delivered"] = dep.network().messagesDelivered();
    return got;
}

std::string
formatCounters(const std::map<std::string, std::uint64_t> &m)
{
    std::string out;
    for (const auto &[k, v] : m)
        out += "        {\"" + k + "\", " + std::to_string(v) + "},\n";
    return out;
}

TEST(CallOutPinned, ArmedSyncOverAsyncMatchesReference)
{
    // Constants captured from the runtime before the sync and async
    // call-out paths shared one per-attempt record. Any behavioural
    // drift in the call-out path -- an extra rng draw, a reordered
    // cancel, a changed attempts count or cause -- shows up here.
    const std::map<std::string, std::uint64_t> expected = {
        {"margin100.aux.instructions", 1694400},
        {"margin100.aux.requests", 150},
        {"margin100.aux.rxBytes", 9600},
        {"margin100.aux.txBytes", 9600},
        {"margin100.client.cancelsSent", 17},
        {"margin100.client.completedError", 82},
        {"margin100.client.completedOk", 19},
        {"margin100.client.lateResponses", 17},
        {"margin100.client.p99", 3896163},
        {"margin100.client.sent", 118},
        {"margin100.client.timedOut", 17},
        {"margin100.leaf.instructions", 1707624},
        {"margin100.leaf.requests", 51},
        {"margin100.leaf.requestsCancelled", 24},
        {"margin100.leaf.rxBytes", 8448},
        {"margin100.leaf.txBytes", 3264},
        {"margin100.mid.instructions", 1436092},
        {"margin100.mid.requests", 49},
        {"margin100.mid.requestsCancelled", 4},
        {"margin100.mid.requestsDegraded", 34},
        {"margin100.mid.rpcBreakerFastFails", 61},
        {"margin100.mid.rpcBrownoutSkipped", 7},
        {"margin100.mid.rpcCallsStarted", 159},
        {"margin100.mid.rpcCancelled", 12},
        {"margin100.mid.rpcOk", 79},
        {"margin100.mid.rpcStaleResponses", 1},
        {"margin100.mid.rpcTimeouts", 7},
        {"margin100.mid.rxBytes", 11904},
        {"margin100.mid.txBytes", 11488},
        {"margin100.mid@1.instructions", 1190692},
        {"margin100.mid@1.requests", 50},
        {"margin100.mid@1.requestsCancelled", 18},
        {"margin100.mid@1.requestsDegraded", 46},
        {"margin100.mid@1.rpcBreakerFastFails", 112},
        {"margin100.mid@1.rpcBrownoutSkipped", 8},
        {"margin100.mid@1.rpcCallsStarted", 171},
        {"margin100.mid@1.rpcCancelled", 26},
        {"margin100.mid@1.rpcOk", 17},
        {"margin100.mid@1.rpcStaleResponses", 13},
        {"margin100.mid@1.rpcTimeouts", 16},
        {"margin100.mid@1.rxBytes", 10624},
        {"margin100.mid@1.txBytes", 8736},
        {"margin100.net.delivered", 984},
        {"margin100.net.sent", 1010},
        {"margin100.outcome.leaf.request_cancelled.upstream_cancel.count", 24},
        {"margin100.outcome.mid.request_cancelled.crash.count", 1},
        {"margin100.outcome.mid.request_cancelled.expired_on_arrival.count", 11},
        {"margin100.outcome.mid.request_cancelled.upstream_cancel.count", 10},
        {"margin100.outcome.mid.request_error.-.count", 80},
        {"margin100.outcome.mid.rpc_breaker_open.-.attempts", 173},
        {"margin100.outcome.mid.rpc_breaker_open.-.count", 173},
        {"margin100.outcome.mid.rpc_cancelled.brownout.count", 15},
        {"margin100.outcome.mid.rpc_cancelled.budget_exhausted.count", 3},
        {"margin100.outcome.mid.rpc_cancelled.crash.attempts", 1},
        {"margin100.outcome.mid.rpc_cancelled.crash.count", 1},
        {"margin100.outcome.mid.rpc_cancelled.upstream_cancel.attempts", 19},
        {"margin100.outcome.mid.rpc_cancelled.upstream_cancel.count", 19},
        {"margin100.outcome.mid.rpc_ok.-.attempts", 96},
        {"margin100.outcome.mid.rpc_ok.-.count", 96},
        {"margin100.outcome.mid.rpc_timeout.-.attempts", 23},
        {"margin100.outcome.mid.rpc_timeout.-.count", 23},
        {"margin100.outcome.root.request_error.-.count", 99},
        {"margin100.outcome.root.rpc_breaker_open.-.count", 25},
        {"margin100.outcome.root.rpc_cancelled.brownout.count", 24},
        {"margin100.outcome.root.rpc_cancelled.budget_exhausted.count", 8},
        {"margin100.outcome.root.rpc_hedge_won.-.attempts", 17},
        {"margin100.outcome.root.rpc_hedge_won.-.count", 17},
        {"margin100.outcome.root.rpc_ok.-.attempts", 145},
        {"margin100.outcome.root.rpc_ok.-.count", 145},
        {"margin100.outcome.root.rpc_timeout.budget_exhausted.attempts", 17},
        {"margin100.outcome.root.rpc_timeout.budget_exhausted.count", 17},
        {"margin100.root.instructions", 3406016},
        {"margin100.root.requests", 118},
        {"margin100.root.requestsDegraded", 99},
        {"margin100.root.rpcBreakerFastFails", 25},
        {"margin100.root.rpcBrownoutSkipped", 24},
        {"margin100.root.rpcCallsStarted", 236},
        {"margin100.root.rpcCancelled", 32},
        {"margin100.root.rpcHedgeWins", 17},
        {"margin100.root.rpcHedges", 40},
        {"margin100.root.rpcOk", 162},
        {"margin100.root.rpcRetries", 17},
        {"margin100.root.rpcStaleResponses", 22},
        {"margin100.root.rpcTimeouts", 17},
        {"margin100.root.rxBytes", 19328},
        {"margin100.root.txBytes", 31904},
        {"margin20.aux.instructions", 1525380},
        {"margin20.aux.requests", 135},
        {"margin20.aux.rxBytes", 8640},
        {"margin20.aux.txBytes", 8640},
        {"margin20.client.cancelsSent", 12},
        {"margin20.client.completedError", 51},
        {"margin20.client.completedOk", 55},
        {"margin20.client.p99", 3964928},
        {"margin20.client.sent", 118},
        {"margin20.client.timedOut", 12},
        {"margin20.leaf.instructions", 4752452},
        {"margin20.leaf.requests", 139},
        {"margin20.leaf.requestsCancelled", 86},
        {"margin20.leaf.rxBytes", 25280},
        {"margin20.leaf.txBytes", 8896},
        {"margin20.mid.instructions", 1935348},
        {"margin20.mid.requests", 42},
        {"margin20.mid.requestsCancelled", 19},
        {"margin20.mid.requestsDegraded", 4},
        {"margin20.mid.rpcBrownoutSkipped", 41},
        {"margin20.mid.rpcCallsStarted", 183},
        {"margin20.mid.rpcCancelled", 73},
        {"margin20.mid.rpcOk", 104},
        {"margin20.mid.rpcStaleResponses", 4},
        {"margin20.mid.rpcTimeouts", 6},
        {"margin20.mid.rxBytes", 14720},
        {"margin20.mid.txBytes", 18784},
        {"margin20.mid@1.instructions", 1830104},
        {"margin20.mid@1.requests", 38},
        {"margin20.mid@1.requestsCancelled", 35},
        {"margin20.mid@1.requestsDegraded", 21},
        {"margin20.mid@1.rpcBreakerFastFails", 25},
        {"margin20.mid@1.rpcBrownoutSkipped", 41},
        {"margin20.mid@1.rpcCallsStarted", 189},
        {"margin20.mid@1.rpcCancelled", 95},
        {"margin20.mid@1.rpcOk", 47},
        {"margin20.mid@1.rpcStaleResponses", 16},
        {"margin20.mid@1.rpcTimeouts", 22},
        {"margin20.mid@1.rxBytes", 13376},
        {"margin20.mid@1.txBytes", 17472},
        {"margin20.net.delivered", 1260},
        {"margin20.net.sent", 1273},
        {"margin20.outcome.leaf.request_cancelled.cancelled_in_queue.count", 16},
        {"margin20.outcome.leaf.request_cancelled.upstream_cancel.count", 70},
        {"margin20.outcome.mid.request_cancelled.crash.count", 1},
        {"margin20.outcome.mid.request_cancelled.expired_on_arrival.count", 10},
        {"margin20.outcome.mid.request_cancelled.upstream_cancel.count", 43},
        {"margin20.outcome.mid.request_error.-.count", 25},
        {"margin20.outcome.mid.rpc_breaker_open.-.attempts", 25},
        {"margin20.outcome.mid.rpc_breaker_open.-.count", 25},
        {"margin20.outcome.mid.rpc_cancelled.brownout.count", 82},
        {"margin20.outcome.mid.rpc_cancelled.budget_exhausted.count", 3},
        {"margin20.outcome.mid.rpc_cancelled.crash.attempts", 2},
        {"margin20.outcome.mid.rpc_cancelled.crash.count", 2},
        {"margin20.outcome.mid.rpc_cancelled.upstream_cancel.attempts", 81},
        {"margin20.outcome.mid.rpc_cancelled.upstream_cancel.count", 81},
        {"margin20.outcome.mid.rpc_ok.-.attempts", 151},
        {"margin20.outcome.mid.rpc_ok.-.count", 151},
        {"margin20.outcome.mid.rpc_timeout.-.attempts", 28},
        {"margin20.outcome.mid.rpc_timeout.-.count", 28},
        {"margin20.outcome.root.request_cancelled.upstream_cancel.count", 12},
        {"margin20.outcome.root.request_error.-.count", 51},
        {"margin20.outcome.root.rpc_breaker_open.-.attempts", 1},
        {"margin20.outcome.root.rpc_breaker_open.-.count", 42},
        {"margin20.outcome.root.rpc_cancelled.brownout.count", 8},
        {"margin20.outcome.root.rpc_cancelled.upstream_cancel.attempts", 12},
        {"margin20.outcome.root.rpc_cancelled.upstream_cancel.count", 12},
        {"margin20.outcome.root.rpc_hedge_won.-.attempts", 12},
        {"margin20.outcome.root.rpc_hedge_won.-.count", 12},
        {"margin20.outcome.root.rpc_ok.-.attempts", 150},
        {"margin20.outcome.root.rpc_ok.-.count", 150},
        {"margin20.root.instructions", 3483044},
        {"margin20.root.requests", 106},
        {"margin20.root.requestsCancelled", 12},
        {"margin20.root.requestsDegraded", 51},
        {"margin20.root.rpcBreakerFastFails", 42},
        {"margin20.root.rpcBrownoutSkipped", 8},
        {"margin20.root.rpcCallsStarted", 224},
        {"margin20.root.rpcCancelled", 20},
        {"margin20.root.rpcHedgeWins", 12},
        {"margin20.root.rpcHedges", 62},
        {"margin20.root.rpcOk", 162},
        {"margin20.root.rpcRetries", 13},
        {"margin20.root.rpcStaleResponses", 16},
        {"margin20.root.rxBytes", 18944},
        {"margin20.root.txBytes", 33248},
    };
    std::map<std::string, std::uint64_t> got;
    for (const unsigned marginUs : {20u, 100u}) {
        const std::string prefix = "margin" + std::to_string(marginUs) + ".";
        for (const auto &[k, v] :
             runArmedCallOut(sim::microseconds(marginUs))) {
            if (v != 0)  // a counter that turns non-zero still shows
                got[prefix + k] = v;
        }
    }
    EXPECT_EQ(got, expected) << "observed:\n" << formatCounters(got);
}


// ---------------------------------------------------------------------------
// The crash path's outcome gate
// ---------------------------------------------------------------------------

/**
 * A frontend whose requests sit parked in their call to a saturated
 * single-worker backend, then either crash (frontend process down
 * 10-15 ms) or are cancelled by the client on timeout. Returns the
 * frontend's cancellation books: stats, probe, and the tracer's
 * outcomes by kind and cause.
 */
std::map<std::string, std::uint64_t>
runCancelGate(const app::ResilienceSpec &res, bool crash)
{
    app::Deployment dep(17);
    os::Machine &machine = dep.addMachine("n", hw::platformA());
    app::ServiceSpec slow = backendSpec();
    slow.threads.workers = 1;
    slow.endpoints[0].handler.ops = {app::opCompute(0, 30000)};
    dep.deploy(slow, machine);
    app::ServiceInstance &front = dep.deploy(frontendSpec(res), machine);
    dep.wireAll();
    profile::ProbeCollector probe;
    front.setProbe(&probe);

    fault::FaultPlan plan;
    if (crash) {
        plan.serviceCrash("front", sim::milliseconds(10),
                          sim::milliseconds(5));
    }
    fault::FaultInjector injector(dep);
    injector.install(plan);

    workload::LoadSpec load =
        TwoTier::clientLoad(8000, sim::milliseconds(2));
    load.cancelOnTimeout = !crash;
    workload::LoadGen gen(dep, front, load, 23);
    gen.start();
    dep.runFor(sim::milliseconds(20));
    gen.stop();
    dep.runFor(sim::milliseconds(40));

    using trace::OutcomeKind;
    const app::ServiceStats &fs = front.stats();
    std::map<std::string, std::uint64_t> got;
    got["rxBytes"] = fs.rxBytes;
    got["stats.request_cancelled"] = fs.requestsCancelled;
    got["stats.rpc_cancelled"] = fs.rpcCancelled;
    got["probe.request_cancelled"] =
        probe.outcomeCount(OutcomeKind::RequestCancelled);
    got["probe.rpc_cancelled"] =
        probe.outcomeCount(OutcomeKind::RpcCancelled);
    for (const trace::OutcomeEvent &e : dep.tracer().outcomes()) {
        if (e.service == "front" &&
            (e.kind == OutcomeKind::RequestCancelled ||
             e.kind == OutcomeKind::RpcCancelled)) {
            got[std::string("tracer.") + trace::outcomeKindName(e.kind) +
                "." + e.cause] += 1;
        }
    }
    return got;
}

TEST(CancelGate, UnarmedCrashNotesNoCancellation)
{
    // An unarmed service stays bit-identical to the runtime before
    // request lifecycles: a crash still counts the bytes of the
    // requests it kills, but notes no cancellation in any book. The
    // armed run below has the same timing (arming only cancellation
    // sends nothing on a crash), so the crash provably hit requests.
    const auto unarmed = runCancelGate(app::ResilienceSpec{}, true);
    app::ResilienceSpec armedRes;
    armedRes.cancellation = true;
    const auto armed = runCancelGate(armedRes, true);
    ASSERT_GT(armed.at("stats.request_cancelled"), 0u);
    EXPECT_EQ(unarmed.at("rxBytes"), armed.at("rxBytes"));
    const std::map<std::string, std::uint64_t> none = {
        {"rxBytes", unarmed.at("rxBytes")},
        {"stats.request_cancelled", 0},
        {"stats.rpc_cancelled", 0},
        {"probe.request_cancelled", 0},
        {"probe.rpc_cancelled", 0},
    };
    EXPECT_EQ(unarmed, none);
}

TEST(CancelGate, UnarmedUpstreamCancelNotesRequestCancelled)
{
    // Receiving a cancel is always honored, so the same unarmed
    // service notes the requests its client cancels, in every book:
    // mostly mid-call, a few still queued. Its calls settle silently:
    // an unarmed service counts no call outcomes, so none can be
    // cancelled either.
    const auto got = runCancelGate(app::ResilienceSpec{}, false);
    const std::uint64_t n = got.at("stats.request_cancelled");
    EXPECT_GT(got.at("tracer.request_cancelled.upstream_cancel"), 0u);
    EXPECT_EQ(got.at("probe.request_cancelled"), n);
    EXPECT_EQ(got.at("tracer.request_cancelled.upstream_cancel") +
                  got.at("tracer.request_cancelled.cancelled_in_queue"),
              n);
    EXPECT_EQ(got.at("stats.rpc_cancelled"), 0u);
    EXPECT_EQ(got.at("probe.rpc_cancelled"), 0u);
    EXPECT_EQ(got.count("tracer.rpc_cancelled.upstream_cancel"), 0u);
}

TEST(CancelGate, ArmedCrashNotesCrashCancellations)
{
    // An armed service settles the crashed requests and their open
    // calls as cancelled with cause "crash", identically in all books.
    app::ResilienceSpec res;
    res.cancellation = true;
    const auto got = runCancelGate(res, true);
    const std::uint64_t requests = got.at("stats.request_cancelled");
    const std::uint64_t calls = got.at("stats.rpc_cancelled");
    EXPECT_GT(requests, 0u);
    EXPECT_GT(calls, 0u);
    EXPECT_EQ(got.at("probe.request_cancelled"), requests);
    EXPECT_EQ(got.at("probe.rpc_cancelled"), calls);
    EXPECT_EQ(got.at("tracer.request_cancelled.crash"), requests);
    EXPECT_EQ(got.at("tracer.rpc_cancelled.crash"), calls);
}

} // namespace
