/**
 * @file
 * Tests for the multi-region layer: region registry + deployment
 * errors, WAN links (latency, bandwidth-independent ledgers, seeded
 * correlated loss bursts), prefer-local balancing and hedge locality,
 * region-scoped fault kinds, region-aware placement, and the region
 * failover monitor's RTO accounting -- plus bit-exact determinism of
 * a full failover scenario at any RunExecutor worker count.
 *
 * These tests carry the `region` ctest label; the determinism slice
 * also joins `parallel` so a -DDITTO_TSAN=ON build races multi-region
 * failover runs under TSan.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "app/deployment.h"
#include "app/service.h"
#include "cluster/balancer.h"
#include "cluster/failover.h"
#include "cluster/placer.h"
#include "cluster/region.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "obs/metrics.h"
#include "sim/run_executor.h"
#include "workload/loadgen.h"

namespace {

using namespace ditto;

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
apiSpec(const std::string &name = "api")
{
    app::ServiceSpec spec;
    spec.name = name;
    spec.threads.workers = 2;
    spec.blocks.push_back(tinyBlock(name + ".h", 3));
    app::EndpointSpec ep;
    ep.name = "get";
    ep.handler.ops = {app::opCompute(0, 5)};
    spec.endpoints.push_back(ep);
    return spec;
}

app::ServiceSpec
frontSpec(cluster::BalancerPolicy policy,
          sim::Time rpcDeadline = sim::milliseconds(8))
{
    app::ServiceSpec spec;
    spec.name = "front";
    spec.threads.workers = 4;
    spec.downstreams = {"api"};
    spec.blocks.push_back(tinyBlock("front.h", 4));
    app::EndpointSpec ep;
    ep.name = "page";
    ep.handler.ops = {app::opCompute(0, 3),
                      app::opRpc(0, 0, 128, 256),
                      app::opCompute(0, 3)};
    spec.endpoints.push_back(ep);
    spec.resilience.rpcDeadline = rpcDeadline;
    spec.balancing.policy = policy;
    return spec;
}

workload::LoadSpec
clientLoad(double qps, sim::Time timeout)
{
    workload::LoadSpec load;
    load.qps = qps;
    load.connections = 4;
    load.openLoop = true;
    load.timeout = timeout;
    return load;
}

// ---------------------------------------------------------------------------
// Region registry + deployment error reporting
// ---------------------------------------------------------------------------

TEST(RegionDefaults, OffByDefault)
{
    app::Deployment dep(7);
    os::Machine &m = dep.addMachine("m0", hw::platformA());
    EXPECT_EQ(m.regionId(), 0u);
    EXPECT_EQ(dep.regionCount(), 1u);
    EXPECT_EQ(dep.regionName(0), "");
    EXPECT_TRUE(dep.network().wanLinks().empty());
    EXPECT_FALSE(dep.network().regionPartitioned(0, 1));
}

TEST(RegionErrors, UnknownRegionNamesOffenderAndRegion)
{
    app::Deployment dep(7);
    try {
        dep.addMachine("mx", hw::platformA(), "nowhere");
        FAIL() << "unknown region must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("machine 'mx'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("unknown region 'nowhere'"),
                  std::string::npos)
            << what;
    }

    dep.defineRegion("r0");
    dep.addMachine("m0", hw::platformA(), "r0");
    try {
        dep.deployInRegion(apiSpec(), "atlantis");
        FAIL() << "unknown region must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("service 'api'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("'atlantis'"), std::string::npos) << what;
    }

    dep.deployInRegion(apiSpec(), "r0");
    try {
        dep.addReplicaInRegion("api", "mars");
        FAIL() << "unknown region must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("replica of service 'api'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("'mars'"), std::string::npos) << what;
    }
}

TEST(RegionErrors, UnknownPinRegionNamesCallerEdgeAndRegion)
{
    app::Deployment dep(7);
    dep.defineRegion("r0");
    dep.addMachine("m0", hw::platformA(), "r0");
    dep.deployInRegion(apiSpec(), "r0");
    app::ServiceSpec front =
        frontSpec(cluster::BalancerPolicy::RoundRobin);
    front.balancing.pinRegion["api"] = "void";
    dep.deployInRegion(front, "r0");
    try {
        dep.wireAll();
        FAIL() << "unknown pin region must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("service 'front'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("downstream 'api'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("unknown region 'void'"),
                  std::string::npos)
            << what;
    }
}

// ---------------------------------------------------------------------------
// WAN links: latency, ledgers, correlated bursts
// ---------------------------------------------------------------------------

TEST(RegionWan, CrossRegionLatencyAppliesAndLedgersBalance)
{
    app::Deployment dep(11);
    cluster::WanProfile wan;
    wan.baseLatency = sim::milliseconds(1);
    wan.latencySpread = 0;
    wan.seed = 3;
    const std::vector<std::uint32_t> ids = cluster::buildRegions(
        dep, {{"r0", 1}, {"r1", 1}}, wan);

    dep.deployInRegion(apiSpec(), "r1");
    dep.deployInRegion(frontSpec(cluster::BalancerPolicy::RoundRobin),
                       "r0");
    dep.wireAll();

    workload::LoadGen lg(dep, *dep.find("front"),
                         clientLoad(2000, sim::milliseconds(15)), 5);
    lg.start();
    dep.runFor(sim::milliseconds(20));
    lg.stop();
    dep.runFor(sim::milliseconds(20));

    ASSERT_GT(lg.completedOk(), 0u);
    // Request and response each cross the WAN once: >= 2ms round trip.
    EXPECT_GE(lg.latency().percentile(0.5), sim::milliseconds(2));

    // Exact per-directed-link ledgers, quiescent after the drain.
    for (const auto &key :
         {std::make_pair(ids[0], ids[1]),
          std::make_pair(ids[1], ids[0])}) {
        const os::WanLinkStats *ls =
            dep.network().wanLinkStats(key.first, key.second);
        ASSERT_NE(ls, nullptr);
        EXPECT_GT(ls->msgsSent, 0u);
        EXPECT_EQ(ls->msgsSent, ls->msgsDelivered + ls->msgsDropped);
        EXPECT_EQ(ls->msgsInFlight(), 0u);
        EXPECT_EQ(ls->bytesSent,
                  ls->bytesDelivered + ls->bytesDropped);
        EXPECT_EQ(ls->msgsDropped, 0u);  // no faults, no bursts
    }
}

/** Run one bursty two-region world and return the r0->r1 stats. */
os::WanLinkStats
burstyRun(std::uint64_t seed)
{
    app::Deployment dep(seed);
    cluster::WanProfile wan;
    wan.baseLatency = sim::microseconds(200);
    wan.latencySpread = 0;
    wan.burstMeanInterval = sim::milliseconds(1);
    wan.burstLength = sim::microseconds(300);
    wan.burstDropProb = 1.0;
    wan.seed = 9;
    const std::vector<std::uint32_t> ids = cluster::buildRegions(
        dep, {{"r0", 1}, {"r1", 1}}, wan);

    dep.deployInRegion(apiSpec(), "r1");
    dep.deployInRegion(frontSpec(cluster::BalancerPolicy::RoundRobin,
                                 sim::milliseconds(2)),
                       "r0");
    dep.wireAll();

    workload::LoadGen lg(dep, *dep.find("front"),
                         clientLoad(4000, sim::milliseconds(5)), 5);
    lg.start();
    dep.runFor(sim::milliseconds(20));
    lg.stop();
    dep.runFor(sim::milliseconds(20));
    return *dep.network().wanLinkStats(ids[0], ids[1]);
}

TEST(RegionWan, CorrelatedBurstsDropAndReplayBitIdentically)
{
    const os::WanLinkStats a = burstyRun(21);
    EXPECT_GT(a.msgsSent, 0u);
    EXPECT_GT(a.msgsDropped, 0u);  // bursts actually fire
    EXPECT_LT(a.msgsDropped, a.msgsSent);  // ... in windows, not always
    EXPECT_EQ(a.msgsSent, a.msgsDelivered + a.msgsDropped);

    // Burst schedules draw from a private seeded rng: same world,
    // same drops, bit for bit.
    const os::WanLinkStats b = burstyRun(21);
    EXPECT_EQ(a.msgsSent, b.msgsSent);
    EXPECT_EQ(a.msgsDelivered, b.msgsDelivered);
    EXPECT_EQ(a.msgsDropped, b.msgsDropped);
    EXPECT_EQ(a.bytesDropped, b.bytesDropped);
}

// ---------------------------------------------------------------------------
// Region-scoped fault kinds
// ---------------------------------------------------------------------------

TEST(RegionFaults, PartitionIsolationOutageAndUnresolvedTargets)
{
    app::Deployment dep(13);
    cluster::WanProfile wan;
    wan.latencySpread = 0;
    const std::vector<std::uint32_t> ids = cluster::buildRegions(
        dep, {{"r0", 1}, {"r1", 1}, {"r2", 1}}, wan);

    fault::FaultPlan plan;
    // b empty: isolate r1 from every other region.
    plan.regionPartition("r1", "", sim::microseconds(100),
                         sim::milliseconds(1));
    plan.regionOutage("r2", sim::microseconds(100),
                      sim::milliseconds(1));
    plan.regionOutage("asgard", 0, sim::milliseconds(1));

    fault::FaultInjector inj(dep);
    inj.install(plan);

    dep.runFor(sim::microseconds(500));
    EXPECT_TRUE(dep.network().regionPartitioned(ids[0], ids[1]));
    EXPECT_TRUE(dep.network().regionPartitioned(ids[1], ids[2]));
    EXPECT_FALSE(dep.network().regionPartitioned(ids[0], ids[2]));
    for (os::Machine *m : dep.machinesInRegion(ids[2]))
        EXPECT_TRUE(m->down());
    for (os::Machine *m : dep.machinesInRegion(ids[0]))
        EXPECT_FALSE(m->down());
    EXPECT_EQ(inj.stats().unresolvedTargets, 1u);  // "asgard"

    dep.runFor(sim::milliseconds(2));
    EXPECT_FALSE(dep.network().regionPartitioned(ids[0], ids[1]));
    for (os::Machine *m : dep.machinesInRegion(ids[2]))
        EXPECT_FALSE(m->down());
    EXPECT_EQ(inj.stats().windowsActive(), 0u);
}

// ---------------------------------------------------------------------------
// Prefer-local balancing + region-aware placement
// ---------------------------------------------------------------------------

TEST(Balancer, PreferLocalRoundRobinsLocallyAndSpills)
{
    cluster::EdgeBalancer bal;
    bal.init(cluster::BalancerPolicy::PreferLocal, 4, 1);
    auto all = [](std::size_t) { return true; };
    auto local = [](std::size_t i) { return i < 2; };

    // Round-robin over the local pair while it is usable.
    EXPECT_EQ(bal.pick(0, all, local), 0u);
    EXPECT_EQ(bal.pick(0, all, local), 1u);
    EXPECT_EQ(bal.pick(0, all, local), 0u);

    // No usable local replica: spill over to the remote set.
    auto remoteOnly = [](std::size_t i) { return i >= 2; };
    EXPECT_EQ(bal.pick(0, remoteOnly, local), 2u);
    EXPECT_EQ(bal.pick(0, remoteOnly, local), 3u);

    // Without locality information the policy degenerates to plain
    // round-robin (the region-free runtime stays untouched).
    cluster::EdgeBalancer flat;
    flat.init(cluster::BalancerPolicy::PreferLocal, 3, 1);
    EXPECT_EQ(flat.pick(0, all), 0u);
    EXPECT_EQ(flat.pick(0, all), 1u);
    EXPECT_EQ(flat.pick(0, all), 2u);
}

TEST(Placer, SpreadAlternatesRegionsAndInRegionThrows)
{
    app::Deployment dep(17);
    dep.defineRegion("r0");
    dep.defineRegion("r1");
    os::Machine &a = dep.addMachine("m0", hw::platformA(), "r0");
    os::Machine &b = dep.addMachine("m1", hw::platformA(), "r1");

    cluster::Placer placer;
    placer.addMachine(a, 2);
    placer.addMachine(b, 2);

    EXPECT_EQ(&placer.placeSpread(), &a);  // tie -> lowest region id
    EXPECT_EQ(&placer.placeSpread(), &b);  // r1 now has more free
    EXPECT_EQ(&placer.placeSpread(), &a);
    EXPECT_EQ(&placer.placeSpread(), &b);

    try {
        placer.placeInRegion(99);
        FAIL() << "empty region must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("region 99"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PreferLocal, TrafficStaysLocalUntilLocalReplicaDies)
{
    app::Deployment dep(19);
    cluster::WanProfile wan;
    wan.baseLatency = sim::microseconds(300);
    wan.latencySpread = 0;
    cluster::buildRegions(dep, {{"r0", 2}, {"r1", 1}}, wan);

    dep.deployInRegion(apiSpec(), "r0");
    dep.addReplicaInRegion("api", "r1");
    dep.deployInRegion(frontSpec(cluster::BalancerPolicy::PreferLocal),
                       "r0");
    dep.wireAll();

    const auto &replicas = dep.replicas("api");
    ASSERT_EQ(replicas.size(), 2u);
    app::ServiceInstance *localApi = replicas[0];
    app::ServiceInstance *remoteApi = replicas[1];

    workload::LoadGen lg(dep, *dep.find("front"),
                         clientLoad(2000, sim::milliseconds(15)), 5);
    lg.start();
    dep.runFor(sim::milliseconds(10));

    // Healthy local replica: every request stays in-region.
    EXPECT_GT(localApi->stats().requests, 0u);
    EXPECT_EQ(remoteApi->stats().requests, 0u);

    // Kill the local replica's machine: traffic spills to r1.
    localApi->machine().setDown(true);
    const std::uint64_t localBefore = localApi->stats().requests;
    dep.runFor(sim::milliseconds(10));
    lg.stop();
    dep.runFor(sim::milliseconds(10));
    EXPECT_GT(remoteApi->stats().requests, 0u);
    EXPECT_EQ(localApi->stats().requests, localBefore);
}

// ---------------------------------------------------------------------------
// Hedge locality
// ---------------------------------------------------------------------------

struct HedgeCounts
{
    std::uint64_t hedges = 0;
    std::vector<std::uint64_t> perReplica;
};

/**
 * Front (r0, prefer-local, aggressive hedging) calling api with
 * `localReplicas` instances in r0 and one in r1. When `killLocal`,
 * every r0 api machine is downed mid-run.
 */
HedgeCounts
hedgeRun(unsigned localReplicas, bool killLocal, std::uint64_t seed)
{
    app::Deployment dep(seed);
    cluster::WanProfile wan;
    wan.baseLatency = sim::microseconds(300);
    wan.latencySpread = 0;
    cluster::buildRegions(
        dep, {{"r0", localReplicas + 1}, {"r1", 1}}, wan);

    dep.deployInRegion(apiSpec(), "r0");
    for (unsigned i = 1; i < localReplicas; ++i)
        dep.addReplicaInRegion("api", "r0");
    dep.addReplicaInRegion("api", "r1");
    app::ServiceSpec front =
        frontSpec(cluster::BalancerPolicy::PreferLocal);
    front.resilience.hedge.enabled = true;
    front.resilience.hedge.delay = sim::microseconds(10);
    dep.deployInRegion(front, "r0");
    dep.wireAll();

    workload::LoadGen lg(dep, *dep.find("front"),
                         clientLoad(2000, sim::milliseconds(15)), 5);
    lg.start();
    if (killLocal) {
        // Down every r0-hosted api machine at t=5ms.
        dep.events().scheduleAt(sim::milliseconds(5), [&dep] {
            const std::uint32_t home =
                dep.find("front")->machine().regionId();
            for (app::ServiceInstance *r : dep.replicas("api")) {
                if (r->machine().regionId() == home)
                    r->machine().setDown(true);
            }
        });
    }
    dep.runFor(sim::milliseconds(10));
    lg.stop();
    dep.runFor(sim::milliseconds(10));

    HedgeCounts out;
    out.hedges = dep.find("front")->stats().rpcHedges;
    for (app::ServiceInstance *r : dep.replicas("api"))
        out.perReplica.push_back(r->stats().requests);
    return out;
}

TEST(HedgeLocality, HedgesStayInRegionWhileALocalReplicaLives)
{
    // Two local replicas: hedges fire and both stay local -- the r1
    // replica (last in the group) never sees a request.
    const HedgeCounts two = hedgeRun(2, false, 23);
    EXPECT_GT(two.hedges, 0u);
    ASSERT_EQ(two.perReplica.size(), 3u);
    EXPECT_GT(two.perReplica[0], 0u);
    EXPECT_GT(two.perReplica[1], 0u);  // hedge target
    EXPECT_EQ(two.perReplica[2], 0u);  // remote: never crossed

    // One local replica: the hedge is suppressed rather than crossing
    // the WAN -- no hedges, still no cross-region traffic.
    const HedgeCounts one = hedgeRun(1, false, 23);
    EXPECT_EQ(one.hedges, 0u);
    ASSERT_EQ(one.perReplica.size(), 2u);
    EXPECT_EQ(one.perReplica[1], 0u);

    // No local replica alive: calls (and hedges) may cross regions.
    const HedgeCounts dead = hedgeRun(1, true, 23);
    ASSERT_EQ(dead.perReplica.size(), 2u);
    EXPECT_GT(dead.perReplica[1], 0u);
}

TEST(HedgeLocality, ChosenReplicasPinnedPerSeed)
{
    const HedgeCounts a = hedgeRun(2, false, 29);
    const HedgeCounts b = hedgeRun(2, false, 29);
    EXPECT_EQ(a.hedges, b.hedges);
    EXPECT_EQ(a.perReplica, b.perReplica);
}

// ---------------------------------------------------------------------------
// Region failover: RTO metric, span, determinism
// ---------------------------------------------------------------------------

struct FailoverOutcome
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t failovers = 0;
    std::uint64_t recoveries = 0;
    sim::Time rtoNs = 0;
    std::uint64_t failoverCounterR1 = 0;
    std::uint64_t failoverSpans = 0;
    std::uint32_t spanRegion = 0;
    sim::Time spanRtoNs = 0;
};

/**
 * The acceptance scenario: api replicated over three serving regions
 * r1..r3, front homed in r0, region-outage window on r1. The monitor
 * must detect, retire r1 (failover), and reactivate it on recovery.
 */
FailoverOutcome
failoverScenario(std::uint64_t seed)
{
    app::Deployment dep(seed);
    cluster::WanProfile wan;
    wan.baseLatency = sim::microseconds(300);
    wan.latencySpread = sim::microseconds(100);
    wan.seed = 7;
    const std::vector<std::uint32_t> ids = cluster::buildRegions(
        dep, {{"r0", 1}, {"r1", 1}, {"r2", 1}, {"r3", 1}}, wan);

    dep.deployInRegion(apiSpec(), "r1");
    dep.addReplicaInRegion("api", "r2");
    dep.addReplicaInRegion("api", "r3");
    dep.deployInRegion(frontSpec(cluster::BalancerPolicy::PreferLocal),
                       "r0");
    dep.wireAll();

    obs::MetricsRegistry metrics;
    cluster::RegionFailoverSpec fs;
    fs.period = sim::microseconds(500);
    fs.failureThreshold = 2;
    fs.viewRegion = ids[0];
    cluster::RegionFailoverMonitor monitor(dep, "api", metrics, fs);
    monitor.start();

    fault::FaultPlan plan;
    plan.regionOutage("r1", sim::milliseconds(5),
                      sim::milliseconds(10));
    fault::FaultInjector inj(dep);
    inj.install(plan);

    workload::LoadGen lg(dep, *dep.find("front"),
                         clientLoad(2000, sim::milliseconds(15)), 5);
    lg.start();
    dep.runFor(sim::milliseconds(25));
    lg.stop();
    dep.runFor(sim::milliseconds(15));

    FailoverOutcome out;
    out.sent = lg.sent();
    out.ok = lg.completedOk();
    out.timedOut = lg.timedOut();
    out.failovers = monitor.stats().failovers;
    out.recoveries = monitor.stats().recoveries;
    out.rtoNs = monitor.stats().lastRtoNs;
    out.failoverCounterR1 =
        metrics
            .counter("ditto_region_failover_total",
                     {{"service", "api"}, {"region", "r1"}})
            .value();
    for (const trace::Span &span : dep.tracer().spans()) {
        if (span.service != "failover:api")
            continue;
        out.failoverSpans++;
        out.spanRegion = span.endpoint;
        out.spanRtoNs = span.end - span.start;
    }
    return out;
}

TEST(Failover, RegionOutageRetiresRegionAndMeasuresRto)
{
    const FailoverOutcome out = failoverScenario(31);

    // Detection -> reroute happened, and the region came back.
    EXPECT_EQ(out.failovers, 1u);
    EXPECT_EQ(out.recoveries, 1u);
    EXPECT_GT(out.rtoNs, 0u);
    EXPECT_LE(out.rtoNs, sim::milliseconds(5));

    // Traffic kept flowing: the outage did not take the client down.
    EXPECT_GT(out.sent, 0u);
    EXPECT_GT(out.ok, out.sent * 9 / 10);

    // The counter and the span carry the same story: the span's
    // interval IS the RTO, its endpoint field the failed region.
    EXPECT_EQ(out.failoverCounterR1, 1u);
    EXPECT_EQ(out.failoverSpans, 1u);
    EXPECT_EQ(out.spanRtoNs, out.rtoNs);
    // Region ids are definition-ordered: default=0, r0=1, r1=2.
    EXPECT_EQ(out.spanRegion, 2u);
}

TEST(RegionDeterminism, FailoverScenarioIdenticalAcrossJobs)
{
    const std::vector<std::uint64_t> seeds = {41, 42, 43};
    const auto run = [&](sim::RunExecutor &ex) {
        std::vector<std::function<FailoverOutcome()>> tasks;
        for (std::uint64_t s : seeds)
            tasks.push_back([s] { return failoverScenario(s); });
        return ex.runOrdered<FailoverOutcome>(std::move(tasks));
    };
    sim::RunExecutor serial(1);
    sim::RunExecutor pool(3);
    const std::vector<FailoverOutcome> a = run(serial);
    const std::vector<FailoverOutcome> b = run(pool);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].sent, b[i].sent);
        EXPECT_EQ(a[i].ok, b[i].ok);
        EXPECT_EQ(a[i].timedOut, b[i].timedOut);
        EXPECT_EQ(a[i].failovers, b[i].failovers);
        EXPECT_EQ(a[i].recoveries, b[i].recoveries);
        EXPECT_EQ(a[i].rtoNs, b[i].rtoNs);
        EXPECT_EQ(a[i].spanRtoNs, b[i].spanRtoNs);
    }
}

} // namespace
