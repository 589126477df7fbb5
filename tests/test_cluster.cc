/**
 * @file
 * Tests for the cluster subsystem: deployment-time error reporting,
 * replica groups, the four per-edge balancer policies, capacity-aware
 * placement, ReplicaSet scaling, the metrics-driven autoscaler, the
 * synthetic topology generator, crash failover through the balancer,
 * and bit-exact determinism of replicated faulted runs at any
 * RunExecutor worker count.
 *
 * These tests carry the `cluster` ctest label. The determinism test
 * additionally joins the `parallel` label so a -DDITTO_TSAN=ON build
 * races replicated deployments under TSan: ctest -L parallel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "app/deployment.h"
#include "app/resilience.h"
#include "app/service.h"
#include "cluster/autoscaler.h"
#include "cluster/balancer.h"
#include "cluster/placer.h"
#include "cluster/replica_set.h"
#include "cluster/topo_gen.h"
#include "core/spec_io.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "obs/jaeger.h"
#include "obs/metrics.h"
#include "obs/register.h"
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
backendSpec(const std::string &name = "back")
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
frontendSpec(const app::ResilienceSpec &resilience,
             cluster::BalancerPolicy policy =
                 cluster::BalancerPolicy::RoundRobin)
{
    app::ServiceSpec spec;
    spec.name = "front";
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
    spec.balancing.policy = policy;
    return spec;
}

/**
 * FNV-1a over every generated spec's text and its RPC deadline (which
 * the spec text leaves out), to pin the generator's output.
 */
std::uint64_t
topologyDigest(const cluster::GeneratedTopology &topo)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const std::string &text) {
        for (const unsigned char c : text) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    for (const app::ServiceSpec &spec : topo.specs) {
        mix(core::specToString(spec));
        mix(std::to_string(spec.resilience.rpcDeadline));
    }
    return h;
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

app::ResilienceSpec
retryingResilience()
{
    app::ResilienceSpec res;
    res.rpcDeadline = sim::microseconds(600);
    res.retry.maxAttempts = 3;
    res.retry.baseBackoff = sim::microseconds(100);
    return res;
}

// ---------------------------------------------------------------------------
// Deployment error reporting
// ---------------------------------------------------------------------------

TEST(DeploymentErrors, DuplicateDeployThrowsWithName)
{
    app::Deployment dep(7);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    dep.deploy(backendSpec(), m);
    try {
        dep.deploy(backendSpec(), m);
        FAIL() << "duplicate deploy must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("back"),
                  std::string::npos)
            << "message must name the duplicated service: "
            << e.what();
    }
    // Replication is the sanctioned path to a second instance.
    EXPECT_NO_THROW(dep.addReplica("back", m));
}

TEST(DeploymentErrors, DanglingDownstreamThrowsWithNames)
{
    app::Deployment dep(7);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    app::ServiceSpec spec = backendSpec("lonely");
    spec.downstreams = {"ghost"};
    dep.deploy(spec, m);
    try {
        dep.wireAll();
        FAIL() << "dangling downstream must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("lonely"), std::string::npos)
            << "message must name the caller: " << what;
        EXPECT_NE(what.find("ghost"), std::string::npos)
            << "message must name the missing downstream: " << what;
    }
}

TEST(DeploymentErrors, AddReplicaOfUnknownServiceThrows)
{
    app::Deployment dep(7);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    EXPECT_THROW(dep.addReplica("ghost", m), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Replica groups: find() canonical handle + replicas() accessor
// ---------------------------------------------------------------------------

TEST(ReplicaGroups, FindReturnsCanonicalHandle)
{
    app::Deployment dep(11);
    os::Machine &a = dep.addMachine("a", hw::platformA());
    os::Machine &b = dep.addMachine("b", hw::platformA());
    app::ServiceInstance &first = dep.deploy(backendSpec(), a);
    dep.addReplica("back", b);
    dep.addReplica("back", b);

    // find() is the canonical (index-0) handle; replicas() is the
    // whole group in index order.
    EXPECT_EQ(dep.find("back"), &first);
    const auto &group = dep.replicas("back");
    ASSERT_EQ(group.size(), 3u);
    EXPECT_EQ(group[0], &first);
    EXPECT_EQ(group[0]->instanceLabel(), "back");
    EXPECT_EQ(group[1]->instanceLabel(), "back@1");
    EXPECT_EQ(group[2]->instanceLabel(), "back@2");

    EXPECT_EQ(dep.find("nope"), nullptr);
    EXPECT_TRUE(dep.replicas("nope").empty());
}

// ---------------------------------------------------------------------------
// Balancer policies
// ---------------------------------------------------------------------------

constexpr auto kAllAlive = [](std::size_t) { return true; };

TEST(Balancer, RoundRobinRotatesAndSkipsUnusable)
{
    cluster::EdgeBalancer b;
    b.init(cluster::BalancerPolicy::RoundRobin, 3, 99);
    EXPECT_EQ(b.pick(0, kAllAlive), 0u);
    EXPECT_EQ(b.pick(0, kAllAlive), 1u);
    EXPECT_EQ(b.pick(0, kAllAlive), 2u);
    EXPECT_EQ(b.pick(0, kAllAlive), 0u);

    // A dead replica is skipped without stalling the rotation.
    auto oneDead = [](std::size_t i) { return i != 1; };
    EXPECT_EQ(b.pick(0, oneDead), 2u);
    EXPECT_EQ(b.pick(0, oneDead), 0u);
    EXPECT_EQ(b.pick(0, oneDead), 2u);

    // A retired replica (autoscaler scale-down) is equally excluded.
    b.setActive(2, false);
    EXPECT_EQ(b.pick(0, oneDead), 0u);
    EXPECT_EQ(b.pick(0, oneDead), 0u);
    b.setActive(2, true);
}

TEST(Balancer, LeastOutstandingPicksLightestReplica)
{
    cluster::EdgeBalancer b;
    b.init(cluster::BalancerPolicy::LeastOutstanding, 3, 99);
    b.onSend(0);
    b.onSend(0);
    b.onSend(1);
    EXPECT_EQ(b.pick(0, kAllAlive), 2u);
    b.onSend(2);
    b.onSend(2);
    b.onSend(2);
    EXPECT_EQ(b.pick(0, kAllAlive), 1u);
    b.onDone(0);
    b.onDone(0);
    EXPECT_EQ(b.pick(0, kAllAlive), 0u);
    EXPECT_EQ(b.outstanding(2), 3u);
}

TEST(Balancer, PowerOfTwoDeterministicAndDegradesToSurvivor)
{
    cluster::EdgeBalancer a;
    cluster::EdgeBalancer b;
    a.init(cluster::BalancerPolicy::PowerOfTwo, 4, 1234);
    b.init(cluster::BalancerPolicy::PowerOfTwo, 4, 1234);
    // Same seed, same candidate draws: identical pick sequences.
    std::set<std::size_t> seen;
    for (int i = 0; i < 64; ++i) {
        const std::size_t pick = a.pick(0, kAllAlive);
        EXPECT_EQ(pick, b.pick(0, kAllAlive));
        seen.insert(pick);
    }
    EXPECT_GT(seen.size(), 1u);  // actually spreads load

    // With one survivor even doubly-dead candidate draws land on it.
    auto survivor = [](std::size_t i) { return i == 2; };
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.pick(0, survivor), 2u);
}

TEST(Balancer, ConsistentHashStableWithMinimalDisruption)
{
    cluster::EdgeBalancer b;
    b.init(cluster::BalancerPolicy::ConsistentHash, 4, 77);

    std::map<std::uint64_t, std::size_t> owner;
    std::set<std::size_t> used;
    for (std::uint64_t key = 0; key < 128; ++key) {
        const std::size_t pick = b.pick(key, kAllAlive);
        EXPECT_EQ(pick, b.pick(key, kAllAlive));  // stable per key
        owner[key] = pick;
        used.insert(pick);
    }
    EXPECT_GT(used.size(), 1u);  // keys actually spread on the ring

    // Killing one replica moves only the keys it owned; everyone
    // else's assignment is untouched (the consistent-hash property).
    const std::size_t dead = owner[5];
    auto alive = [dead](std::size_t i) { return i != dead; };
    for (const auto &[key, before] : owner) {
        const std::size_t now = b.pick(key, alive);
        if (before == dead)
            EXPECT_NE(now, dead);
        else
            EXPECT_EQ(now, before);
    }
}

TEST(Balancer, SingleReplicaShortCircuitsEveryPolicy)
{
    using cluster::BalancerPolicy;
    for (const auto policy :
         {BalancerPolicy::RoundRobin, BalancerPolicy::LeastOutstanding,
          BalancerPolicy::PowerOfTwo, BalancerPolicy::ConsistentHash}) {
        cluster::EdgeBalancer b;
        b.init(policy, 1, 5);
        for (std::uint64_t key = 0; key < 8; ++key)
            EXPECT_EQ(b.pick(key, kAllAlive), 0u)
                << cluster::balancerPolicyName(policy);
    }
}

// ---------------------------------------------------------------------------
// Placer bin-packing
// ---------------------------------------------------------------------------

TEST(Placer, BestFitSpreadThenOvercommitsLeastLoaded)
{
    app::Deployment dep(13);
    os::Machine &m0 = dep.addMachine("m0", hw::platformA());
    os::Machine &m1 = dep.addMachine("m1", hw::platformA());

    cluster::Placer placer;
    EXPECT_THROW(placer.place(), std::runtime_error);
    placer.addMachine(m0, 2);
    placer.addMachine(m1, 1);

    // Most free slots wins; earliest-registered breaks ties.
    EXPECT_EQ(&placer.place(), &m0);  // free 2 vs 1
    EXPECT_EQ(&placer.place(), &m0);  // free 1 vs 1: tie -> m0
    EXPECT_EQ(&placer.place(), &m1);  // free 0 vs 1
    EXPECT_EQ(placer.overcommitted(), 0u);

    // Pool full: the same comparison overcommits rather than failing.
    EXPECT_EQ(&placer.place(), &m0);
    EXPECT_EQ(placer.overcommitted(), 1u);
    EXPECT_EQ(placer.used(m0), 3u);
    EXPECT_EQ(placer.used(m1), 1u);

    // m0 now at -1 free vs m1 at 0: the next overcommit goes to m1.
    EXPECT_EQ(&placer.place(), &m1);
    EXPECT_EQ(placer.overcommitted(), 2u);

    placer.release(m0);
    EXPECT_EQ(placer.used(m0), 2u);
}

// ---------------------------------------------------------------------------
// ReplicaSet scaling
// ---------------------------------------------------------------------------

TEST(ReplicaSetScaling, PrefixInvariantAndWarmReuse)
{
    app::Deployment dep(17);
    os::Machine &m0 = dep.addMachine("m0", hw::platformA());
    os::Machine &m1 = dep.addMachine("m1", hw::platformA());
    dep.deploy(backendSpec("svc"), m0);
    dep.wireAll();

    cluster::Placer placer;
    placer.addMachine(m1, 4);
    cluster::ReplicaSet set(dep, "svc", placer);
    EXPECT_EQ(set.total(), 1u);
    EXPECT_EQ(set.active(), 1u);

    EXPECT_EQ(set.scaleTo(3), 3u);
    EXPECT_EQ(set.total(), 3u);
    EXPECT_EQ(dep.replicas("svc").size(), 3u);
    EXPECT_EQ(placer.used(m1), 2u);  // replicas 1 and 2 placed there

    // Scale-down retires instances but keeps them deployed...
    EXPECT_EQ(set.scaleTo(1), 1u);
    EXPECT_EQ(set.total(), 3u);
    EXPECT_EQ(set.active(), 1u);

    // ...so scaling back up reuses them instead of deploying more.
    EXPECT_EQ(set.scaleTo(2), 2u);
    EXPECT_EQ(set.total(), 3u);
    EXPECT_EQ(placer.used(m1), 2u);

    // Clamped: replica 0 (the canonical handle) is never retired.
    EXPECT_EQ(set.scaleTo(0), 1u);
    EXPECT_EQ(set.active(), 1u);
}

TEST(ReplicaSetScaling, UnknownServiceThrows)
{
    app::Deployment dep(17);
    dep.addMachine("m0", hw::platformA());
    cluster::Placer placer;
    EXPECT_THROW(cluster::ReplicaSet(dep, "ghost", placer),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Autoscaler control loop
// ---------------------------------------------------------------------------

/** One slow single-worker service that queues under any real load. */
app::ServiceSpec
slowSpec()
{
    app::ServiceSpec spec = backendSpec("svc");
    spec.threads.workers = 1;
    spec.endpoints[0].handler.ops = {app::opCompute(0, 2000)};
    return spec;
}

TEST(Autoscaler, QueuePressureScalesUpOncePerCooldown)
{
    app::Deployment dep(43);
    os::Machine &m0 = dep.addMachine("m0", hw::platformA());
    os::Machine &m1 = dep.addMachine("m1", hw::platformA());
    dep.deploy(slowSpec(), m0);
    dep.wireAll();

    obs::MetricsRegistry metrics;
    obs::registerDeploymentMetrics(metrics, dep);

    cluster::Placer placer;
    placer.addMachine(m1, 4);
    cluster::ReplicaSet set(dep, "svc", placer, &metrics);
    cluster::AutoscalerSpec as;
    as.period = sim::milliseconds(5);
    as.cooldown = sim::milliseconds(200);  // >> run length
    as.queueHigh = 0.5;
    as.maxReplicas = 4;
    cluster::Autoscaler scaler(dep, set, metrics, as);
    scaler.start();

    workload::LoadGen gen(dep, *dep.find("svc"),
                          clientLoad(20000, sim::milliseconds(50)),
                          29);
    gen.start();
    dep.runFor(sim::milliseconds(60));

    // Sustained pressure breached the watermark on every evaluation,
    // but the cooldown admits exactly one action in the window.
    EXPECT_GT(scaler.stats().evaluations, 5u);
    EXPECT_EQ(scaler.stats().scaleUps, 1u);
    EXPECT_EQ(scaler.stats().scaleDowns, 0u);
    EXPECT_EQ(set.active(), 2u);

    // Actions surface as owned metric series.
    EXPECT_EQ(metrics.readCounter("ditto_autoscaler_scale_ups_total",
                                  {{"service", "svc"}}),
              1u);
    EXPECT_EQ(metrics.readGauge("ditto_autoscaler_replicas",
                                {{"service", "svc"}}),
              2.0);
}

TEST(Autoscaler, IdleGroupScalesDownToMinimum)
{
    app::Deployment dep(47);
    os::Machine &m0 = dep.addMachine("m0", hw::platformA());
    os::Machine &m1 = dep.addMachine("m1", hw::platformA());
    dep.deploy(backendSpec("svc"), m0);
    dep.wireAll();

    obs::MetricsRegistry metrics;
    obs::registerDeploymentMetrics(metrics, dep);

    cluster::Placer placer;
    placer.addMachine(m1, 4);
    cluster::ReplicaSet set(dep, "svc", placer, &metrics);
    set.scaleTo(3);

    cluster::AutoscalerSpec as;
    as.period = sim::milliseconds(5);
    as.cooldown = sim::milliseconds(10);
    as.queueHigh = 100.0;  // never breached
    as.queueLow = 0.5;
    cluster::Autoscaler scaler(dep, set, metrics, as);
    scaler.start();

    dep.runFor(sim::milliseconds(100));

    // No traffic at all: the loop drains one replica per cooldown and
    // stops at one replica.
    EXPECT_EQ(scaler.stats().scaleDowns, 2u);
    EXPECT_EQ(set.active(), 1u);
    EXPECT_EQ(set.total(), 3u);  // retired, not destroyed
    EXPECT_EQ(metrics.readCounter("ditto_autoscaler_scale_downs_total",
                                  {{"service", "svc"}}),
              2u);
    EXPECT_EQ(metrics.readGauge("ditto_autoscaler_replicas",
                                {{"service", "svc"}}),
              1.0);
}

// ---------------------------------------------------------------------------
// Topology generator
// ---------------------------------------------------------------------------

TEST(TopoGen, DeterministicAcyclicRootReachable)
{
    cluster::TopoSpec ts;
    ts.services = 60;
    ts.depth = 4;
    ts.seed = 7;
    const cluster::GeneratedTopology a = cluster::generateTopology(ts);
    const cluster::GeneratedTopology b = cluster::generateTopology(ts);

    ASSERT_EQ(a.specs.size(), 60u);
    ASSERT_EQ(a.level.size(), 60u);
    EXPECT_GE(a.edges, 59u);  // spanning tree at minimum

    // Pure function of the TopoSpec: byte-for-byte repeatable.
    ASSERT_EQ(b.specs.size(), a.specs.size());
    EXPECT_EQ(a.edges, b.edges);
    for (std::size_t i = 0; i < a.specs.size(); ++i) {
        EXPECT_EQ(a.specs[i].name, b.specs[i].name);
        EXPECT_EQ(a.specs[i].downstreams, b.specs[i].downstreams);
    }
    // And pinned: every spec (fan-out, client model, leaf file I/O,
    // handler block, deadline) matches the output captured before the
    // generator's fixed knobs became constants.
    EXPECT_EQ(topologyDigest(a), 0x89396de20eea2a77ull);

    // Name -> index ("s0042" -> 42).
    auto indexOf = [](const std::string &name) {
        return static_cast<std::size_t>(std::stoul(name.substr(1)));
    };

    // Every edge points strictly deeper: acyclic by construction, and
    // level respects the configured depth.
    EXPECT_EQ(a.level[0], 0u);
    for (std::size_t i = 0; i < a.specs.size(); ++i) {
        EXPECT_LT(a.level[i], ts.depth);
        for (const std::string &d : a.specs[i].downstreams)
            EXPECT_GT(a.level[indexOf(d)], a.level[i])
                << a.specs[i].name << " -> " << d;
    }

    // Every service is reachable from the root.
    std::set<std::size_t> visited{0};
    std::vector<std::size_t> frontier{0};
    while (!frontier.empty()) {
        const std::size_t at = frontier.back();
        frontier.pop_back();
        for (const std::string &d : a.specs[at].downstreams) {
            const std::size_t to = indexOf(d);
            if (visited.insert(to).second)
                frontier.push_back(to);
        }
    }
    EXPECT_EQ(visited.size(), a.specs.size());

    // A different seed yields a different topology (non-vacuous).
    ts.seed = 8;
    const cluster::GeneratedTopology c = cluster::generateTopology(ts);
    std::string edgesA;
    std::string edgesC;
    for (std::size_t i = 0; i < a.specs.size(); ++i) {
        for (const std::string &d : a.specs[i].downstreams)
            edgesA += a.specs[i].name + ">" + d + ";";
        for (const std::string &d : c.specs[i].downstreams)
            edgesC += c.specs[i].name + ">" + d + ";";
    }
    EXPECT_NE(edgesA, edgesC);
}

TEST(TopoGen, DeployedTopologyServesTraffic)
{
    cluster::TopoSpec ts;
    ts.services = 20;
    ts.depth = 3;
    ts.seed = 9;
    const cluster::GeneratedTopology topo =
        cluster::generateTopology(ts);

    app::Deployment dep(21);
    app::ServiceInstance &root =
        cluster::deployTopology(dep, topo, 2);
    EXPECT_EQ(&root, dep.find(topo.specs.front().name));
    EXPECT_EQ(dep.machines().size(), 2u);

    workload::LoadGen gen(dep, root,
                          clientLoad(1000, sim::milliseconds(20)), 33);
    gen.start();
    dep.runFor(sim::milliseconds(50));
    EXPECT_GT(gen.completedOk(), 0u);
}

TEST(TopoGenProdShapes, KnobsOffIsByteIdenticalToDefault)
{
    // The production-shape knobs must not consume RNG draws when
    // disabled: explicit zeros generate the same topology as the
    // all-defaults spec, so existing seeds stay reproducible.
    cluster::TopoSpec plain;
    plain.services = 40;
    plain.depth = 4;
    plain.seed = 11;
    cluster::TopoSpec off = plain;
    off.endpointsPerService = 1;
    off.sharedBackends = 0;
    off.fanoutTailAlpha = 0.0;
    off.diamondProbability = 0.0;
    const cluster::GeneratedTopology a =
        cluster::generateTopology(plain);
    const cluster::GeneratedTopology b = cluster::generateTopology(off);
    ASSERT_EQ(a.specs.size(), b.specs.size());
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.backends, 0u);
    for (std::size_t i = 0; i < a.specs.size(); ++i) {
        EXPECT_EQ(a.specs[i].name, b.specs[i].name);
        EXPECT_EQ(a.specs[i].downstreams, b.specs[i].downstreams);
        EXPECT_EQ(a.specs[i].endpoints.size(),
                  b.specs[i].endpoints.size());
    }
}

TEST(TopoGenProdShapes, ExtraEndpointsAndSharedBackends)
{
    cluster::TopoSpec ts;
    ts.services = 30;
    ts.depth = 4;
    ts.seed = 13;
    ts.endpointsPerService = 2;
    ts.sharedBackends = 2;
    const cluster::GeneratedTopology gen =
        cluster::generateTopology(ts);

    // Backend specs ride after the 30 services.
    EXPECT_EQ(gen.backends, 2u);
    ASSERT_EQ(gen.specs.size(), 32u);
    ASSERT_EQ(gen.level.size(), 32u);
    for (unsigned b = 0; b < 2; ++b) {
        const app::ServiceSpec &db = gen.specs[30 + b];
        EXPECT_EQ(db.name, "db" + std::to_string(b));
        // Stateful: serialized sections and file-backed reads.
        EXPECT_GE(db.locks, 1u);
        ASSERT_FALSE(db.fileBytes.empty());
        EXPECT_GT(db.fileBytes[0], 0u);
        EXPECT_EQ(gen.level[30 + b], ts.depth);
    }

    // Every non-backend service carries the second entry query.
    for (std::size_t i = 0; i < 30; ++i) {
        ASSERT_EQ(gen.specs[i].endpoints.size(), 2u) << i;
        EXPECT_EQ(gen.specs[i].endpoints[1].name, "req1");
    }

    // Every former leaf now reaches a shared backend, and backends
    // only ever appear as callees.
    unsigned leafToBackend = 0;
    for (std::size_t i = 0; i < 30; ++i)
        for (const std::string &d : gen.specs[i].downstreams)
            if (d.substr(0, 2) == "db")
                ++leafToBackend;
    EXPECT_GT(leafToBackend, 0u);
    for (unsigned b = 0; b < 2; ++b)
        EXPECT_TRUE(gen.specs[30 + b].downstreams.empty());
}

TEST(TopoGenProdShapes, DiamondsAndHeavyTailAddEdgesDeterministically)
{
    cluster::TopoSpec plain;
    plain.services = 60;
    plain.depth = 5;
    plain.seed = 17;
    const cluster::GeneratedTopology base =
        cluster::generateTopology(plain);

    cluster::TopoSpec prod = plain;
    prod.fanoutTailAlpha = 1.2;
    prod.diamondProbability = 0.5;
    const cluster::GeneratedTopology a = cluster::generateTopology(prod);
    const cluster::GeneratedTopology b = cluster::generateTopology(prod);

    // Diamonds add convergent edges on top of the spanning tree.
    EXPECT_GT(a.edges, base.edges);
    // Still a pure function of the spec.
    EXPECT_EQ(a.edges, b.edges);
    for (std::size_t i = 0; i < a.specs.size(); ++i)
        EXPECT_EQ(a.specs[i].downstreams, b.specs[i].downstreams);
    // Both pinned to the output captured before the generator's fixed
    // knobs became constants.
    EXPECT_EQ(topologyDigest(base), 0x8d901239d41b2257ull);
    EXPECT_EQ(topologyDigest(a), 0xed72e7987c3caff6ull);

    // Diamond edges still point strictly deeper: acyclic.
    auto indexOf = [](const std::string &name) {
        return static_cast<std::size_t>(std::stoul(name.substr(1)));
    };
    for (std::size_t i = 0; i < a.specs.size(); ++i)
        for (const std::string &d : a.specs[i].downstreams)
            EXPECT_LT(a.level[i], a.level[indexOf(d)]);
}

TEST(TopoGenProdShapes, ProdTopologyServesBothEntryQueries)
{
    cluster::TopoSpec ts;
    ts.services = 20;
    ts.depth = 3;
    ts.seed = 19;
    ts.endpointsPerService = 2;
    ts.sharedBackends = 2;
    ts.fanoutTailAlpha = 1.2;
    ts.diamondProbability = 0.35;
    const cluster::GeneratedTopology topo =
        cluster::generateTopology(ts);

    app::Deployment dep(23);
    app::ServiceInstance &root = cluster::deployTopology(dep, topo, 2);
    workload::LoadSpec load = clientLoad(800, sim::milliseconds(30));
    load.endpoints = {workload::EndpointLoad{0, 0.7, 64, 64},
                      workload::EndpointLoad{1, 0.3, 64, 64}};
    workload::LoadGen gen(dep, root, load, 37);
    gen.start();
    dep.runFor(sim::milliseconds(60));
    EXPECT_GT(gen.completedOk(), 0u);
}

// ---------------------------------------------------------------------------
// Machine-crash failover (the ISSUE acceptance scenario)
// ---------------------------------------------------------------------------

TEST(Failover, MachineCrashRoutesAroundDeadReplica)
{
    app::Deployment dep(53);
    os::Machine &mFront = dep.addMachine("mf", hw::platformA());
    os::Machine &mA = dep.addMachine("ma", hw::platformA());
    os::Machine &mB = dep.addMachine("mb", hw::platformA());
    dep.deploy(backendSpec(), mA);
    dep.addReplica("back", mB);
    app::ServiceInstance &front =
        dep.deploy(frontendSpec(retryingResilience()), mFront);
    dep.wireAll();

    workload::LoadGen gen(dep, front,
                          clientLoad(2000, sim::milliseconds(5)), 23);

    // mb dies at 20ms and stays dead beyond the end of the test.
    fault::FaultPlan plan;
    plan.machineCrash("mb", sim::milliseconds(20),
                      sim::milliseconds(200));
    fault::FaultInjector injector(dep);
    injector.install(plan);

    gen.start();
    dep.runFor(sim::milliseconds(20));

    // Healthy phase: the balancer spread requests over both replicas.
    const auto &group = dep.replicas("back");
    ASSERT_EQ(group.size(), 2u);
    EXPECT_GT(group[0]->stats().requests, 0u);
    EXPECT_GT(group[1]->stats().requests, 0u);

    dep.runFor(sim::milliseconds(5));
    ASSERT_TRUE(mB.down());
    const std::uint64_t deadServed = group[1]->stats().requests;
    const std::uint64_t liveServedAtCrash = group[0]->stats().requests;
    const std::uint64_t okAtCrash = gen.completedOk();

    // The crash is visible to the balancer the moment it happens:
    // no pick lands on the dead replica while its machine is down.
    for (std::uint64_t key = 0; key < 64; ++key)
        EXPECT_NE(front.pickReplica(0, key), 1u);

    dep.runFor(sim::milliseconds(45));
    ASSERT_TRUE(mB.down());

    // The service kept serving through the surviving replica...
    EXPECT_GT(gen.completedOk(), okAtCrash + 20);
    EXPECT_GT(group[0]->stats().requests, liveServedAtCrash);
    // ...and the dead replica processed nothing further.
    EXPECT_EQ(group[1]->stats().requests, deadServed);
}

// ---------------------------------------------------------------------------
// Determinism: replicated + autoscaled deployment under faults must
// be bit-identical at any RunExecutor worker count (DESIGN.md §8).
// ---------------------------------------------------------------------------

std::string
replicatedFaultedRun(std::uint64_t seed)
{
    app::Deployment dep(seed, /*traceSampleRate=*/0.25);
    os::Machine &mFront = dep.addMachine("mf", hw::platformA());
    os::Machine &mA = dep.addMachine("ma", hw::platformA());
    os::Machine &mB = dep.addMachine("mb", hw::platformA());
    dep.deploy(backendSpec(), mA);
    dep.addReplica("back", mB);
    app::ServiceInstance &front = dep.deploy(
        frontendSpec(retryingResilience(),
                     cluster::BalancerPolicy::PowerOfTwo),
        mFront);
    dep.wireAll();

    obs::MetricsRegistry metrics;
    obs::registerDeploymentMetrics(metrics, dep);

    cluster::Placer placer;
    placer.addMachine(mA, 2);
    placer.addMachine(mB, 2);
    cluster::ReplicaSet set(dep, "back", placer, &metrics);
    cluster::AutoscalerSpec as;
    as.period = sim::milliseconds(5);
    as.cooldown = sim::milliseconds(15);
    as.queueHigh = 1.0;
    as.queueLow = 0.1;
    as.maxReplicas = 3;
    cluster::Autoscaler scaler(dep, set, metrics, as);
    scaler.start();

    fault::FaultPlan plan;
    plan.machineCrash("mb", sim::milliseconds(20),
                      sim::milliseconds(15));
    plan.linkDrop("", "mf", sim::milliseconds(45),
                  sim::milliseconds(10), 0.3);
    fault::FaultInjector injector(dep);
    injector.install(plan);

    workload::LoadGen gen(dep, front,
                          clientLoad(2000, sim::milliseconds(5)),
                          seed ^ 0xba1ull);
    gen.start();
    dep.runFor(sim::milliseconds(70));

    // Everything an operator could observe: the full metric snapshot
    // (request counters, balancer-fed latency series, autoscaler
    // actions) plus the exported trace stream.
    return metrics.prometheusText() +
        obs::exportJaegerJson(dep.tracer());
}

TEST(ClusterDeterminism, FaultedReplicatedRunBitIdenticalAcrossJobs)
{
    const std::uint64_t seeds[] = {61, 62, 63};

    std::vector<std::string> serial;
    for (const std::uint64_t seed : seeds)
        serial.push_back(replicatedFaultedRun(seed));

    sim::RunExecutor pool(4);
    std::vector<std::function<std::string()>> tasks;
    for (const std::uint64_t seed : seeds)
        tasks.push_back([seed] { return replicatedFaultedRun(seed); });
    const std::vector<std::string> parallel =
        pool.runOrdered<std::string>(std::move(tasks));

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]);

    // Distinct seeds produce distinct observable behaviour, so the
    // equalities above are not comparing empty snapshots.
    EXPECT_NE(serial[0], serial[1]);
}

} // namespace
