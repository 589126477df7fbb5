/**
 * @file
 * Tests for the "original" application models: spec sanity, runtime
 * behaviour, and the Social Network topology.
 */

#include <gtest/gtest.h>

#include "apps/catalog.h"
#include "core/topology_analyzer.h"
#include "hw/platform.h"
#include "profile/perf_report.h"
#include "workload/loadgen.h"

namespace {

using namespace ditto;

struct NamedApp
{
    const char *name;
    app::ServiceSpec (*spec)();
    apps::AppLoad (*load)();
};

const NamedApp kApps[] = {
    {"memcached", apps::memcachedSpec, apps::memcachedLoad},
    {"nginx", apps::nginxSpec, apps::nginxLoad},
    {"mongodb", apps::mongodbSpec, apps::mongodbLoad},
    {"redis", apps::redisSpec, apps::redisLoad},
};

// Print the param by name: gtest's default byte dump shows function
// pointers, so listed (and ctest-discovered) test names change with ASLR.
void
PrintTo(const NamedApp &app, std::ostream *os)
{
    *os << app.name;
}

class AppSpecTest : public ::testing::TestWithParam<NamedApp>
{
};

TEST_P(AppSpecTest, SpecIsWellFormed)
{
    const app::ServiceSpec spec = GetParam().spec();
    EXPECT_EQ(spec.name, GetParam().name);
    EXPECT_FALSE(spec.endpoints.empty());
    EXPECT_FALSE(spec.blocks.empty());
    for (const auto &block : spec.blocks) {
        // Labels must carry the service prefix for the profiler.
        EXPECT_EQ(block.label.rfind(spec.name + ".", 0), 0u)
            << block.label;
        EXPECT_FALSE(block.insts.empty());
    }
    for (const auto &ep : spec.endpoints) {
        EXPECT_FALSE(ep.handler.ops.empty());
        EXPECT_GE(ep.responseBytesMax, ep.responseBytesMin);
    }
    const apps::AppLoad load = GetParam().load();
    EXPECT_LT(load.lowQps, load.mediumQps);
    EXPECT_LT(load.mediumQps, load.highQps);
    EXPECT_FALSE(load.endpoints.empty());
    for (const auto &ep : load.endpoints)
        EXPECT_LT(ep.endpoint, spec.endpoints.size());
}

TEST_P(AppSpecTest, ServesAtLowLoad)
{
    app::Deployment dep(31);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    app::ServiceInstance &svc = dep.deploy(GetParam().spec(), m);
    dep.wireAll();
    const apps::AppLoad load = GetParam().load();
    workload::LoadGen gen(dep, svc, load.at(load.lowQps / 4), 7);
    gen.start();
    dep.runFor(sim::milliseconds(150));
    dep.beginMeasureAll();
    gen.beginMeasure();
    dep.runFor(sim::milliseconds(150));
    EXPECT_GT(gen.completed(), 10u);
    const auto r = profile::snapshotService(svc);
    EXPECT_GT(r.ipc, 0.04);  // very low load: cold-cache penalty
    EXPECT_LT(r.ipc, 4.0);
    EXPECT_GT(r.kernelInstFraction, 0.02);
    EXPECT_LT(r.kernelInstFraction, 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    All, AppSpecTest, ::testing::ValuesIn(kApps),
    [](const ::testing::TestParamInfo<NamedApp> &info) {
        return std::string(info.param.name);
    });

TEST(Apps, MemcachedIsMultiWorkerKvs)
{
    const auto spec = apps::memcachedSpec();
    EXPECT_EQ(spec.serverModel, app::ServerModel::IoMultiplex);
    EXPECT_EQ(spec.threads.workers, 4u);  // paper configuration
    EXPECT_EQ(spec.endpoints.size(), 2u);  // GET + SET
    EXPECT_EQ(spec.background.size(), 1u);
    // GET responses are ~4KB values.
    EXPECT_GE(spec.endpoints[0].responseBytesMin, 4096u);
}

TEST(Apps, NginxSingleWorkerWithPrewarmedContent)
{
    const auto spec = apps::nginxSpec();
    EXPECT_EQ(spec.threads.workers, 1u);  // paper configuration
    ASSERT_EQ(spec.fileBytes.size(), 1u);
    EXPECT_DOUBLE_EQ(spec.filePrewarmFraction, 1.0);
}

TEST(Apps, MongodbThreadPerConnectionWith40GBDataset)
{
    const auto spec = apps::mongodbSpec();
    EXPECT_TRUE(spec.threads.threadPerConnection);
    EXPECT_EQ(spec.serverModel, app::ServerModel::BlockingPerConn);
    ASSERT_EQ(spec.fileBytes.size(), 1u);
    EXPECT_EQ(spec.fileBytes[0], 40ull << 30);
    EXPECT_FALSE(apps::mongodbLoad().openLoop);  // YCSB closed loop
}

TEST(Apps, RedisSingleThreaded)
{
    const auto spec = apps::redisSpec();
    EXPECT_EQ(spec.threads.workers, 1u);
    EXPECT_TRUE(spec.fileBytes.empty());  // persistence disabled
    EXPECT_FALSE(apps::redisLoad().openLoop);
}

TEST(Apps, MongodbDoesDiskIoUnderLoad)
{
    app::Deployment dep(32);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    app::ServiceInstance &svc = dep.deploy(apps::mongodbSpec(), m);
    dep.wireAll();
    const auto load = apps::mongodbLoad();
    workload::LoadGen gen(dep, svc, load.at(load.lowQps), 7);
    gen.start();
    dep.runFor(sim::milliseconds(300));
    EXPECT_GT(svc.stats().diskReadBytes, 1u << 20);
    EXPECT_GT(m.disk().readBytes(), 1u << 20);
}

TEST(SocialNetwork, TopologyDeploysAndServes)
{
    app::Deployment dep(33);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    app::ServiceInstance &fe = apps::deploySocialNetwork(dep, m);
    dep.wireAll();
    EXPECT_EQ(fe.name(), apps::socialNetworkFrontend());

    const auto load = apps::socialNetworkLoad();
    workload::LoadGen gen(dep, fe, load.at(300), 7);
    gen.start();
    dep.runFor(sim::milliseconds(400));
    EXPECT_GT(gen.completed(), 50u);

    // Key tiers saw traffic.
    for (const char *tier : {"sn.text", "sn.socialgraph",
                             "sn.poststorage", "sn.hometimeline"}) {
        app::ServiceInstance *svc = dep.find(tier);
        ASSERT_NE(svc, nullptr) << tier;
        EXPECT_GT(svc->stats().requests, 0u) << tier;
    }
}

TEST(SocialNetwork, TracesRecoverTheDag)
{
    app::Deployment dep(34);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    app::ServiceInstance &fe = apps::deploySocialNetwork(dep, m);
    dep.wireAll();
    const auto load = apps::socialNetworkLoad();
    workload::LoadGen gen(dep, fe, load.at(400), 7);
    gen.start();
    dep.runFor(sim::milliseconds(500));

    const core::Topology topo =
        core::analyzeTopology(dep.tracer());
    EXPECT_EQ(topo.root, "sn.frontend");
    EXPECT_GE(topo.services.size(), 8u);

    // Compose-path edges exist with sane calls-per-request.
    bool feToCompose = false;
    bool composeToText = false;
    bool homeToGraph = false;
    for (const auto &e : topo.edges) {
        if (e.caller == "sn.frontend" && e.callee == "sn.compose")
            feToCompose = true;
        if (e.caller == "sn.compose" && e.callee == "sn.text")
            composeToText = true;
        if (e.caller == "sn.hometimeline" &&
            e.callee == "sn.socialgraph") {
            homeToGraph = true;
        }
        EXPECT_GT(e.callsPerCallerRequest, 0.0);
        EXPECT_LT(e.callsPerCallerRequest, 3.0);
    }
    EXPECT_TRUE(feToCompose);
    EXPECT_TRUE(composeToText);
    EXPECT_TRUE(homeToGraph);

    // Frontend must come last in dependency order.
    EXPECT_EQ(topo.services.back(), "sn.frontend");
}

TEST(SocialNetwork, EndToEndLatencyRisesWithLoad)
{
    auto p99_at = [](double qps) {
        app::Deployment dep(35);
        os::Machine &m = dep.addMachine("n", hw::platformA());
        app::ServiceInstance &fe = apps::deploySocialNetwork(dep, m);
        dep.wireAll();
        workload::LoadGen gen(dep, fe,
                              apps::socialNetworkLoad().at(qps), 7);
        gen.start();
        dep.runFor(sim::milliseconds(250));
        gen.beginMeasure();
        dep.runFor(sim::milliseconds(250));
        return gen.latency().percentile(0.99);
    };
    const auto low = p99_at(apps::socialNetworkLoad().lowQps);
    const auto high = p99_at(apps::socialNetworkLoad().highQps);
    EXPECT_GT(high, low);
}

} // namespace
