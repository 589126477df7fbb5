/**
 * @file
 * Tests for the observability layer: the Jaeger-JSON trace
 * exporter/importer round trip, the metrics registry and its
 * writers, and byte-identical export at any RunExecutor worker
 * count. The JSON parser's own tests are in test_json.cc.
 *
 * These tests carry the `obs` and `parallel` ctest labels, so both
 * `ctest -L obs` and a -DDITTO_TSAN=ON `ctest -L parallel` run them.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "app/deployment.h"
#include "app/resilience.h"
#include "core/topology_analyzer.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "obs/jaeger.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/register.h"
#include "sim/run_executor.h"
#include "workload/loadgen.h"

namespace {

using namespace ditto;

// ---------------------------------------------------------------------------
// Shared fanout world: front -> {mid, cache}, mid -> back.
// ---------------------------------------------------------------------------

hw::CodeBlock
obsBlock(const std::string &label, std::uint64_t seed)
{
    hw::BlockSpec bs;
    bs.label = label;
    bs.instCount = 64;
    bs.seed = seed;
    return hw::buildBlock(bs);
}

app::ServiceSpec
obsLeaf(const std::string &name, std::uint64_t blockSeed)
{
    app::ServiceSpec spec;
    spec.name = name;
    spec.threads.workers = 2;
    spec.blocks.push_back(obsBlock(name + ".h", blockSeed));
    app::EndpointSpec ep;
    ep.name = "get";
    ep.handler.ops = {app::opCompute(0, 5)};
    spec.endpoints.push_back(ep);
    return spec;
}

app::ServiceSpec
obsMid()
{
    app::ServiceSpec spec;
    spec.name = "mid";
    spec.threads.workers = 2;
    spec.downstreams = {"back"};
    spec.blocks.push_back(obsBlock("mid.h", 5));
    app::EndpointSpec ep;
    ep.name = "assemble";
    ep.handler.ops = {app::opCompute(0, 4),
                      app::opRpc(0, 0, 128, 256),
                      app::opCompute(0, 2)};
    spec.endpoints.push_back(ep);
    return spec;
}

app::ServiceSpec
obsFront(bool withResilience)
{
    app::ServiceSpec spec;
    spec.name = "front";
    spec.threads.workers = 2;
    spec.downstreams = {"mid", "cache"};
    spec.blocks.push_back(obsBlock("front.h", 7));
    app::EndpointSpec ep;
    ep.name = "page";
    ep.handler.ops = {app::opCompute(0, 3),
                      app::opRpc(0, 0, 256, 512),
                      app::opRpc(1, 0, 64, 1024),
                      app::opCompute(0, 3)};
    spec.endpoints.push_back(ep);
    if (withResilience) {
        spec.resilience.rpcDeadline = sim::microseconds(800);
        spec.resilience.retry.maxAttempts = 2;
        spec.resilience.retry.baseBackoff = sim::microseconds(100);
        spec.resilience.retry.jitter = 0.0;
    }
    return spec;
}

/** Artifacts of one finished run, safe to compare across runs. */
struct ObsArtifacts
{
    std::string traceJson;
    std::string prometheus;
    std::string metricsJson;
};

struct ObsWorld
{
    app::Deployment dep;
    fault::FaultInjector injector;
    obs::MetricsRegistry registry;
    workload::LoadGen gen;

    explicit ObsWorld(std::uint64_t seed, bool faulted,
                      double sampleRate = 1.0)
        : dep(seed, sampleRate),
          injector(deployed(dep, faulted)),
          gen(dep, *dep.find("front"), clientLoad(),
              seed ^ 0x10adull)
    {
        obs::registerDeploymentMetrics(registry, dep);
        obs::registerInjectorMetrics(registry, injector);
        if (faulted) {
            fault::FaultPlan plan;
            plan.linkDrop("web", "db", sim::milliseconds(15),
                          sim::milliseconds(15), 0.3);
            injector.install(plan);
        }
    }

    void
    run(sim::Time duration = sim::milliseconds(60))
    {
        gen.start();
        dep.runFor(duration);
    }

    ObsArtifacts
    artifacts()
    {
        return {obs::exportJaegerJson(dep.tracer()),
                registry.prometheusText(), registry.jsonText()};
    }

    static app::Deployment &
    deployed(app::Deployment &dep, bool faulted)
    {
        os::Machine &web = dep.addMachine("web", hw::platformA());
        os::Machine &db = dep.addMachine("db", hw::platformA());
        dep.deploy(obsLeaf("back", 3), db);
        dep.deploy(obsLeaf("cache", 4), db);
        dep.deploy(obsMid(), web);
        dep.deploy(obsFront(faulted), web);
        dep.wireAll();
        return dep;
    }

    static workload::LoadSpec
    clientLoad()
    {
        workload::LoadSpec load;
        load.qps = 2000;
        load.connections = 4;
        load.openLoop = true;
        load.timeout = sim::milliseconds(5);
        return load;
    }
};

void
expectSameRecords(const trace::Tracer &a, const trace::Tracer &b)
{
    ASSERT_EQ(a.spans().size(), b.spans().size());
    for (std::size_t i = 0; i < a.spans().size(); ++i) {
        const trace::Span &x = a.spans()[i];
        const trace::Span &y = b.spans()[i];
        EXPECT_EQ(x.traceId, y.traceId);
        EXPECT_EQ(x.spanId, y.spanId);
        EXPECT_EQ(x.parentSpanId, y.parentSpanId);
        EXPECT_EQ(x.service, y.service);
        EXPECT_EQ(x.endpoint, y.endpoint);
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.end, y.end);
    }
    ASSERT_EQ(a.edges().size(), b.edges().size());
    for (std::size_t i = 0; i < a.edges().size(); ++i) {
        const trace::RpcEdge &x = a.edges()[i];
        const trace::RpcEdge &y = b.edges()[i];
        EXPECT_EQ(x.traceId, y.traceId);
        EXPECT_EQ(x.parentSpanId, y.parentSpanId);
        EXPECT_EQ(x.caller, y.caller);
        EXPECT_EQ(x.callee, y.callee);
        EXPECT_EQ(x.endpoint, y.endpoint);
        EXPECT_EQ(x.requestBytes, y.requestBytes);
        EXPECT_EQ(x.responseBytes, y.responseBytes);
    }
    ASSERT_EQ(a.outcomes().size(), b.outcomes().size());
    for (std::size_t i = 0; i < a.outcomes().size(); ++i) {
        const trace::OutcomeEvent &x = a.outcomes()[i];
        const trace::OutcomeEvent &y = b.outcomes()[i];
        EXPECT_EQ(x.traceId, y.traceId);
        EXPECT_EQ(x.service, y.service);
        EXPECT_EQ(x.target, y.target);
        EXPECT_EQ(x.endpoint, y.endpoint);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.attempts, y.attempts);
        EXPECT_EQ(x.time, y.time);
    }
}

void
expectSameTopology(const core::Topology &a, const core::Topology &b)
{
    EXPECT_EQ(a.services, b.services);
    EXPECT_EQ(a.root, b.root);
    EXPECT_EQ(a.requestCounts, b.requestCounts);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (std::size_t i = 0; i < a.edges.size(); ++i) {
        EXPECT_EQ(a.edges[i].caller, b.edges[i].caller);
        EXPECT_EQ(a.edges[i].callee, b.edges[i].callee);
        EXPECT_EQ(a.edges[i].endpoint, b.edges[i].endpoint);
        // Bit-for-bit: both paths feed identical vectors through
        // identical arithmetic.
        EXPECT_EQ(a.edges[i].callsPerCallerRequest,
                  b.edges[i].callsPerCallerRequest);
        EXPECT_EQ(a.edges[i].avgRequestBytes,
                  b.edges[i].avgRequestBytes);
        EXPECT_EQ(a.edges[i].avgResponseBytes,
                  b.edges[i].avgResponseBytes);
    }
}

// ---------------------------------------------------------------------------
// Jaeger round trip
// ---------------------------------------------------------------------------

TEST(JaegerExport, RoundTripIsBitExact)
{
    // Faulted + resilient run so spans, edges, AND outcome events all
    // appear in the export.
    ObsWorld w(21, /*faulted=*/true);
    w.run();
    ASSERT_GT(w.dep.tracer().spans().size(), 0u);
    ASSERT_GT(w.dep.tracer().edges().size(), 0u);
    ASSERT_GT(w.dep.tracer().outcomes().size(), 0u);

    const std::string doc = obs::exportJaegerJson(w.dep.tracer());
    const trace::Tracer back = obs::importJaegerJson(doc);
    expectSameRecords(w.dep.tracer(), back);
    EXPECT_EQ(back.sampleRate(), w.dep.tracer().sampleRate());
    // At sample rate 1.0 the exact outcome counters survive too.
    for (std::size_t i = 0; i < trace::kOutcomeKinds; ++i) {
        const auto kind = static_cast<trace::OutcomeKind>(i);
        EXPECT_EQ(back.outcomeCount(kind),
                  w.dep.tracer().outcomeCount(kind));
    }
    // Re-exporting the imported tracer reproduces the bytes.
    EXPECT_EQ(obs::exportJaegerJson(back), doc);
}

TEST(JaegerExport, TopologyFromExportedFileMatchesInMemory)
{
    ObsWorld w(22, /*faulted=*/false);
    w.run();

    const std::string path =
        testing::TempDir() + "ditto_obs_roundtrip.json";
    obs::writeJaegerJsonFile(w.dep.tracer(), path);
    const trace::Tracer fromFile = obs::readJaegerJsonFile(path);

    const core::Topology inMemory =
        core::analyzeTopology(w.dep.tracer());
    const core::Topology recovered = core::analyzeTopology(fromFile);
    expectSameTopology(inMemory, recovered);

    // Sanity: the DAG is the one we deployed.
    EXPECT_EQ(inMemory.root, "front");
    EXPECT_EQ(inMemory.services.size(), 4u);
    EXPECT_EQ(inMemory.edges.size(), 3u);
}

TEST(JaegerExport, SampledTraceRoundTrips)
{
    ObsWorld w(23, /*faulted=*/true, /*sampleRate=*/0.3);
    w.run();
    const auto &tracer = w.dep.tracer();
    ASSERT_GT(tracer.spans().size(), 0u);
    ASSERT_LT(tracer.spans().size(), 900u);  // sampling engaged

    const trace::Tracer back =
        obs::importJaegerJson(obs::exportJaegerJson(tracer));
    expectSameRecords(tracer, back);
    expectSameTopology(core::analyzeTopology(tracer),
                       core::analyzeTopology(back));
}

TEST(JaegerExport, EmptyTracerExportsAndImports)
{
    trace::Tracer empty(0.5);
    const trace::Tracer back =
        obs::importJaegerJson(obs::exportJaegerJson(empty));
    EXPECT_TRUE(back.spans().empty());
    EXPECT_TRUE(back.edges().empty());
    EXPECT_TRUE(back.outcomes().empty());
    EXPECT_EQ(back.sampleRate(), 0.5);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, OwnedInstrumentsAndWriters)
{
    obs::MetricsRegistry reg;
    obs::Counter &c =
        reg.counter("ditto_test_ops_total", {{"service", "a"}},
                    "Test operations");
    c.add();
    c.add(41);
    reg.gauge("ditto_test_depth").set(2.5);
    obs::Timer &t = reg.timer("ditto_test_latency_ns");
    t.observe(1000);
    t.observe(3000);

    const std::string prom = reg.prometheusText();
    EXPECT_NE(prom.find("# TYPE ditto_test_ops_total counter"),
              std::string::npos);
    EXPECT_NE(prom.find("ditto_test_ops_total{service=\"a\"} 42"),
              std::string::npos);
    EXPECT_NE(prom.find("# HELP ditto_test_ops_total Test operations"),
              std::string::npos);
    EXPECT_NE(prom.find("ditto_test_depth 2.5"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE ditto_test_latency_ns summary"),
              std::string::npos);
    EXPECT_NE(prom.find("ditto_test_latency_ns_count 2"),
              std::string::npos);

    // The JSON snapshot parses with our own parser and agrees.
    const auto doc = obs::parseJson(reg.jsonText());
    const obs::JsonValue snap = doc.root();
    EXPECT_EQ(snap.find("counters")
                  .find("ditto_test_ops_total{service=\"a\"}")
                  .asU64(),
              42u);
    EXPECT_DOUBLE_EQ(
        snap.find("gauges").find("ditto_test_depth").asDouble(), 2.5);
    EXPECT_EQ(snap.find("summaries")
                  .find("ditto_test_latency_ns")
                  .find("count")
                  .asU64(),
              2u);
}

TEST(Metrics, SnapshotOrderIndependentOfRegistrationOrder)
{
    obs::MetricsRegistry a;
    obs::MetricsRegistry b;
    a.counter("ditto_x_total").add(1);
    a.counter("ditto_a_total", {{"s", "2"}}).add(2);
    a.counter("ditto_a_total", {{"s", "1"}}).add(3);
    b.counter("ditto_a_total", {{"s", "1"}}).add(3);
    b.counter("ditto_x_total").add(1);
    b.counter("ditto_a_total", {{"s", "2"}}).add(2);
    EXPECT_EQ(a.prometheusText(), b.prometheusText());
    EXPECT_EQ(a.jsonText(), b.jsonText());
}

TEST(Metrics, KindConflictThrows)
{
    obs::MetricsRegistry reg;
    reg.counter("ditto_thing_total");
    EXPECT_THROW(reg.gauge("ditto_thing_total"), std::logic_error);
}

TEST(Metrics, PullCallbacksSampleAtSnapshotTime)
{
    obs::MetricsRegistry reg;
    std::uint64_t source = 7;
    reg.addCounterFn("ditto_pull_total", {}, "",
                     [&source] { return source; });
    EXPECT_NE(reg.prometheusText().find("ditto_pull_total 7"),
              std::string::npos);
    source = 9;  // no re-registration needed
    EXPECT_NE(reg.prometheusText().find("ditto_pull_total 9"),
              std::string::npos);
}

TEST(Metrics, DeploymentRegistrationMatchesGroundTruth)
{
    ObsWorld w(24, /*faulted=*/true);
    w.run();

    const auto snap = obs::parseJson(w.registry.jsonText());
    const obs::JsonValue counters = snap.root().find("counters");
    ASSERT_TRUE(counters);

    const auto counter = [&](const std::string &key) {
        const obs::JsonValue v = counters.find(key);
        return v ? v.asU64() : ~0ull;
    };

    for (const auto &svc : w.dep.services()) {
        const std::string label =
            "{service=\"" + svc->name() + "\"}";
        EXPECT_EQ(counter("ditto_service_requests_total" + label),
                  svc->stats().requests);
        EXPECT_EQ(counter("ditto_service_rx_bytes_total" + label),
                  svc->stats().rxBytes);
        EXPECT_EQ(counter("ditto_service_rpc_timeouts_total" + label),
                  svc->stats().rpcTimeouts);
    }

    os::Network &net = w.dep.network();
    EXPECT_EQ(counter("ditto_network_bytes_sent_total"),
              net.bytesSent());
    // Byte accounting is exact, like message accounting.
    EXPECT_EQ(net.bytesSent(), net.bytesDelivered() +
                  net.bytesDropped() + net.bytesInFlight());
    EXPECT_GT(net.bytesDropped(), 0u);  // the fault window dropped

    EXPECT_EQ(counter("ditto_trace_outcomes_total{kind=\"rpc_ok\"}"),
              w.dep.tracer().outcomeCount(trace::OutcomeKind::RpcOk));
    EXPECT_EQ(counter("ditto_fault_windows_started_total"), 1u);
}

// ---------------------------------------------------------------------------
// Determinism across RunExecutor worker counts
// ---------------------------------------------------------------------------

std::vector<ObsArtifacts>
exportSweep(unsigned jobs)
{
    sim::RunExecutor pool(jobs);
    std::vector<std::function<ObsArtifacts()>> tasks;
    for (std::uint64_t seed : {31ull, 32ull, 33ull}) {
        tasks.push_back([seed] {
            ObsWorld w(seed, /*faulted=*/true);
            w.run(sim::milliseconds(40));
            return w.artifacts();
        });
    }
    return pool.runOrdered(std::move(tasks));
}

TEST(ObsDeterminism, ExportBytesIdenticalAtAnyWorkerCount)
{
    const auto serial = exportSweep(1);
    const auto parallel = exportSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].traceJson, parallel[i].traceJson);
        EXPECT_EQ(serial[i].prometheus, parallel[i].prometheus);
        EXPECT_EQ(serial[i].metricsJson, parallel[i].metricsJson);
    }
}

} // namespace
