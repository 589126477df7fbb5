/**
 * @file
 * Tests for trace-driven cloning (src/clone): ingesting a foreign
 * Jaeger document, recovering the per-edge statistics, synthesizing a
 * runnable clone, and closing the loop -- run, re-export, re-analyze,
 * diff (Ditto Sec. 4.2 applied to a system we do not control).
 *
 * Also the malformed-Jaeger corpus (jaeger_corpus.h): every named
 * foreign-import defect (duplicate spanID, missing parent,
 * zero/negative duration, unknown processID, calleeless client span,
 * bad hex ids, timestamp overflow, non-digit decimal tags) must either
 * throw its named error in strict mode or be repaired and tallied in
 * lenient mode -- never silently dropped.
 *
 * The CloneDeterminism.* cases re-run closures on a RunExecutor at
 * --jobs 1 and 4 and require byte-identical reports; the ctest alias
 * CloneUnderTsan runs exactly those under ThreadSanitizer.
 */

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "clone/foreign_fixture.h"
#include "clone/trace_clone.h"
#include "jaeger_corpus.h"
#include "obs/jaeger.h"
#include "sim/run_executor.h"

namespace {

using namespace ditto;
using jaeger_corpus::get;

const profile::EdgeProfile *
findEdge(const core::Topology &topo, const std::string &caller,
         const std::string &callee)
{
    for (const profile::EdgeProfile &e : topo.edges)
        if (e.caller == caller && e.callee == callee)
            return &e;
    return nullptr;
}

/** Assert one recovered edge's rate and byte averages exactly. */
void
expectEdge(const core::Topology &topo, const std::string &caller,
           const std::string &callee, double rate, double reqBytes,
           double respBytes)
{
    const profile::EdgeProfile *e = findEdge(topo, caller, callee);
    ASSERT_NE(e, nullptr) << caller << "->" << callee << " missing";
    EXPECT_DOUBLE_EQ(e->callsPerCallerRequest, rate)
        << caller << "->" << callee;
    EXPECT_DOUBLE_EQ(e->avgRequestBytes, reqBytes)
        << caller << "->" << callee;
    EXPECT_DOUBLE_EQ(e->avgResponseBytes, respBytes)
        << caller << "->" << callee;
}

/** Expect a strict import to throw a message containing `needle`. */
void
expectStrictError(const std::string &json, const std::string &needle)
{
    try {
        obs::importJaegerJson(json);
        FAIL() << "expected error containing \"" << needle << "\"";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "got: " << e.what();
    }
}

// ---- fixture ingest -----------------------------------------------

TEST(CloneIngest, FixtureRecoversGraphAndStats)
{
    const clone::TraceModel m =
        clone::ingestTraceJson(clone::exampleForeignTraceJson());

    EXPECT_EQ(m.root, "gateway");
    EXPECT_EQ(m.services.size(), 5u);
    EXPECT_EQ(m.traces, 100u);
    EXPECT_EQ(m.spans, 360u);
    EXPECT_EQ(m.edges, 260u);
    EXPECT_TRUE(m.ingest.foreign());
    EXPECT_EQ(m.ingest.defects(), 0u);

    const clone::ServiceModel *gw = m.find("gateway");
    ASSERT_NE(gw, nullptr);
    EXPECT_DOUBLE_EQ(gw->requests, 100);
    EXPECT_FALSE(gw->async);
    ASSERT_EQ(gw->endpoints.size(), 2u);
    EXPECT_EQ(gw->endpoints[0].name, "GET /home");
    EXPECT_EQ(gw->endpoints[1].name, "GET /user");
    EXPECT_DOUBLE_EQ(gw->endpoints[0].requests, 60);
    EXPECT_DOUBLE_EQ(gw->endpoints[1].requests, 40);

    const clone::ServiceModel *feed = m.find("feed");
    ASSERT_NE(feed, nullptr);
    EXPECT_DOUBLE_EQ(feed->requests, 60);
    // Feed issues cache.Get and storage.Read concurrently in half the
    // home traces: the model must mark it async.
    EXPECT_TRUE(feed->async);

    const clone::ServiceModel *cache = m.find("cache");
    const clone::ServiceModel *storage = m.find("storage");
    const clone::ServiceModel *profile = m.find("profile");
    ASSERT_NE(cache, nullptr);
    ASSERT_NE(storage, nullptr);
    ASSERT_NE(profile, nullptr);
    EXPECT_DOUBLE_EQ(cache->requests, 60);
    EXPECT_DOUBLE_EQ(storage->requests, 85);
    EXPECT_DOUBLE_EQ(profile->requests, 55);

    // The five edges with exact rates and byte averages. The
    // gateway->feed request sizes cycle 240/248/264/272, mean 256.
    ASSERT_EQ(m.topology.edges.size(), 5u);
    expectEdge(m.topology, "gateway", "feed", 0.6, 256, 2048);
    expectEdge(m.topology, "gateway", "profile", 0.55, 160, 512);
    expectEdge(m.topology, "feed", "cache", 1.0, 64, 1024);
    expectEdge(m.topology, "feed", "storage", 0.5, 96, 4096);
    expectEdge(m.topology, "profile", "storage", 1.0, 96, 4096);

    // Exclusive service time: feed spans last 1000.5us with a cache
    // child (120.75us) always and a storage child (300.5us) in half
    // the traces -> mean exclusive (30*879.75 + 30*579.25)/60 us.
    ASSERT_EQ(feed->endpoints.size(), 1u);
    EXPECT_EQ(feed->endpoints[0].exclusiveNs.count(), 60u);
    EXPECT_NEAR(feed->endpoints[0].meanExclusiveNs, 729500,
                729500 * 0.01);
}

TEST(CloneIngest, FixtureScalesByTraceCount)
{
    const clone::TraceModel m =
        clone::ingestTraceJson(clone::exampleForeignTraceJson(20));
    EXPECT_EQ(m.traces, 20u);
    const clone::ServiceModel *gw = m.find("gateway");
    ASSERT_NE(gw, nullptr);
    EXPECT_DOUBLE_EQ(gw->requests, 20);
    // Rates are shares of the fixed 20-trace cycle: unchanged.
    expectEdge(m.topology, "gateway", "feed", 0.6, 256, 2048);
    expectEdge(m.topology, "gateway", "profile", 0.55, 160, 512);
}

// ---- synthesis ----------------------------------------------------

TEST(CloneSynthesis, SpecsFollowModel)
{
    const clone::TraceModel m =
        clone::ingestTraceJson(clone::exampleForeignTraceJson());
    const clone::SynthesizedClone c = clone::synthesizeClone(m);

    EXPECT_EQ(c.root, "gateway");
    ASSERT_EQ(c.specs.size(), 5u);

    // Dependency order: every downstream must already be deployable,
    // i.e. appear earlier in the spec list.
    std::vector<std::string> seen;
    for (const app::ServiceSpec &s : c.specs) {
        for (const std::string &d : s.downstreams)
            EXPECT_NE(std::find(seen.begin(), seen.end(), d),
                      seen.end())
                << s.name << " depends on later spec " << d;
        seen.push_back(s.name);
    }
    EXPECT_EQ(c.specs.back().name, "gateway");

    const app::ServiceSpec *gw = c.find("gateway");
    const app::ServiceSpec *feed = c.find("feed");
    ASSERT_NE(gw, nullptr);
    ASSERT_NE(feed, nullptr);
    EXPECT_EQ(gw->endpoints.size(), 2u);
    EXPECT_EQ(gw->clientModel, app::ClientModel::Sync);
    EXPECT_EQ(feed->clientModel, app::ClientModel::Async);

    // Load mix follows the observed root endpoint shares (60/40).
    ASSERT_EQ(c.load.endpoints.size(), 2u);
    EXPECT_EQ(c.load.endpoints[0].endpoint, 0u);
    EXPECT_EQ(c.load.endpoints[1].endpoint, 1u);
    EXPECT_DOUBLE_EQ(c.load.endpoints[0].weight, 60);
    EXPECT_DOUBLE_EQ(c.load.endpoints[1].weight, 40);
}

// ---- closure ------------------------------------------------------

clone::ClosureOptions
fastClosure(std::uint64_t seed)
{
    clone::ClosureOptions opts;
    opts.seed = seed;
    opts.qps = 2000;
    opts.measure = sim::milliseconds(250);
    return opts;
}

TEST(CloneClosure, RoundTripWithinTolerance)
{
    const clone::ClosureResult res = clone::runClosure(
        clone::exampleForeignTraceJson(), fastClosure(7));

    EXPECT_TRUE(res.fidelity.isomorphic) << res.report();
    EXPECT_TRUE(res.fidelity.pass) << res.report();
    EXPECT_TRUE(res.fidelity.diffs.empty());
    EXPECT_EQ(res.reanalyzed.services.size(), 5u);
    EXPECT_EQ(res.reanalyzed.root, "gateway");
    EXPECT_EQ(res.reanalyzed.edges.size(), 5u);
    EXPECT_GT(res.cloneRequests, 100u);
    EXPECT_GT(res.windowP50Ns, 0u);
    EXPECT_LE(res.fidelity.maxRateErrPct, 10.0);
    // Byte sizes ride on the synthesized RpcCallSpecs: exact.
    EXPECT_DOUBLE_EQ(res.fidelity.maxRequestBytesErrPct, 0);
    EXPECT_DOUBLE_EQ(res.fidelity.maxResponseBytesErrPct, 0);
}

TEST(CloneClosure, ReportIsStableForIdenticalOptions)
{
    const std::string fixture = clone::exampleForeignTraceJson();
    const clone::ClosureResult a =
        clone::runClosure(fixture, fastClosure(3));
    const clone::ClosureResult b =
        clone::runClosure(fixture, fastClosure(3));
    EXPECT_EQ(a.report(), b.report());
    EXPECT_EQ(a.cloneTraceJson, b.cloneTraceJson);
}

/** Closure reports for seeds 1..k fanned out over `jobs` workers. */
std::vector<std::string>
closureReports(const std::string &fixture, unsigned jobs, unsigned k)
{
    sim::RunExecutor pool(jobs);
    std::vector<std::function<std::string()>> tasks;
    for (unsigned i = 0; i < k; ++i)
        tasks.push_back([&fixture, i] {
            return clone::runClosure(fixture, fastClosure(1 + i))
                .report();
        });
    return pool.runOrdered<std::string>(std::move(tasks));
}

TEST(CloneDeterminism, ReportsIdenticalAtJobs1And4)
{
    const std::string fixture = clone::exampleForeignTraceJson();
    const std::vector<std::string> serial =
        closureReports(fixture, 1, 2);
    const std::vector<std::string> parallel =
        closureReports(fixture, 4, 2);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "seed " << (1 + i);
}

// ---- malformed-Jaeger corpus --------------------------------------

TEST(CloneImportErrors, DuplicateSpanId)
{
    const std::string d = get("duplicate-span-id");
    expectStrictError(d, "duplicate spanID 0000000000000001");

    obs::ImportOptions lenient;
    lenient.lenient = true;
    obs::ImportReport rep;
    const trace::Tracer t = obs::importJaegerJson(d, lenient, &rep);
    EXPECT_EQ(rep.duplicateSpans, 1u);
    EXPECT_EQ(rep.defects(), 1u);
    ASSERT_EQ(t.spans().size(), 1u);  // keep-first repair
    EXPECT_EQ(t.spans()[0].end - t.spans()[0].start, 50000u);
    EXPECT_FALSE(rep.warnings.empty());
}

TEST(CloneImportErrors, MissingParentReparentsToRoot)
{
    const std::string d = get("missing-parent");
    expectStrictError(d, "references missing parent 00000000000000ff");

    obs::ImportOptions lenient;
    lenient.lenient = true;
    obs::ImportReport rep;
    const trace::Tracer t = obs::importJaegerJson(d, lenient, &rep);
    EXPECT_EQ(rep.missingParents, 1u);
    ASSERT_EQ(t.spans().size(), 1u);
    EXPECT_EQ(t.spans()[0].parentSpanId, 0u);  // reparented to root
}

TEST(CloneImportErrors, ZeroDurationServerSpan)
{
    const std::string d = get("zero-duration");
    expectStrictError(d, "zero-duration span 0000000000000003");

    obs::ImportOptions lenient;
    lenient.lenient = true;
    obs::ImportReport rep;
    const trace::Tracer t = obs::importJaegerJson(d, lenient, &rep);
    EXPECT_EQ(rep.zeroDurationSpans, 1u);
    EXPECT_EQ(t.spans().size(), 1u);  // kept, tallied
}

TEST(CloneImportErrors, NegativeDurationAndStartTime)
{
    const std::string negDur = get("negative-duration");
    expectStrictError(negDur, "has negative duration");

    obs::ImportOptions lenient;
    lenient.lenient = true;
    obs::ImportReport rep;
    const trace::Tracer t =
        obs::importJaegerJson(negDur, lenient, &rep);
    // Clamped to zero length, which also tallies a zero-duration
    // server span: both defects are visible, nothing vanishes.
    EXPECT_EQ(rep.negativeDurationSpans, 1u);
    EXPECT_EQ(rep.zeroDurationSpans, 1u);
    ASSERT_EQ(t.spans().size(), 1u);
    EXPECT_EQ(t.spans()[0].end, t.spans()[0].start);

    const std::string negStart = get("negative-start");
    expectStrictError(negStart, "has negative startTime");
    obs::ImportReport rep2;
    const trace::Tracer t2 =
        obs::importJaegerJson(negStart, lenient, &rep2);
    EXPECT_EQ(rep2.negativeDurationSpans, 1u);
    ASSERT_EQ(t2.spans().size(), 1u);
    EXPECT_EQ(t2.spans()[0].start, 0u);  // clamped to epoch
}

TEST(CloneImportErrors, UnknownProcessId)
{
    const std::string d = get("unknown-process-id");
    expectStrictError(d, "unknown processID \"p9\"");

    obs::ImportOptions lenient;
    lenient.lenient = true;
    obs::ImportReport rep;
    const trace::Tracer t = obs::importJaegerJson(d, lenient, &rep);
    EXPECT_EQ(rep.unknownProcessSpans, 1u);
    ASSERT_EQ(t.spans().size(), 1u);  // defective span skipped
    EXPECT_EQ(t.spans()[0].spanId, 0x7u);
}

TEST(CloneImportErrors, CalleelessClientSpan)
{
    // A client span with neither a child server span nor a
    // peer.service tag: the edge's callee is unrecoverable.
    const std::string d = get("calleeless-client-span");
    expectStrictError(d, "neither a child server span nor");

    obs::ImportOptions lenient;
    lenient.lenient = true;
    obs::ImportReport rep;
    const trace::Tracer t = obs::importJaegerJson(d, lenient, &rep);
    EXPECT_EQ(rep.calleelessClientSpans, 1u);
    EXPECT_TRUE(t.edges().empty());  // edge dropped, counted
    EXPECT_EQ(t.spans().size(), 1u);
}

TEST(CloneImportErrors, BadHexIdAlwaysThrows)
{
    const std::string d = get("bad-hex-id");
    expectStrictError(d, "bad hex id");
    obs::ImportOptions lenient;
    lenient.lenient = true;
    // Structural garbage is not repairable, even leniently.
    EXPECT_THROW(obs::importJaegerJson(d, lenient, nullptr),
                 std::runtime_error);
}

TEST(CloneImportErrors, TimestampOverflow)
{
    // 2^64-1 microseconds does not fit u64 nanoseconds.
    const std::string d = get("timestamp-overflow");
    expectStrictError(d, "startTime overflows");
    obs::ImportOptions lenient;
    lenient.lenient = true;
    EXPECT_THROW(obs::importJaegerJson(d, lenient, nullptr),
                 std::runtime_error);
}

TEST(CloneImportErrors, MalformedNumbersRejectedByParser)
{
    // The hardened JSON number grammar backs the importer: malformed
    // tokens die in the parser with named errors, never as NaNs.
    expectStrictError(get("number-two-points"), "json");
    expectStrictError(get("number-leading-zero"), "json");
    expectStrictError(get("number-empty-fraction"), "json");
    expectStrictError(get("number-empty-exponent"), "json");
}

TEST(CloneImportErrors, FloatMicrosecondsConvertLosslessly)
{
    // 1000.125us -> 1000125ns and 123.456us -> 123456ns, exactly:
    // the conversion works on the source literal, not a double.
    const std::string d = get("float-micros");
    const trace::Tracer t = obs::importJaegerJson(d);
    ASSERT_EQ(t.spans().size(), 1u);
    EXPECT_EQ(t.spans()[0].start, 1000125u);
    EXPECT_EQ(t.spans()[0].end - t.spans()[0].start, 123456u);

    // Near-max durations survive exactly too (the conversion's
    // overflow guard reserves one ns of headroom for rounding, so
    // the last representable value is u64 max minus the reserve).
    const std::string big = get("float-micros-near-max");
    const trace::Tracer t2 = obs::importJaegerJson(big);
    ASSERT_EQ(t2.spans().size(), 1u);
    EXPECT_EQ(t2.spans()[0].start, 0u);
    EXPECT_EQ(t2.spans()[0].end, 18446744073709550999ull);
}

TEST(CloneImportErrors, DecimalTagsAreDigitsOnly)
{
    // strtoull would read "-1" as 2^64-1, skip the space in " 12" and
    // the sign in "+5"; each imported silently as a wrong timestamp.
    // A ditto.*_ns tag is digits only, in either mode.
    obs::ImportOptions lenient;
    lenient.lenient = true;
    for (const auto &[name, value] :
         {std::pair{"ns-tag-negative", "\"-1\""},
          std::pair{"ns-tag-space", "\" 12\""},
          std::pair{"ns-tag-plus", "\"+5\""}}) {
        const std::string d = get(name);
        expectStrictError(d, std::string("bad decimal tag ") + value);
        EXPECT_THROW(obs::importJaegerJson(d, lenient, nullptr),
                     std::runtime_error)
            << name;
    }
}

TEST(CloneImportErrors, LenientFixtureMatchesStrict)
{
    // A clean document must ingest identically under both modes.
    clone::IngestOptions lenient;
    lenient.import.lenient = true;
    const clone::TraceModel a =
        clone::ingestTraceJson(clone::exampleForeignTraceJson());
    const clone::TraceModel b = clone::ingestTraceJson(
        clone::exampleForeignTraceJson(), lenient);
    EXPECT_EQ(a.ingest.defects(), 0u);
    EXPECT_EQ(b.ingest.defects(), 0u);
    EXPECT_EQ(a.spans, b.spans);
    EXPECT_EQ(a.edges, b.edges);
    ASSERT_EQ(a.topology.edges.size(), b.topology.edges.size());
    for (std::size_t i = 0; i < a.topology.edges.size(); ++i) {
        EXPECT_EQ(a.topology.edges[i].caller,
                  b.topology.edges[i].caller);
        EXPECT_DOUBLE_EQ(a.topology.edges[i].callsPerCallerRequest,
                         b.topology.edges[i].callsPerCallerRequest);
    }
}

// ---- fidelity comparison unit tests -------------------------------

TEST(CloneFidelity, DetectsMissingServiceAndEdge)
{
    const clone::TraceModel m =
        clone::ingestTraceJson(clone::exampleForeignTraceJson());
    core::Topology mutated = m.topology;
    mutated.services.pop_back();
    const clone::FidelityReport svc =
        clone::compareTopologies(m.topology, mutated);
    EXPECT_FALSE(svc.isomorphic);
    EXPECT_FALSE(svc.pass);
    EXPECT_FALSE(svc.diffs.empty());

    core::Topology noEdge = m.topology;
    noEdge.edges.pop_back();
    const clone::FidelityReport edge =
        clone::compareTopologies(m.topology, noEdge);
    EXPECT_FALSE(edge.isomorphic);
}

TEST(CloneFidelity, RateToleranceIsMaxOfAbsAndRel)
{
    const clone::TraceModel m =
        clone::ingestTraceJson(clone::exampleForeignTraceJson());
    core::Topology drift = m.topology;
    // +0.05 on a 0.6 rate: within max(0.08 abs, 10% rel).
    for (profile::EdgeProfile &e : drift.edges)
        if (e.caller == "gateway" && e.callee == "feed")
            e.callsPerCallerRequest += 0.05;
    EXPECT_TRUE(clone::compareTopologies(m.topology, drift).pass);

    // +0.2 busts both bounds.
    for (profile::EdgeProfile &e : drift.edges)
        if (e.caller == "gateway" && e.callee == "feed")
            e.callsPerCallerRequest += 0.15;
    const clone::FidelityReport bad =
        clone::compareTopologies(m.topology, drift);
    EXPECT_TRUE(bad.isomorphic);
    EXPECT_FALSE(bad.pass);
    EXPECT_FALSE(bad.diffs.empty());
}

} // namespace
