/**
 * @file
 * Workload engine tests: arrival processes and rate curves, session
 * lifecycle, outcome conservation under MMPP and flash-crowd load,
 * per-class SLO reporting, knee detection, metrics registration, and
 * byte-identical determinism at any RunExecutor worker count.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "app/deployment.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "obs/metrics.h"
#include "sim/run_executor.h"
#include "workload/arrivals.h"
#include "workload/engine.h"
#include "workload/loadgen.h"
#include "workload/pending_map.h"
#include "workload/slo.h"

namespace {

using namespace ditto;

app::ServiceSpec
echoService()
{
    app::ServiceSpec spec;
    spec.name = "echo";
    spec.threads.workers = 2;
    hw::BlockSpec bs;
    bs.label = "echo.h";
    bs.instCount = 64;
    bs.seed = 3;
    spec.blocks.push_back(hw::buildBlock(bs));
    app::EndpointSpec a;
    a.name = "a";
    a.handler.ops = {app::opCompute(0, 5)};
    a.responseBytesMin = a.responseBytesMax = 128;
    spec.endpoints.push_back(a);
    app::EndpointSpec b = a;
    b.name = "b";
    spec.endpoints.push_back(b);
    return spec;
}

struct World
{
    app::Deployment dep;
    os::Machine &machine;
    app::ServiceInstance &svc;

    explicit World(std::uint64_t seed = 41, double sampleRate = 1.0)
        : dep(seed, sampleRate),
          machine(dep.addMachine("n", hw::platformA())),
          svc(dep.deploy(echoService(), machine))
    {
        dep.wireAll();
    }
};

workload::WorkloadSpec
baseSpec()
{
    workload::WorkloadSpec ws;
    ws.sessionsPerSec = 400; // ~2.6k calls/s at 6.5 calls/session
    ws.connections = 8;
    ws.session.meanThink = sim::microseconds(500);
    ws.timeout = sim::milliseconds(3);
    ws.classes[0].slo.deadline = sim::milliseconds(2);
    return ws;
}

// ---- arrival processes / rate curves --------------------------------

TEST(RateCurve, ConstantIsFlat)
{
    workload::RateCurve c;
    EXPECT_DOUBLE_EQ(c.factorAt(0), 1.0);
    EXPECT_DOUBLE_EQ(c.factorAt(sim::seconds(5)), 1.0);
    EXPECT_EQ(c.refreshHorizon(0), sim::kTimeNever);
}

TEST(RateCurve, DiurnalOscillatesAroundOne)
{
    workload::RateCurve c;
    c.kind = workload::ShapeKind::Diurnal;
    c.amplitude = 0.5;
    c.period = sim::seconds(1);
    // Peak a quarter period in, trough at three quarters.
    EXPECT_NEAR(c.factorAt(sim::milliseconds(250)), 1.5, 1e-9);
    EXPECT_NEAR(c.factorAt(sim::milliseconds(750)), 0.5, 1e-9);
    EXPECT_NEAR(c.factorAt(0), 1.0, 1e-9);
    EXPECT_LT(c.refreshHorizon(0), sim::seconds(1));
}

TEST(RateCurve, RampInterpolatesThenHolds)
{
    workload::RateCurve c;
    c.kind = workload::ShapeKind::Ramp;
    c.startFactor = 1.0;
    c.endFactor = 3.0;
    c.rampDuration = sim::seconds(1);
    EXPECT_NEAR(c.factorAt(0), 1.0, 1e-9);
    EXPECT_NEAR(c.factorAt(sim::milliseconds(500)), 2.0, 1e-9);
    EXPECT_NEAR(c.factorAt(sim::seconds(2)), 3.0, 1e-9);
    EXPECT_EQ(c.refreshHorizon(sim::seconds(2)), sim::kTimeNever);
}

TEST(RateCurve, FlashCrowdStepsAndDecays)
{
    workload::RateCurve c;
    c.kind = workload::ShapeKind::FlashCrowd;
    c.stepAt = sim::milliseconds(100);
    c.stepMagnitude = 5.0;
    c.decayHalfLife = sim::milliseconds(50);
    EXPECT_NEAR(c.factorAt(sim::milliseconds(99)), 1.0, 1e-9);
    EXPECT_NEAR(c.factorAt(sim::milliseconds(100)), 5.0, 1e-9);
    // One half-life later the excess halved: 1 + 4/2.
    EXPECT_NEAR(c.factorAt(sim::milliseconds(150)), 3.0, 1e-9);
    // The pre-step horizon lands exactly on the step.
    EXPECT_EQ(c.refreshHorizon(sim::milliseconds(40)),
              sim::milliseconds(60));
    // Long after the step the curve is flat.
    EXPECT_EQ(c.refreshHorizon(sim::seconds(10)), sim::kTimeNever);
}

TEST(ArrivalProcess, PoissonGapsMatchRate)
{
    workload::ArrivalSpec spec;
    workload::ArrivalProcess ap(spec, sim::Rng(7));
    double sum = 0;
    unsigned arrivals = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto d = ap.next(1000.0, 0);
        sum += static_cast<double>(d.gap);
        if (d.arrival)
            ++arrivals;
    }
    EXPECT_EQ(arrivals, 20000u); // no horizon: every draw arrives
    const double meanGapMs = sum / 20000 / 1e6;
    EXPECT_NEAR(meanGapMs, 1.0, 0.05); // 1000/s -> 1ms mean gap
}

TEST(ArrivalProcess, DeterministicPacingIsExact)
{
    workload::ArrivalSpec spec;
    spec.kind = workload::ArrivalKind::Deterministic;
    workload::ArrivalProcess ap(spec, sim::Rng(7));
    const auto d = ap.next(2000.0, 0);
    EXPECT_TRUE(d.arrival);
    EXPECT_EQ(d.gap, sim::microseconds(500));
}

TEST(ArrivalProcess, GapsOvershootingHorizonAreNotArrivals)
{
    workload::ArrivalSpec spec;
    spec.kind = workload::ArrivalKind::Deterministic;
    workload::ArrivalProcess ap(spec, sim::Rng(7));
    const auto d =
        ap.next(2000.0, 0, /*horizon=*/sim::microseconds(100));
    EXPECT_FALSE(d.arrival);
    EXPECT_EQ(d.gap, sim::microseconds(100));
}

TEST(ArrivalProcess, MmppStatesSwitchOverTime)
{
    workload::ArrivalSpec spec;
    spec.kind = workload::ArrivalKind::Mmpp;
    workload::ArrivalProcess ap(spec, sim::Rng(7));
    bool sawLow = false;
    bool sawHigh = false;
    for (int i = 0; i < 200; ++i) {
        const double f =
            ap.stateFactor(static_cast<sim::Time>(i) *
                           sim::milliseconds(2));
        if (f < 1.0)
            sawLow = true;
        if (f > 1.0)
            sawHigh = true;
    }
    EXPECT_TRUE(sawLow);
    EXPECT_TRUE(sawHigh);
}

// ---- TagMap ---------------------------------------------------------

TEST(TagMap, InsertFindErase)
{
    workload::TagMap<int> m;
    EXPECT_TRUE(m.empty());
    m.emplace(5, 50);
    m.emplace(9, 90);
    m.emplace(7, 70); // out-of-order insert still lands sorted
    EXPECT_EQ(m.size(), 3u);
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70);
    EXPECT_EQ(m.find(6), nullptr);
    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_EQ(m.entries().front().tag, 5u);
    EXPECT_EQ(m.entries().back().tag, 9u);
}

// ---- outcome conservation -------------------------------------------

void
expectConservation(const workload::WorkloadEngine &eng)
{
    EXPECT_EQ(eng.sent(),
              eng.completedOk() + eng.completedError() +
                  eng.completedShed() + eng.timedOut() +
                  eng.inFlight());
}

TEST(EngineConservation, HoldsUnderMmppArrivals)
{
    World w;
    workload::WorkloadSpec ws = baseSpec();
    ws.arrivals.kind = workload::ArrivalKind::Mmpp;
    workload::WorkloadEngine eng(w.dep, w.svc, ws, 17);
    eng.start();
    w.dep.runFor(sim::milliseconds(150));
    expectConservation(eng); // holds mid-run (in-flight term > 0 ok)
    eng.stop();
    w.dep.runFor(sim::milliseconds(20));
    expectConservation(eng);
    EXPECT_EQ(eng.inFlight(), 0u); // drain settles everything
    EXPECT_EQ(eng.activeSessions(), 0u);
    EXPECT_GT(eng.sent(), 100u);
}

TEST(EngineConservation, HoldsUnderFlashCrowd)
{
    World w;
    workload::WorkloadSpec ws = baseSpec();
    ws.shape.kind = workload::ShapeKind::FlashCrowd;
    ws.shape.stepAt = sim::milliseconds(50);
    ws.shape.stepMagnitude = 4.0;
    ws.shape.decayHalfLife = sim::milliseconds(30);
    workload::WorkloadEngine eng(w.dep, w.svc, ws, 17);
    eng.start();
    w.dep.runFor(sim::milliseconds(150));
    expectConservation(eng);
    eng.stop();
    w.dep.runFor(sim::milliseconds(20));
    expectConservation(eng);
    EXPECT_EQ(eng.inFlight(), 0u);
    EXPECT_GT(eng.sent(), 100u);
}

TEST(Engine, FlashCrowdSendsBurst)
{
    // The same engine with the flash shape must send measurably more
    // than the steady one over a window containing the step.
    const auto sentWith = [](workload::ShapeKind kind) {
        World w;
        workload::WorkloadSpec ws = baseSpec();
        ws.shape.kind = kind;
        ws.shape.stepAt = sim::milliseconds(20);
        ws.shape.stepMagnitude = 4.0;
        ws.shape.decayHalfLife = sim::milliseconds(100);
        workload::WorkloadEngine eng(w.dep, w.svc, ws, 17);
        eng.start();
        w.dep.runFor(sim::milliseconds(150));
        return eng.sent();
    };
    EXPECT_GT(sentWith(workload::ShapeKind::FlashCrowd),
              sentWith(workload::ShapeKind::Constant) * 3 / 2);
}

// ---- sessions -------------------------------------------------------

TEST(Engine, SessionsStartAndFinish)
{
    World w;
    workload::WorkloadEngine eng(w.dep, w.svc, baseSpec(), 17);
    eng.start();
    w.dep.runFor(sim::milliseconds(100));
    EXPECT_GT(eng.sessionsStarted(), 10u);
    EXPECT_GT(eng.sessionsFinished(), 0u);
    EXPECT_LE(eng.sessionsFinished(), eng.sessionsStarted());
    eng.stop();
    w.dep.runFor(sim::milliseconds(20));
    EXPECT_EQ(eng.activeSessions(), 0u);
    const auto sentAtStop = eng.sent();
    w.dep.runFor(sim::milliseconds(50));
    EXPECT_EQ(eng.sent(), sentAtStop); // stop ceases arrivals
}

TEST(Engine, SessionSpansOnJaegerPath)
{
    World w(41, /*sampleRate=*/1.0);
    workload::WorkloadEngine eng(w.dep, w.svc, baseSpec(), 17);
    eng.start();
    w.dep.runFor(sim::milliseconds(60));
    eng.stop();
    w.dep.runFor(sim::milliseconds(20));
    unsigned workloadSpans = 0;
    for (const trace::Span &s : w.dep.tracer().spans())
        if (s.service == "workload")
            ++workloadSpans;
    EXPECT_EQ(workloadSpans, eng.sessionsFinished());
}

TEST(Engine, TraceSessionsOffKeepsServiceGraphClean)
{
    World w(41, 1.0);
    workload::WorkloadSpec ws = baseSpec();
    ws.traceSessions = false;
    workload::WorkloadEngine eng(w.dep, w.svc, ws, 17);
    eng.start();
    w.dep.runFor(sim::milliseconds(60));
    eng.stop();
    w.dep.runFor(sim::milliseconds(20));
    for (const trace::Span &s : w.dep.tracer().spans())
        EXPECT_NE(s.service, "workload");
}

// ---- SLO reporting --------------------------------------------------

TEST(Slo, LightLoadMeetsSlo)
{
    World w;
    workload::WorkloadSpec ws = baseSpec();
    ws.sessionsPerSec = 50; // far below capacity
    workload::WorkloadEngine eng(w.dep, w.svc, ws, 17);
    eng.start();
    w.dep.runFor(sim::milliseconds(50));
    eng.beginMeasure();
    w.dep.runFor(sim::milliseconds(200));
    const workload::SloReport rep = eng.sloReport();
    ASSERT_EQ(rep.classes.size(), 1u);
    EXPECT_TRUE(rep.classes[0].met);
    EXPECT_EQ(rep.classes[0].violations, 0u);
    EXPECT_GT(rep.goodputQps, 0.0);
    EXPECT_NEAR(rep.goodputQps, rep.offeredQps,
                rep.offeredQps * 0.1);
    // The table prints one header, one class line, one total line.
    const std::string table = rep.table();
    EXPECT_NE(table.find("default"), std::string::npos);
    EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(Slo, KneePointRate)
{
    const std::vector<std::pair<double, double>> sweep = {
        {1000, 990}, {2000, 1985}, {3000, 2600}, {4000, 2800}};
    // 3000 is the first offered rate with goodput < 90% of offered
    // (the comparison is strict: goodput == offered * 0.9 is not yet
    // a knee).
    EXPECT_DOUBLE_EQ(workload::kneePointRate(sweep, 0.1), 3000);
    // No knee and empty sweep are distinguishable sentinels, not a
    // shared (and knee-shaped-looking) 0.
    EXPECT_DOUBLE_EQ(workload::kneePointRate({{1000, 995}}, 0.1),
                     workload::kKneeNone);
    EXPECT_DOUBLE_EQ(workload::kneePointRate({}, 0.1),
                     workload::kKneeEmptySweep);
    // Zero-offered entries do not count as an analyzable sweep.
    EXPECT_DOUBLE_EQ(workload::kneePointRate({{0, 0}}, 0.1),
                     workload::kKneeEmptySweep);
}

// ---- metrics registration -------------------------------------------

TEST(Metrics, EngineCountersExported)
{
    World w;
    workload::WorkloadSpec ws = baseSpec();
    workload::WorkloadEngine eng(w.dep, w.svc, ws, 17);
    obs::MetricsRegistry reg;
    workload::registerEngineMetrics(reg, eng, "engine0");
    eng.start();
    w.dep.runFor(sim::milliseconds(80));
    eng.stop();
    w.dep.runFor(sim::milliseconds(20));
    const obs::MetricsRegistry::Labels labels = {
        {"client", "engine0"}};
    EXPECT_EQ(reg.readCounter("ditto_client_sent_total", labels),
              eng.sent());
    EXPECT_EQ(reg.readCounter("ditto_client_ok_total", labels),
              eng.completedOk());
    EXPECT_EQ(
        reg.readCounter("ditto_workload_sessions_started_total",
                        labels),
        eng.sessionsStarted());
    const obs::MetricsRegistry::Labels classLabels = {
        {"class", "default"}, {"client", "engine0"}};
    EXPECT_EQ(reg.readCounter("ditto_slo_sent_total", classLabels),
              eng.classSent(0));
    // The snapshot renders without throwing and contains the series.
    EXPECT_NE(reg.prometheusText().find("ditto_slo_sent_total"),
              std::string::npos);
}

TEST(Metrics, LoadGenCountersExported)
{
    World w;
    workload::LoadSpec load;
    load.qps = 2000;
    load.connections = 4;
    workload::LoadGen gen(w.dep, w.svc, load, 9);
    obs::MetricsRegistry reg;
    workload::registerClientMetrics(reg, gen, "lg0");
    gen.start();
    w.dep.runFor(sim::milliseconds(80));
    const obs::MetricsRegistry::Labels labels = {{"client", "lg0"}};
    EXPECT_EQ(reg.readCounter("ditto_client_sent_total", labels),
              gen.sent());
    EXPECT_EQ(reg.readCounter("ditto_client_completed_total", labels),
              gen.completed());
    // The in-flight gauge is shared with the engine now.
    EXPECT_EQ(reg.readGauge("ditto_client_in_flight", labels),
              static_cast<double>(gen.inFlight()));
}

// ---- determinism ----------------------------------------------------

std::string
sessionizedRunSummary(std::uint64_t seed)
{
    World w(seed);
    workload::WorkloadSpec ws = baseSpec();
    ws.arrivals.kind = workload::ArrivalKind::Mmpp;
    ws.shape.kind = workload::ShapeKind::Diurnal;
    ws.shape.period = sim::milliseconds(50);
    workload::WorkloadEngine eng(w.dep, w.svc, ws, seed ^ 0xabcd);
    eng.start();
    w.dep.runFor(sim::milliseconds(60));
    eng.beginMeasure();
    w.dep.runFor(sim::milliseconds(120));
    eng.stop();
    w.dep.runFor(sim::milliseconds(20));
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "seed=%llu sent=%llu ok=%llu err=%llu shed=%llu to=%llu "
        "late=%llu sessions=%llu/%llu events=%llu\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(eng.sent()),
        static_cast<unsigned long long>(eng.completedOk()),
        static_cast<unsigned long long>(eng.completedError()),
        static_cast<unsigned long long>(eng.completedShed()),
        static_cast<unsigned long long>(eng.timedOut()),
        static_cast<unsigned long long>(eng.lateResponses()),
        static_cast<unsigned long long>(eng.sessionsStarted()),
        static_cast<unsigned long long>(eng.sessionsFinished()),
        static_cast<unsigned long long>(
            w.dep.events().executedCount()));
    return std::string(buf) + eng.sloReport().table();
}

TEST(WorkloadDeterminism, SessionizedRunByteIdenticalAcrossJobs)
{
    const auto runAll = [](unsigned jobs) {
        sim::RunExecutor pool(jobs);
        std::vector<std::function<std::string()>> tasks;
        for (std::uint64_t seed = 1; seed <= 6; ++seed)
            tasks.push_back(
                [seed] { return sessionizedRunSummary(seed); });
        std::string all;
        for (const std::string &s :
             pool.runOrdered<std::string>(std::move(tasks)))
            all += s;
        return all;
    };
    const std::string one = runAll(1);
    const std::string four = runAll(4);
    EXPECT_EQ(one, four);
    EXPECT_NE(one.find("sent="), std::string::npos);
}

} // namespace
