/**
 * @file
 * Tests for the chaos fuzzer: clean campaigns hold every global
 * invariant, campaigns are byte-deterministic at any job count, and a
 * planted accounting bug is caught and shrunk to the same minimal
 * reproducer on every run.
 *
 * These tests carry the `chaos` ctest label; the determinism slice
 * also joins `parallel` so a -DDITTO_TSAN=ON build races concurrent
 * campaigns under TSan.
 */

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "fault/fault_plan.h"
#include "sim/run_executor.h"

namespace {

using namespace ditto;

/** Small, CI-friendly campaign config (single-core runners). */
chaos::ChaosConfig
smallConfig()
{
    chaos::ChaosConfig cfg;
    cfg.seed = 5;
    cfg.services = 8;
    cfg.depth = 3;
    cfg.machines = 3;
    cfg.qps = 4000;
    cfg.runFor = sim::milliseconds(10);
    cfg.drain = sim::milliseconds(15);
    cfg.maxShrinkProbes = 40;
    return cfg;
}

bool
sameMix(const chaos::OutcomeMix &a, const chaos::OutcomeMix &b)
{
    return a.clientSent == b.clientSent && a.clientOk == b.clientOk &&
        a.clientError == b.clientError &&
        a.clientShed == b.clientShed &&
        a.clientTimedOut == b.clientTimedOut &&
        a.clientLate == b.clientLate &&
        a.cancelsSent == b.cancelsSent && a.rpcOk == b.rpcOk &&
        a.rpcTimeouts == b.rpcTimeouts &&
        a.rpcBreakerFastFails == b.rpcBreakerFastFails &&
        a.rpcCancelled == b.rpcCancelled &&
        a.rpcHedges == b.rpcHedges &&
        a.rpcHedgeWins == b.rpcHedgeWins &&
        a.requestsShed == b.requestsShed &&
        a.requestsCancelled == b.requestsCancelled;
}

// ---------------------------------------------------------------------------
// Clean campaigns
// ---------------------------------------------------------------------------

TEST(ChaosSmoke, CleanPlansHoldEveryInvariant)
{
    const chaos::ChaosConfig cfg = smallConfig();
    const chaos::ChaosReport report = chaos::runChaos(cfg, 4);
    ASSERT_EQ(report.plans.size(), 4u);
    for (const chaos::PlanReport &p : report.plans) {
        EXPECT_TRUE(p.result.ok())
            << "plan seed " << p.planSeed << " violated: "
            << (p.result.violations.empty()
                    ? ""
                    : p.result.violations.front());
        EXPECT_GT(p.result.mix.clientSent, 0u);
        EXPECT_FALSE(p.plan.empty());
    }
    EXPECT_EQ(report.violating(), 0u);
}

TEST(ChaosSmoke, LifecycleMechanismsExercised)
{
    // A slightly longer campaign must actually drive the new
    // machinery: hedges launch and cancellations propagate (otherwise
    // the invariants above are vacuously true).
    chaos::ChaosConfig cfg = smallConfig();
    cfg.runFor = sim::milliseconds(20);
    cfg.drain = sim::milliseconds(20);
    const chaos::ChaosReport report = chaos::runChaos(cfg, 4);
    chaos::OutcomeMix total;
    for (const chaos::PlanReport &p : report.plans)
        total += p.result.mix;
    EXPECT_EQ(report.violating(), 0u);
    EXPECT_GT(total.rpcHedges, 0u);
    EXPECT_GT(total.rpcCancelled + total.requestsCancelled, 0u);
}

TEST(ChaosSmoke, OverloadCampaignHoldsEveryInvariant)
{
    // Adaptive limits, sojourn/deadline shedding, brownout, and
    // retry budgets armed on every service (plus budgeted client
    // retries via sessions): the same conservation invariants must
    // hold with the new shed/skip causes in the mix.
    chaos::ChaosConfig cfg = smallConfig();
    cfg.overload = true;
    cfg.sessions = true;
    cfg.runFor = sim::milliseconds(20);
    cfg.drain = sim::milliseconds(20);
    const chaos::ChaosReport report = chaos::runChaos(cfg, 4);
    chaos::OutcomeMix total;
    for (const chaos::PlanReport &p : report.plans) {
        EXPECT_TRUE(p.result.ok())
            << "plan seed " << p.planSeed << " violated: "
            << (p.result.violations.empty()
                    ? ""
                    : p.result.violations.front());
        total += p.result.mix;
    }
    EXPECT_EQ(report.violating(), 0u);
    EXPECT_GT(total.clientSent, 0u);
}

TEST(ChaosSmoke, OverloadOffKeepsPlanSequence)
{
    // The overload switch must not perturb plan sampling: the same
    // seed yields byte-identical fault plans with and without it.
    const chaos::ChaosConfig off = smallConfig();
    chaos::ChaosConfig on = smallConfig();
    on.overload = true;
    for (std::uint64_t s : {1ull, 7ull, 42ull}) {
        EXPECT_EQ(
            chaos::formatFaultPlan(chaos::generateRandomPlan(off, s)),
            chaos::formatFaultPlan(chaos::generateRandomPlan(on, s)));
    }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(ChaosInvariants, UndrainedLoadGenRunKeepsClientsConserved)
{
    // With no drain, the LoadGen's calls are still in flight when the
    // invariants run. Client conservation must count them (it once
    // took LoadGen's in-flight term as zero); the leftover work is
    // the orphan checks' to report, and they still do.
    chaos::ChaosConfig cfg = smallConfig();
    cfg.drain = 0;
    const chaos::PlanRunResult r =
        chaos::runPlan(cfg, fault::FaultPlan{});
    ASSERT_GT(r.mix.clientSent, 0u);
    bool orphan = false;
    for (const std::string &v : r.violations) {
        EXPECT_NE(v.rfind("client-conservation", 0), 0u) << v;
        orphan = orphan || v.rfind("orphan-", 0) == 0;
    }
    EXPECT_TRUE(orphan);
}

TEST(ChaosDeterminism, RunPlanIsAPureFunction)
{
    const chaos::ChaosConfig cfg = smallConfig();
    const fault::FaultPlan plan =
        chaos::generateRandomPlan(cfg, 0xabcdefull);
    const chaos::PlanRunResult a = chaos::runPlan(cfg, plan);
    const chaos::PlanRunResult b = chaos::runPlan(cfg, plan);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_TRUE(sameMix(a.mix, b.mix));
}

TEST(ChaosDeterminism, CampaignIdenticalAcrossJobCounts)
{
    const chaos::ChaosConfig cfg = smallConfig();
    sim::RunExecutor serial(1);
    sim::RunExecutor pool(3);
    const chaos::ChaosReport a = chaos::runChaos(cfg, 4, &serial);
    const chaos::ChaosReport b = chaos::runChaos(cfg, 4, &pool);
    ASSERT_EQ(a.plans.size(), b.plans.size());
    for (std::size_t i = 0; i < a.plans.size(); ++i) {
        EXPECT_EQ(a.plans[i].planSeed, b.plans[i].planSeed);
        EXPECT_EQ(chaos::formatFaultPlan(a.plans[i].plan),
                  chaos::formatFaultPlan(b.plans[i].plan));
        EXPECT_EQ(a.plans[i].result.violations,
                  b.plans[i].result.violations);
        EXPECT_TRUE(sameMix(a.plans[i].result.mix,
                            b.plans[i].result.mix));
    }
}

// ---------------------------------------------------------------------------
// Planted-bug catch + shrink
// ---------------------------------------------------------------------------

/**
 * Three faults, one culprit: only the machine crash drops messages,
 * so only it can trip the planted ledger bug. The shrinker must peel
 * the two benign faults away and narrow the crash window.
 */
fault::FaultPlan
plantedBugPlan()
{
    fault::FaultPlan plan;
    plan.diskSlowdown("m0", sim::milliseconds(1), sim::milliseconds(2),
                      4.0);
    plan.machineCrash("m1", sim::milliseconds(2),
                      sim::milliseconds(3));
    plan.linkLatency("m0", "m2", sim::milliseconds(1),
                     sim::milliseconds(2), sim::microseconds(200));
    return plan;
}

TEST(ChaosShrink, PlantedLedgerBugIsCaught)
{
    chaos::ChaosConfig cfg = smallConfig();
    cfg.plantLedgerBug = true;
    const fault::FaultPlan plan = plantedBugPlan();
    const chaos::PlanRunResult r = chaos::runPlan(cfg, plan);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.violations.front().find("net-msg-ledger"),
              std::string::npos);

    // The identical plan is clean when the checker accounts drops:
    // the violation is the fixture bug, not the runtime.
    chaos::ChaosConfig honest = cfg;
    honest.plantLedgerBug = false;
    EXPECT_TRUE(chaos::runPlan(honest, plan).ok());
}

TEST(ChaosShrink, ShrinksToMinimalReproducerDeterministically)
{
    chaos::ChaosConfig cfg = smallConfig();
    cfg.plantLedgerBug = true;
    const fault::FaultPlan plan = plantedBugPlan();

    const chaos::ShrinkResult first = chaos::shrinkPlan(cfg, plan);
    const chaos::ShrinkResult second = chaos::shrinkPlan(cfg, plan);

    // Minimal: the benign disk and latency faults are gone.
    ASSERT_EQ(first.plan.faults.size(), 1u);
    EXPECT_EQ(first.plan.faults.front().kind,
              fault::FaultKind::MachineCrash);
    EXPECT_LT(first.plan.faults.front().duration,
              sim::milliseconds(3));
    EXPECT_FALSE(first.violations.empty());
    EXPECT_GT(first.probes, 0u);
    EXPECT_LE(first.probes, cfg.maxShrinkProbes);

    // Deterministic: same seed, same reproducer, byte for byte.
    EXPECT_EQ(chaos::formatFaultPlan(first.plan),
              chaos::formatFaultPlan(second.plan));
    EXPECT_EQ(first.violations, second.violations);
    EXPECT_EQ(first.probes, second.probes);

    // The reproducer still violates when replayed on its own.
    EXPECT_FALSE(chaos::runPlan(cfg, first.plan).ok());
}

// ---------------------------------------------------------------------------
// Multi-region campaigns
// ---------------------------------------------------------------------------

/** smallConfig spread over three regions joined by a WAN mesh. */
chaos::ChaosConfig
regionConfig()
{
    chaos::ChaosConfig cfg = smallConfig();
    cfg.regions = 3;
    return cfg;
}

bool
isRegionKind(fault::FaultKind kind)
{
    return kind == fault::FaultKind::RegionPartition ||
        kind == fault::FaultKind::RegionOutage ||
        kind == fault::FaultKind::WanDegrade;
}

TEST(ChaosRegion, RegionCampaignHoldsEveryInvariant)
{
    const chaos::ChaosConfig cfg = regionConfig();
    const chaos::ChaosReport report = chaos::runChaos(cfg, 6);
    ASSERT_EQ(report.plans.size(), 6u);
    unsigned regionFaults = 0;
    for (const chaos::PlanReport &p : report.plans) {
        EXPECT_TRUE(p.result.ok())
            << "plan seed " << p.planSeed << " violated: "
            << (p.result.violations.empty()
                    ? ""
                    : p.result.violations.front());
        EXPECT_GT(p.result.mix.clientSent, 0u);
        for (const fault::FaultSpec &f : p.plan.faults)
            regionFaults += isRegionKind(f.kind) ? 1 : 0;
    }
    EXPECT_EQ(report.violating(), 0u);
    // The widened kind space must actually sample region faults --
    // otherwise the WAN ledger and region-conservation invariants
    // above are vacuously true.
    EXPECT_GT(regionFaults, 0u);
}

TEST(ChaosRegion, RegionsOffSamplesThePreRegionKindSpace)
{
    // regions == 0 must draw the exact pre-region plan sequence: the
    // region kinds never appear and the campaign stays bit-identical
    // to a build without the region layer.
    const chaos::ChaosConfig cfg = smallConfig();
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        const fault::FaultPlan plan =
            chaos::generateRandomPlan(cfg, seed);
        for (const fault::FaultSpec &f : plan.faults)
            EXPECT_FALSE(isRegionKind(f.kind))
                << faultKindName(f.kind) << " sampled at regions=0";
    }
}

TEST(ChaosDeterminism, RegionCampaignIdenticalAcrossJobCounts)
{
    const chaos::ChaosConfig cfg = regionConfig();
    sim::RunExecutor serial(1);
    sim::RunExecutor pool(3);
    const chaos::ChaosReport a = chaos::runChaos(cfg, 4, &serial);
    const chaos::ChaosReport b = chaos::runChaos(cfg, 4, &pool);
    ASSERT_EQ(a.plans.size(), b.plans.size());
    for (std::size_t i = 0; i < a.plans.size(); ++i) {
        EXPECT_EQ(a.plans[i].planSeed, b.plans[i].planSeed);
        EXPECT_EQ(chaos::formatFaultPlan(a.plans[i].plan),
                  chaos::formatFaultPlan(b.plans[i].plan));
        EXPECT_EQ(a.plans[i].result.violations,
                  b.plans[i].result.violations);
        EXPECT_TRUE(sameMix(a.plans[i].result.mix,
                            b.plans[i].result.mix));
    }
}

/**
 * Three faults, one culprit: only the WAN degradation drops messages
 * on a WAN link, so only it can trip the planted per-link ledger bug.
 */
fault::FaultPlan
plantedWanBugPlan()
{
    fault::FaultPlan plan;
    plan.diskSlowdown("m0", sim::milliseconds(1), sim::milliseconds(2),
                      4.0);
    plan.wanDegrade("r0", "r1", sim::milliseconds(1),
                    sim::milliseconds(6), 0.9,
                    sim::microseconds(100));
    plan.linkLatency("m0", "m2", sim::milliseconds(1),
                     sim::milliseconds(2), sim::microseconds(200));
    return plan;
}

TEST(ChaosRegionShrink, PlantedWanLedgerBugIsCaughtAndShrunk)
{
    chaos::ChaosConfig cfg = regionConfig();
    cfg.plantWanLedgerBug = true;
    const fault::FaultPlan plan = plantedWanBugPlan();

    const chaos::PlanRunResult r = chaos::runPlan(cfg, plan);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.violations.front().find("wan-msg-ledger"),
              std::string::npos)
        << r.violations.front();

    // Honest checker, same plan: the runtime's per-link accounting is
    // exact -- the violation is the fixture bug.
    chaos::ChaosConfig honest = cfg;
    honest.plantWanLedgerBug = false;
    EXPECT_TRUE(chaos::runPlan(honest, plan).ok());

    // ddmin peels the benign disk and latency faults away.
    const chaos::ShrinkResult shrunk = chaos::shrinkPlan(cfg, plan);
    ASSERT_EQ(shrunk.plan.faults.size(), 1u);
    EXPECT_EQ(shrunk.plan.faults.front().kind,
              fault::FaultKind::WanDegrade);
    EXPECT_FALSE(shrunk.violations.empty());
    EXPECT_FALSE(chaos::runPlan(cfg, shrunk.plan).ok());

    // Deterministic reproducer, formatted as builder code.
    const chaos::ShrinkResult again = chaos::shrinkPlan(cfg, plan);
    EXPECT_EQ(chaos::formatFaultPlan(shrunk.plan),
              chaos::formatFaultPlan(again.plan));
    EXPECT_NE(chaos::formatFaultPlan(shrunk.plan).find(
                  "plan.wanDegrade(\"r0\", \"r1\", "),
              std::string::npos);
}

TEST(ChaosShrink, ReproducerFormatsAsBuilderCode)
{
    fault::FaultPlan plan;
    plan.machineCrash("m1", 2000000, 3000000);
    plan.linkDrop("m0", "", 1000, 2000, 0.5);
    const std::string code = chaos::formatFaultPlan(plan);
    EXPECT_NE(code.find("fault::FaultPlan plan;"), std::string::npos);
    EXPECT_NE(code.find(
                  "plan.machineCrash(\"m1\", 2000000, 3000000);"),
              std::string::npos);
    EXPECT_NE(code.find("plan.linkDrop(\"m0\", \"\", 1000, 2000, "),
              std::string::npos);
}

} // namespace
