/**
 * @file
 * Fidelity under faults: `bench_paper`'s section after Fig. 11.
 *
 * The paper validates Ditto clones under *steady* load; this section
 * asks whether a clone also stands in for the original when things
 * go wrong. It deploys the Social Network original and the clone
 * Figs. 5-8 evaluate, arms both with identical resilience policies
 * (RPC deadlines, retries, circuit breaking) and a client-side
 * timeout, then replays the *same seeded FaultPlan* against each: a
 * mid-tier crash/restart, a lossy+slow client link, and a disk
 * slowdown. For every scenario it reports p50/p99/p999 client
 * latency, achieved qps vs goodput, and timeout/error rates, plus the
 * original-vs-clone deviation of each -- the fidelity-under-faults
 * score.
 *
 * Sanity: scenario "none" installs an *empty* FaultPlan through a
 * live FaultInjector and must match a run with no injector at all,
 * bit-exactly, proving the fault subsystem costs nothing when idle.
 *
 * Each faulted run owns its Deployment/EventQueue/RNGs, so the
 * zero-cost pair and the (scenario x {orig, clone}) matrix fan out
 * on the RunExecutor and join in submission order.
 */

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/paper.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "workload/loadgen.h"

namespace {

using namespace ditto;

constexpr sim::Time kWarm = sim::milliseconds(250);
constexpr sim::Time kMeasure = sim::milliseconds(300);
constexpr std::uint64_t kSeed = 91;

/** Everything we compare between original and clone. */
struct FaultRunResult
{
    double p50us = 0;
    double p99us = 0;
    double p999us = 0;
    double achievedQps = 0;
    double goodput = 0;
    double timeoutRate = 0;
    double errorRate = 0;
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t netDropped = 0;
    bool accounted = false;  //!< sent == delivered+dropped+in-flight

    // Per-outcome request mix over the measured window.
    std::uint64_t okCount = 0;        //!< client Ok completions
    std::uint64_t timeoutCount = 0;   //!< client-side timeouts
    std::uint64_t shedCount = 0;      //!< shed responses
    std::uint64_t cancelledCount = 0; //!< requests cancelled in-tree
    std::uint64_t hedgeWonCount = 0;  //!< calls won by a hedge
};

app::ResilienceSpec
benchResilience()
{
    app::ResilienceSpec res;
    res.rpcDeadline = sim::milliseconds(5);
    res.retry.maxAttempts = 2;
    res.retry.baseBackoff = sim::microseconds(200);
    res.retry.jitter = 0.1;
    res.breaker.enabled = true;
    res.breaker.failureThreshold = 10;
    res.breaker.openDuration = sim::milliseconds(10);
    // Full request lifecycle: end-to-end deadlines, cooperative
    // cancellation, and hedging against the replicated post-storage
    // tier (see runFaulted).
    res.propagateDeadline = true;
    res.hopMargin = sim::microseconds(200);
    res.cancellation = true;
    res.hedge.enabled = true;
    res.hedge.delay = sim::microseconds(500);
    return res;
}

/**
 * Deploy `tiers` on one node, drive the root with `load`, optionally
 * install `plan` through a FaultInjector, measure one window.
 */
FaultRunResult
runFaulted(const std::vector<app::ServiceSpec> &tiers,
           const std::string &rootName, const workload::LoadSpec &load,
           const app::ResilienceSpec &resilience,
           const fault::FaultPlan &plan, bool useInjector,
           const std::string &replicate = "")
{
    app::Deployment dep(kSeed);
    os::Machine &machine = dep.addMachine("node", hw::platformA());
    for (app::ServiceSpec tier : tiers) {
        tier.resilience = resilience;
        dep.deploy(tier, machine);
    }
    dep.wireAll();
    // A second replica of one tier gives the hedge policy somewhere
    // to send its backup attempt (hedging needs >= 2 replicas).
    if (!replicate.empty())
        dep.addReplica(replicate, machine);
    app::ServiceInstance *root = dep.find(rootName);
    workload::LoadSpec clientLoad = load;
    if (resilience.propagateDeadline) {
        clientLoad.propagateDeadline = true;
        clientLoad.cancelOnTimeout = resilience.cancellation;
    }
    workload::LoadGen gen(dep, *root, clientLoad, kSeed ^ 0x10ad);

    fault::FaultInjector injector(dep);
    if (useInjector)
        injector.install(plan);

    gen.start();
    dep.runFor(kWarm);
    dep.beginMeasureAll();
    gen.beginMeasure();
    dep.runFor(kMeasure);

    FaultRunResult r;
    r.p50us = static_cast<double>(gen.latency().percentile(0.5)) / 1e3;
    r.p99us = static_cast<double>(gen.latency().percentile(0.99)) / 1e3;
    r.p999us =
        static_cast<double>(gen.latency().percentile(0.999)) / 1e3;
    r.achievedQps = gen.achievedQps();
    r.goodput = gen.goodput();
    r.sent = gen.sent();
    r.completed = gen.completed();
    const double sent = static_cast<double>(std::max<std::uint64_t>(
        gen.sent(), 1));
    r.timeoutRate = static_cast<double>(gen.timedOut()) / sent;
    r.errorRate = static_cast<double>(gen.completedError() +
                                      gen.completedShed()) / sent;
    r.netDropped = dep.network().messagesDropped();
    r.accounted = dep.network().messagesSent() ==
        dep.network().messagesDelivered() +
        dep.network().messagesDropped() +
        dep.network().messagesInFlight();
    r.okCount = gen.completedOk();
    r.timeoutCount = gen.timedOut();
    r.shedCount = gen.completedShed();
    for (const auto &svc : dep.services()) {
        r.cancelledCount += svc->stats().requestsCancelled;
        r.hedgeWonCount += svc->stats().rpcHedgeWins;
    }
    return r;
}

/** A named fault scenario; `suffix` retargets services for the clone. */
struct Scenario
{
    std::string name;
    fault::FaultPlan (*make)(const std::string &suffix);
};

fault::FaultPlan
planNone(const std::string &)
{
    return {};
}

fault::FaultPlan
planMidTierCrash(const std::string &suffix)
{
    // Crash the post-storage tier twice inside the measured window;
    // warm restart after 40ms each time.
    fault::FaultPlan plan;
    plan.serviceCrash("sn.poststorage" + suffix,
                      kWarm + sim::milliseconds(40),
                      sim::milliseconds(40));
    plan.serviceCrash("sn.poststorage" + suffix,
                      kWarm + sim::milliseconds(180),
                      sim::milliseconds(40));
    return plan;
}

fault::FaultPlan
planLossyClientLink(const std::string &)
{
    // External-client <-> node link: 20% loss plus a 300us spike for
    // half the measured window.
    fault::FaultPlan plan;
    plan.linkDrop("", "node", kWarm + sim::milliseconds(30),
                  sim::milliseconds(150), 0.2);
    plan.linkLatency("", "node", kWarm + sim::milliseconds(30),
                     sim::milliseconds(150), sim::microseconds(300));
    return plan;
}

fault::FaultPlan
planDiskSlowdown(const std::string &)
{
    fault::FaultPlan plan;
    plan.diskSlowdown("node", kWarm + sim::milliseconds(20),
                      sim::milliseconds(220), 8.0);
    return plan;
}

double
relDev(double clone, double orig)
{
    const double denom = std::max(std::abs(orig), 1e-9);
    return std::abs(clone - orig) / denom;
}

} // namespace

bool
ditto::bench::faults(const PaperClones &clones, sim::RunExecutor &ex)
{
    // ---- zero-cost check: empty plan == no injector ------------------
    const auto origTiers = apps::socialNetworkSpecs();
    const std::string origRoot = apps::socialNetworkFrontend();
    const auto snLoad = apps::socialNetworkLoad();
    workload::LoadSpec load = snLoad.at(snLoad.mediumQps * 0.6);
    load.timeout = sim::milliseconds(25);
    const app::ResilienceSpec vanilla;  // everything disabled

    auto bareFuture = ex.submit([&origTiers, &origRoot, &load,
                                 &vanilla] {
        return runFaulted(origTiers, origRoot, load, vanilla, {},
                          false);
    });
    auto emptyFuture = ex.submit([&origTiers, &origRoot, &load,
                                  &vanilla] {
        return runFaulted(origTiers, origRoot, load, vanilla, {},
                          true);
    });
    const FaultRunResult bare = ex.collect(std::move(bareFuture));
    const FaultRunResult emptyPlan = ex.collect(std::move(emptyFuture));
    const bool zeroCost = bare.sent == emptyPlan.sent &&
        bare.completed == emptyPlan.completed &&
        bare.p50us == emptyPlan.p50us &&
        bare.p99us == emptyPlan.p99us &&
        bare.p999us == emptyPlan.p999us &&
        bare.timeoutRate == emptyPlan.timeoutRate;
    std::cout << "empty FaultPlan vs no injector: "
              << (zeroCost ? "IDENTICAL" : "DIVERGED (BUG)") << "\n";

    // ---- original vs clone under each scenario -----------------------
    const core::TopologyCloneResult &clone = clones.socialNetwork;
    workload::LoadSpec cloneLoad = socialCloneLoad(snLoad.mediumQps * 0.6);
    cloneLoad.timeout = load.timeout;

    const app::ResilienceSpec res = benchResilience();
    const Scenario scenarios[] = {
        {"none", planNone},
        {"midtier-crash", planMidTierCrash},
        {"client-link-loss", planLossyClientLink},
        {"disk-slowdown", planDiskSlowdown},
    };

    stats::TablePrinter table({"scenario", "variant", "p50us", "p99us",
                               "p999us", "qps", "goodput", "timeout%",
                               "err%"});
    stats::TablePrinter devs({"scenario", "dp50", "dp99", "dp999",
                              "dtimeout(pp)", "derr(pp)"});
    bool accountingOk = true;

    std::vector<std::function<FaultRunResult()>> tasks;
    for (const Scenario &scenario : scenarios) {
        tasks.push_back([&origTiers, &origRoot, &load, &res,
                         &scenario] {
            return runFaulted(origTiers, origRoot, load, res,
                              scenario.make(""), true,
                              "sn.poststorage");
        });
        tasks.push_back([&clone, &cloneLoad, &res, &scenario] {
            return runFaulted(clone.specs, clone.rootClone, cloneLoad,
                              res, scenario.make("_clone"), true,
                              "sn.poststorage_clone");
        });
    }
    const std::vector<FaultRunResult> runs =
        ex.runOrdered<FaultRunResult>(std::move(tasks));

    std::size_t runIdx = 0;
    for (const Scenario &scenario : scenarios) {
        const FaultRunResult &orig = runs[runIdx++];
        const FaultRunResult &syn = runs[runIdx++];
        accountingOk = accountingOk && orig.accounted && syn.accounted;

        auto addRow = [&](const char *tag, const FaultRunResult &r) {
            table.addRow({scenario.name, tag, cell(r.p50us, 1),
                          cell(r.p99us, 1), cell(r.p999us, 1),
                          cell(r.achievedQps, 0), cell(r.goodput, 0),
                          stats::formatPercent(r.timeoutRate, 2),
                          stats::formatPercent(r.errorRate, 2)});
        };
        addRow("orig", orig);
        addRow("clone", syn);

        devs.addRow({scenario.name,
                     stats::formatPercent(
                         relDev(syn.p50us, orig.p50us), 1),
                     stats::formatPercent(
                         relDev(syn.p99us, orig.p99us), 1),
                     stats::formatPercent(
                         relDev(syn.p999us, orig.p999us), 1),
                     cell(100.0 * (syn.timeoutRate - orig.timeoutRate),
                          2),
                     cell(100.0 * (syn.errorRate - orig.errorRate), 2)});
    }

    stats::printBanner(std::cout,
                       "Original vs clone under injected faults");
    table.print(std::cout);
    stats::printBanner(std::cout,
                       "Clone deviation per scenario (latency rel., "
                       "rates in percentage points)");
    devs.print(std::cout);
    std::cout << "message accounting (sent == delivered + dropped + "
              << "in-flight): " << (accountingOk ? "OK" : "VIOLATED")
              << "\n";

    // Per-outcome request mix across every faulted run, published
    // into BENCH_pipeline.json next to the bench timings.
    FaultRunResult mix;
    for (const FaultRunResult &r : runs) {
        mix.okCount += r.okCount;
        mix.timeoutCount += r.timeoutCount;
        mix.shedCount += r.shedCount;
        mix.cancelledCount += r.cancelledCount;
        mix.hedgeWonCount += r.hedgeWonCount;
    }
    const std::string mixJson = "{\"ok\": " +
        std::to_string(mix.okCount) +
        ", \"timeout\": " + std::to_string(mix.timeoutCount) +
        ", \"shed\": " + std::to_string(mix.shedCount) +
        ", \"cancelled\": " + std::to_string(mix.cancelledCount) +
        ", \"hedge_won\": " + std::to_string(mix.hedgeWonCount) + "}";
    recordBenchEntry("paper_faults_outcomes", mixJson);
    std::cout << "outcome mix (all faulted runs): " << mixJson << "\n";

    return zeroCost && accountingOk;
}
