/**
 * @file
 * Fig. 10: interference impact on NGINX. The original is profiled in
 * isolation; then both original and clone run next to stressors --
 * hyperthread (same physical core), L1d, L2 (SMT sibling), LLC
 * (shared socket), and network bandwidth (iperf3-style) -- and must
 * degrade the same way (IPC, p99, per-level miss rates).
 *
 * Every (stress case x {actual, synthetic}) run builds its own
 * deployment, so the twelve runs fan out on the RunExecutor and join
 * in submission order.
 */

#include <functional>
#include <iostream>
#include <memory>
#include <optional>

#include "bench/paper.h"
#include "workload/stressor.h"

using namespace ditto;
using namespace ditto::bench;

namespace {

struct StressCase
{
    const char *name;
    std::optional<workload::StressKind> cache;
    double netHogGbps = 0;
};

RunResult
runWithStress(const app::ServiceSpec &spec,
              const workload::LoadSpec &load, const StressCase &sc)
{
    app::Deployment dep(101);
    os::Machine &machine = dep.addMachine("node", hw::platformA());
    app::ServiceInstance &svc = dep.deploy(spec, machine);
    dep.wireAll();

    // NGINX's single worker lands on core 0 (first primary slot);
    // HT/L1d/L2 stressors pin to its SMT sibling, the LLC stressor
    // to another physical core on the shared socket.
    std::unique_ptr<workload::CacheStressor> stressor;
    std::unique_ptr<workload::NetStressor> netHog;
    if (sc.cache) {
        const int core =
            *sc.cache == workload::StressKind::Llc ? 4 : 1;
        stressor = std::make_unique<workload::CacheStressor>(
            machine, *sc.cache, core);
    }
    if (sc.netHogGbps > 0) {
        netHog = std::make_unique<workload::NetStressor>(
            machine, sc.netHogGbps);
    }

    workload::LoadGen gen(dep, svc, load, 7);
    gen.start();
    dep.runFor(sim::milliseconds(200));
    dep.beginMeasureAll();
    gen.beginMeasure();
    dep.runFor(sim::milliseconds(300));
    RunResult result;
    result.report = profile::snapshotService(svc);
    profile::overrideLatency(result.report, gen.latency());
    result.clientLatency = gen.latency();
    return result;
}

} // namespace

void
bench::fig10(const PaperClones &clones, sim::RunExecutor &ex)
{
    const auto &[nginx, clone] = clones.find("NGINX");
    const workload::LoadSpec load =
        nginx.load.at(nginx.load.mediumQps);
    const workload::LoadSpec cloneLoad = core::cloneLoadSpec(load);

    const StressCase cases[] = {
        {"Orig.", std::nullopt, 0},
        {"HT", workload::StressKind::Cpu, 0},
        {"L1d", workload::StressKind::L1d, 0},
        {"L2", workload::StressKind::L2, 0},
        {"LLC", workload::StressKind::Llc, 0},
        {"Net", std::nullopt, 9.0},
    };

    stats::printBanner(
        std::cout,
        "Fig. 10: interference impact on NGINX (actual vs synthetic)");

    std::vector<std::function<RunResult()>> tasks;
    for (const StressCase &sc : cases) {
        tasks.push_back([&nginx, &load, &sc] {
            return runWithStress(nginx.spec, load, sc);
        });
        tasks.push_back([&clone, &cloneLoad, &sc] {
            return runWithStress(clone.spec, cloneLoad, sc);
        });
    }
    const std::vector<RunResult> runs =
        ex.runOrdered<RunResult>(std::move(tasks));

    stats::TablePrinter table({"stress", "", "IPC", "p99 (ms)",
                               "L1i miss", "L1d miss", "L2 miss",
                               "LLC miss"});
    std::size_t runIdx = 0;
    for (const StressCase &sc : cases) {
        std::cout << "  " << sc.name << "...\n";
        const RunResult &orig = runs[runIdx++];
        const RunResult &synth = runs[runIdx++];
        auto add = [&](const char *tag, const profile::PerfReport &r) {
            table.addRow({tag == std::string("A") ? sc.name : "", tag,
                          cell(r.ipc, 3), cell(r.p99LatencyMs, 3),
                          stats::formatPercent(r.l1iMissRate, 1),
                          stats::formatPercent(r.l1dMissRate, 1),
                          stats::formatPercent(r.l2MissRate, 1),
                          stats::formatPercent(r.llcMissRate, 1)});
        };
        add("A", orig.report);
        add("S", synth.report);
        table.addSeparator();
    }
    table.print(std::cout);
}
