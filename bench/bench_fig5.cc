/**
 * @file
 * Fig. 5: CPU performance metrics (IPC, branch misprediction,
 * L1i/L1d/L2/LLC miss rates), network bandwidth, disk bandwidth
 * (MongoDB), and avg/p95/p99 latency under low/medium/high load for
 * six services -- original vs Ditto clone, on Platform A.
 *
 * Clones are generated from a single profiling run at medium load
 * (the paper profiles only medium load); low/high-load behaviour is
 * the clone reacting, not re-profiling.
 *
 * Every measured run is an independent seeded simulation fanned out
 * on the RunExecutor. The Social Network runs per load level are
 * computed once and reused for both reported tiers, and the
 * medium-load runs are handed on to Fig. 8 (identical by determinism
 * to running them again).
 */

#include <functional>
#include <iostream>

#include "bench/paper.h"

using namespace ditto;
using namespace ditto::bench;

namespace {

void
latencyRow(stats::TablePrinter &table, const std::string &tag,
           const RunResult &orig, const RunResult &synth)
{
    table.addRow(
        {tag,
         cell(sim::toMilliseconds(orig.clientLatency.mean()), 3) +
             " / " +
             cell(sim::toMilliseconds(
                      orig.clientLatency.percentile(0.95)), 3) +
             " / " +
             cell(sim::toMilliseconds(
                      orig.clientLatency.percentile(0.99)), 3),
         cell(sim::toMilliseconds(synth.clientLatency.mean()), 3) +
             " / " +
             cell(sim::toMilliseconds(
                      synth.clientLatency.percentile(0.95)), 3) +
             " / " +
             cell(sim::toMilliseconds(
                      synth.clientLatency.percentile(0.99)), 3)});
}

struct LoadLevel
{
    const char *tag;
    double qps;
};

} // namespace

MediumLoadRuns
bench::fig5(const PaperClones &clones, sim::RunExecutor &ex)
{
    const hw::PlatformSpec platform = hw::platformA();
    const core::TopologyCloneResult &snClone = clones.socialNetwork;
    ErrorAccumulator errors;

    stats::printBanner(
        std::cout,
        "Fig. 5: original vs synthetic under varying load "
        "(Platform A; profiled at medium load only)");

    const LoadLevel loads[3] = {{"low", 0}, {"medium", 0}, {"high", 0}};
    std::vector<std::function<RunResult()>> runTasks;
    for (const auto &[app, clone] : clones.apps) {
        const double qpsLevels[3] = {app.load.lowQps, app.load.mediumQps,
                                     app.load.highQps};
        for (double qps : qpsLevels) {
            runTasks.push_back([&app, qps, &platform] {
                return runSingleTier(app.spec, app.load.at(qps),
                                     platform);
            });
            runTasks.push_back([&app, &clone, qps, &platform] {
                return runSingleTier(
                    clone.spec, core::cloneLoadSpec(app.load.at(qps)),
                    platform);
            });
        }
    }

    const auto snLoad = apps::socialNetworkLoad();
    const LoadLevel snLoads[] = {{"low", snLoad.lowQps},
                                 {"medium", snLoad.mediumQps},
                                 {"high", snLoad.highQps}};
    std::vector<std::function<SnRunResult()>> snTasks;
    for (const LoadLevel &level : snLoads) {
        const double qps = level.qps;
        snTasks.push_back([qps, &snLoad, &platform] {
            return runSocialNetwork(apps::socialNetworkSpecs(),
                                    apps::socialNetworkFrontend(),
                                    snLoad.at(qps), platform);
        });
        snTasks.push_back([qps, &snClone, &platform] {
            return runSocialNetwork(snClone.specs, snClone.rootClone,
                                    socialCloneLoad(qps), platform);
        });
    }

    auto snRunsFuture = ex.submit(
        [&ex, &snTasks]() -> std::vector<SnRunResult> {
            return ex.runOrdered<SnRunResult>(std::move(snTasks));
        });
    const std::vector<RunResult> runs =
        ex.runOrdered<RunResult>(std::move(runTasks));
    const std::vector<SnRunResult> snRuns =
        ex.collect(std::move(snRunsFuture));

    std::size_t runIdx = 0;
    for (const auto &[app, clone] : clones.apps) {
        std::cout << "\n-- " << app.name
                  << ": profiled + cloned at medium load\n";
        std::cout << "   fine tuning: " << clone.tuning.iterations
                  << " iterations, final IPC error "
                  << stats::formatPercent(clone.tuning.finalIpcError,
                                          1)
                  << "\n";

        stats::TablePrinter table(
            {"load", "metric", "actual", "synthetic", "err"});
        stats::TablePrinter latTable(
            {"load", "actual avg/p95/p99 (ms)",
             "synthetic avg/p95/p99 (ms)"});

        for (const LoadLevel &level : loads) {
            const RunResult &orig = runs[runIdx++];
            const RunResult &synth = runs[runIdx++];
            addMetricRows(table, level.tag, orig.report, synth.report);
            table.addSeparator();
            latencyRow(latTable, level.tag, orig, synth);
            errors.add(orig.report, synth.report);
        }
        stats::printBanner(std::cout, app.name + " (Fig. 5 panel)");
        table.print(std::cout);
        latTable.print(std::cout);
    }

    std::cout << "\n-- Social Network: cloned " << snClone.specs.size()
              << " tiers; root " << snClone.rootClone << "\n";

    for (const auto &[tier, pretty] : kSnTiers) {
        stats::TablePrinter table(
            {"load", "metric", "actual", "synthetic", "err"});
        stats::TablePrinter latTable(
            {"load", "actual avg/p95/p99 (ms)",
             "synthetic avg/p95/p99 (ms)"});

        for (std::size_t l = 0; l < 3; ++l) {
            const SnRunResult &orig = snRuns[2 * l];
            const SnRunResult &synth = snRuns[2 * l + 1];
            const auto &o = orig.tiers.at(tier);
            const auto &s = synth.tiers.at(std::string(tier) +
                                           "_clone");
            addMetricRows(table, snLoads[l].tag, o, s);
            table.addSeparator();
            latTable.addRow(
                {snLoads[l].tag,
                 cell(o.avgLatencyMs, 3) + " / " +
                     cell(o.p95LatencyMs, 3) + " / " +
                     cell(o.p99LatencyMs, 3),
                 cell(s.avgLatencyMs, 3) + " / " +
                     cell(s.p95LatencyMs, 3) + " / " +
                     cell(s.p99LatencyMs, 3)});
            errors.add(o, s);
        }
        stats::printBanner(std::cout, pretty + std::string(" (Fig. 5 panel)"));
        table.print(std::cout);
        latTable.print(std::cout);
    }

    errors.print(std::cout);

    // Each app's runs are (orig, synth) at low, medium, high, and so
    // are snRuns: the medium pair is the second one.
    MediumLoadRuns medium{{}, {}, snRuns[2], snRuns[3]};
    for (std::size_t i = 0; i < clones.apps.size(); ++i) {
        medium.orig.push_back(runs[6 * i + 2]);
        medium.synth.push_back(runs[6 * i + 3]);
    }
    return medium;
}
