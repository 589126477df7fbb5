/**
 * @file
 * Fig. 7: validation across platforms. Every application is profiled
 * ONLY on Platform A; the same clone spec is then deployed on
 * Platforms A, B and C at medium load, next to the original. The
 * clone must react to the platform change (smaller L2, older core,
 * HDD vs SSD, 1Gbe vs 10Gbe) the same way the original does.
 *
 * The Platform A column is Fig. 5's medium-load runs (same specs,
 * load and platform; identical by determinism to running them again),
 * so only Platforms B and C are simulated here. The Social Network
 * runs per platform are computed once and reused for both reported
 * tiers.
 */

#include <functional>
#include <iostream>
#include <span>

#include "bench/paper.h"

using namespace ditto;
using namespace ditto::bench;

void
bench::fig7(const PaperClones &clones, const MediumLoadRuns &medium,
            sim::RunExecutor &ex)
{
    const hw::PlatformSpec platforms[] = {
        hw::platformA(), hw::platformB(), hw::platformC()};
    // The platforms simulated here: all but A.
    const std::span<const hw::PlatformSpec> simulated(platforms + 1, 2);
    const core::TopologyCloneResult &snClone = clones.socialNetwork;
    ErrorAccumulator errors;

    stats::printBanner(
        std::cout,
        "Fig. 7: cross-platform validation (profiled on A only, "
        "medium load)");

    std::vector<std::function<RunResult()>> runTasks;
    for (const auto &[app, clone] : clones.apps) {
        for (const hw::PlatformSpec &platform : simulated) {
            runTasks.push_back([&app, &platform] {
                return runSingleTier(app.spec,
                                     app.load.at(app.load.mediumQps),
                                     platform);
            });
            runTasks.push_back([&app, &clone, &platform] {
                return runSingleTier(
                    clone.spec,
                    core::cloneLoadSpec(app.load.at(app.load.mediumQps)),
                    platform);
            });
        }
    }

    const auto snLoad = apps::socialNetworkLoad();
    std::vector<std::function<SnRunResult()>> snTasks;
    for (const hw::PlatformSpec &platform : simulated) {
        snTasks.push_back([&snLoad, &platform] {
            return runSocialNetwork(apps::socialNetworkSpecs(),
                                    apps::socialNetworkFrontend(),
                                    snLoad.at(snLoad.mediumQps),
                                    platform);
        });
        snTasks.push_back([&snClone, &snLoad, &platform] {
            return runSocialNetwork(snClone.specs, snClone.rootClone,
                                    socialCloneLoad(snLoad.mediumQps),
                                    platform);
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
    for (std::size_t i = 0; i < clones.apps.size(); ++i) {
        stats::TablePrinter table(
            {"platform", "metric", "actual", "synthetic", "err"});
        stats::TablePrinter latTable(
            {"platform", "actual avg/p99 (ms)", "synth avg/p99 (ms)"});

        for (std::size_t p = 0; p < std::size(platforms); ++p) {
            const RunResult &orig =
                p == 0 ? medium.orig[i] : runs[runIdx++];
            const RunResult &synth =
                p == 0 ? medium.synth[i] : runs[runIdx++];
            addMetricRows(table, platforms[p].name, orig.report,
                          synth.report);
            table.addSeparator();
            latTable.addRow(
                {platforms[p].name,
                 cell(orig.report.avgLatencyMs, 3) + " / " +
                     cell(orig.report.p99LatencyMs, 3),
                 cell(synth.report.avgLatencyMs, 3) + " / " +
                     cell(synth.report.p99LatencyMs, 3)});
            errors.add(orig.report, synth.report);
        }
        stats::printBanner(std::cout,
                           clones.apps[i].app.name + " (Fig. 7 panel)");
        table.print(std::cout);
        latTable.print(std::cout);
    }

    for (const auto &[tier, pretty] : kSnTiers) {
        stats::TablePrinter table(
            {"platform", "metric", "actual", "synthetic", "err"});
        for (std::size_t p = 0; p < std::size(platforms); ++p) {
            const SnRunResult &orig =
                p == 0 ? medium.snOrig : snRuns[2 * (p - 1)];
            const SnRunResult &synth =
                p == 0 ? medium.snSynth : snRuns[2 * (p - 1) + 1];
            const auto &o = orig.tiers.at(tier);
            const auto &s =
                synth.tiers.at(std::string(tier) + "_clone");
            addMetricRows(table, platforms[p].name, o, s);
            table.addSeparator();
            errors.add(o, s);
        }
        stats::printBanner(std::cout, pretty + std::string(" (Fig. 7 panel)"));
        table.print(std::cout);
    }

    errors.print(std::cout);
}
