/**
 * @file
 * Fig. 6: end-to-end Social Network latency (p50/p95/p99) vs QPS,
 * with every microservice replaced by its Ditto clone.
 */

#include <functional>
#include <iostream>

#include "bench/paper.h"

using namespace ditto;
using namespace ditto::bench;

void
bench::fig6(const PaperClones &clones, sim::RunExecutor &ex)
{
    const hw::PlatformSpec platform = hw::platformA();
    const core::TopologyCloneResult &clone = clones.socialNetwork;
    std::cout << "Cloned " << clone.specs.size() << " tiers.\n";

    stats::printBanner(
        std::cout,
        "Fig. 6: Social Network end-to-end latency vs QPS "
        "(all tiers replaced by clones)");

    stats::TablePrinter table({"QPS", "actual p50 (ms)", "synth p50",
                               "actual p95", "synth p95",
                               "actual p99", "synth p99"});

    const auto load = apps::socialNetworkLoad();
    const double qpsGrid[] = {200.0, 500.0, 1000.0,
                              1500.0, 2000.0, 2400.0};

    std::vector<std::function<SnRunResult()>> tasks;
    for (double qps : qpsGrid) {
        tasks.push_back([qps, &load, &platform] {
            return runSocialNetwork(apps::socialNetworkSpecs(),
                                    apps::socialNetworkFrontend(),
                                    load.at(qps), platform);
        });
        tasks.push_back([qps, &clone, &platform] {
            return runSocialNetwork(clone.specs, clone.rootClone,
                                    socialCloneLoad(qps), platform);
        });
    }
    const std::vector<SnRunResult> runs =
        ex.runOrdered<SnRunResult>(std::move(tasks));

    for (std::size_t i = 0; i < std::size(qpsGrid); ++i) {
        const double qps = qpsGrid[i];
        const SnRunResult &orig = runs[2 * i];
        const SnRunResult &synth = runs[2 * i + 1];
        auto ms = [](const stats::LatencyHistogram &h, double q) {
            return cell(sim::toMilliseconds(h.percentile(q)), 2);
        };
        table.addRow({cell(qps, 0),
                      ms(orig.clientLatency, 0.50),
                      ms(synth.clientLatency, 0.50),
                      ms(orig.clientLatency, 0.95),
                      ms(synth.clientLatency, 0.95),
                      ms(orig.clientLatency, 0.99),
                      ms(synth.clientLatency, 0.99)});
        std::cout << "  measured qps=" << qps
                  << " (actual achieved " << orig.achievedQps
                  << ", synth achieved " << synth.achievedQps << ")\n";
    }
    table.print(std::cout);
}
