/**
 * @file
 * Fig. 11: power-management study -- p99 latency of actual and
 * synthetic Memcached across a grid of active core counts and CPU
 * frequencies, with a 2 ms QoS (the paper uses 1 ms; EXPERIMENTS.md
 * explains the difference). Cells marked 'X' violate the QoS:
 * the clone must draw the same feasibility frontier as the original,
 * which is what lets a provider evaluate power management without
 * the original's source.
 *
 * The 84 grid cells (7 core counts x 6 frequencies x 2 variants) are
 * independent seeded simulations fanned out on the RunExecutor and
 * joined in submission order.
 */

#include <functional>
#include <iostream>

#include "bench/paper.h"

using namespace ditto;
using namespace ditto::bench;

namespace {

constexpr double kQosMs = 2.0;
constexpr double kStudyQps = 17000;

std::string
cellFor(double p99ms)
{
    if (p99ms > kQosMs)
        return "X";
    return stats::formatDouble(p99ms, 2) + "ms";
}

double
p99At(const app::ServiceSpec &spec, const workload::LoadSpec &load,
      unsigned cores, double ghz)
{
    hw::PlatformSpec platform =
        hw::withCoresAndFrequency(hw::platformA(), cores, ghz);
    platform.smtEnabled = false;  // the study scales physical cores
    const RunResult run =
        runSingleTier(spec, load, platform, sim::milliseconds(150),
                      sim::milliseconds(200));
    return run.report.p99LatencyMs;
}

} // namespace

void
bench::fig11(const PaperClones &clones, sim::RunExecutor &ex)
{
    const auto &[memcached, clone] = clones.find("Memcached");
    const workload::LoadSpec load = memcached.load.at(kStudyQps);
    const workload::LoadSpec cloneLoad = core::cloneLoadSpec(load);

    const unsigned coreGrid[] = {4, 6, 8, 10, 12, 14, 16};
    const double freqGrid[] = {2.1, 1.9, 1.7, 1.5, 1.3, 1.1};

    stats::printBanner(
        std::cout,
        "Fig. 11: Memcached p99 under core/frequency scaling "
        "(QoS = 2ms, X = violated), " +
            std::to_string(static_cast<int>(kStudyQps)) + " QPS");

    std::vector<std::function<double()>> tasks;
    for (const bool synthetic : {false, true}) {
        for (double ghz : freqGrid) {
            for (unsigned cores : coreGrid) {
                if (synthetic) {
                    tasks.push_back([&clone, &cloneLoad, cores, ghz] {
                        return p99At(clone.spec, cloneLoad, cores,
                                     ghz);
                    });
                } else {
                    tasks.push_back([&memcached, &load, cores, ghz] {
                        return p99At(memcached.spec, load, cores,
                                     ghz);
                    });
                }
            }
        }
    }
    const std::vector<double> p99s =
        ex.runOrdered<double>(std::move(tasks));

    std::size_t cellIdx = 0;
    for (const bool synthetic : {false, true}) {
        std::vector<std::string> header{"GHz \\ cores"};
        for (unsigned c : coreGrid)
            header.push_back(std::to_string(c));
        stats::TablePrinter table(header);
        for (double ghz : freqGrid) {
            std::vector<std::string> row{stats::formatDouble(ghz, 1)};
            for (unsigned cores : coreGrid) {
                (void)cores;
                row.push_back(cellFor(p99s[cellIdx++]));
            }
            table.addRow(row);
            std::cout << "  " << (synthetic ? "synthetic" : "actual")
                      << " " << ghz << "GHz row done\n";
        }
        stats::printBanner(std::cout, synthetic
                               ? "Synthetic Memcached"
                               : "Actual Memcached");
        table.print(std::cout);
    }
}
