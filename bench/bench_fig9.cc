/**
 * @file
 * Fig. 9: decomposition of Ditto's accuracy on MongoDB. Starting
 * from the bare skeleton (A), each generator stage is enabled
 * cumulatively -- syscalls (B), instruction count (C), instruction
 * mix (D), branch behaviour (E), instruction memory (F), data memory
 * (G), data dependencies (H) -- and finally fine tuning (I). For each
 * step the clone is measured: IPC, instructions, cycles, p99 latency
 * vs the original's targets.
 *
 * Stages A-H regenerate the MongoDB clone that Figs. 5-8 evaluate
 * from its profile and skeleton. The target and I rows are that
 * clone's and its original's medium-load runs from Fig. 5, so only
 * the eight stage runs are simulated here.
 */

#include <functional>
#include <iostream>

#include "bench/paper.h"

using namespace ditto;
using namespace ditto::bench;

namespace {

void
addRow(stats::TablePrinter &table, const std::string &label,
       const profile::PerfReport &r)
{
    table.addRow({label, cell(r.ipc, 3),
                  cell(r.instructionsPerRequest, 0),
                  cell(r.cyclesPerRequest, 0), cell(r.p99LatencyMs, 3)});
}

} // namespace

void
bench::fig9(const PaperClones &clones, const MediumLoadRuns &medium,
            sim::RunExecutor &ex)
{
    const hw::PlatformSpec platform = hw::platformA();
    const std::size_t mongo = clones.indexOf("MongoDB");
    const auto &[app, clone] = clones.apps[mongo];
    const workload::LoadSpec cloneLoad =
        core::cloneLoadSpec(app.load.at(app.load.mediumQps));

    stats::printBanner(
        std::cout,
        "Fig. 9: accuracy evolution for MongoDB as generator stages "
        "are enabled");

    // Each label starts with its GenerationConfig::stage letter.
    const char *const stages[] = {
        "A:Skeleton", "B:Syscall", "C:#insts", "D:Inst. mix",
        "E:Branch",   "F:I-mem",   "G:D-mem",  "H:Data dep.",
    };

    // Each stage regenerates + measures its own clone in an
    // independent seeded deployment: fan them all out, join in
    // submission order.
    std::vector<std::function<RunResult()>> stageTasks;
    for (const char *label : stages) {
        stageTasks.push_back([st = label[0], &clone, &cloneLoad,
                              &platform] {
            const std::string &name = clone.profile.serviceName;
            const app::ServiceSpec spec = core::generateClone(
                clone.profile, clone.skeleton, {},
                {{name, name + "_clone"}},
                core::GenerationConfig::stage(st));
            return runSingleTier(spec, cloneLoad, platform);
        });
    }
    const std::vector<RunResult> stageRuns =
        ex.runOrdered<RunResult>(std::move(stageTasks));

    stats::TablePrinter table(
        {"stage", "IPC", "insts/req", "cycles/req", "p99 (ms)"});
    addRow(table, "target (actual)", medium.orig[mongo].report);
    table.addSeparator();
    for (std::size_t i = 0; i < std::size(stages); ++i)
        addRow(table, stages[i], stageRuns[i].report);
    addRow(table, "I:Tune", medium.synth[mongo].report);
    table.print(std::cout);

    std::cout << "\nFine tuning took " << clone.tuning.iterations
              << " iterations (paper: converges within ten); final "
                 "IPC error in its tuning sandbox "
              << stats::formatPercent(clone.tuning.finalIpcError, 1)
              << "\n";
}
