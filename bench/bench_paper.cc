/**
 * @file
 * Figs. 5-11 and the fault study from one clone set (bench/paper.h).
 * stderr and BENCH_pipeline.json get the wall-clock of the clone
 * stage (`paper_clones`), of each section (`paper_fig5` ...
 * `paper_faults`) and of the whole run (`bench_paper`); stdout
 * carries no time. Exits 1 when the fault study's self-checks fail.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>

#include "bench/paper.h"

using namespace ditto;
using namespace ditto::bench;

int
main(int argc, char **argv)
{
    BenchRuntime rt(argc, argv, "bench_paper");
    sim::RunExecutor &ex = rt.executor();
    auto stage = [&rt](const char *name, const auto &run) {
        const auto start = std::chrono::steady_clock::now();
        run();
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        std::fprintf(stderr, "[%s] wall-clock %.2fs (jobs=%u)\n", name,
                     seconds, rt.jobs());
        recordBenchTiming(name, seconds, rt.jobs());
    };

    std::cout << "cloning the four single-tier apps and the social "
                 "network on Platform A at medium load...\n";
    PaperClones clones;
    stage("paper_clones", [&] {
        auto snFuture =
            ex.submit([&ex] { return cloneSocialNetwork(ex); });
        std::vector<std::function<AppClone()>> tasks;
        for (const AppCase &app : singleTierApps()) {
            tasks.push_back([app, &ex] {
                return AppClone{app, cloneSingleTier(app, ex)};
            });
        }
        clones.apps = ex.runOrdered<AppClone>(std::move(tasks));
        clones.socialNetwork = ex.collect(std::move(snFuture));
    });
    MediumLoadRuns medium;
    stage("paper_fig5", [&] { medium = fig5(clones, ex); });
    stage("paper_fig6", [&] { fig6(clones, ex); });
    stage("paper_fig7", [&] { fig7(clones, medium, ex); });
    stage("paper_fig8", [&] { fig8(clones, medium); });
    stage("paper_fig9", [&] { fig9(clones, medium, ex); });
    stage("paper_fig10", [&] { fig10(clones, ex); });
    stage("paper_fig11", [&] { fig11(clones, ex); });
    bool faultsOk = false;
    stage("paper_faults", [&] { faultsOk = faults(clones, ex); });
    return faultsOk ? EXIT_SUCCESS : EXIT_FAILURE;
}
