/**
 * @file
 * The sections `bench_paper` evaluates from one clone set: as in the
 * paper, each app is profiled and cloned once, on Platform A at
 * medium load, and that clone is then deployed everywhere, Figs. 5-11
 * and the fault study alike. Each function prints its section; runs
 * join in submission order, so stdout is identical at any `--jobs`.
 */

#ifndef DITTO_BENCH_PAPER_H_
#define DITTO_BENCH_PAPER_H_

#include <utility>

#include "bench/bench_common.h"

namespace ditto::bench {

/** The Social Network tiers Figs. 5, 7 and 8 report, as (tier, name). */
constexpr std::pair<const char *, const char *> kSnTiers[] = {
    {"sn.text", "TextService"}, {"sn.socialgraph", "SocialGraphService"}};

/** One single-tier app and its fine-tuned clone. */
struct AppClone
{
    AppCase app;
    core::CloneResult clone;
};

/** The clone set every figure evaluates. */
struct PaperClones
{
    std::vector<AppClone> apps;  ///< singleTierApps(), in its order
    core::TopologyCloneResult socialNetwork;

    /** Position in `apps` of `name` (std::out_of_range if absent). */
    std::size_t indexOf(const std::string &name) const
    {
        std::size_t i = 0;
        while (apps.at(i).app.name != name)
            ++i;
        return i;
    }

    /** The app named `name` (std::out_of_range if absent). */
    const AppClone &find(const std::string &name) const
    {
        return apps[indexOf(name)];
    }
};

/**
 * Fig. 5's medium-load runs on Platform A, which Fig. 7 reuses as its
 * Platform A column, Fig. 8 reports and Fig. 9 takes its MongoDB
 * target and tuned rows from.
 */
struct MediumLoadRuns
{
    std::vector<RunResult> orig, synth;  ///< one per app
    SnRunResult snOrig, snSynth;
};

MediumLoadRuns fig5(const PaperClones &clones, sim::RunExecutor &ex);
void fig6(const PaperClones &clones, sim::RunExecutor &ex);
void fig7(const PaperClones &clones, const MediumLoadRuns &medium,
          sim::RunExecutor &ex);
void fig8(const PaperClones &clones, const MediumLoadRuns &runs);
void fig9(const PaperClones &clones, const MediumLoadRuns &medium,
          sim::RunExecutor &ex);
void fig10(const PaperClones &clones, sim::RunExecutor &ex);
void fig11(const PaperClones &clones, sim::RunExecutor &ex);

/**
 * The Social Network original and clone under injected faults
 * (bench_faults.cc). Returns false when an empty FaultPlan diverges
 * from a run with no injector or a run's message accounting fails.
 */
bool faults(const PaperClones &clones, sim::RunExecutor &ex);

} // namespace ditto::bench

#endif // DITTO_BENCH_PAPER_H_
