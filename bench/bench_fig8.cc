/**
 * @file
 * Fig. 8: top-down CPI breakdown (retiring / frontend / bad
 * speculation / backend), actual vs synthetic, for all six services
 * at medium load on Platform A.
 *
 * These are exactly Fig. 5's medium-load runs, so Fig. 8 runs no
 * simulation of its own: it prints their breakdowns.
 */

#include <iostream>

#include "bench/paper.h"

using namespace ditto;
using namespace ditto::bench;

namespace {

void
addBreakdownRows(stats::TablePrinter &table, const std::string &name,
                 const profile::PerfReport &r, const char *tag)
{
    table.addRow({name, tag, cell(r.cpi, 3),
                  stats::formatPercent(r.retiringFrac, 1),
                  stats::formatPercent(r.frontendFrac, 1),
                  stats::formatPercent(r.badSpecFrac, 1),
                  stats::formatPercent(r.backendFrac, 1)});
}

} // namespace

void
bench::fig8(const PaperClones &clones, const MediumLoadRuns &runs)
{
    stats::printBanner(
        std::cout,
        "Fig. 8: top-down cycles breakdown, actual (A) vs "
        "synthetic (S), medium load");

    stats::TablePrinter table({"service", "", "CPI", "retiring",
                               "front-end", "bad spec", "back-end"});
    for (std::size_t i = 0; i < clones.apps.size(); ++i) {
        addBreakdownRows(table, clones.apps[i].app.name,
                         runs.orig[i].report, "A");
        addBreakdownRows(table, "", runs.synth[i].report, "S");
        table.addSeparator();
    }
    for (const auto &[tier, pretty] : kSnTiers) {
        addBreakdownRows(table, pretty, runs.snOrig.tiers.at(tier), "A");
        addBreakdownRows(table, "",
                         runs.snSynth.tiers.at(std::string(tier) +
                                               "_clone"),
                         "S");
        table.addSeparator();
    }

    table.print(std::cout);
}
