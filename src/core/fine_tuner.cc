#include "core/fine_tuner.h"

#include <algorithm>
#include <cmath>

namespace ditto::core {

namespace {

/** Multiplicative update toward target/actual, damped and clamped. */
double
nudge(double knob, double target, double actual, double power,
      double lo, double hi)
{
    if (actual <= 1e-12 || target <= 1e-12)
        return knob;
    const double ratio = std::pow(target / actual, power);
    return std::clamp(knob * std::clamp(ratio, 0.5, 2.0), lo, hi);
}

/** Chase-scale multiplier for a given step gain (exact at gain 1). */
double
chaseFactor(double base, double gain)
{
    return gain == 1.0 ? base : std::pow(base, gain);
}

/**
 * One grouped-knob update derived from the report of the current
 * config. `gain` scales the step size; gain 1.0 is the nominal
 * update.
 */
GenerationConfig
nudged(const GenerationConfig &current,
       const profile::ReferenceCounters &target,
       const profile::PerfReport &report, double tolerance,
       double gain)
{
    GenerationConfig cfg = current;

    const double ipcError =
        profile::relativeError(report.ipc, target.ipc);
    const double instError = profile::relativeError(
        report.instructionsPerRequest, target.instructionsPerRequest);
    const double l1iErr = profile::relativeError(report.l1iMissRate,
                                                 target.l1iMissRate);
    const double l1dErr = profile::relativeError(report.l1dMissRate,
                                                 target.l1dMissRate);
    const double brErr = profile::relativeError(
        report.branchMispredictRate, target.branchMispredictRate);

    // Group 1: instruction volume.
    cfg.instScale = nudge(cfg.instScale,
                          target.instructionsPerRequest,
                          report.instructionsPerRequest, 1.0 * gain,
                          0.25, 4.0);

    // Group 2: frontend (i-footprint tail + branch bias, tuned
    // jointly -- both feed branch aliasing and L1i pressure).
    if (l1iErr > tolerance) {
        cfg.imemTailScale = nudge(cfg.imemTailScale,
                                  target.l1iMissRate,
                                  report.l1iMissRate, 0.7 * gain,
                                  0.1, 8.0);
    }
    if (brErr > 2 * tolerance) {
        if (report.branchMispredictRate <
            target.branchMispredictRate) {
            cfg.branchExpShift = std::max(cfg.branchExpShift - 1, -4);
        } else {
            cfg.branchExpShift = std::min(cfg.branchExpShift + 1, 4);
        }
    }

    // Group 3: data hierarchy tail.
    if (l1dErr > tolerance) {
        cfg.dmemTailScale = nudge(cfg.dmemTailScale,
                                  target.l1dMissRate,
                                  report.l1dMissRate, 0.7 * gain,
                                  0.1, 8.0);
    } else {
        // L1d is fine: steer the outer levels with a gentler hand.
        const double l2Err = profile::relativeError(
            report.l2MissRate, target.l2MissRate);
        if (l2Err > 2 * tolerance) {
            cfg.dmemTailScale = nudge(cfg.dmemTailScale,
                                      target.l2MissRate,
                                      report.l2MissRate, 0.3 * gain,
                                      0.1, 8.0);
        }
    }

    // Group 4: MLP, as the residual IPC correction once the
    // instruction volume is right. Serialization is the strongest
    // remaining lever on backend stalls.
    if (instError < 2 * tolerance && ipcError > tolerance) {
        if (report.ipc > target.ipc) {
            cfg.chaseScale = std::clamp(
                cfg.chaseScale * chaseFactor(1.5, gain), 0.05, 10.0);
        } else {
            cfg.chaseScale = std::clamp(
                cfg.chaseScale * chaseFactor(0.65, gain), 0.05, 10.0);
        }
    }
    return cfg;
}

TuneStep
makeStep(const profile::PerfReport &report,
         const profile::ReferenceCounters &target)
{
    TuneStep step;
    step.report = report;
    step.ipcError = profile::relativeError(report.ipc, target.ipc);
    step.instError = profile::relativeError(
        report.instructionsPerRequest, target.instructionsPerRequest);
    step.maxError = std::max({step.ipcError, step.instError});
    return step;
}

/**
 * Candidate step gains. The nominal step comes first so a tie on
 * score resolves to it.
 */
constexpr double kGains[] = {1.0, 0.5, 1.6};

} // namespace

TuneResult
fineTune(const profile::ReferenceCounters &target,
         const GenerationConfig &initial, const CloneRunner &run,
         const TuneOptions &opts)
{
    TuneResult result;
    result.config = initial;

    GenerationConfig current = initial;
    profile::PerfReport lastReport;

    for (unsigned iter = 0; iter < opts.maxIterations; ++iter) {
        // Candidate configs: the initial config on the first
        // iteration, grouped-knob updates of the incumbent after.
        // The set is a pure function of the incumbent's report --
        // never of the executor or its worker count -- so results
        // are identical at any parallelism, or none.
        std::vector<GenerationConfig> candidates;
        if (iter == 0) {
            candidates.push_back(current);
        } else {
            for (double gain : kGains)
                candidates.push_back(nudged(current, target,
                                            lastReport,
                                            opts.tolerance, gain));
        }

        std::vector<profile::PerfReport> reports;
        if (opts.executor && candidates.size() > 1) {
            std::vector<std::function<profile::PerfReport()>> tasks;
            tasks.reserve(candidates.size());
            for (const GenerationConfig &cfg : candidates)
                tasks.push_back([&run, &cfg] { return run(cfg); });
            reports = opts.executor->runOrdered<profile::PerfReport>(
                std::move(tasks));
        } else {
            for (const GenerationConfig &cfg : candidates)
                reports.push_back(run(cfg));
        }

        // Deterministic pick: lowest max error, ties to the lowest
        // index (the nominal step).
        std::size_t best = 0;
        double bestScore = makeStep(reports[0], target).maxError;
        for (std::size_t c = 1; c < reports.size(); ++c) {
            const double score = makeStep(reports[c], target).maxError;
            if (score < bestScore) {
                bestScore = score;
                best = c;
            }
        }

        current = candidates[best];
        lastReport = reports[best];
        ++result.iterations;

        const TuneStep step = makeStep(lastReport, target);
        const double brErr = profile::relativeError(
            lastReport.branchMispredictRate,
            target.branchMispredictRate);
        result.trace.push_back(step);
        result.finalIpcError = step.ipcError;
        result.config = current;

        if (step.ipcError < opts.tolerance &&
            step.instError < opts.tolerance &&
            brErr < 4 * opts.tolerance) {
            result.converged = true;
            break;
        }
    }
    return result;
}

} // namespace ditto::core
