/**
 * @file
 * Fine tuning (Sec. 4.5): feedback-driven calibration of the
 * generator knobs against the original's performance counters.
 *
 * Knobs are tuned in near-orthogonal groups, mirroring the paper's
 * observation that knob/metric relationships are mostly linear:
 *   - instScale        <- instructions per request
 *   - imemTailScale +
 *     branchExpShift   <- L1i miss rate + branch misprediction (the
 *                         paper notes these must be tuned jointly)
 *   - dmemTailScale    <- L1d/L2/LLC miss rates
 *   - chaseScale       <- residual IPC error (MLP)
 *
 * After the initial config, each iteration proposes a *fixed* set of
 * candidate step sizes for the grouped-knob update (nominal / damped /
 * aggressive), evaluates them, and picks the winner deterministically
 * (lowest max error; ties break toward the nominal step). The
 * candidates run concurrently on a RunExecutor when one is attached
 * and inline otherwise; the set never depends on either, so a tuned
 * config is bit-identical with no executor, 1 job or 8.
 */

#ifndef DITTO_CORE_FINE_TUNER_H_
#define DITTO_CORE_FINE_TUNER_H_

#include <functional>
#include <vector>

#include "core/body_generator.h"
#include "profile/perf_report.h"
#include "profile/profile_data.h"
#include "sim/run_executor.h"

namespace ditto::core {

/** One tuning iteration's observed errors (the winning candidate). */
struct TuneStep
{
    profile::PerfReport report;
    double ipcError = 0;
    double instError = 0;
    double maxError = 0;
};

struct TuneResult
{
    GenerationConfig config;
    unsigned iterations = 0;
    double finalIpcError = 0;
    std::vector<TuneStep> trace;
    bool converged = false;
};

/** Runs a candidate clone config and reports its counters. */
using CloneRunner =
    std::function<profile::PerfReport(const GenerationConfig &)>;

/** Knobs of the tuning loop itself. */
struct TuneOptions
{
    unsigned maxIterations = 10;
    double tolerance = 0.05;
    /**
     * When set, each iteration's candidate step sizes run
     * concurrently on the executor (the CloneRunner must then be safe
     * to invoke from several threads; runners that deploy candidates
     * in fresh sandbox deployments are). When null, they run inline
     * in order. Either way the result is the same.
     */
    sim::RunExecutor *executor = nullptr;
};

/**
 * Iterate generator configs until the clone's counters match the
 * profiled reference within tolerance, or maxIterations passes.
 * `iterations` counts loop iterations, not runner invocations: the
 * first runs the initial config, every later one three candidates.
 */
TuneResult fineTune(const profile::ReferenceCounters &target,
                    const GenerationConfig &initial,
                    const CloneRunner &run, const TuneOptions &opts);

} // namespace ditto::core

#endif // DITTO_CORE_FINE_TUNER_H_
