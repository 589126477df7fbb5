/**
 * @file
 * Per-class SLO accounting: goodput within deadline, violation
 * rates, and knee-point detection.
 *
 * The paper's fidelity evaluation (Sec. 5, Fig. 5) and the QoS-under-
 * scaling style of CloudNativeSim both hinge on *goodput* -- requests
 * answered Ok within their class deadline -- rather than raw latency.
 * An SloSpec attaches a deadline and a target percentile to each
 * endpoint class; the engine tallies per-class outcomes against it
 * and this module turns the tallies into reports, knee points, and
 * `ditto_slo_*` / `ditto_client_*` series on a MetricsRegistry (pull
 * callbacks only, per the zero-cost-when-disabled contract of
 * DESIGN.md §7).
 */

#ifndef DITTO_WORKLOAD_SLO_H_
#define DITTO_WORKLOAD_SLO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/time.h"

namespace ditto::workload {

class Client;
class WorkloadEngine;

/** Service-level objective of one endpoint class. */
struct SloSpec
{
    /** End-to-end deadline a response must beat to count as good. */
    sim::Time deadline = sim::milliseconds(5);
    /** Percentile the deadline is promised at (met/missed verdict). */
    double targetPercentile = 0.99;
};

/** One endpoint class's measured-window SLO outcome. */
struct SloClassReport
{
    std::string name;
    std::uint32_t endpoint = 0;
    SloSpec slo;
    // ---- raw tallies (measured window) ------------------------------
    std::uint64_t sent = 0;
    std::uint64_t settled = 0;      //!< responses + timeouts
    std::uint64_t okInDeadline = 0; //!< Ok status and under deadline
    std::uint64_t violations = 0;   //!< settled - okInDeadline
    // ---- rates ------------------------------------------------------
    double offeredQps = 0;  //!< sent / window
    double goodputQps = 0;  //!< okInDeadline / window
    double violationRate = 0; //!< violations / settled (0 if none)
    /** Measured latency at the target percentile (ns). */
    std::uint64_t latencyAtTargetNs = 0;
    /** percentile(target) <= deadline over the window. */
    bool met = false;
};

/** Whole-engine SLO outcome for one measured window. */
struct SloReport
{
    std::vector<SloClassReport> classes;
    double offeredQps = 0;
    double goodputQps = 0;

    /**
     * Deterministic fixed-format text table (one line per class).
     * Byte-identical across --jobs for identical runs; tests and
     * benches print it directly.
     */
    std::string table() const;
};

/**
 * kneePointRate sentinels. Both are negative so `rate > 0` still
 * means "a knee was observed at this offered rate", but "goodput
 * tracked offered through the whole sweep" and "there was nothing to
 * analyze" are no longer conflated (they used to both return 0).
 */
/** Goodput tracked offered load through the maximum offered rate. */
inline constexpr double kKneeNone = -1.0;
/** The sweep was empty (or held no positive offered rate). */
inline constexpr double kKneeEmptySweep = -2.0;

/**
 * Knee point of a load sweep: the first offered rate where goodput
 * falls short of the offered load by more than `tolerance`
 * (fractional). `sweep` holds (offeredQps, goodputQps) pairs in
 * ascending offered order. Returns kKneeNone when goodput tracks
 * offered across the whole sweep (no knee at or below the max
 * offered rate) and kKneeEmptySweep when no entry has a positive
 * offered rate.
 */
double kneePointRate(
    const std::vector<std::pair<double, double>> &sweep,
    double tolerance = 0.1);

/**
 * Register a client's outcome counters, in-flight gauge and latency
 * as pull series (`ditto_client_*`, labelled {client=<label>}), so
 * client-side outcomes survive the Prometheus/JSON writers like
 * server-side ServiceStats already do. The client must outlive the
 * registry's last snapshot.
 */
void registerClientMetrics(obs::MetricsRegistry &registry,
                           const Client &client,
                           const std::string &label);

/**
 * Register a WorkloadEngine's client series (registerClientMetrics)
 * plus its session, retry and per-class SLO series (`ditto_slo_*`,
 * labelled {client, class}).
 */
void registerEngineMetrics(obs::MetricsRegistry &registry,
                           const WorkloadEngine &engine,
                           const std::string &client);

} // namespace ditto::workload

#endif // DITTO_WORKLOAD_SLO_H_
