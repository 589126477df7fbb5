/**
 * @file
 * Shared harness for the figure/table reproduction benchmarks.
 *
 * A figure bench deploys originals, clones them with Ditto,
 * re-deploys the clones, measures both under identical load, and
 * prints the rows/series the paper plots (`bench_paper` does so for
 * six figures from one clone set). Absolute numbers come from the machine
 * model, not the authors' Xeons; the *shape* (who wins, crossovers,
 * relative degradations) is the reproduction target (see
 * EXPERIMENTS.md).
 */

#ifndef DITTO_BENCH_BENCH_COMMON_H_
#define DITTO_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "core/ditto.h"
#include "profile/perf_report.h"
#include "sim/run_executor.h"
#include "stats/histogram.h"
#include "stats/table.h"

namespace ditto::bench {

/**
 * Per-bench harness: resolves the worker count (`--jobs N` /
 * `DITTO_JOBS`, default hardware_concurrency), owns the RunExecutor
 * the bench fans its independent simulation runs out on, and tracks
 * wall-clock time. finish() prints the wall-clock to stderr (stdout
 * stays byte-identical across worker counts) and merges the timing
 * into BENCH_pipeline.json so the perf trajectory is trackable
 * across changes.
 */
class BenchRuntime
{
  public:
    BenchRuntime(int argc, char **argv, std::string name);
    ~BenchRuntime();

    BenchRuntime(const BenchRuntime &) = delete;
    BenchRuntime &operator=(const BenchRuntime &) = delete;

    sim::RunExecutor &executor() { return *executor_; }
    unsigned jobs() const { return executor_->jobs(); }

    /** Report wall-clock and write BENCH_pipeline.json (idempotent). */
    void finish();

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    std::unique_ptr<sim::RunExecutor> executor_;
    bool finished_ = false;
};

/**
 * Merge one bench's timing into BENCH_pipeline.json in the current
 * directory: `{"bench": {"wall_seconds": s, "jobs": n}, ...}`,
 * preserving other benches' entries.
 */
void recordBenchTiming(const std::string &name, double wallSeconds,
                       unsigned jobs);

/**
 * Merge one named entry (a one-line JSON object) into
 * BENCH_pipeline.json, preserving every other entry. Benches use it
 * to publish result summaries -- e.g. per-outcome request mixes --
 * next to their timings.
 */
void recordBenchEntry(const std::string &name,
                      const std::string &json);

/** One single-tier application under test. */
struct AppCase
{
    std::string name;
    app::ServiceSpec spec;
    apps::AppLoad load;
};

/** The paper's four single-tier applications. */
std::vector<AppCase> singleTierApps();

/** Result of one measured run. */
struct RunResult
{
    profile::PerfReport report;
    stats::LatencyHistogram clientLatency;
    double achievedQps = 0;
};

/** Deploy + drive one single-tier service and measure a window. */
RunResult runSingleTier(const app::ServiceSpec &spec,
                        const workload::LoadSpec &load,
                        const hw::PlatformSpec &platform,
                        sim::Time warm = sim::milliseconds(200),
                        sim::Time measure = sim::milliseconds(300),
                        std::uint64_t seed = 77);

/** Result of one Social Network run: per-tier reports + e2e latency. */
struct SnRunResult
{
    std::map<std::string, profile::PerfReport> tiers;
    stats::LatencyHistogram clientLatency;
    double achievedQps = 0;
};

/**
 * Deploy + drive a Social Network (original tier specs or clones)
 * and measure per-tier counters plus end-to-end latency.
 */
SnRunResult runSocialNetwork(const std::vector<app::ServiceSpec> &tiers,
                             const std::string &rootName,
                             const workload::LoadSpec &load,
                             const hw::PlatformSpec &platform,
                             sim::Time warm = sim::milliseconds(250),
                             sim::Time measure = sim::milliseconds(300),
                             std::uint64_t seed = 78);

/**
 * Profile + fine-tune-clone one single-tier app at its medium load on
 * Platform A. Fine-tune candidates are evaluated concurrently on
 * `executor` (results independent of the worker count).
 */
core::CloneResult cloneSingleTier(const AppCase &app,
                                  sim::RunExecutor &executor);

/** Clone the whole Social Network (profiled at medium load). */
core::TopologyCloneResult
cloneSocialNetwork(std::uint64_t seed = 80,
                   sim::RunExecutor *executor = nullptr);

/** The Social Network load spec translated for the cloned tiers. */
workload::LoadSpec socialCloneLoad(double qps);

/** Format helper: "0.873" style metric cell. */
std::string cell(double v, int precision = 3);

/** Add the standard Fig. 5/7 metric rows for one (orig, synth) pair. */
void addMetricRows(stats::TablePrinter &table, const std::string &tag,
                   const profile::PerfReport &orig,
                   const profile::PerfReport &synth);

/** Track per-metric relative errors for the Sec. 6.2.1 summary. */
class ErrorAccumulator
{
  public:
    void add(const profile::PerfReport &orig,
             const profile::PerfReport &synth);

    /** Print the avg-error summary table. */
    void print(std::ostream &os) const;

  private:
    std::map<std::string, std::pair<double, int>> sums_;
    void record(const std::string &metric, double orig, double synth,
                double denomFloor);
};

} // namespace ditto::bench

#endif // DITTO_BENCH_BENCH_COMMON_H_
