/**
 * @file
 * Metrics registry with Prometheus-text and JSON snapshot writers.
 *
 * Two ways to get a series in:
 *
 *  1. Owned instruments -- counter()/gauge()/timer() return objects
 *     the caller updates directly. Counters and gauges are atomics
 *     with relaxed ordering (lock-free on every platform we target),
 *     so instrumented code never takes a lock. Timers wrap a
 *     stats::LatencyHistogram and belong to one run/thread at a time,
 *     like every other per-deployment object (DESIGN.md §8).
 *
 *  2. Pull callbacks -- addCounterFn()/addGaugeFn()/addHistogram()
 *     sample existing state (ServiceStats, os::Network, os::Disk,
 *     fault::InjectorStats, ...) only when a snapshot is written.
 *     This is how the simulator's hot paths stay untouched: the
 *     zero-cost-when-disabled contract of DESIGN.md §7 extends to
 *     observability, since registration adds no work per event.
 *
 * Naming convention: ditto_<subsystem>_<metric>[_<unit>][_total],
 * Prometheus style -- e.g. ditto_service_rx_bytes_total,
 * ditto_network_messages_in_flight, ditto_disk_queue_depth. Series
 * are keyed by (name, label set); snapshots emit them in sorted key
 * order, so a snapshot's bytes are a pure function of the registered
 * values (deterministic at any RunExecutor worker count).
 */

#ifndef DITTO_OBS_METRICS_H_
#define DITTO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.h"

namespace ditto::obs {

/** Monotonically increasing counter (relaxed atomic). */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (relaxed atomic). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Latency recorder backed by a LatencyHistogram (ns values). */
class Timer
{
  public:
    void observe(std::uint64_t ns) { hist_.record(ns); }

    const stats::LatencyHistogram &histogram() const { return hist_; }

  private:
    stats::LatencyHistogram hist_;
};

class MetricsRegistry
{
  public:
    /** Label set, e.g. {{"service", "front"}}. */
    using Labels = std::vector<std::pair<std::string, std::string>>;

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Get or create an owned instrument. Throws std::logic_error if
     * the (name, labels) series already exists with another kind.
     */
    Counter &counter(const std::string &name, Labels labels = {},
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, Labels labels = {},
                 const std::string &help = "");
    Timer &timer(const std::string &name, Labels labels = {},
                 const std::string &help = "");

    /**
     * Register pull-style series. The callback (or pointed-to
     * histogram) is invoked at snapshot time only and must outlive
     * the registry. Re-registering an existing series replaces its
     * source.
     */
    void addCounterFn(const std::string &name, Labels labels,
                      const std::string &help,
                      std::function<std::uint64_t()> fn);
    void addGaugeFn(const std::string &name, Labels labels,
                    const std::string &help,
                    std::function<double()> fn);
    void addHistogram(const std::string &name, Labels labels,
                      const std::string &help,
                      const stats::LatencyHistogram *hist);

    /** Number of registered series. */
    std::size_t size() const { return series_.size(); }

    // ---- read-back (autoscaler control inputs) ----------------------
    // Sample a registered series by (name, labels). Missing series
    // read as 0; `found` (when non-null) reports existence.

    std::uint64_t readCounter(const std::string &name,
                              const Labels &labels = {},
                              bool *found = nullptr) const;
    double readGauge(const std::string &name, const Labels &labels = {},
                     bool *found = nullptr) const;

    /**
     * Prometheus text exposition format (HELP/TYPE per metric name;
     * histograms render as summaries with p50/p95/p99 quantiles).
     */
    void writePrometheus(std::ostream &os) const;
    std::string prometheusText() const;

    /** JSON snapshot: {"counters":{},"gauges":{},"summaries":{}}. */
    void writeJson(std::ostream &os) const;
    std::string jsonText() const;

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Summary,
    };

    struct Series
    {
        Kind kind = Kind::Counter;
        std::string help;
        // Owned instruments (at most one non-null).
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Timer> timer;
        // Pull sources.
        std::function<std::uint64_t()> counterFn;
        std::function<double()> gaugeFn;
        const stats::LatencyHistogram *hist = nullptr;

        std::uint64_t counterValue() const;
        double gaugeValue() const;
        const stats::LatencyHistogram *histogram() const;
    };

    /** (metric name, rendered label string) -- sorted snapshot order. */
    using Key = std::pair<std::string, std::string>;

    std::map<Key, Series> series_;

    Series &upsert(const std::string &name, const Labels &labels,
                   const std::string &help, Kind kind);

    static std::string renderLabels(const Labels &labels);
};

} // namespace ditto::obs

#endif // DITTO_OBS_METRICS_H_
