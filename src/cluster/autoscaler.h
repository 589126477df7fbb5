/**
 * @file
 * Metrics-driven autoscaler for one ReplicaSet.
 *
 * A periodic control loop on the deployment's event queue samples the
 * MetricsRegistry -- the same pull series operators would watch -- for
 * the mean inbound queue depth per active replica (the
 * ditto_service_inbound_queue_depth gauges) and adjusts the replica
 * count.
 *
 * Control law: a mean above the high watermark scales up by one; a
 * mean below the low watermark scales down by one. Scaling actions
 * are separated by a cooldown so the loop reacts to the
 * *consequences* of its last action, not to the window that
 * triggered it. Bounds [1, maxReplicas] always win.
 *
 * Every action increments an owned counter
 * (ditto_autoscaler_scale_{ups,downs}_total{service=...}) and records
 * a Span with service "autoscaler:<group>" whose endpoint field
 * carries the new active count -- scaling decisions ride the same
 * Jaeger export/import path as request spans.
 *
 * Determinism: the loop runs inside the simulation's event queue and
 * reads only deployment-owned state, so its decisions are a pure
 * function of the deployment seed (DESIGN.md §8).
 */

#ifndef DITTO_CLUSTER_AUTOSCALER_H_
#define DITTO_CLUSTER_AUTOSCALER_H_

#include <cstdint>
#include <string>

#include "cluster/replica_set.h"
#include "sim/time.h"

namespace ditto::app {
class Deployment;
} // namespace ditto::app

namespace ditto::obs {
class Counter;
class MetricsRegistry;
} // namespace ditto::obs

namespace ditto::cluster {

struct AutoscalerSpec
{
    /** Evaluation period of the control loop. */
    sim::Time period = sim::milliseconds(20);
    /** Minimum spacing between two scaling actions. */
    sim::Time cooldown = sim::milliseconds(60);
    /** Scale up when mean queue depth per replica exceeds this. */
    double queueHigh = 0.0;
    /** Scale down when mean queue depth is below this (0 disables). */
    double queueLow = 0.0;
    std::size_t maxReplicas = 8;
};

class Autoscaler
{
  public:
    struct Stats
    {
        std::uint64_t evaluations = 0;
        std::uint64_t scaleUps = 0;
        std::uint64_t scaleDowns = 0;
    };

    /**
     * Watch `set` through `metrics`. Registers its own counters and a
     * replica-count gauge on construction; call start() after wireAll
     * to begin evaluating.
     */
    Autoscaler(app::Deployment &dep, ReplicaSet &set,
               obs::MetricsRegistry &metrics, AutoscalerSpec spec);

    /** Schedule the first evaluation one period from now. */
    void start();

    const Stats &stats() const { return stats_; }
    const AutoscalerSpec &spec() const { return spec_; }

  private:
    app::Deployment &dep_;
    ReplicaSet &set_;
    obs::MetricsRegistry &metrics_;
    AutoscalerSpec spec_;
    Stats stats_;
    obs::Counter *scaleUps_ = nullptr;
    obs::Counter *scaleDowns_ = nullptr;
    sim::Time lastAction_ = 0;
    bool everActed_ = false;

    void tick();
    void recordAction(bool up, sim::Time start);
};

} // namespace ditto::cluster

#endif // DITTO_CLUSTER_AUTOSCALER_H_
