#include "cluster/autoscaler.h"

#include "app/deployment.h"
#include "obs/metrics.h"

namespace ditto::cluster {

namespace {

/** The autoscaler never retires the last replica. */
constexpr std::size_t kMinReplicas = 1;

} // namespace

Autoscaler::Autoscaler(app::Deployment &dep, ReplicaSet &set,
                       obs::MetricsRegistry &metrics,
                       AutoscalerSpec spec)
    : dep_(dep), set_(set), metrics_(metrics), spec_(spec)
{
    const obs::MetricsRegistry::Labels labels{
        {"service", set_.name()}};
    scaleUps_ = &metrics_.counter(
        "ditto_autoscaler_scale_ups_total", labels,
        "Replicas added by the autoscaler");
    scaleDowns_ = &metrics_.counter(
        "ditto_autoscaler_scale_downs_total", labels,
        "Replicas retired by the autoscaler");
    ReplicaSet *watched = &set_;
    metrics_.addGaugeFn("ditto_autoscaler_replicas", labels,
                        "Active replicas under autoscaling",
                        [watched] {
                            return static_cast<double>(
                                watched->active());
                        });
}

void
Autoscaler::start()
{
    dep_.events().scheduleAfter(spec_.period, [this] { tick(); });
}

void
Autoscaler::tick()
{
    stats_.evaluations++;
    const sim::Time now = dep_.events().now();
    const auto &group = dep_.replicas(set_.serviceId());
    const std::size_t active = set_.active();

    double queueSum = 0.0;
    for (std::size_t i = 0; i < active && i < group.size(); ++i) {
        queueSum += metrics_.readGauge(
            "ditto_service_inbound_queue_depth",
            {{"service", group[i]->instanceLabel()}});
    }
    const double queueMean =
        active > 0 ? queueSum / static_cast<double>(active) : 0.0;

    const bool cooled =
        !everActed_ || now - lastAction_ >= spec_.cooldown;
    if (cooled) {
        const bool queueHigh =
            spec_.queueHigh > 0 && queueMean > spec_.queueHigh;
        const bool queueLow =
            spec_.queueLow > 0 && queueMean < spec_.queueLow;

        if (queueHigh && active < spec_.maxReplicas) {
            set_.scaleTo(active + 1);
            recordAction(true, now);
        } else if (queueLow && active > kMinReplicas) {
            set_.scaleTo(active - 1);
            recordAction(false, now);
        }
    }

    dep_.events().scheduleAfter(spec_.period, [this] { tick(); });
}

void
Autoscaler::recordAction(bool up, sim::Time now)
{
    lastAction_ = now;
    everActed_ = true;
    if (up) {
        stats_.scaleUps++;
        scaleUps_->add();
    } else {
        stats_.scaleDowns++;
        scaleDowns_->add();
    }
    // Scaling decisions travel the trace pipeline like request spans:
    // the endpoint field carries the new active count.
    trace::Tracer &tracer = dep_.tracer();
    tracer.recordSpan(trace::Span{
        stats_.evaluations, tracer.newSpanId(), 0,
        "autoscaler:" + set_.name(),
        static_cast<std::uint32_t>(set_.active()), now, now});
}

} // namespace ditto::cluster
