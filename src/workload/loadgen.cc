#include "workload/loadgen.h"

namespace ditto::workload {

LoadGen::LoadGen(app::Deployment &dep, app::ServiceInstance &target,
                 LoadSpec spec, std::uint64_t seed)
    : Client(dep, target, spec.connections, 0xc11e0000, spec.timeout,
             spec.propagateDeadline, spec.cancelOnTimeout),
      spec_(std::move(spec)), rng_(seed)
{
    for (std::size_t i = 0; i < spec_.endpoints.size(); ++i)
        endpointPick_.add(static_cast<std::int64_t>(i),
                          spec_.endpoints[i].weight);
}

void
LoadGen::start()
{
    if (running_)
        return;
    running_ = true;
    measureStart_ = dep_.events().now();
    if (spec_.openLoop) {
        scheduleNextOpen();
    } else {
        for (std::size_t i = 0; i < connectionCount(); ++i)
            scheduleNextClosed(i);
    }
}

void
LoadGen::stop()
{
    running_ = false;
}

void
LoadGen::setQps(double qps)
{
    spec_.qps = qps;
    if (!running_ || !spec_.openLoop)
        return;
    // Drop the gap sampled at the old rate and resample at the new
    // one -- exponential memorylessness makes this bias-free.
    if (openArrival_ != 0) {
        dep_.events().cancel(openArrival_);
        openArrival_ = 0;
    }
    scheduleNextOpen();
}

void
LoadGen::scheduleNextOpen()
{
    if (!running_ || spec_.qps <= 0)
        return;
    const double gapNs = rng_.exponential(1e9 / spec_.qps);
    openArrival_ = dep_.events().scheduleAfter(
        static_cast<sim::Time>(gapNs), [this] {
            openArrival_ = 0;
            if (!running_)
                return;
            sendOn(rrConn_++ % connectionCount());
            scheduleNextOpen();
        });
}

void
LoadGen::scheduleNextClosed(std::size_t connIdx)
{
    if (!running_ || spec_.qps <= 0)
        return;
    // Per-connection rate-limited arrivals (YCSB target throughput).
    const double perConnRate =
        spec_.qps / static_cast<double>(connectionCount());
    const double gapNs = rng_.exponential(1e9 / perConnRate);
    dep_.events().scheduleAfter(
        static_cast<sim::Time>(gapNs), [this, connIdx] {
            if (!running_)
                return;
            if (busy(connIdx)) {
                // Still waiting (saturated): send immediately after
                // the response arrives instead (closed loop).
                return;
            }
            sendOn(connIdx);
        });
}

void
LoadGen::sendOn(std::size_t connIdx)
{
    const auto pick = static_cast<std::size_t>(
        endpointPick_.sample(rng_));
    const EndpointLoad &ep = spec_.endpoints[pick];
    os::Message req;
    req.bytes = ep.reqBytesMin >= ep.reqBytesMax
        ? ep.reqBytesMin
        : static_cast<std::uint32_t>(rng_.uniformInt(
              static_cast<std::int64_t>(ep.reqBytesMin),
              static_cast<std::int64_t>(ep.reqBytesMax)));
    req.endpoint = ep.endpoint;
    req.tag = nextTrace_;
    req.traceId = nextTrace_++;
    send(connIdx, std::move(req), Call{});
}

void
LoadGen::settled(std::size_t conn, const Call &, Settle, sim::Time)
{
    // Closed loop: the settled call frees its connection, so load
    // keeps flowing.
    if (!spec_.openLoop)
        scheduleNextClosed(conn);
}

} // namespace ditto::workload
