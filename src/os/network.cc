#include "os/network.h"

#include <memory>

#include "os/machine.h"

namespace ditto::os {

Network::Network(sim::EventQueue &events, sim::Time wireLatency,
                 sim::Time loopbackLatency)
    : events_(events), wireLatency_(wireLatency),
      loopbackLatency_(loopbackLatency)
{
}

void
Network::connect(Socket &a, Socket &b)
{
    a.peer = &b;
    b.peer = &a;
}

Network::LinkKey
Network::linkKey(const Machine *a, const Machine *b)
{
    return a < b ? LinkKey{a, b} : LinkKey{b, a};
}

void
Network::setLinkFault(const Machine *a, const Machine *b,
                      const LinkFault &fault)
{
    if (fault.any())
        faults_[linkKey(a, b)] = fault;
    else
        faults_.erase(linkKey(a, b));
}

void
Network::clearLinkFault(const Machine *a, const Machine *b)
{
    faults_.erase(linkKey(a, b));
}

LinkFault
Network::linkFault(const Machine *a, const Machine *b) const
{
    const auto it = faults_.find(linkKey(a, b));
    return it != faults_.end() ? it->second : LinkFault{};
}

Network::RegionKey
Network::regionKey(std::uint32_t a, std::uint32_t b)
{
    return a < b ? RegionKey{a, b} : RegionKey{b, a};
}

void
Network::setWanLink(std::uint32_t fromRegion, std::uint32_t toRegion,
                    const WanLinkSpec &spec)
{
    WanLinkState &st = wanLinks_[RegionKey{fromRegion, toRegion}];
    st.spec = spec;
    st.rng = sim::Rng(spec.burstSeed);
    st.burstStart = 0;
    if (spec.burstMeanInterval > 0 && spec.burstLength > 0)
        st.burstStart = static_cast<sim::Time>(
            st.rng.exponential(
                static_cast<double>(spec.burstMeanInterval)));
}

const WanLinkStats *
Network::wanLinkStats(std::uint32_t fromRegion,
                      std::uint32_t toRegion) const
{
    const auto it = wanLinks_.find(RegionKey{fromRegion, toRegion});
    return it != wanLinks_.end() ? &it->second.stats : nullptr;
}

void
Network::setRegionFault(std::uint32_t a, std::uint32_t b,
                        const LinkFault &fault)
{
    if (fault.any())
        regionFaults_[regionKey(a, b)] = fault;
    else
        regionFaults_.erase(regionKey(a, b));
}

void
Network::clearRegionFault(std::uint32_t a, std::uint32_t b)
{
    regionFaults_.erase(regionKey(a, b));
}

LinkFault
Network::regionFault(std::uint32_t a, std::uint32_t b) const
{
    const auto it = regionFaults_.find(regionKey(a, b));
    return it != regionFaults_.end() ? it->second : LinkFault{};
}

void
Network::send(Socket &from, Message msg, sim::Time extraDelay)
{
    Socket *to = from.peer;
    if (!to)
        return;
    ++sent_;
    bytesSent_ += msg.bytes;

    sim::Time delay = extraDelay;
    const bool loopback = from.machine && to->machine &&
        from.machine == to->machine;
    // Cross-region traffic takes the WAN path. Unconfigured runs keep
    // every machine in region 0, so this stays false and the send
    // path is byte-identical to the region-free build.
    const bool wan = from.machine && to->machine &&
        from.machine->regionId() != to->machine->regionId();
    std::uint32_t fromRegion = 0;
    std::uint32_t toRegion = 0;
    WanLinkState *wanLink = nullptr;

    if (loopback) {
        delay += loopbackLatency_;
    } else {
        LinkFault fault;
        if (!faults_.empty())
            fault = linkFault(from.machine, to->machine);
        if (wan) {
            fromRegion = from.machine->regionId();
            toRegion = to->machine->regionId();
            if (!wanLinks_.empty()) {
                const auto it =
                    wanLinks_.find(RegionKey{fromRegion, toRegion});
                if (it != wanLinks_.end()) {
                    wanLink = &it->second;
                    ++wanLink->stats.msgsSent;
                    wanLink->stats.bytesSent += msg.bytes;
                }
            }
            // Region-scoped fault windows compose with machine-pair
            // faults: drop probs combine, latencies add.
            if (!regionFaults_.empty()) {
                const LinkFault rf =
                    regionFault(fromRegion, toRegion);
                fault.dropProb = 1.0 -
                    (1.0 - fault.dropProb) * (1.0 - rf.dropProb);
                fault.extraLatency += rf.extraLatency;
            }
        }
        // Sender-side NIC serialization (if the sender is a modeled
        // machine; external clients have infinite-capacity uplinks).
        if (from.machine) {
            NicState &nic = from.machine->nic();
            nic.txBytes += msg.bytes;
            const double serNs = static_cast<double>(msg.bytes) /
                nic.effectiveBytesPerNs();
            const sim::Time depart = events_.now() + delay;
            nic.txNextFree =
                std::max(nic.txNextFree, depart) +
                static_cast<sim::Time>(serNs + 0.5);
            delay = nic.txNextFree - events_.now();
        }
        // WAN link: bandwidth-cap serialization, then correlated loss
        // bursts (the link's private schedule advances lazily to the
        // current send time from its own seeded rng).
        if (wanLink) {
            const WanLinkSpec &spec = wanLink->spec;
            if (spec.bytesPerNs > 0) {
                const double serNs =
                    static_cast<double>(msg.bytes) / spec.bytesPerNs;
                const sim::Time depart = events_.now() + delay;
                wanLink->txNextFree =
                    std::max(wanLink->txNextFree, depart) +
                    static_cast<sim::Time>(serNs + 0.5);
                delay = wanLink->txNextFree - events_.now();
            }
            if (spec.burstMeanInterval > 0 && spec.burstLength > 0) {
                const sim::Time now = events_.now();
                while (now >= wanLink->burstStart + spec.burstLength)
                    wanLink->burstStart += spec.burstLength +
                        static_cast<sim::Time>(
                            wanLink->rng.exponential(static_cast<
                                double>(spec.burstMeanInterval)));
                if (now >= wanLink->burstStart &&
                    spec.burstDropProb > 0 &&
                    wanLink->rng.bernoulli(spec.burstDropProb)) {
                    ++dropped_;
                    bytesDropped_ += msg.bytes;
                    ++wanLink->stats.msgsDropped;
                    wanLink->stats.bytesDropped += msg.bytes;
                    return;
                }
            }
        }
        // Probabilistic loss: the message left the sender's NIC but
        // dies on the wire, so no receiver-side cost is charged.
        if (fault.dropProb > 0 &&
            faultRng_.bernoulli(fault.dropProb)) {
            ++dropped_;
            bytesDropped_ += msg.bytes;
            if (wanLink) {
                ++wanLink->stats.msgsDropped;
                wanLink->stats.bytesDropped += msg.bytes;
            }
            return;
        }
        // Receiver-side NIC accounting + possible rx contention.
        if (to->machine) {
            NicState &nic = to->machine->nic();
            nic.rxBytes += msg.bytes;
            const double serNs = static_cast<double>(msg.bytes) /
                nic.effectiveBytesPerNs();
            delay += static_cast<sim::Time>(serNs + 0.5);
        }
        // Installed WAN links carry their own propagation latency in
        // place of the LAN wire latency.
        if (wanLink && wanLink->spec.latency > 0)
            delay += wanLink->spec.latency + fault.extraLatency;
        else
            delay += wireLatency_ + fault.extraLatency;
    }

    InFlight *flight = inFlight_.create(
        InFlight{std::move(msg), to, from.machine, wanLink, fromRegion,
                 toRegion, loopback, wan});
    events_.scheduleAfter(delay,
                          [this, flight] { deliver(flight); });
}

void
Network::deliver(InFlight *flight)
{
    Socket *to = flight->to;
    const std::uint32_t bytes = flight->msg.bytes;
    // Partition, crashed machine, or crashed service: the message is
    // lost at delivery time (covers messages that were already in
    // flight when the fault started).
    const bool partitioned =
        (!flight->loopback && !faults_.empty() &&
         linkFault(flight->fromMachine, to->machine).partitioned) ||
        (flight->wan &&
         regionPartitioned(flight->fromRegion, flight->toRegion));
    if (partitioned || (to->machine && to->machine->down()) ||
        (to->inboundGate && !to->inboundGate())) {
        ++dropped_;
        bytesDropped_ += bytes;
        if (flight->wanLink) {
            ++flight->wanLink->stats.msgsDropped;
            flight->wanLink->stats.bytesDropped += bytes;
        }
        inFlight_.destroy(flight);
        return;
    }
    ++delivered_;
    bytesDelivered_ += bytes;
    if (flight->wanLink) {
        ++flight->wanLink->stats.msgsDelivered;
        flight->wanLink->stats.bytesDelivered += bytes;
    }
    // push() may re-enter send() on the same queue (loopback replies),
    // which can recycle this node -- so retire it after moving the
    // message out but before handing control to the receiver.
    Message delivered = std::move(flight->msg);
    inFlight_.destroy(flight);
    to->push(std::move(delivered));
}

} // namespace ditto::os
