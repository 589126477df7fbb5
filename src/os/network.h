/**
 * @file
 * Message transport between sockets.
 *
 * Delivery latency = sender NIC serialization (bandwidth-shared with
 * any configured stressor) + wire latency. Same-machine traffic takes
 * the loopback path (no NIC, small latency). Kernel CPU costs of the
 * tx/rx paths are charged separately by the Kernel's socket syscalls.
 *
 * Fault hooks: per-link (machine-pair) packet drop probability, added
 * latency, and partitioning, installed by fault::FaultInjector. With
 * no faults installed the send path is byte-identical to the fault
 * free build (no rng draws, no map lookups). Every message is
 * accounted exactly once: messagesSent() == messagesDelivered() +
 * messagesDropped() + messagesInFlight() at all times.
 *
 * WAN model: machines carry a region id (os::Machine::regionId());
 * traffic between machines in *different* regions crosses a directed
 * WAN link (setWanLink) with its own one-way latency (asymmetric:
 * each direction is a separate link), bandwidth cap, and seeded
 * correlated loss bursts. Each installed link keeps the same exact
 * message/byte ledger as the global counters. Region-scoped faults
 * (setRegionFault) compose with machine-pair faults. Unconfigured
 * runs never enter the WAN path: every machine sits in region 0, so
 * the cross-region test is a single integer compare.
 */

#ifndef DITTO_OS_NETWORK_H_
#define DITTO_OS_NETWORK_H_

#include <cstdint>
#include <map>
#include <utility>

#include "core/slab_arena.h"
#include "os/socket.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace ditto::os {

class Machine;

/**
 * Active fault state of one machine pair (or of the pseudo-link
 * between a null external client and a machine).
 */
struct LinkFault
{
    /** Probability each message on the link is dropped. */
    double dropProb = 0;
    /** Extra one-way latency (spike) added to each message. */
    sim::Time extraLatency = 0;
    /** Hard partition: nothing is delivered across the link. */
    bool partitioned = false;

    bool
    any() const
    {
        return dropProb > 0 || extraLatency > 0 || partitioned;
    }
};

/**
 * Static shape of one *directed* WAN link between two regions.
 * Asymmetric routes are modeled by installing different specs for the
 * two directions.
 */
struct WanLinkSpec
{
    /** One-way propagation latency; replaces the LAN wire latency. */
    sim::Time latency = 0;
    /** Bandwidth cap shared by all traffic on the link; 0 = uncapped. */
    double bytesPerNs = 0;
    /**
     * Correlated loss bursts (Gilbert-style good/bad periods): bursts
     * of `burstLength` recur with exponential gaps of mean
     * `burstMeanInterval`; during a burst each message is dropped
     * with `burstDropProb`. 0 interval or length disables bursts.
     */
    sim::Time burstMeanInterval = 0;
    sim::Time burstLength = 0;
    double burstDropProb = 0;
    /** Seed of the link's private burst-schedule rng. */
    std::uint64_t burstSeed = 0x77a9ull;
};

/** Exact per-directed-WAN-link ledger (mirrors the global one). */
struct WanLinkStats
{
    std::uint64_t msgsSent = 0;
    std::uint64_t msgsDelivered = 0;
    std::uint64_t msgsDropped = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesDelivered = 0;
    std::uint64_t bytesDropped = 0;

    std::uint64_t
    msgsInFlight() const
    {
        return msgsSent - msgsDelivered - msgsDropped;
    }

    std::uint64_t
    bytesInFlight() const
    {
        return bytesSent - bytesDelivered - bytesDropped;
    }
};

class Network
{
  public:
    /** Directed (fromRegion, toRegion) pair identifying a WAN link. */
    using RegionKey = std::pair<std::uint32_t, std::uint32_t>;

    /** Installed spec + live state of one directed WAN link. */
    struct WanLinkState
    {
        WanLinkSpec spec;
        WanLinkStats stats;
        sim::Time txNextFree = 0;   //!< bandwidth-cap serialization
        sim::Time burstStart = 0;   //!< current/next burst window start
        sim::Rng rng{0x77a9ull};    //!< burst schedule + burst drops
    };

    explicit Network(sim::EventQueue &events,
                     sim::Time wireLatency = sim::microseconds(25),
                     sim::Time loopbackLatency = sim::microseconds(5));

    /** Make two sockets peers of each other. */
    static void connect(Socket &a, Socket &b);

    /**
     * Send `msg` from `from` to its peer; `extraDelay` shifts the
     * departure to when the sending syscall logically executes.
     */
    void send(Socket &from, Message msg, sim::Time extraDelay = 0);

    sim::Time wireLatency() const { return wireLatency_; }
    sim::Time loopbackLatency() const { return loopbackLatency_; }

    std::uint64_t messagesSent() const { return sent_; }
    std::uint64_t messagesDelivered() const { return delivered_; }
    std::uint64_t messagesDropped() const { return dropped_; }

    /** Messages sent but neither delivered nor dropped yet. */
    std::uint64_t
    messagesInFlight() const
    {
        return sent_ - delivered_ - dropped_;
    }

    /** Payload bytes, with the same exact accounting as messages. */
    std::uint64_t bytesSent() const { return bytesSent_; }
    std::uint64_t bytesDelivered() const { return bytesDelivered_; }
    std::uint64_t bytesDropped() const { return bytesDropped_; }

    std::uint64_t
    bytesInFlight() const
    {
        return bytesSent_ - bytesDelivered_ - bytesDropped_;
    }

    // ---- fault hooks (installed by fault::FaultInjector) ------------

    /**
     * Install the fault state of the (unordered) link between two
     * machines; nullptr stands for external (unmodeled) clients.
     * Loopback traffic is never affected by link faults.
     */
    void setLinkFault(const Machine *a, const Machine *b,
                      const LinkFault &fault);

    /** Remove the fault state of one link. */
    void clearLinkFault(const Machine *a, const Machine *b);

    /** Current fault state of a link (default-constructed if none). */
    LinkFault linkFault(const Machine *a, const Machine *b) const;

    // ---- WAN links and region-scoped faults -------------------------

    /**
     * Install (or replace) the directed WAN link fromRegion ->
     * toRegion. Cross-region messages on an installed link use its
     * latency instead of the LAN wire latency and are accounted in
     * the link's private ledger.
     */
    void setWanLink(std::uint32_t fromRegion, std::uint32_t toRegion,
                    const WanLinkSpec &spec);

    /** Installed links, keyed by directed region pair. */
    const std::map<RegionKey, WanLinkState> &
    wanLinks() const
    {
        return wanLinks_;
    }

    /** Ledger of one directed link; nullptr if not installed. */
    const WanLinkStats *wanLinkStats(std::uint32_t fromRegion,
                                     std::uint32_t toRegion) const;

    /**
     * Install the fault state of the (unordered) region pair; applies
     * to every cross-region message between the two regions and
     * composes with machine-pair faults. Installed by
     * fault::FaultInjector for RegionPartition / WanDegrade windows.
     */
    void setRegionFault(std::uint32_t a, std::uint32_t b,
                        const LinkFault &fault);

    /** Remove the fault state of one region pair. */
    void clearRegionFault(std::uint32_t a, std::uint32_t b);

    /** Current fault state of a region pair (default if none). */
    LinkFault regionFault(std::uint32_t a, std::uint32_t b) const;

    /** Whether the two regions are currently hard-partitioned. */
    bool
    regionPartitioned(std::uint32_t a, std::uint32_t b) const
    {
        return !regionFaults_.empty() && regionFault(a, b).partitioned;
    }

  private:
    using LinkKey = std::pair<const Machine *, const Machine *>;

    /**
     * One message between send() and delivery. Slab-allocated so the
     * per-message cost is a pooled node instead of a shared_ptr
     * control block plus a heap-spilled callback capture; the delivery
     * event captures only {this, flight} and stays inline in the
     * event queue's callback slot.
     */
    struct InFlight
    {
        Message msg;
        Socket *to;
        const Machine *fromMachine;
        WanLinkState *wanLink;
        std::uint32_t fromRegion;
        std::uint32_t toRegion;
        bool loopback;
        bool wan;
    };

    /** Deliver (or drop) a message and retire its slab node. */
    void deliver(InFlight *flight);

    sim::EventQueue &events_;
    sim::Time wireLatency_;
    sim::Time loopbackLatency_;
    std::uint64_t sent_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t bytesSent_ = 0;
    std::uint64_t bytesDelivered_ = 0;
    std::uint64_t bytesDropped_ = 0;
    std::map<LinkKey, LinkFault> faults_;
    std::map<RegionKey, WanLinkState> wanLinks_;
    std::map<RegionKey, LinkFault> regionFaults_;
    sim::Rng faultRng_{0xfa117ull};
    core::SlabArena<InFlight> inFlight_;

    static LinkKey linkKey(const Machine *a, const Machine *b);
    static RegionKey regionKey(std::uint32_t a, std::uint32_t b);
};

} // namespace ditto::os

#endif // DITTO_OS_NETWORK_H_
