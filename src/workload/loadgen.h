/**
 * @file
 * Load generation: open- and closed-loop clients.
 *
 * Open-loop clients (mutated / tcpkali / modified-wrk2 in the paper)
 * send with Poisson interarrivals independent of completions, so
 * saturation shows up as unbounded queueing and p99 blowup.
 * Closed-loop clients (YCSB for MongoDB/Redis) allow one outstanding
 * request per connection and rate-limit arrivals, so latency stays
 * bounded at high load -- exactly the Fig. 5 latency shapes.
 *
 * LoadGen keeps only its arrivals: one seeded Rng stream draws the
 * gaps, endpoints and request sizes in event order, and setQps
 * redraws a pending open-loop arrival at once. Sockets, deadlines,
 * the Cancel chase and the outcome books come from workload::Client,
 * which it shares with the sessionized WorkloadEngine.
 */

#ifndef DITTO_WORKLOAD_LOADGEN_H_
#define DITTO_WORKLOAD_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "sim/distributions.h"
#include "sim/rng.h"
#include "workload/client.h"

namespace ditto::workload {

/** Mix entry: an endpoint plus its weight and request size range. */
struct EndpointLoad
{
    std::uint32_t endpoint = 0;
    double weight = 1.0;
    std::uint32_t reqBytesMin = 64;
    std::uint32_t reqBytesMax = 64;
};

/** Full description of the offered load. */
struct LoadSpec
{
    double qps = 1000;
    unsigned connections = 8;
    bool openLoop = true;
    /** One default EndpointLoad: endpoint 0, 64-byte requests. */
    std::vector<EndpointLoad> endpoints = std::vector<EndpointLoad>(1);
    /**
     * Client-side deadline per request; 0 disables. Expired requests
     * count as timedOut() (not completed()), and their late replies
     * are discarded as lateResponses().
     */
    sim::Time timeout = 0;
    /**
     * Stamp each request with an absolute deadline (sendTime +
     * timeout) so deadline-propagating services can forward the
     * remaining budget downstream. Requires timeout > 0.
     */
    bool propagateDeadline = false;
    /**
     * On client timeout, chase the abandoned request with a
     * MsgKind::Cancel so the server subtree stops working on it.
     */
    bool cancelOnTimeout = false;
};

class LoadGen : public Client
{
  public:
    LoadGen(app::Deployment &dep, app::ServiceInstance &target,
            LoadSpec spec, std::uint64_t seed = 99);

    /** Begin generating load. */
    void start() override;

    /** Stop issuing new requests (in-flight ones complete). */
    void stop() override;

    /**
     * Change the target rate on the fly. Open-loop clients reschedule
     * their pending arrival immediately (the old gap was sampled at
     * the old rate; memorylessness makes the resample bias-free), so
     * rate curves see the new rate now, not one stale gap later.
     */
    void setQps(double qps);

  private:
    LoadSpec spec_;
    sim::Rng rng_;
    sim::EmpiricalDist endpointPick_;
    std::uint64_t nextTrace_ = 1;
    unsigned rrConn_ = 0;
    /** Pending open-loop arrival event (0 when none is scheduled). */
    sim::EventId openArrival_ = 0;

    void scheduleNextOpen();
    void scheduleNextClosed(std::size_t connIdx);
    void sendOn(std::size_t connIdx);
    void settled(std::size_t conn, const Call &call, Settle how,
                 sim::Time latency) override;
};

} // namespace ditto::workload

#endif // DITTO_WORKLOAD_LOADGEN_H_
