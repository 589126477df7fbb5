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
 * The client itself is external to the simulated machines (its CPU is
 * not modeled); requests enter through the server's NIC and kernel.
 */

#ifndef DITTO_WORKLOAD_LOADGEN_H_
#define DITTO_WORKLOAD_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "app/deployment.h"
#include "app/service.h"
#include "os/socket.h"
#include "sim/distributions.h"
#include "sim/rng.h"
#include "stats/histogram.h"
#include "workload/pending_map.h"

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

class LoadGen
{
  public:
    LoadGen(app::Deployment &dep, app::ServiceInstance &target,
            LoadSpec spec, std::uint64_t seed = 99);
    ~LoadGen();

    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    /** Begin generating load. */
    void start();

    /** Stop issuing new requests (in-flight ones complete). */
    void stop();

    /** Reset measured latency/counters (start of measured window). */
    void beginMeasure();

    const stats::LatencyHistogram &latency() const { return latency_; }
    std::uint64_t sent() const { return sent_; }
    std::uint64_t completed() const { return completed_; }

    // ---- per-request outcome accounting -----------------------------
    // sent() == completedOk() + completedError() + completedShed() +
    // timedOut() + in-flight, so loss anywhere in the stack is
    // attributable. completed() counts every received response
    // regardless of status.

    /** Responses with Ok status (successful end-to-end requests). */
    std::uint64_t completedOk() const { return completedOk_; }
    /** Responses with Error status (degraded by a downstream fault). */
    std::uint64_t completedError() const { return completedError_; }
    /** Responses with Shed status (rejected by load shedding). */
    std::uint64_t completedShed() const { return completedShed_; }
    /** Requests that hit the client deadline with no response. */
    std::uint64_t timedOut() const { return timedOut_; }
    /** Replies that arrived after their request had timed out. */
    std::uint64_t lateResponses() const { return lateResponses_; }
    /** Cancellation chase messages sent after client timeouts. */
    std::uint64_t cancelsSent() const { return cancelsSent_; }

    /** Completed requests per second over the measured window. */
    double achievedQps() const;

    /**
     * *Successful* (Ok-status, in-deadline) requests per second over
     * the measured window -- the number that drops under faults even
     * when achievedQps() holds up.
     */
    double goodput() const;

    /**
     * Change the target rate on the fly. Open-loop clients reschedule
     * their pending arrival immediately (the old gap was sampled at
     * the old rate; memorylessness makes the resample bias-free), so
     * rate curves see the new rate now, not one stale gap later.
     */
    void setQps(double qps);

  private:
    struct Conn
    {
        std::unique_ptr<os::Socket> client;
        os::Socket *server = nullptr;
        /**
         * In-flight requests: tag -> pending deadline event (0 when
         * no client timeout is configured). Open-loop connections can
         * have several requests in flight at once. Tags are monotone,
         * so the sorted small-vector map inserts at the back.
         */
        TagMap<sim::EventId> pending;

        bool outstanding() const { return !pending.empty(); }
    };

    app::Deployment &dep_;
    app::ServiceInstance &target_;
    LoadSpec spec_;
    sim::Rng rng_;
    sim::EmpiricalDist endpointPick_;
    std::vector<Conn> conns_;
    stats::LatencyHistogram latency_;
    std::uint64_t sent_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t completedOk_ = 0;
    std::uint64_t completedError_ = 0;
    std::uint64_t completedShed_ = 0;
    std::uint64_t timedOut_ = 0;
    std::uint64_t lateResponses_ = 0;
    std::uint64_t cancelsSent_ = 0;
    std::uint64_t nextTrace_ = 1;
    unsigned rrConn_ = 0;
    bool running_ = false;
    /** Pending open-loop arrival event (0 when none is scheduled). */
    sim::EventId openArrival_ = 0;
    sim::Time measureStart_ = 0;
    std::uint64_t measuredCompleted_ = 0;
    std::uint64_t measuredOk_ = 0;

    void scheduleNextOpen();
    void scheduleNextClosed(std::size_t connIdx);
    void sendOn(std::size_t connIdx);
    void onResponse(std::size_t connIdx, const os::Message &resp);
    void onTimeout(std::size_t connIdx, std::uint64_t tag);
};

} // namespace ditto::workload

#endif // DITTO_WORKLOAD_LOADGEN_H_
