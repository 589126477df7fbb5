/**
 * @file
 * The external client both load models share: sockets, in-flight
 * calls, deadlines, and the outcome books.
 *
 * LoadGen (a fixed-rate request stream) and WorkloadEngine (user
 * sessions) differ only in *when* and *what* they send. Everything
 * that happens to a call once it is on the wire lives here, once:
 * the client connections, the per-connection tag map of in-flight
 * calls, the client deadline and its Cancel chase, the response
 * status tally, the measured window, and the getters every consumer
 * (chaos invariants, metrics, benches) reads through a `Client &`.
 *
 * Each call settles exactly once -- by a response or by its deadline
 * -- and then reaches the derived class through settled(). The
 * client is external to the simulated machines: its CPU is not
 * modeled, and its requests enter through the target's NIC and
 * kernel.
 */

#ifndef DITTO_WORKLOAD_CLIENT_H_
#define DITTO_WORKLOAD_CLIENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "app/deployment.h"
#include "app/service.h"
#include "os/socket.h"
#include "stats/histogram.h"
#include "workload/pending_map.h"

namespace ditto::workload {

class Client
{
  public:
    virtual ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Begin generating load. */
    virtual void start() = 0;

    /** Stop issuing new calls (in-flight ones still settle). */
    virtual void stop() = 0;

    /** Reset the measured window: latency and the rates below. */
    virtual void beginMeasure();

    const stats::LatencyHistogram &latency() const { return latency_; }

    // ---- per-call outcome accounting --------------------------------
    // sent() == completedOk() + completedError() + completedShed() +
    // timedOut() + inFlight() at any instant, so loss anywhere in the
    // stack is attributable. completed() counts every received
    // response regardless of status.

    std::uint64_t sent() const { return sent_; }
    std::uint64_t completed() const { return completed_; }
    /** Responses with Ok status (successful end-to-end calls). */
    std::uint64_t completedOk() const { return completedOk_; }
    /** Responses with Error status (degraded by a downstream fault). */
    std::uint64_t completedError() const { return completedError_; }
    /** Responses with Shed status (rejected by load shedding). */
    std::uint64_t completedShed() const { return completedShed_; }
    /** Calls that hit the client deadline with no response. */
    std::uint64_t timedOut() const { return timedOut_; }
    /** Replies that arrived after their call had timed out. */
    std::uint64_t lateResponses() const { return lateResponses_; }
    /** Cancellation chase messages sent after client timeouts. */
    std::uint64_t cancelsSent() const { return cancelsSent_; }
    /** Calls currently awaiting a response or timeout. */
    std::uint64_t inFlight() const;

    /** Completed calls per second over the measured window. */
    double achievedQps() const;

    /**
     * *Successful* (Ok-status, in-deadline) calls per second over the
     * measured window -- the number that drops under faults even
     * when achievedQps() holds up.
     */
    double goodput() const;

  protected:
    /**
     * One in-flight call, keyed by tag in its connection's map. The
     * session fields are WorkloadEngine's; LoadGen leaves them at
     * their defaults.
     */
    struct Call
    {
        sim::EventId timer = 0; //!< client deadline event (0 = none)
        /** Send instant; the engine counts a settle toward the
         *  measured window only when it was also sent inside it. */
        sim::Time sendTime = 0;
        std::uint64_t session = 0;
        std::uint32_t cls = 0;
        /** Attempt number of this send (1 = first). */
        unsigned attempt = 1;
        /** Request bytes, reused verbatim by a retry (no redraw). */
        std::uint32_t bytes = 64;
    };

    /** How a call settled, as handed to settled(). */
    enum class Settle : std::uint8_t { Ok, Error, Shed, TimedOut };

    /**
     * Open `connections` (at least one) client connections to
     * `target`, their sockets numbered from `sockIdBase`. `timeout`
     * is the per-call client deadline (0 disables);
     * `propagateDeadline` stamps each request with sendTime +
     * timeout; `cancelOnTimeout` chases an expired call with a
     * MsgKind::Cancel so the server subtree stops working on it.
     */
    Client(app::Deployment &dep, app::ServiceInstance &target,
           unsigned connections, std::uint64_t sockIdBase,
           sim::Time timeout, bool propagateDeadline,
           bool cancelOnTimeout);

    std::size_t connectionCount() const { return conns_.size(); }
    /** @retval true when connection `conn` has a call in flight. */
    bool busy(std::size_t conn) const
    {
        return !conns_[conn].pending.empty();
    }

    /**
     * Send `req` (tag, endpoint and bytes filled by the caller) on
     * connection `conn`: stamp the send time and deadline, arm the
     * client timeout, record `call` in flight, count it, and hand the
     * request to the network -- in that order.
     */
    void send(std::size_t conn, os::Message req, Call call);

    /**
     * Hook run once per call, after the books above are updated: on
     * a response (`latency` from its echoed send time) or on the
     * client deadline (`latency` = the timeout, after the Cancel
     * chase when that is armed).
     */
    virtual void settled(std::size_t conn, const Call &call, Settle how,
                         sim::Time latency) = 0;

    app::Deployment &dep_;
    bool running_ = false;
    sim::Time measureStart_ = 0;

  private:
    struct Conn
    {
        std::unique_ptr<os::Socket> client;
        os::Socket *server = nullptr;
        /**
         * In-flight calls by tag. Open-loop connections can have
         * several at once; tags are monotone, so the sorted
         * small-vector map inserts at the back.
         */
        TagMap<Call> pending;
    };

    sim::Time timeout_;
    bool propagateDeadline_;
    bool cancelOnTimeout_;
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
    std::uint64_t measuredCompleted_ = 0;
    std::uint64_t measuredOk_ = 0;

    void onResponse(std::size_t conn, const os::Message &resp);
    void onTimeout(std::size_t conn, std::uint64_t tag);
};

} // namespace ditto::workload

#endif // DITTO_WORKLOAD_CLIENT_H_
