/**
 * @file
 * Sessionized workload engine: the millions-of-users client model.
 *
 * Where LoadGen offers a single memoryless request stream, the
 * WorkloadEngine models *users*: a session logs in, issues a sequence
 * of endpoint calls separated by log-normal think times (with
 * endpoint affinity -- users tend to hammer the page they are on),
 * and logs out. Sessions arrive through a pluggable ArrivalProcess
 * (Poisson / MMPP / deterministic) modulated by a time-varying
 * RateCurve (diurnal / ramp / flash crowd), each session is pinned to
 * one client connection for its lifetime (connection reuse), and
 * every endpoint class carries an SloSpec so the engine can report
 * goodput-within-deadline and violation rates per class.
 *
 * Determinism: one seeded Rng stream drives arrivals, session
 * shaping, and per-call choices in event order, so a run is
 * bit-identical at any RunExecutor --jobs (DESIGN.md §8). The engine
 * keeps only what is session-shaped -- arrivals, sessions, classes,
 * client retries and SLO tallies. The sockets, deadlines, Cancel
 * chase and outcome books come from workload::Client, which it
 * shares with LoadGen; each settled call reaches it through the
 * settled() hook.
 */

#ifndef DITTO_WORKLOAD_ENGINE_H_
#define DITTO_WORKLOAD_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "app/overload.h"
#include "sim/distributions.h"
#include "sim/rng.h"
#include "stats/histogram.h"
#include "workload/arrivals.h"
#include "workload/client.h"
#include "workload/pending_map.h"
#include "workload/slo.h"

namespace ditto::workload {

/** One endpoint class: traffic mix entry plus its SLO. */
struct EndpointClass
{
    std::string name = "default";
    std::uint32_t endpoint = 0;
    double weight = 1.0;
    std::uint32_t reqBytesMin = 64;
    std::uint32_t reqBytesMax = 64;
    SloSpec slo;
    /**
     * Priority stamped on every call of this class (0 = lowest,
     * sheds first) and propagated downstream by services hop by hop.
     * Only consulted by services whose OverloadSpec grades admission
     * by priority.
     */
    std::uint8_t priority = 0;
};

/**
 * Client-side retry policy: failed calls (timeouts and shed
 * responses) are re-sent after a fixed deterministic backoff,
 * bounded by an app::RetryBudget token bucket. Every attempt is its
 * own sent/settled call, so the engine's conservation contract is
 * untouched. Defaults disable retries entirely.
 */
struct ClientRetrySpec
{
    /** Total attempts per logical call including the first. */
    unsigned maxAttempts = 1;
    /** Fixed pause before a retry (no jitter: determinism). */
    sim::Time backoff = sim::microseconds(500);
    /**
     * Retry-budget token ratio: fresh calls deposit this many tokens,
     * each retry withdraws one (retries <= ~ratio x fresh traffic).
     * 0 disables the budget -- retries are then unbounded, which is
     * exactly the configuration that goes metastable (bench_overload).
     */
    double budgetRatio = 0.0;
    double budgetInitial = 10.0;
    double budgetCap = 100.0;
};

/** Shape of an individual user session. */
struct SessionModel
{
    /** Calls per session, uniform in [minCalls, maxCalls]. */
    unsigned minCalls = 3;
    unsigned maxCalls = 10;
    /** Mean think time between calls (log-normal). */
    sim::Time meanThink = sim::milliseconds(2);
    /** Log-space sigma of the think-time log-normal. */
    double thinkSigma = 0.7;
    /**
     * Probability the next call repeats the previous call's endpoint
     * class instead of redrawing from the weights.
     */
    double endpointAffinity = 0.6;
};

/** Full description of the sessionized offered load. */
struct WorkloadSpec
{
    /** Base session arrival rate (sessions/second, before shaping). */
    double sessionsPerSec = 200;
    unsigned connections = 8;
    ArrivalSpec arrivals;
    RateCurve shape;
    SessionModel session;
    std::vector<EndpointClass> classes = {EndpointClass{}};
    /** Client-side deadline per call; 0 disables (see LoadSpec). */
    sim::Time timeout = 0;
    bool propagateDeadline = false;
    bool cancelOnTimeout = false;
    /** Client-side retries + retry budget (off by default). */
    ClientRetrySpec retry;
    /**
     * Record one `workload` span per sampled session on the Jaeger
     * path, with every call in the session sharing the session's
     * trace id under that root span. Disable when downstream topology
     * analysis must see only the service graph (clone closure).
     */
    bool traceSessions = true;
};

class WorkloadEngine : public Client
{
  public:
    WorkloadEngine(app::Deployment &dep, app::ServiceInstance &target,
                   WorkloadSpec spec, std::uint64_t seed = 99);

    /** Begin admitting sessions. */
    void start() override;

    /**
     * Stop admitting sessions. Active sessions end at their next
     * think event; in-flight calls settle normally, so a short drain
     * brings inFlight() to zero.
     */
    void stop() override;

    /** Reset the measured window (latency + per-class SLO tallies). */
    void beginMeasure() override;

    // ---- client retry accounting ------------------------------------
    // Every retry is a fresh sent() call, so the Client conservation
    // contract is untouched by retries.
    std::uint64_t retriesSent() const { return retriesSent_; }
    std::uint64_t retriesSuppressed() const
    {
        return retriesSuppressed_;
    }
    double retryTokens() const { return retryBudget_.tokens(); }

    // ---- session accounting -----------------------------------------
    std::uint64_t sessionsStarted() const { return sessionsStarted_; }
    std::uint64_t sessionsFinished() const
    {
        return sessionsFinished_;
    }
    std::uint64_t activeSessions() const
    {
        return sessionsStarted_ - sessionsFinished_;
    }

    /** Per-class SLO outcome over the measured window. */
    SloReport sloReport() const;

    // ---- class introspection (metrics registration) -----------------
    std::size_t classCount() const { return spec_.classes.size(); }
    const EndpointClass &classSpec(std::size_t i) const
    {
        return spec_.classes[i];
    }
    std::uint64_t classSent(std::size_t i) const;
    std::uint64_t classOkInDeadline(std::size_t i) const;
    std::uint64_t classViolations(std::size_t i) const;

    const WorkloadSpec &spec() const { return spec_; }

  private:
    /** One live user session. */
    struct Session
    {
        std::size_t conn = 0;    //!< pinned connection index
        unsigned callsLeft = 0;
        std::uint32_t lastClass = 0;
        bool hasLast = false;
        std::uint64_t traceId = 0; //!< 0 when the session is untraced
        std::uint64_t rootSpan = 0;
        sim::Time startTime = 0;
        sim::EventId thinkTimer = 0; //!< pending think event (0 = none)
    };

    /** Per-class cumulative + measured-window SLO tallies. */
    struct ClassState
    {
        std::uint64_t sent = 0;
        std::uint64_t settled = 0;
        std::uint64_t okInDeadline = 0;
        std::uint64_t violations = 0;
        std::uint64_t mSent = 0;
        std::uint64_t mSettled = 0;
        std::uint64_t mOkInDeadline = 0;
        std::uint64_t mViolations = 0;
        stats::LatencyHistogram latency; //!< measured window only
    };

    WorkloadSpec spec_;
    sim::Rng rng_;
    ArrivalProcess arrivals_;
    sim::EmpiricalDist classPick_;
    double thinkMu_ = 0; //!< log-space mean for the think log-normal
    TagMap<Session> sessions_; //!< keyed by monotone session id
    std::vector<ClassState> classes_;
    std::uint64_t retriesSent_ = 0;
    std::uint64_t retriesSuppressed_ = 0;
    app::RetryBudget retryBudget_;
    std::uint64_t sessionsStarted_ = 0;
    std::uint64_t sessionsFinished_ = 0;
    std::uint64_t nextSession_ = 1;
    std::uint64_t nextTrace_ = 1;
    std::uint64_t nextTag_ = 1;

    void scheduleNextArrival();
    void startSession();
    void scheduleNextCall(std::uint64_t sessionId);
    void sendCall(std::uint64_t sessionId);
    void sendAttempt(std::uint64_t sessionId, std::uint32_t cls,
                     std::uint32_t bytes, unsigned attempt);
    /**
     * Schedule a retry of the failed attempt `c` when the retry spec,
     * attempt count, and budget all allow it. @retval false the call
     * is final -- the caller must continueSession.
     */
    bool maybeRetry(const Call &c);
    /** SLO tallies, then a retry or the session's next step. */
    void settled(std::size_t conn, const Call &call, Settle how,
                 sim::Time latency) override;
    void continueSession(std::uint64_t sessionId);
    void endSession(std::uint64_t sessionId);
    std::uint32_t pickClass(Session &s);
};

} // namespace ditto::workload

#endif // DITTO_WORKLOAD_ENGINE_H_
