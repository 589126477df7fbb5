/**
 * @file
 * RPC resilience policies: deadlines, retry with exponential backoff
 * and jitter, circuit breaking, and load shedding.
 *
 * These are the client-side mechanisms real microservices wrap around
 * downstream calls (gRPC deadlines, Envoy/Hystrix-style breakers,
 * Finagle retry budgets). They are configured per service through
 * ServiceSpec::resilience and executed by the skeleton runtime, so an
 * original application and its Ditto clone can run under the *same*
 * policies and be compared under the same injected faults.
 *
 * Everything is deterministic: backoff jitter draws from the owning
 * service's seeded Rng, and breaker state transitions are driven by
 * simulated time only.
 */

#ifndef DITTO_APP_RESILIENCE_H_
#define DITTO_APP_RESILIENCE_H_

#include <cstdint>

#include "app/overload.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace ditto::app {

/** Retry policy for one downstream RPC attempt sequence. */
struct RetryPolicy
{
    /** Total attempts including the first; 1 disables retries. */
    unsigned maxAttempts = 1;
    /** Backoff before the first retry. */
    sim::Time baseBackoff = sim::microseconds(200);
    /** Multiplier applied per further retry (exponential backoff). */
    double multiplier = 2.0;
    /** Cap on any single backoff. */
    sim::Time maxBackoff = sim::milliseconds(50);
    /** Symmetric jitter fraction in [0, 1): backoff *= 1 +/- jitter. */
    double jitter = 0.0;
    /**
     * Server-side retry budget (token bucket, see app::RetryBudget):
     * each fresh downstream call deposits `budgetRatio` tokens and
     * every retry withdraws one, so retries stay bounded to roughly
     * this fraction of fresh traffic. A call denied a retry settles
     * as the timeout it is, with outcome cause "retry_budget". 0
     * disables the budget (unbounded retries, the prior behaviour).
     */
    double budgetRatio = 0.0;
    /** Tokens pre-filled at startup (allows a small initial burst). */
    double budgetInitial = 10.0;
    /** Token-bucket cap. */
    double budgetCap = 100.0;
};

/**
 * Backoff before retry number `attempt` (1 = first retry). Jitter
 * draws one uniform sample from `rng`; with jitter == 0 no sample is
 * drawn, keeping the rng sequence identical to a no-retry run.
 */
sim::Time computeBackoff(const RetryPolicy &policy, unsigned attempt,
                         sim::Rng &rng);

/** Circuit-breaker policy for one downstream connection. */
struct CircuitBreakerPolicy
{
    bool enabled = false;
    /** Consecutive failures that trip the breaker open. */
    unsigned failureThreshold = 5;
    /** How long the breaker stays open before probing. */
    sim::Time openDuration = sim::milliseconds(10);
    /** Concurrent probe requests allowed while half-open. */
    unsigned halfOpenProbes = 1;
};

/**
 * Per-downstream circuit breaker (closed -> open -> half-open ->
 * closed). Shared by all workers of a service, like a breaker on a
 * shared connection pool.
 */
class CircuitBreaker
{
  public:
    enum class State : std::uint8_t
    {
        Closed,
        Open,
        HalfOpen,
    };

    CircuitBreaker() = default;
    explicit CircuitBreaker(const CircuitBreakerPolicy &policy)
        : policy_(policy)
    {
    }

    /**
     * Admission check before issuing a call. May transition
     * Open -> HalfOpen when the open window has elapsed.
     * @retval false the call must fail fast without being sent.
     */
    bool allowRequest(sim::Time now);

    /** A call admitted by allowRequest() completed successfully. */
    void onSuccess();

    /** A call admitted by allowRequest() failed (e.g. timed out). */
    void onFailure(sim::Time now);

    State state() const { return state_; }
    std::uint64_t timesOpened() const { return timesOpened_; }
    unsigned consecutiveFailures() const { return failures_; }

  private:
    CircuitBreakerPolicy policy_;
    State state_ = State::Closed;
    unsigned failures_ = 0;
    unsigned probesInFlight_ = 0;
    sim::Time openUntil_ = 0;
    std::uint64_t timesOpened_ = 0;

    void trip(sim::Time now);
};

/**
 * Hedged-request policy for downstream RPC edges (BigTable/Dynamo
 * style tail-latency hedging): when the first attempt has not
 * answered within `delay`, launch a second attempt on a *different*
 * replica; first response wins, the loser is cancelled. Hedges only
 * fire on the first attempt of a call and only when the edge has more
 * than one usable replica.
 */
struct HedgePolicy
{
    bool enabled = false;
    /** Latency threshold after which the hedge attempt launches. */
    sim::Time delay = sim::milliseconds(1);
};

/**
 * Resilience configuration of one service, applied to every
 * downstream RPC it issues and to its inbound request queue. The
 * default-constructed spec disables every mechanism, leaving the
 * runtime's behaviour bit-identical to a build without this header.
 */
struct ResilienceSpec
{
    /**
     * Per-attempt deadline on downstream RPCs; 0 waits forever (the
     * pre-resilience behaviour).
     */
    sim::Time rpcDeadline = 0;
    RetryPolicy retry;
    CircuitBreakerPolicy breaker;
    /**
     * Shed (fail-fast) inbound requests when the worker's pending
     * inbound queue depth reaches this threshold; 0 disables.
     */
    unsigned shedQueueThreshold = 0;
    /**
     * End-to-end deadline propagation: honor the absolute deadline
     * carried by inbound requests (drop work that is already dead on
     * arrival) and forward the remaining budget, minus `hopMargin`,
     * with every outbound RPC. A hop whose budget is exhausted fails
     * fast without transmitting.
     */
    bool propagateDeadline = false;
    /** Budget slack reserved per hop for the reply leg. */
    sim::Time hopMargin = 0;
    /**
     * Cooperative cancellation: chase abandoned downstream attempts
     * (timeouts, give-ups, hedge losers) with a MsgKind::Cancel so
     * the subtree stops working. Receiving a cancel is always
     * honored; this knob controls whether this service *sends* them.
     */
    bool cancellation = false;
    HedgePolicy hedge;
    /**
     * Adaptive overload control: concurrency limiter, sojourn /
     * deadline-aware queue drops, priority shedding, brownout. See
     * app/overload.h; default-constructed = everything off.
     */
    OverloadSpec overload;

    bool
    any() const
    {
        return rpcDeadline > 0 || retry.maxAttempts > 1 ||
            breaker.enabled || shedQueueThreshold > 0 ||
            propagateDeadline || cancellation || hedge.enabled ||
            overload.any();
    }
};

} // namespace ditto::app

#endif // DITTO_APP_RESILIENCE_H_
