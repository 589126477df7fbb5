#include "app/resilience.h"

#include <algorithm>
#include <cmath>

namespace ditto::app {

sim::Time
computeBackoff(const RetryPolicy &policy, unsigned attempt,
               sim::Rng &rng)
{
    const unsigned exp = attempt > 0 ? attempt - 1 : 0;
    double backoff = static_cast<double>(policy.baseBackoff) *
        std::pow(policy.multiplier, static_cast<double>(exp));
    backoff = std::min(backoff,
                       static_cast<double>(policy.maxBackoff));
    if (policy.jitter > 0) {
        const double u = rng.uniform(-policy.jitter, policy.jitter);
        backoff *= 1.0 + u;
    }
    return backoff > 0 ? static_cast<sim::Time>(backoff + 0.5) : 0;
}

void
CircuitBreaker::trip(sim::Time now)
{
    state_ = State::Open;
    openUntil_ = now + policy_.openDuration;
    probesInFlight_ = 0;
    failures_ = 0;
    ++timesOpened_;
}

bool
CircuitBreaker::allowRequest(sim::Time now)
{
    if (!policy_.enabled)
        return true;
    switch (state_) {
      case State::Closed:
        return true;
      case State::Open:
        if (now < openUntil_)
            return false;
        state_ = State::HalfOpen;
        probesInFlight_ = 1;
        return true;
      case State::HalfOpen:
        if (probesInFlight_ < std::max(1u, policy_.halfOpenProbes)) {
            ++probesInFlight_;
            return true;
        }
        return false;
    }
    return true;
}

void
CircuitBreaker::onSuccess()
{
    if (!policy_.enabled)
        return;
    // A stale success -- a call admitted before the breaker (re)
    // tripped, e.g. the slower of two concurrent Half-Open probes --
    // must not shortcut the open window.
    if (state_ == State::Open)
        return;
    // A successful probe closes the breaker; in Closed state a
    // success resets the consecutive-failure streak.
    state_ = State::Closed;
    failures_ = 0;
    probesInFlight_ = 0;
}

void
CircuitBreaker::onFailure(sim::Time now)
{
    if (!policy_.enabled)
        return;
    if (state_ == State::HalfOpen) {
        trip(now);  // failed probe: straight back to open
        return;
    }
    if (state_ == State::Closed &&
        ++failures_ >= std::max(1u, policy_.failureThreshold)) {
        trip(now);
    }
}

} // namespace ditto::app
