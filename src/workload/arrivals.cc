#include "workload/arrivals.h"

#include <algorithm>
#include <cmath>

namespace ditto::workload {

const char *
shapeKindName(ShapeKind kind)
{
    switch (kind) {
      case ShapeKind::Constant:
        return "steady";
      case ShapeKind::Diurnal:
        return "diurnal";
      case ShapeKind::Ramp:
        return "ramp";
      case ShapeKind::FlashCrowd:
        return "flash";
    }
    return "?";
}

double
RateCurve::factorAt(sim::Time now) const
{
    switch (kind) {
      case ShapeKind::Constant:
        return 1.0;
      case ShapeKind::Diurnal: {
        if (period == 0)
            return 1.0;
        const double phase = 2.0 * M_PI *
            (static_cast<double>(now % period) /
             static_cast<double>(period));
        return std::max(0.0, 1.0 + amplitude * std::sin(phase));
      }
      case ShapeKind::Ramp: {
        if (rampDuration == 0 || now >= rampDuration)
            return std::max(0.0, endFactor);
        const double t = static_cast<double>(now) /
            static_cast<double>(rampDuration);
        return std::max(0.0,
                        startFactor + (endFactor - startFactor) * t);
      }
      case ShapeKind::FlashCrowd: {
        if (now < stepAt)
            return 1.0;
        if (decayHalfLife == 0)
            return std::max(0.0, stepMagnitude);
        const double halves = static_cast<double>(now - stepAt) /
            static_cast<double>(decayHalfLife);
        return std::max(
            0.0, 1.0 + (stepMagnitude - 1.0) * std::exp2(-halves));
      }
    }
    return 1.0;
}

sim::Time
RateCurve::refreshHorizon(sim::Time now) const
{
    switch (kind) {
      case ShapeKind::Constant:
        return sim::kTimeNever;
      case ShapeKind::Diurnal:
        // 32 checkpoints per cycle track the sinusoid to a few
        // percent without flooding the event queue.
        return period > 0 ? std::max<sim::Time>(1, period / 32)
                          : sim::kTimeNever;
      case ShapeKind::Ramp:
        return now < rampDuration
            ? std::max<sim::Time>(1, rampDuration / 64)
            : sim::kTimeNever;
      case ShapeKind::FlashCrowd: {
        if (now < stepAt)
            return stepAt - now; // land exactly on the step
        // After ~10 half-lives the excess is under 0.1%: flat.
        if (decayHalfLife == 0 || now - stepAt > 10 * decayHalfLife)
            return sim::kTimeNever;
        return std::max<sim::Time>(1, decayHalfLife / 8);
      }
    }
    return sim::kTimeNever;
}

ArrivalProcess::ArrivalProcess(ArrivalSpec spec, sim::Rng rng)
    : spec_(std::move(spec)), rng_(rng)
{
}

void
ArrivalProcess::advanceState(sim::Time now)
{
    if (spec_.kind != ArrivalKind::Mmpp || spec_.states.size() < 2) {
        stateEnd_ = sim::kTimeNever;
        stateInit_ = true;
        return;
    }
    if (!stateInit_) {
        stateInit_ = true;
        state_ = 0;
        stateEnd_ = now +
            static_cast<sim::Time>(std::max(
                1.0, rng_.exponential(static_cast<double>(
                         spec_.states[state_].meanDwell))));
    }
    // Lazy catch-up: replay dwells until the chain covers `now`. The
    // chain depends only on the rng stream, not on when we look.
    while (now >= stateEnd_ && stateEnd_ != sim::kTimeNever) {
        const std::uint64_t hop =
            1 + rng_.uniformInt(
                    std::uint64_t{spec_.states.size()} - 1);
        state_ = (state_ + hop) % spec_.states.size();
        stateEnd_ += static_cast<sim::Time>(std::max(
            1.0, rng_.exponential(static_cast<double>(
                     spec_.states[state_].meanDwell))));
    }
}

double
ArrivalProcess::stateFactor(sim::Time now)
{
    advanceState(now);
    if (spec_.kind != ArrivalKind::Mmpp || spec_.states.empty())
        return 1.0;
    return spec_.states[state_].rateFactor;
}

ArrivalProcess::Draw
ArrivalProcess::next(double ratePerSec, sim::Time now,
                     sim::Time horizon)
{
    advanceState(now);
    double rate = ratePerSec;
    sim::Time bound = horizon;
    if (spec_.kind == ArrivalKind::Mmpp && !spec_.states.empty()) {
        rate *= spec_.states[state_].rateFactor;
        if (stateEnd_ != sim::kTimeNever)
            bound = std::min(bound, stateEnd_ - now);
    }

    Draw d;
    if (rate <= 0) {
        // Idle: wake at the next horizon to re-evaluate the rate.
        d.gap = bound != sim::kTimeNever ? std::max<sim::Time>(1, bound)
                                         : sim::milliseconds(1);
        d.arrival = false;
        return d;
    }

    const double meanGapNs = 1e9 / rate;
    const double gapNs = spec_.kind == ArrivalKind::Deterministic
        ? meanGapNs
        : rng_.exponential(meanGapNs);
    const auto gap =
        static_cast<sim::Time>(std::max(1.0, gapNs));
    if (bound != sim::kTimeNever && gap > bound) {
        // Overshot a rate-change boundary: truncate to a resample
        // checkpoint. Memorylessness makes this bias-free for the
        // Poisson kinds; deterministic pacing just re-paces.
        d.gap = std::max<sim::Time>(1, bound);
        d.arrival = false;
        return d;
    }
    d.gap = gap;
    d.arrival = true;
    return d;
}

} // namespace ditto::workload
