/**
 * @file
 * Arrival processes and time-varying traffic shapes.
 *
 * The workload engine separates *when* clients show up from *what*
 * they do once they have. This file owns the "when": a pluggable
 * arrival process (Poisson, Markov-modulated Poisson with seeded
 * state switching, deterministic pacing) modulated by a rate curve
 * (diurnal sinusoid, linear ramp, flash-crowd step with decay).
 *
 * Everything is a pure function of (spec, seed, query times), so a
 * run is bit-identical at any RunExecutor worker count (DESIGN.md
 * §8). Rate changes are honored without bias by exploiting the
 * exponential's memorylessness: a sampled gap that overshoots the
 * next rate-change horizon is truncated to a resample checkpoint
 * instead of an arrival, which is statistically equivalent to having
 * sampled at the piecewise-constant rate in the first place.
 */

#ifndef DITTO_WORKLOAD_ARRIVALS_H_
#define DITTO_WORKLOAD_ARRIVALS_H_

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace ditto::workload {

/** How inter-arrival gaps are drawn. */
enum class ArrivalKind : std::uint8_t
{
    Poisson,       //!< exponential gaps (open-loop internet traffic)
    Mmpp,          //!< Markov-modulated Poisson (bursty, correlated)
    Deterministic, //!< fixed 1/rate pacing (benchmark drivers)
};

/** One MMPP state: a rate multiplier held for an exponential dwell. */
struct MmppState
{
    double rateFactor = 1.0;
    sim::Time meanDwell = sim::milliseconds(10);
};

struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /**
     * MMPP state machine (kind == Mmpp). Switching is seeded: dwell
     * times are exponential with the state's mean, and the successor
     * state is drawn uniformly among the *other* states, so any
     * 2+-state chain keeps moving. Ignored by the other kinds.
     */
    std::vector<MmppState> states = {{0.4, sim::milliseconds(10)},
                                     {2.5, sim::milliseconds(4)}};
};

/** Shape of the offered-rate curve over simulated time. */
enum class ShapeKind : std::uint8_t
{
    Constant,   //!< flat offered rate
    Diurnal,    //!< sinusoid: rate * (1 + amplitude * sin(2pi t/period))
    Ramp,       //!< linear startFactor -> endFactor over rampDuration
    FlashCrowd, //!< step to stepMagnitude at stepAt, geometric decay
};

/** Human-readable shape name. */
const char *shapeKindName(ShapeKind kind);

/**
 * Time-varying multiplier applied to the base offered rate. Pure
 * function of (spec, now); negative excursions clamp to zero.
 */
struct RateCurve
{
    ShapeKind kind = ShapeKind::Constant;
    // ---- Diurnal ----------------------------------------------------
    double amplitude = 0.5;
    sim::Time period = sim::seconds(1);
    // ---- Ramp -------------------------------------------------------
    double startFactor = 1.0;
    double endFactor = 1.0;
    sim::Time rampDuration = sim::seconds(1);
    // ---- FlashCrowd -------------------------------------------------
    sim::Time stepAt = 0;
    double stepMagnitude = 4.0;
    /** Time for the excess (factor - 1) to halve after the step. */
    sim::Time decayHalfLife = sim::milliseconds(200);

    /** Rate multiplier at `now` (>= 0). */
    double factorAt(sim::Time now) const;

    /**
     * How far ahead the multiplier can be treated as constant: gaps
     * sampled past this horizon must be truncated to a resample
     * checkpoint (see ArrivalProcess::next). kTimeNever for Constant
     * and for curves that have flattened out.
     */
    sim::Time refreshHorizon(sim::Time now) const;
};

/**
 * Stateful gap sampler. One instance per engine/client; owns the
 * MMPP state chain so the modulation is continuous across draws.
 */
class ArrivalProcess
{
  public:
    ArrivalProcess(ArrivalSpec spec, sim::Rng rng);

    /** One draw: either an arrival or a resample checkpoint. */
    struct Draw
    {
        sim::Time gap = 0;    //!< schedule the next event this far out
        bool arrival = false; //!< true: send; false: just resample
    };

    /**
     * Sample the next inter-arrival gap at `ratePerSec` (the curve-
     * modulated offered rate, events/second). `horizon` bounds how
     * long the caller's rate is valid (RateCurve::refreshHorizon);
     * draws overshooting min(horizon, MMPP state boundary) come back
     * as non-arrival checkpoints. A non-positive rate yields a
     * checkpoint at `horizon` (or 1ms when the horizon is never).
     */
    Draw next(double ratePerSec, sim::Time now,
              sim::Time horizon = sim::kTimeNever);

    /** Current MMPP rate multiplier (1.0 for non-MMPP kinds). */
    double stateFactor(sim::Time now);

    const ArrivalSpec &spec() const { return spec_; }

  private:
    ArrivalSpec spec_;
    sim::Rng rng_;
    std::size_t state_ = 0;
    /** Absolute end of the current MMPP dwell (kTimeNever if N<2). */
    sim::Time stateEnd_ = 0;
    bool stateInit_ = false;

    void advanceState(sim::Time now);
};

} // namespace ditto::workload

#endif // DITTO_WORKLOAD_ARRIVALS_H_
