/**
 * @file
 * Chaos fuzzing with fault-plan shrinking.
 *
 * The chaos runner drives seeded random FaultPlans against a seeded
 * topo_gen topology whose services have every request-lifecycle
 * mechanism armed (deadline propagation, cooperative cancellation,
 * hedging, retries, breakers, shedding), then checks *global
 * invariants* that must hold no matter what was injected:
 *
 *  - network message and byte ledgers balance exactly,
 *  - client-side request conservation (sent == ok+error+shed+timeout),
 *  - per-service RPC outcome conservation
 *    (started == ok + timeout + breaker-fast-fail + cancelled),
 *  - no orphan in-flight work after the drain window,
 *  - ServiceStats, syscall-probe, and tracer books reconcile.
 *
 * On a violation the offending plan is *shrunk* ddmin-style (drop
 * fault chunks, then bisect windows) to a minimal reproducer that
 * still violates, and formatted as ready-to-paste FaultPlan builder
 * code. Everything is a pure function of the config seed: the same
 * seed always produces the same plans, verdicts, and reproducer.
 *
 * The `plantLedgerBug` flag is a test fixture: it makes the network
 * message-ledger checker "forget" the dropped term, so any plan that
 * drops at least one message is flagged -- proving the fuzzer catches
 * (and minimally reproduces) a real accounting bug.
 *
 * With `regions > 0` the fuzzed world is multi-region: machines live
 * in regions "r0".."r<n-1>" over a seeded WAN mesh, the root balances
 * prefer-local, replicas of the replicated services spread across
 * regions with a RegionFailoverMonitor armed per group, and the
 * sampled fault kinds grow to include RegionPartition, RegionOutage,
 * and WanDegrade. Two invariant groups join the checks: per-WAN-link
 * message/byte ledgers and per-region RPC outcome conservation (no
 * call settled twice -- or lost -- across a failover reroute).
 * `plantWanLedgerBug` is the region-scoped fixture twin of
 * `plantLedgerBug`: the per-link ledger checker forgets its dropped
 * term, so any plan that drops a message on a WAN link is flagged and
 * shrunk to the region fault window that caused it.
 */

#ifndef DITTO_CHAOS_CHAOS_H_
#define DITTO_CHAOS_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "sim/run_executor.h"
#include "sim/time.h"

namespace ditto::chaos {

/** Everything a chaos campaign is a pure function of. */
struct ChaosConfig
{
    /** Master seed: plan seeds and verdicts derive from it alone. */
    std::uint64_t seed = 1;
    // ---- topology / load (constant across plans) --------------------
    unsigned services = 10;
    unsigned depth = 3;
    unsigned machines = 3;
    /**
     * Regions the machines spread over (0 = single-region world,
     * region mechanisms fully off). When > 0, region-scoped fault
     * kinds join the sampling space and the region invariant groups
     * are checked.
     */
    unsigned regions = 0;
    double qps = 5000;
    unsigned connections = 8;
    /**
     * Drive the world with the sessionized WorkloadEngine (MMPP
     * session arrivals, think times, per-session connection
     * affinity) instead of the plain open-loop LoadGen. The same
     * client-side conservation invariant is checked against the
     * engine's counters -- faults must not lose or double-settle a
     * call no matter which client model offered it.
     */
    bool sessions = false;
    /**
     * Arm adaptive overload control on every service: AIMD
     * concurrency limits, sojourn/deadline shedding, brownout on
     * optional RPC edges, and retry budgets (client-side too when
     * `sessions` is set). Adds the overload shed/skip causes to the
     * outcome mix the invariants must conserve; the fault-kind
     * sampling space is unchanged, so seed-for-seed plan sequences
     * are byte-identical with the flag off.
     */
    bool overload = false;
    /** Load window (faults are sampled inside it). */
    sim::Time runFor = sim::milliseconds(25);
    /** Quiet tail for in-flight work to settle before checking. */
    sim::Time drain = sim::milliseconds(25);
    /**
     * Generate the world with production characteristics (multiple
     * entry queries per service, shared stateful backends,
     * heavy-tailed fan-out, diamond dependencies) instead of the
     * plain layered tree. Widens the shape space the invariant
     * checkers run against.
     */
    bool prodShapes = false;
    // ---- fixtures / limits ------------------------------------------
    /** Test fixture: break the message-ledger checker (see @file). */
    bool plantLedgerBug = false;
    /** Test fixture: break the per-WAN-link ledger checker. */
    bool plantWanLedgerBug = false;
    /** Cap on runPlan() probes one shrink may spend. */
    unsigned maxShrinkProbes = 120;
};

/** Aggregate outcome mix of one plan run (for reporting). */
struct OutcomeMix
{
    std::uint64_t clientSent = 0;
    std::uint64_t clientOk = 0;
    std::uint64_t clientError = 0;
    std::uint64_t clientShed = 0;
    std::uint64_t clientTimedOut = 0;
    std::uint64_t clientLate = 0;
    std::uint64_t cancelsSent = 0;
    std::uint64_t rpcOk = 0;
    std::uint64_t rpcTimeouts = 0;
    std::uint64_t rpcBreakerFastFails = 0;
    std::uint64_t rpcCancelled = 0;
    std::uint64_t rpcHedges = 0;
    std::uint64_t rpcHedgeWins = 0;
    std::uint64_t requestsShed = 0;
    std::uint64_t requestsCancelled = 0;

    OutcomeMix &operator+=(const OutcomeMix &o);
};

/** Verdict of one plan run. */
struct PlanRunResult
{
    /** Human-readable invariant violations; empty means clean. */
    std::vector<std::string> violations;
    OutcomeMix mix;

    bool ok() const { return violations.empty(); }
};

/** Sample a random fault plan; pure function of (cfg, planSeed). */
fault::FaultPlan generateRandomPlan(const ChaosConfig &cfg,
                                    std::uint64_t planSeed);

/**
 * Build the deployment, install `plan`, run load + drain, and check
 * every invariant. Fully self-contained and deterministic.
 */
PlanRunResult runPlan(const ChaosConfig &cfg,
                      const fault::FaultPlan &plan);

/** Result of shrinking one violating plan. */
struct ShrinkResult
{
    /** Minimal plan that still violates. */
    fault::FaultPlan plan;
    /** Violations of the shrunk plan. */
    std::vector<std::string> violations;
    /** runPlan() probes spent. */
    unsigned probes = 0;
};

/**
 * ddmin-style minimization: repeatedly drop complement chunks of the
 * fault list, then bisect the surviving windows, keeping every
 * candidate that still violates. Bounded by cfg.maxShrinkProbes.
 * `plan` must violate under `cfg` (callers obtain it from a failing
 * runPlan).
 */
ShrinkResult shrinkPlan(const ChaosConfig &cfg,
                        const fault::FaultPlan &plan);

/** Ready-to-paste FaultPlan builder code reproducing `plan`. */
std::string formatFaultPlan(const fault::FaultPlan &plan);

/** One campaign entry: the plan, its seed, and its verdict. */
struct PlanReport
{
    std::uint64_t planSeed = 0;
    fault::FaultPlan plan;
    PlanRunResult result;
};

/** Campaign outcome: per-plan reports in plan order. */
struct ChaosReport
{
    std::vector<PlanReport> plans;

    unsigned violating() const;
};

/**
 * Run `planCount` seeded plans. With an executor, plans run in
 * parallel but reports come back in plan order, so output built from
 * them is byte-identical at any job count.
 */
ChaosReport runChaos(const ChaosConfig &cfg, unsigned planCount,
                     sim::RunExecutor *executor = nullptr);

} // namespace ditto::chaos

#endif // DITTO_CHAOS_CHAOS_H_
