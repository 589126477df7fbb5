/**
 * @file
 * Seeded synthetic topology generator (Palette-style).
 *
 * Emits the ServiceSpecs of a layered microservice application of
 * configurable scale: one root service fanning into `depth - 1`
 * further levels, every service reachable from the root, all RPC
 * edges pointing from shallower to deeper levels (so the graph is
 * acyclic by construction). Fan-out, client model (sync/async), and
 * leaf file I/O are sampled from a generator-owned seeded Rng, making
 * the emitted topology a pure function of the TopoSpec -- the
 * thousand-service scale benchmark (bench_scale) relies on that to
 * stay byte-identical at any --jobs.
 *
 * deployTopology() places the generated services across a machine
 * pool with the capacity-aware Placer and wires the deployment,
 * returning the root instance for a LoadGen to aim at.
 */

#ifndef DITTO_CLUSTER_TOPO_GEN_H_
#define DITTO_CLUSTER_TOPO_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "app/program.h"

namespace ditto::app {
class Deployment;
class ServiceInstance;
} // namespace ditto::app

namespace ditto::cluster {

struct TopoSpec
{
    /** Service count, including the root. */
    unsigned services = 100;
    /** Levels in the layered graph (>= 1). */
    unsigned depth = 4;
    /**
     * Per-edge RPC deadline applied to every service (0 disables).
     * Without it a saturated downstream stalls its callers without
     * bound and the latency of the whole tree diverges.
     */
    sim::Time rpcDeadline = sim::milliseconds(10);
    /** Worker threads per service. */
    unsigned workersPerService = 2;
    std::uint64_t seed = 1;

    // ---- production shape knobs (all off by default; when off the
    // ---- generator draws exactly the same Rng sequence as before,
    // ---- so existing seeds stay byte-identical) ---------------------

    /**
     * Entry queries per service. Production services expose several
     * operations with distinct cost and response-size profiles; extra
     * endpoints ("req1", "req2", ...) share endpoint 0's call pattern
     * but run progressively heavier compute and return progressively
     * larger responses.
     */
    unsigned endpointsPerService = 1;
    /**
     * Shared stateful backends ("db0", ...). Each leaf service calls
     * one sampled backend per request; backends serialize on a lock
     * and touch a prewarmed file, modeling the databases and caches
     * many production call paths converge on.
     */
    unsigned sharedBackends = 0;
    /**
     * When > 0, the per-service extra fan-out count is drawn from a
     * Pareto tail with this alpha instead of uniform 0..kExtraFanout:
     * most services keep small fan-out while a few become the
     * hub-like aggregators real traces show. Smaller alpha = heavier
     * tail; counts are still capped by the deeper-level population.
     */
    double fanoutTailAlpha = 0.0;
    /**
     * Probability that a service at level >= 2 gains a second parent
     * one level up, forming diamond dependencies (two paths from a
     * common ancestor reconverging on the same callee).
     */
    double diamondProbability = 0.0;
};

struct GeneratedTopology
{
    /** specs[0] is the root; shared backends (if any) come last. */
    std::vector<app::ServiceSpec> specs;
    /** Level of each service (0 = root; backends = depth). */
    std::vector<unsigned> level;
    /** Total caller->callee edges emitted. */
    std::size_t edges = 0;
    /** Shared stateful backends appended to `specs`. */
    unsigned backends = 0;
};

/** Generate the layered topology described by `spec`. */
GeneratedTopology generateTopology(const TopoSpec &spec);

/**
 * Create `machineCount` machines (hw::platformA, named "m<i>"),
 * deploy every generated service through a capacity-aware Placer
 * (slots sized so the pool fits the topology exactly), and wireAll.
 * Returns the root instance.
 */
app::ServiceInstance &deployTopology(app::Deployment &dep,
                                     const GeneratedTopology &topo,
                                     unsigned machineCount);

} // namespace ditto::cluster

#endif // DITTO_CLUSTER_TOPO_GEN_H_
