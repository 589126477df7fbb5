/**
 * @file
 * Ten-thousand-service scale benchmark for the cluster subsystem.
 *
 * Sweeps synthetic layered topologies (cluster/topo_gen.h) from 10 to
 * 10,000 services, drives the root with an open-loop client, and runs
 * the autoscaler on the root's hottest downstream group. Per size it
 * reports topology shape, delivered load, executed simulation events,
 * end-to-end p95, and the autoscaler's actions; wall-clock and
 * per-event ns go to stderr and BENCH_pipeline.json (the
 * "scale_per_event_ns" entry), and so does the process's peak RSS
 * after the sweep ("scale_peak_rss_mb"; at --jobs 1 that is the
 * 10k-service row's peak). The sweep fans out on the RunExecutor
 * and all stdout is printed after the ordered join, so output is
 * byte-identical at any --jobs.
 */

#include <sys/resource.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "app/deployment.h"
#include "bench/bench_common.h"
#include "cluster/autoscaler.h"
#include "cluster/replica_set.h"
#include "cluster/topo_gen.h"
#include "obs/metrics.h"
#include "obs/register.h"
#include "workload/loadgen.h"

using namespace ditto;

namespace {

struct ScaleCase
{
    unsigned services;
    unsigned depth;
    unsigned machines;
    double qps;
    sim::Time warm;
    sim::Time measure;
    /**
     * Generate with production characteristics: multiple entry
     * queries, shared stateful backends, heavy-tailed fan-out, and
     * diamond dependencies (topo_gen's shape knobs).
     */
    bool prod = false;
};

struct ScaleRow
{
    unsigned services = 0;
    std::size_t edges = 0;
    unsigned machines = 0;
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    double p95Ms = 0;
    std::uint64_t scaleUps = 0;
    std::uint64_t scaleDowns = 0;
    std::size_t replicas = 0;
    /** Simulation events executed (deterministic, printed). */
    std::uint64_t events = 0;
    double wallSeconds = 0;
    /** Wall-clock of the event-execution phase only (warm+measure). */
    double simSeconds = 0;
};

ScaleRow
runScaleCase(const ScaleCase &sc)
{
    const auto wallStart = std::chrono::steady_clock::now();

    cluster::TopoSpec topo;
    topo.services = sc.services;
    topo.depth = sc.depth;
    topo.seed = 42;
    if (sc.prod) {
        topo.endpointsPerService = 2;
        topo.sharedBackends = 3;
        topo.fanoutTailAlpha = 1.2;
        topo.diamondProbability = 0.35;
    }
    const cluster::GeneratedTopology gen =
        cluster::generateTopology(topo);

    app::Deployment dep(1234, /*traceSampleRate=*/0.05);
    app::ServiceInstance &root =
        cluster::deployTopology(dep, gen, sc.machines);

    obs::MetricsRegistry metrics;
    obs::registerDeploymentMetrics(metrics, dep);

    // Autoscale the root's first downstream: every request hits it,
    // making it the natural hot spot of the layered topology.
    const std::string hot = root.spec().downstreams.front();
    cluster::Placer placer;
    for (const auto &m : dep.machines())
        placer.addMachine(*m, 4);
    cluster::ReplicaSet set(dep, hot, placer, &metrics);
    cluster::AutoscalerSpec as;
    as.period = sim::milliseconds(5);
    as.cooldown = sim::milliseconds(15);
    as.queueHigh = 1.5;
    as.queueLow = 0.25;
    as.maxReplicas = 4;
    cluster::Autoscaler scaler(dep, set, metrics, as);
    scaler.start();

    workload::LoadSpec load;
    load.qps = sc.qps;
    load.connections = 8;
    load.openLoop = true;
    load.timeout = sim::milliseconds(20);
    if (sc.prod) {
        // Hit both entry queries of the production-shaped root.
        load.endpoints = {workload::EndpointLoad{0, 0.7, 64, 64},
                          workload::EndpointLoad{1, 0.3, 64, 64}};
    }
    workload::LoadGen gen2(dep, root, load, 91);

    const auto simStart = std::chrono::steady_clock::now();
    gen2.start();
    dep.runFor(sc.warm);
    dep.beginMeasureAll();
    dep.runFor(sc.measure);
    const double simSeconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  simStart)
                                  .count();

    ScaleRow row;
    row.services = sc.services;
    row.edges = gen.edges;
    row.machines = sc.machines;
    row.sent = gen2.sent();
    row.completed = gen2.completed();
    row.p95Ms = static_cast<double>(gen2.latency().percentile(0.95)) /
        1e6;
    row.scaleUps = scaler.stats().scaleUps;
    row.scaleDowns = scaler.stats().scaleDowns;
    row.replicas = set.active();
    row.events = dep.events().executedCount();
    row.simSeconds = simSeconds;
    row.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wallStart)
                          .count();
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchRuntime rt(argc, argv, "scale");

    const std::vector<ScaleCase> cases = {
        {10, 3, 2, 3000, sim::milliseconds(40), sim::milliseconds(80)},
        {100, 4, 4, 1200, sim::milliseconds(40),
         sim::milliseconds(80)},
        {1000, 6, 8, 600, sim::milliseconds(20),
         sim::milliseconds(40)},
        // Production shapes: shared backends, heavy-tailed fan-out,
        // diamonds, and a second entry query per service.
        {500, 5, 4, 800, sim::milliseconds(20), sim::milliseconds(40),
         /*prod=*/true},
        {10000, 8, 16, 300, sim::milliseconds(10),
         sim::milliseconds(20)},
    };

    std::vector<std::function<ScaleRow()>> tasks;
    for (const ScaleCase &sc : cases)
        tasks.push_back([sc] { return runScaleCase(sc); });
    const std::vector<ScaleRow> rows =
        rt.executor().runOrdered<ScaleRow>(std::move(tasks));

    std::printf("# bench_scale: layered topologies under autoscaling\n");
    std::printf("%8s %6s %8s %9s %10s %11s %8s %5s %5s %9s\n",
                "services", "edges", "machines", "sent", "completed",
                "events", "p95_ms", "up", "down", "replicas");
    std::string perEvent = "{";
    for (const ScaleRow &r : rows) {
        std::printf(
            "%8u %6zu %8u %9llu %10llu %11llu %8.3f %5llu %5llu %9zu\n",
            r.services, r.edges, r.machines,
            static_cast<unsigned long long>(r.sent),
            static_cast<unsigned long long>(r.completed),
            static_cast<unsigned long long>(r.events), r.p95Ms,
            static_cast<unsigned long long>(r.scaleUps),
            static_cast<unsigned long long>(r.scaleDowns),
            r.replicas);
        // Wall-derived numbers go to stderr/JSON only: stdout must
        // stay byte-identical across machines and worker counts.
        // Per-event cost uses the execution phase alone, so it is not
        // swamped by topology construction at the 10k size.
        const double perEventNs = r.events
            ? r.simSeconds * 1e9 / static_cast<double>(r.events)
            : 0;
        std::fprintf(stderr,
                     "[scale %u] wall %.2fs (sim %.2fs), "
                     "%.1f ns/event (%llu events)\n",
                     r.services, r.wallSeconds, r.simSeconds,
                     perEventNs,
                     static_cast<unsigned long long>(r.events));
        char cell[64];
        std::snprintf(cell, sizeof cell, "%s\"%u\": %.1f",
                      perEvent.size() > 1 ? ", " : "", r.services,
                      perEventNs);
        perEvent += cell;
    }
    perEvent += "}";
    bench::recordBenchEntry("scale_per_event_ns", perEvent);

    // Peak memory of the whole sweep; ru_maxrss is in KiB on Linux.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024;
    std::fprintf(stderr, "[scale] peak RSS %.1f MB (jobs=%u)\n",
                 peakRssMb, rt.jobs());
    char rss[64];
    std::snprintf(rss, sizeof rss,
                  "{\"peak_rss_mb\": %.1f, \"jobs\": %u}", peakRssMb,
                  rt.jobs());
    bench::recordBenchEntry("scale_peak_rss_mb", rss);

    rt.finish();
    return 0;
}
