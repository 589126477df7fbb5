#include "core/ditto.h"

#include "profile/perf_report.h"

namespace ditto::core {

workload::LoadSpec
cloneLoadSpec(const workload::LoadSpec &original)
{
    workload::LoadSpec spec = original;
    for (auto &ep : spec.endpoints)
        ep.endpoint = 0;  // clones expose a single endpoint
    return spec;
}

namespace {

/** Deploy a candidate clone in a sandbox and measure its counters. */
profile::PerfReport
runCandidate(const app::ServiceSpec &spec,
             const workload::LoadSpec &loadSpec,
             const hw::PlatformSpec &platform, sim::Time warmup,
             sim::Time window, std::uint64_t seed)
{
    app::Deployment sandbox(seed);
    os::Machine &machine = sandbox.addMachine("tune", platform);
    app::ServiceInstance &svc = sandbox.deploy(spec, machine);
    sandbox.wireAll();
    workload::LoadGen gen(sandbox, svc, loadSpec, seed ^ 0x7e57);
    gen.start();
    sandbox.runFor(warmup);
    sandbox.beginMeasureAll();
    gen.beginMeasure();
    sandbox.runFor(window);
    profile::PerfReport report = profile::snapshotService(svc);
    profile::overrideLatency(report, gen.latency());
    return report;
}

/** The load a tier is tuned under, given its profile. */
using TuneLoad =
    std::function<workload::LoadSpec(const profile::ServiceProfile &)>;

/**
 * The per-tier half of both facades: profile `svc`, infer its
 * skeleton as seen by `connections` client connections and, with
 * fine tuning on, tune the generator config against the profiled
 * reference in sandbox deployments on `platform` seeded
 * `sandboxSeed`, driven by `tuneLoad(profile)`. Candidates omit RPC
 * edges (downstreams don't exist in the sandbox; the CPU counters
 * the tuner matches are unaffected). The caller generates `spec`,
 * since only it knows the tier's edges.
 */
CloneResult
cloneTier(app::Deployment &dep, app::ServiceInstance &svc,
          unsigned connections, const TuneLoad &tuneLoad,
          const hw::PlatformSpec &platform, std::uint64_t sandboxSeed,
          const CloneOptions &opts)
{
    CloneResult clone;
    clone.profile = profile::profileService(dep, svc, opts.profiling);
    clone.skeleton = analyzeSkeleton(
        clone.profile.threads, opts.profiling.window, connections,
        clone.profile.asyncEvidence);
    clone.config = opts.gen;
    if (!opts.fineTune)
        return clone;

    const workload::LoadSpec load = tuneLoad(clone.profile);
    const std::map<std::string, std::string> nameMap = {
        {svc.name(), svc.name() + opts.cloneSuffix}};
    CloneRunner runner = [&](const GenerationConfig &cfg) {
        const app::ServiceSpec candidate = generateClone(
            clone.profile, clone.skeleton, {}, nameMap, cfg);
        return runCandidate(candidate, load, platform, opts.tuneWarmup,
                            opts.tuneWindow, sandboxSeed);
    };
    TuneOptions tuneOpts;
    tuneOpts.maxIterations = opts.maxTuneIterations;
    tuneOpts.tolerance = opts.tuneTolerance;
    tuneOpts.executor = opts.executor;
    clone.tuning =
        fineTune(clone.profile.reference, opts.gen, runner, tuneOpts);
    clone.config = clone.tuning.config;
    return clone;
}

} // namespace

CloneResult
cloneService(app::Deployment &dep, app::ServiceInstance &svc,
             const workload::LoadSpec &loadSpec,
             const hw::PlatformSpec &platform, const CloneOptions &opts)
{
    CloneResult result = cloneTier(
        dep, svc, loadSpec.connections,
        [&loadSpec](const profile::ServiceProfile &) {
            return cloneLoadSpec(loadSpec);
        },
        platform, dep.seed() ^ 0x745e5eedull, opts);
    result.spec = generateClone(
        result.profile, result.skeleton, {},
        {{svc.name(), svc.name() + opts.cloneSuffix}}, result.config);
    return result;
}

TopologyCloneResult
cloneTopology(app::Deployment &dep,
              const std::vector<std::string> &tiers,
              unsigned rootConnections, const CloneOptions &opts)
{
    TopologyCloneResult result;

    // 1. Recover the DAG from the traces collected so far plus the
    //    profiling windows below.
    // 2. Profile each tier in turn while the whole topology runs.
    std::map<std::string, std::string> nameMap;
    for (const std::string &tier : tiers)
        nameMap[tier] = tier + opts.cloneSuffix;

    // Each tier is tuned at the rate and request sizes it actually
    // observed in situ.
    const TuneLoad tierLoad = [&opts, rootConnections](
                                  const profile::ServiceProfile &prof) {
        workload::LoadSpec load;
        load.qps = prof.requestsObserved /
            sim::toSeconds(opts.profiling.window);
        load.connections = std::min(16u, rootConnections);
        load.openLoop = true;
        const auto req = static_cast<std::uint32_t>(
            std::max(32.0, prof.avgRequestBytes));
        load.endpoints = {{0, 1.0, req, req}};
        return load;
    };
    for (const std::string &tier : tiers) {
        app::ServiceInstance *svc = dep.find(tier);
        if (!svc)
            continue;
        result.perService.emplace(
            tier, cloneTier(dep, *svc, rootConnections, tierLoad,
                            svc->machine().spec(),
                            dep.seed() ^ 0x7e57e4, opts));
    }

    result.topology = analyzeTopology(dep.tracer());

    // 3. Generate clones in dependency order so downstream clones
    //    exist before their callers are deployed.
    for (const std::string &tier : result.topology.services) {
        auto it = result.perService.find(tier);
        if (it == result.perService.end())
            continue;
        CloneResult &clone = it->second;
        clone.spec = generateClone(
            clone.profile, clone.skeleton,
            result.topology.outEdges(tier), nameMap, clone.config);
        result.specs.push_back(clone.spec);
    }
    // Tiers never seen in traces (no spans) still need clones if
    // requested; generate them without RPC edges.
    for (const std::string &tier : tiers) {
        auto it = result.perService.find(tier);
        if (it == result.perService.end())
            continue;
        if (!result.topology.contains(tier)) {
            CloneResult &clone = it->second;
            clone.spec = generateClone(clone.profile, clone.skeleton,
                                       {}, nameMap, clone.config);
            result.specs.push_back(clone.spec);
        }
    }

    if (!result.topology.root.empty())
        result.rootClone = nameMap[result.topology.root];
    return result;
}

} // namespace ditto::core
