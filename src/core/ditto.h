/**
 * @file
 * Ditto facade: end-to-end cloning workflows.
 *
 * cloneService: profile a running single-tier service and emit a
 * deployable synthetic ServiceSpec (optionally fine-tuned on a
 * sandbox deployment of the profiling platform).
 *
 * cloneTopology: profile every tier of a running microservice
 * deployment, recover the RPC DAG from traces, and emit one clone
 * spec per tier with rewired downstream references -- the full
 * Sec. 4 pipeline.
 */

#ifndef DITTO_CORE_DITTO_H_
#define DITTO_CORE_DITTO_H_

#include <map>
#include <string>
#include <vector>

#include "app/deployment.h"
#include "core/body_generator.h"
#include "core/fine_tuner.h"
#include "core/skeleton_analyzer.h"
#include "core/skeleton_generator.h"
#include "core/topology_analyzer.h"
#include "profile/session.h"
#include "workload/loadgen.h"

namespace ditto::core {

/** Options for the cloning workflows. */
struct CloneOptions
{
    profile::ProfileOptions profiling;
    GenerationConfig gen;
    bool fineTune = true;
    unsigned maxTuneIterations = 10;
    double tuneTolerance = 0.05;
    std::string cloneSuffix = "_clone";
    /** Warm/measure windows for fine-tuning sandbox runs. */
    sim::Time tuneWarmup = sim::milliseconds(150);
    sim::Time tuneWindow = sim::milliseconds(250);
    /**
     * Optional executor for concurrent fine-tune candidate
     * evaluation (see TuneOptions::executor). Results are identical
     * at any worker count, and with no executor; only wall-clock
     * time changes.
     */
    sim::RunExecutor *executor = nullptr;
};

/** Everything produced while cloning one service. */
struct CloneResult
{
    app::ServiceSpec spec;
    profile::ServiceProfile profile;
    SkeletonInference skeleton;
    GenerationConfig config;
    TuneResult tuning;
};

/**
 * Map a load spec onto a clone: same traffic process and request
 * sizes, but all endpoints collapse to the clone's single endpoint.
 */
workload::LoadSpec cloneLoadSpec(const workload::LoadSpec &original);

/**
 * Profile `svc` (already under load inside `dep`) and generate its
 * clone. Fine tuning deploys candidate clones in fresh sandbox
 * deployments on `platform` driven by `loadSpec`.
 */
CloneResult cloneService(app::Deployment &dep,
                         app::ServiceInstance &svc,
                         const workload::LoadSpec &loadSpec,
                         const hw::PlatformSpec &platform,
                         const CloneOptions &opts = {});

/** Result of cloning a whole topology. */
struct TopologyCloneResult
{
    /** Clone specs in dependency order (deploy in this order). */
    std::vector<app::ServiceSpec> specs;
    Topology topology;
    std::map<std::string, CloneResult> perService;
    /** Clone name of the entry tier. */
    std::string rootClone;
};

/**
 * Clone every tier of a running multi-tier deployment. The topology
 * is recovered from the deployment's tracer; tiers are profiled one
 * at a time under the existing load.
 */
TopologyCloneResult cloneTopology(app::Deployment &dep,
                                  const std::vector<std::string> &tiers,
                                  unsigned rootConnections,
                                  const CloneOptions &opts = {});

} // namespace ditto::core

#endif // DITTO_CORE_DITTO_H_
