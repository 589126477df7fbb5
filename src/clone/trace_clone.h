/**
 * @file
 * Trace-driven cloning: from a foreign Jaeger trace file to a
 * runnable Deployment, closing the paper's own loop (Sec. 4.2).
 *
 * The existing clone pipeline (core/ditto.h) consumes full
 * ServiceProfiles gathered by instrumenting a system we run
 * ourselves. This module is the inverse, trace-only pipeline for
 * systems we do NOT control: the sole input is a distributed-tracing
 * export. Stages:
 *
 *   1. ingest   -- tolerant Jaeger import (obs::importJaegerJson with
 *                  an ImportReport) + core::analyzeTopology.
 *   2. model    -- per-service endpoint statistics from the spans:
 *                  request counts, per-endpoint exclusive service
 *                  time (span duration minus child server spans,
 *                  fitted into a LatencyHistogram), per caller-
 *                  endpoint downstream call rates and byte averages,
 *                  async detection from overlapping child spans.
 *   3. synthesize -- ServiceSpecs whose handlers reproduce the
 *                  observed fan-out (integer part as unconditional
 *                  RPCs, fractional part as a probabilistic Choice),
 *                  byte sizes (rounded averages ride on RpcCallSpec
 *                  so re-analyzed edges match), and service time
 *                  (compute + quantile-weighted sleeps), plus a
 *                  LoadSpec matching the observed root endpoint mix.
 *   4. closure  -- run the clone, re-export its traces, re-analyze,
 *                  and diff against the ingested topology under
 *                  explicit FidelityTolerance bounds.
 *
 * Everything here is a pure function of (input bytes, options), so
 * closure runs fanned out over sim::RunExecutor stay byte-identical
 * at any --jobs (DESIGN.md §8).
 */

#ifndef DITTO_CLONE_TRACE_CLONE_H_
#define DITTO_CLONE_TRACE_CLONE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "app/program.h"
#include "core/topology_analyzer.h"
#include "obs/jaeger.h"
#include "sim/time.h"
#include "stats/histogram.h"
#include "workload/loadgen.h"

namespace ditto::clone {

/** One observed downstream call pattern of a caller endpoint. */
struct CallModel
{
    std::string callee;
    std::uint32_t calleeEndpoint = 0;
    /** Mean calls per request hitting the caller endpoint. */
    double callsPerRequest = 0;
    double avgRequestBytes = 0;   //!< 0 = unobserved (derived edge)
    double avgResponseBytes = 0;  //!< 0 = unobserved
};

/** Statistics of one service endpoint recovered from the trace. */
struct EndpointModel
{
    std::string name;        //!< operationName (or "ep<i>")
    double requests = 0;     //!< server spans observed
    /** Exclusive service time: duration minus child server spans. */
    stats::LatencyHistogram exclusiveNs;
    double meanExclusiveNs = 0;
    /** Mean bytes this endpoint returns to its callers. */
    double avgResponseBytes = 0;
    std::vector<CallModel> calls;  //!< sorted (callee, endpoint)
};

struct ServiceModel
{
    std::string name;
    bool async = false;  //!< children observed running concurrently
    double requests = 0;
    std::vector<EndpointModel> endpoints;  //!< index = endpoint id
};

/** Everything recovered from the ingested trace. */
struct TraceModel
{
    core::Topology topology;
    obs::ImportReport ingest;
    /** Dependency order (callees first), following topology. */
    std::vector<ServiceModel> services;
    std::string root;
    std::uint64_t traces = 0;
    std::uint64_t spans = 0;
    std::uint64_t edges = 0;

    const ServiceModel *find(const std::string &name) const;
};

struct IngestOptions
{
    obs::ImportOptions import;
};

/** Stages 1+2: parse, validate, and model a Jaeger document. */
TraceModel ingestTraceJson(const std::string &json,
                           const IngestOptions &opts = {});

struct SynthesisOptions
{
    unsigned workersPerService = 4;
    /** Instructions per synthesized handler compute block. */
    unsigned handlerInsts = 64;
    /** Cap on compute iterations modeling exclusive time. */
    std::uint64_t maxComputeIters = 64;
    /** Request bytes when the trace did not record them. */
    std::uint32_t defaultRequestBytes = 128;
    std::uint32_t defaultResponseBytes = 256;
    std::uint64_t seed = 0xc10e;
};

/** Stage 3 output: deployable specs plus a matching load mix. */
struct SynthesizedClone
{
    /** Dependency order (callees first); deploy in this order. */
    std::vector<app::ServiceSpec> specs;
    std::string root;
    workload::LoadSpec load;  //!< endpoint mix from the root model

    const app::ServiceSpec *find(const std::string &name) const;
};

SynthesizedClone synthesizeClone(const TraceModel &model,
                                 const SynthesisOptions &opts = {});

/** Acceptance bounds for the closure diff. */
struct FidelityTolerance
{
    /** Per-edge calls/request: |clone - orig| <= max(abs, rel*orig). */
    double rateAbs = 0.08;
    double rateRel = 0.10;
    /** Per-edge byte averages, same max(abs, rel*orig) rule. */
    double bytesAbs = 1.0;
    double bytesRel = 0.02;
};

struct FidelityReport
{
    bool isomorphic = false;  //!< nodes, edges, and root all match
    bool pass = false;        //!< isomorphic && all edges in bounds
    double maxRateErr = 0;        //!< worst |clone-orig| calls/request
    double maxRateErrPct = 0;     //!< worst relative rate error (%)
    double maxRequestBytesErrPct = 0;
    double maxResponseBytesErrPct = 0;
    /** Human-readable mismatches (empty when pass). */
    std::vector<std::string> diffs;
};

/**
 * Stage 4 diff: graph isomorphism is exact (same services, same
 * (caller, callee, endpoint) edge set, same root); per-edge call
 * rates and byte averages within tolerance. Edges whose original
 * byte stats were unobserved (derived edges, averages of 0) are
 * exempt from the byte comparison.
 */
FidelityReport compareTopologies(const core::Topology &original,
                                 const core::Topology &cloned,
                                 const FidelityTolerance &tol = {});

struct ClosureOptions
{
    IngestOptions ingest;
    SynthesisOptions synthesis;
    FidelityTolerance tolerance;
    double qps = 2000;
    unsigned connections = 8;
    unsigned machines = 2;
    sim::Time warmup = sim::milliseconds(50);
    sim::Time measure = sim::milliseconds(400);
    std::uint64_t seed = 1;
    /**
     * Drive the clone with the sessionized WorkloadEngine instead of
     * the plain LoadGen: the synthesized endpoint mix becomes the
     * engine's endpoint classes (same weights and request sizes) and
     * `qps` stays the offered *call* rate. Session root spans are
     * disabled in this mode so the re-analyzed topology still
     * contains exactly the cloned service graph.
     */
    bool sessionized = false;
};

/** Full ingest -> clone -> run -> re-export -> re-analyze result. */
struct ClosureResult
{
    TraceModel model;
    SynthesizedClone clone;
    core::Topology reanalyzed;
    FidelityReport fidelity;
    std::string cloneTraceJson;   //!< the clone run's Jaeger export
    std::uint64_t cloneRequests = 0;  //!< root server spans produced
    /** Measured-window latency at the root (LatencyHistogram::since). */
    std::uint64_t windowP50Ns = 0;
    std::uint64_t windowP99Ns = 0;

    /**
     * Deterministic multi-line text summary (model, per-edge errors,
     * verdict). Byte-identical across --jobs for identical inputs;
     * the determinism tests compare these strings directly.
     */
    std::string report() const;
};

/**
 * Run the whole pipeline on one Jaeger document. Pure function of
 * (json, opts): deterministic across processes and RunExecutor
 * worker counts. Throws on import errors (see obs::ImportOptions).
 */
ClosureResult runClosure(const std::string &json,
                         const ClosureOptions &opts = {});

} // namespace ditto::clone

#endif // DITTO_CLONE_TRACE_CLONE_H_
