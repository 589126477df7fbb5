#include "clone/trace_clone.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "app/deployment.h"
#include "app/service.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "trace/tracer.h"
#include "workload/engine.h"

namespace ditto::clone {

namespace {

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
fmt(const char *format, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof buf, format, ap);
    va_end(ap);
    return buf;
}

std::string
defaultEndpointName(std::uint32_t ep)
{
    return fmt("ep%u", ep);
}

/** (traceId, spanId) -> span index, for parentage lookups. */
using SpanIndex =
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t>;

TraceModel
buildModel(const trace::Tracer &tracer, obs::ImportReport ingest)
{
    TraceModel m;
    m.topology = core::analyzeTopology(tracer);
    m.root = m.topology.root;
    m.spans = tracer.spans().size();
    m.edges = tracer.edges().size();

    const auto &spans = tracer.spans();

    std::unordered_set<std::uint64_t> traceIds;
    SpanIndex byId;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        traceIds.insert(spans[i].traceId);
        byId.emplace(std::make_pair(spans[i].traceId,
                                    spans[i].spanId),
                     i);
    }
    m.traces = ingest.traces != 0 ? ingest.traces : traceIds.size();

    // Per-span total child server time (for exclusive service time)
    // and per-parent child intervals (for concurrency detection).
    std::vector<std::uint64_t> childNs(spans.size(), 0);
    std::map<std::size_t,
             std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        childIvals;
    for (const trace::Span &s : spans) {
        if (s.parentSpanId == 0)
            continue;
        const auto it =
            byId.find(std::make_pair(s.traceId, s.parentSpanId));
        if (it == byId.end())
            continue;
        const auto start = static_cast<std::uint64_t>(s.start);
        const auto end = static_cast<std::uint64_t>(s.end);
        if (end > start)
            childNs[it->second] += end - start;
        childIvals[it->second].emplace_back(start, end);
    }

    std::map<std::string, ServiceModel> byName;
    for (const std::string &name : m.topology.services) {
        ServiceModel &sm = byName[name];
        sm.name = name;
        const auto rit = m.topology.requestCounts.find(name);
        sm.requests = rit != m.topology.requestCounts.end()
            ? rit->second
            : 0.0;
    }

    const auto endpointRef = [](ServiceModel &sm,
                                std::uint32_t ep) -> EndpointModel & {
        if (sm.endpoints.size() <= ep)
            sm.endpoints.resize(ep + 1);
        return sm.endpoints[ep];
    };

    for (std::size_t i = 0; i < spans.size(); ++i) {
        const trace::Span &s = spans[i];
        const auto it = byName.find(s.service);
        if (it == byName.end())
            continue;
        EndpointModel &em = endpointRef(it->second, s.endpoint);
        em.requests += 1;
        const auto start = static_cast<std::uint64_t>(s.start);
        const auto end = static_cast<std::uint64_t>(s.end);
        const std::uint64_t dur = end > start ? end - start : 0;
        const std::uint64_t excl =
            dur > childNs[i] ? dur - childNs[i] : 0;
        em.exclusiveNs.record(excl);
    }

    // A service is async when the majority of its multi-child spans
    // show children running concurrently (overlapping intervals).
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        concurrency;  // service -> (multi-child spans, overlapping)
    for (auto &[parent, ivals] : childIvals) {
        if (ivals.size() < 2)
            continue;
        std::sort(ivals.begin(), ivals.end());
        bool overlap = false;
        for (std::size_t k = 1; k < ivals.size(); ++k) {
            if (ivals[k].first < ivals[k - 1].second) {
                overlap = true;
                break;
            }
        }
        auto &[multi, overlapping] = concurrency[spans[parent].service];
        ++multi;
        if (overlap)
            ++overlapping;
    }
    for (const auto &[service, counts] : concurrency) {
        const auto it = byName.find(service);
        if (it != byName.end())
            it->second.async = counts.second * 2 > counts.first;
    }

    // Downstream call statistics per caller *endpoint* (the topology
    // aggregates per caller service; handler synthesis needs to know
    // which endpoint issues the calls).
    struct CallAgg
    {
        double count = 0;
        double reqSum = 0, reqN = 0;
        double respSum = 0, respN = 0;
    };
    std::map<std::tuple<std::string, std::uint32_t, std::string,
                        std::uint32_t>,
             CallAgg>
        callAggs;
    std::map<std::pair<std::string, std::uint32_t>,
             std::pair<double, double>>
        respByCallee;  // (callee, ep) -> (sum, n)
    for (const trace::RpcEdge &e : tracer.edges()) {
        std::uint32_t callerEp = 0;
        if (e.parentSpanId != 0) {
            const auto it =
                byId.find(std::make_pair(e.traceId, e.parentSpanId));
            if (it != byId.end())
                callerEp = spans[it->second].endpoint;
        }
        CallAgg &a = callAggs[std::make_tuple(e.caller, callerEp,
                                              e.callee, e.endpoint)];
        a.count += 1;
        if (e.requestBytes != 0) {
            a.reqSum += e.requestBytes;
            a.reqN += 1;
        }
        if (e.responseBytes != 0) {
            a.respSum += e.responseBytes;
            a.respN += 1;
            auto &[sum, n] =
                respByCallee[std::make_pair(e.callee, e.endpoint)];
            sum += e.responseBytes;
            n += 1;
        }
    }
    for (const auto &[key, agg] : callAggs) {
        const auto &[caller, callerEp, callee, calleeEp] = key;
        const auto it = byName.find(caller);
        if (it == byName.end())
            continue;
        EndpointModel &em = endpointRef(it->second, callerEp);
        CallModel c;
        c.callee = callee;
        c.calleeEndpoint = calleeEp;
        c.callsPerRequest = agg.count / std::max(1.0, em.requests);
        c.avgRequestBytes = agg.reqN > 0 ? agg.reqSum / agg.reqN : 0;
        c.avgResponseBytes =
            agg.respN > 0 ? agg.respSum / agg.respN : 0;
        em.calls.push_back(std::move(c));
    }

    for (auto &[name, sm] : byName) {
        const auto names = ingest.endpointNames.find(name);
        for (std::size_t ep = 0; ep < sm.endpoints.size(); ++ep) {
            EndpointModel &em = sm.endpoints[ep];
            if (names != ingest.endpointNames.end() &&
                ep < names->second.size())
                em.name = names->second[ep];
            if (em.name.empty())
                em.name =
                    defaultEndpointName(static_cast<std::uint32_t>(ep));
            em.meanExclusiveNs = em.exclusiveNs.mean();
            const auto resp = respByCallee.find(std::make_pair(
                name, static_cast<std::uint32_t>(ep)));
            if (resp != respByCallee.end() && resp->second.second > 0)
                em.avgResponseBytes =
                    resp->second.first / resp->second.second;
            std::sort(em.calls.begin(), em.calls.end(),
                      [](const CallModel &a, const CallModel &b) {
                          return std::tie(a.callee, a.calleeEndpoint) <
                              std::tie(b.callee, b.calleeEndpoint);
                      });
        }
    }

    m.services.reserve(m.topology.services.size());
    for (const std::string &name : m.topology.services)
        m.services.push_back(std::move(byName[name]));
    m.ingest = std::move(ingest);
    return m;
}

} // namespace

const ServiceModel *
TraceModel::find(const std::string &name) const
{
    for (const ServiceModel &s : services) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

const app::ServiceSpec *
SynthesizedClone::find(const std::string &name) const
{
    for (const app::ServiceSpec &s : specs) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

TraceModel
ingestTraceJson(const std::string &json, const IngestOptions &opts)
{
    obs::ImportReport rep;
    const trace::Tracer tracer =
        obs::importJaegerJson(json, opts.import, &rep);
    return buildModel(tracer, std::move(rep));
}

SynthesizedClone
synthesizeClone(const TraceModel &model, const SynthesisOptions &opts)
{
    if (model.services.empty())
        throw std::runtime_error(
            "clone: trace model contains no services");
    SynthesizedClone out;
    out.root = model.root;

    for (const ServiceModel &sm : model.services) {
        app::ServiceSpec s;
        s.name = sm.name;
        // The root fronts external load; widen its pool like
        // cluster::generateTopology does so the clone's bottleneck is
        // the recovered topology, not the entry service's intake.
        s.threads.workers = sm.name == model.root
            ? std::max(8u, opts.workersPerService * 4)
            : std::max(1u, opts.workersPerService);
        s.clientModel = sm.async ? app::ClientModel::Async
                                 : app::ClientModel::Sync;

        hw::BlockSpec bs;
        bs.label = sm.name + ".clone";
        bs.instCount = std::max(1u, opts.handlerInsts);
        bs.seed = opts.seed ^ fnv1a(sm.name);
        s.blocks.push_back(hw::buildBlock(bs));

        // Downstream list: union of callees over endpoints in model
        // (deterministic) order. Callees absent from the model (no
        // server spans in the trace) cannot be synthesized; their
        // calls are dropped here and surface as fidelity diffs.
        const auto targetOf = [&s](const std::string &callee) {
            const auto it = std::find(s.downstreams.begin(),
                                      s.downstreams.end(), callee);
            if (it != s.downstreams.end())
                return static_cast<std::uint32_t>(
                    it - s.downstreams.begin());
            s.downstreams.push_back(callee);
            return static_cast<std::uint32_t>(s.downstreams.size() -
                                              1);
        };

        for (std::size_t epIdx = 0; epIdx < sm.endpoints.size();
             ++epIdx) {
            const EndpointModel &em = sm.endpoints[epIdx];
            app::EndpointSpec ep;
            ep.name = em.name.empty()
                ? defaultEndpointName(
                      static_cast<std::uint32_t>(epIdx))
                : em.name;
            const auto resp = em.avgResponseBytes > 0.5
                ? static_cast<std::uint32_t>(
                      std::llround(em.avgResponseBytes))
                : opts.defaultResponseBytes;
            ep.responseBytesMin = ep.responseBytesMax = resp;

            ep.handler.ops.push_back(app::opCompute(0, 1, 3));

            // Exclusive service time: a quantile-weighted sleep mix
            // whose expectation equals the observed mean. Below 1us
            // the compute op above already covers it.
            if (em.exclusiveNs.count() > 0 &&
                em.meanExclusiveNs >= 1000.0) {
                const double lo = static_cast<double>(
                    em.exclusiveNs.percentile(0.25));
                const double hi = static_cast<double>(
                    em.exclusiveNs.percentile(0.75));
                const double mid =
                    (em.meanExclusiveNs - 0.25 * lo - 0.25 * hi) /
                    0.5;
                const auto sleepArm = [](double ns) {
                    app::Program arm;
                    arm.ops.push_back(app::opSleep(
                        static_cast<sim::Time>(std::llround(ns))));
                    return arm;
                };
                if (mid >= 0.0 && lo > 0.0) {
                    ep.handler.ops.push_back(app::opChoice(
                        {0.25, 0.5, 0.25},
                        {sleepArm(lo), sleepArm(mid), sleepArm(hi)}));
                } else {
                    ep.handler.ops.push_back(app::opSleep(
                        static_cast<sim::Time>(
                            std::llround(em.meanExclusiveNs))));
                }
            }

            // Downstream calls: integer part unconditionally,
            // fractional part as a probabilistic choice, so the mean
            // calls/request matches the observation.
            std::vector<app::RpcCallSpec> fanout;
            std::vector<app::Op> fractional;
            for (const CallModel &call : em.calls) {
                if (model.find(call.callee) == nullptr)
                    continue;
                const std::uint32_t t = targetOf(call.callee);
                app::RpcCallSpec rc;
                rc.target = t;
                rc.endpoint = call.calleeEndpoint;
                rc.requestBytes = call.avgRequestBytes > 0.5
                    ? static_cast<std::uint32_t>(
                          std::llround(call.avgRequestBytes))
                    : opts.defaultRequestBytes;
                rc.responseBytes = call.avgResponseBytes > 0.5
                    ? static_cast<std::uint32_t>(
                          std::llround(call.avgResponseBytes))
                    : opts.defaultResponseBytes;
                const double cpr =
                    std::max(0.0, call.callsPerRequest);
                auto whole =
                    static_cast<std::uint64_t>(cpr + 1e-9);
                const double frac =
                    cpr - static_cast<double>(whole);
                for (std::uint64_t k = 0; k < whole; ++k) {
                    if (sm.async)
                        fanout.push_back(rc);
                    else
                        ep.handler.ops.push_back(
                            app::opRpc(rc.target, rc.endpoint,
                                       rc.requestBytes,
                                       rc.responseBytes));
                }
                if (frac > 1e-6) {
                    app::Program arm;
                    if (sm.async)
                        arm.ops.push_back(app::opRpcFanout({rc}));
                    else
                        arm.ops.push_back(
                            app::opRpc(rc.target, rc.endpoint,
                                       rc.requestBytes,
                                       rc.responseBytes));
                    fractional.push_back(app::opChoice(
                        {frac, 1.0 - frac}, {arm, app::Program{}}));
                }
            }
            if (!fanout.empty())
                ep.handler.ops.push_back(
                    app::opRpcFanout(std::move(fanout)));
            for (app::Op &op : fractional)
                ep.handler.ops.push_back(std::move(op));

            ep.handler.ops.push_back(app::opCompute(0, 1, 2));
            s.endpoints.push_back(std::move(ep));
        }
        out.specs.push_back(std::move(s));
    }

    // Offered load mirrors the observed root endpoint mix.
    out.load.endpoints.clear();
    if (const ServiceModel *root = model.find(model.root)) {
        for (std::size_t ep = 0; ep < root->endpoints.size(); ++ep) {
            if (root->endpoints[ep].requests <= 0)
                continue;
            workload::EndpointLoad el;
            el.endpoint = static_cast<std::uint32_t>(ep);
            el.weight = root->endpoints[ep].requests;
            out.load.endpoints.push_back(el);
        }
    }
    if (out.load.endpoints.empty())
        out.load.endpoints.push_back(workload::EndpointLoad{});
    return out;
}

FidelityReport
compareTopologies(const core::Topology &original,
                  const core::Topology &cloned,
                  const FidelityTolerance &tol)
{
    FidelityReport r;
    r.isomorphic = true;

    const std::set<std::string> so(original.services.begin(),
                                   original.services.end());
    const std::set<std::string> sc(cloned.services.begin(),
                                   cloned.services.end());
    for (const std::string &name : so) {
        if (sc.find(name) == sc.end()) {
            r.isomorphic = false;
            r.diffs.push_back("service \"" + name +
                              "\" missing from the clone");
        }
    }
    for (const std::string &name : sc) {
        if (so.find(name) == so.end()) {
            r.isomorphic = false;
            r.diffs.push_back("clone has extra service \"" + name +
                              "\"");
        }
    }
    if (original.root != cloned.root) {
        r.isomorphic = false;
        r.diffs.push_back("root mismatch: \"" + original.root +
                          "\" vs clone \"" + cloned.root + "\"");
    }

    using EdgeKey =
        std::tuple<std::string, std::string, std::uint32_t>;
    const auto keyed = [](const core::Topology &t) {
        std::map<EdgeKey, const profile::EdgeProfile *> m;
        for (const profile::EdgeProfile &e : t.edges)
            m[{e.caller, e.callee, e.endpoint}] = &e;
        return m;
    };
    const auto eo = keyed(original);
    const auto ec = keyed(cloned);
    const auto keyName = [](const EdgeKey &k) {
        return fmt("%s->%s ep%u", std::get<0>(k).c_str(),
                   std::get<1>(k).c_str(), std::get<2>(k));
    };
    for (const auto &[key, e] : eo) {
        (void)e;
        if (ec.find(key) == ec.end()) {
            r.isomorphic = false;
            r.diffs.push_back("edge " + keyName(key) +
                              " missing from the clone");
        }
    }
    for (const auto &[key, e] : ec) {
        (void)e;
        if (eo.find(key) == eo.end()) {
            r.isomorphic = false;
            r.diffs.push_back("clone has extra edge " + keyName(key));
        }
    }

    const auto within = [](double clone, double orig, double abs,
                           double rel) {
        return std::fabs(clone - orig) <=
            std::max(abs, rel * orig);
    };
    const auto pct = [](double clone, double orig) {
        return std::fabs(clone - orig) / std::max(orig, 1e-12) *
            100.0;
    };
    for (const auto &[key, oe] : eo) {
        const auto it = ec.find(key);
        if (it == ec.end())
            continue;
        const profile::EdgeProfile *ce = it->second;
        const double rateErr = std::fabs(ce->callsPerCallerRequest -
                                         oe->callsPerCallerRequest);
        r.maxRateErr = std::max(r.maxRateErr, rateErr);
        r.maxRateErrPct =
            std::max(r.maxRateErrPct,
                     pct(ce->callsPerCallerRequest,
                         oe->callsPerCallerRequest));
        if (!within(ce->callsPerCallerRequest,
                    oe->callsPerCallerRequest, tol.rateAbs,
                    tol.rateRel))
            r.diffs.push_back(fmt(
                "edge %s calls/request %.4f vs original %.4f "
                "exceeds tolerance",
                keyName(key).c_str(), ce->callsPerCallerRequest,
                oe->callsPerCallerRequest));
        // Byte averages of 0 mean the trace never recorded them
        // (derived edges): nothing to compare against.
        if (oe->avgRequestBytes > 0) {
            r.maxRequestBytesErrPct =
                std::max(r.maxRequestBytesErrPct,
                         pct(ce->avgRequestBytes,
                             oe->avgRequestBytes));
            if (!within(ce->avgRequestBytes, oe->avgRequestBytes,
                        tol.bytesAbs, tol.bytesRel))
                r.diffs.push_back(fmt(
                    "edge %s request bytes %.1f vs original %.1f "
                    "exceeds tolerance",
                    keyName(key).c_str(), ce->avgRequestBytes,
                    oe->avgRequestBytes));
        }
        if (oe->avgResponseBytes > 0) {
            r.maxResponseBytesErrPct =
                std::max(r.maxResponseBytesErrPct,
                         pct(ce->avgResponseBytes,
                             oe->avgResponseBytes));
            if (!within(ce->avgResponseBytes, oe->avgResponseBytes,
                        tol.bytesAbs, tol.bytesRel))
                r.diffs.push_back(fmt(
                    "edge %s response bytes %.1f vs original %.1f "
                    "exceeds tolerance",
                    keyName(key).c_str(), ce->avgResponseBytes,
                    oe->avgResponseBytes));
        }
    }
    r.pass = r.isomorphic && r.diffs.empty();
    return r;
}

std::string
ClosureResult::report() const
{
    std::string out;
    out += fmt("ingest: %llu traces, %llu spans, %llu edges, "
               "%llu defects\n",
               static_cast<unsigned long long>(model.traces),
               static_cast<unsigned long long>(model.spans),
               static_cast<unsigned long long>(model.edges),
               static_cast<unsigned long long>(
                   model.ingest.defects()));
    out += "root: " + model.root + "\n";
    for (const ServiceModel &sm : model.services) {
        out += fmt("service %s: %.0f requests, %zu endpoints%s\n",
                   sm.name.c_str(), sm.requests, sm.endpoints.size(),
                   sm.async ? ", async" : "");
    }
    using EdgeKey =
        std::tuple<std::string, std::string, std::uint32_t>;
    std::map<EdgeKey, const profile::EdgeProfile *> re;
    for (const profile::EdgeProfile &e : reanalyzed.edges)
        re[{e.caller, e.callee, e.endpoint}] = &e;
    for (const profile::EdgeProfile &e : model.topology.edges) {
        const auto it = re.find({e.caller, e.callee, e.endpoint});
        std::string epName = defaultEndpointName(e.endpoint);
        if (const ServiceModel *callee = model.find(e.callee)) {
            if (e.endpoint < callee->endpoints.size())
                epName = callee->endpoints[e.endpoint].name;
        }
        if (it == re.end()) {
            out += fmt("edge %s->%s %s: rate %.4f -> MISSING\n",
                       e.caller.c_str(), e.callee.c_str(),
                       epName.c_str(), e.callsPerCallerRequest);
            continue;
        }
        out += fmt("edge %s->%s %s: rate %.4f -> %.4f, req %.1f -> "
                   "%.1f, resp %.1f -> %.1f\n",
                   e.caller.c_str(), e.callee.c_str(), epName.c_str(),
                   e.callsPerCallerRequest,
                   it->second->callsPerCallerRequest,
                   e.avgRequestBytes, it->second->avgRequestBytes,
                   e.avgResponseBytes, it->second->avgResponseBytes);
    }
    out += fmt("clone run: %llu root requests, window p50 %llu ns, "
               "p99 %llu ns\n",
               static_cast<unsigned long long>(cloneRequests),
               static_cast<unsigned long long>(windowP50Ns),
               static_cast<unsigned long long>(windowP99Ns));
    out += fmt("fidelity: %s (max rate err %.4f abs / %.2f%%, "
               "req bytes %.2f%%, resp bytes %.2f%%)\n",
               fidelity.pass ? "PASS" : "FAIL", fidelity.maxRateErr,
               fidelity.maxRateErrPct, fidelity.maxRequestBytesErrPct,
               fidelity.maxResponseBytesErrPct);
    for (const std::string &d : fidelity.diffs)
        out += "  diff: " + d + "\n";
    return out;
}

ClosureResult
runClosure(const std::string &json, const ClosureOptions &opts)
{
    ClosureResult res;
    res.model = ingestTraceJson(json, opts.ingest);
    if (res.model.root.empty())
        throw std::runtime_error(
            "clone: could not identify a root service in the trace");
    res.clone = synthesizeClone(res.model, opts.synthesis);

    app::Deployment dep(opts.seed);
    std::vector<os::Machine *> machines;
    const unsigned machineCount = std::max(1u, opts.machines);
    machines.reserve(machineCount);
    for (unsigned i = 0; i < machineCount; ++i)
        machines.push_back(&dep.addMachine(
            "clone-m" + std::to_string(i), hw::platformA()));
    for (std::size_t i = 0; i < res.clone.specs.size(); ++i)
        dep.deploy(res.clone.specs[i],
                   *machines[i % machines.size()]);
    dep.wireAll();

    app::ServiceInstance *root = dep.find(res.clone.root);
    if (root == nullptr)
        throw std::runtime_error("clone: root service \"" +
                                 res.clone.root + "\" not deployed");

    workload::LoadSpec load = res.clone.load;
    load.qps = opts.qps;
    load.connections = opts.connections;
    std::unique_ptr<workload::Client> client;
    if (opts.sessionized) {
        // Synthesized mix -> endpoint classes; qps stays the offered
        // call rate, so divide by the mean calls per session.
        workload::WorkloadSpec ws;
        ws.sessionsPerSec = opts.qps /
            ((ws.session.minCalls + ws.session.maxCalls) / 2.0);
        ws.connections = opts.connections;
        ws.timeout = load.timeout;
        ws.propagateDeadline = load.propagateDeadline;
        ws.cancelOnTimeout = load.cancelOnTimeout;
        // The fidelity diff is an exact graph isomorphism: a
        // "workload" root span would add a service node the original
        // topology does not have.
        ws.traceSessions = false;
        ws.classes.clear();
        for (const workload::EndpointLoad &ep : load.endpoints) {
            workload::EndpointClass ec;
            ec.name = "ep" + std::to_string(ep.endpoint);
            ec.endpoint = ep.endpoint;
            ec.weight = ep.weight;
            ec.reqBytesMin = ep.reqBytesMin;
            ec.reqBytesMax = ep.reqBytesMax;
            ws.classes.push_back(std::move(ec));
        }
        client = std::make_unique<workload::WorkloadEngine>(
            dep, *root, ws, opts.seed ^ 0x10adc10eull);
    } else {
        client = std::make_unique<workload::LoadGen>(
            dep, *root, load, opts.seed ^ 0x10adc10eull);
    }
    client->start();
    dep.runFor(opts.warmup);
    const stats::LatencyHistogram baseline = root->stats().latency;
    dep.runFor(opts.measure);
    const stats::LatencyHistogram window =
        root->stats().latency.since(baseline);
    res.windowP50Ns = window.percentile(0.50);
    res.windowP99Ns = window.percentile(0.99);
    client->stop();
    // Drain in-flight request trees so the re-exported traces hold
    // few half-recorded call paths (which would skew edge rates).
    dep.runFor(sim::milliseconds(50));

    res.cloneTraceJson = obs::exportJaegerJson(dep.tracer());
    const trace::Tracer reimported =
        obs::importJaegerJson(res.cloneTraceJson);
    res.reanalyzed = core::analyzeTopology(reimported);
    const auto rc = res.reanalyzed.requestCounts.find(res.clone.root);
    res.cloneRequests = rc != res.reanalyzed.requestCounts.end()
        ? static_cast<std::uint64_t>(std::llround(rc->second))
        : 0;
    res.fidelity = compareTopologies(res.model.topology,
                                     res.reanalyzed, opts.tolerance);
    return res;
}

} // namespace ditto::clone
