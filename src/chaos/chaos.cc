#include "chaos/chaos.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <memory>

#include "app/deployment.h"
#include "cluster/failover.h"
#include "cluster/placer.h"
#include "cluster/region.h"
#include "cluster/topo_gen.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "os/network.h"
#include "profile/probe_collector.h"
#include "sim/rng.h"
#include "workload/engine.h"
#include "workload/loadgen.h"

namespace ditto::chaos {

namespace {

std::string
machineName(unsigned i)
{
    return "m" + std::to_string(i);
}

std::string
serviceName(unsigned idx)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "s%04u", idx);
    return buf;
}

std::string
regionName(unsigned i)
{
    return "r" + std::to_string(i);
}

/** printf into a std::string (violation / reproducer lines). */
std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

/**
 * The fuzzed deployment: a seeded layered topology with every
 * request-lifecycle mechanism armed, two replicated level-1 services
 * (so hedging has somewhere to go), and a probe on every instance.
 *
 * With cfg.regions > 0 every machine lives in a region ("r0"..) over
 * a seeded WAN mesh, the root balances prefer-local into the
 * replicated groups, replicas spread across regions, and a
 * RegionFailoverMonitor per replicated group retires dark regions --
 * so region fault windows actually exercise re-routing.
 */
struct ChaosWorld
{
    app::Deployment dep;
    cluster::GeneratedTopology topo;
    app::ServiceInstance *root = nullptr;
    obs::MetricsRegistry metrics;
    std::vector<std::unique_ptr<profile::ProbeCollector>> probes;
    std::vector<std::unique_ptr<cluster::RegionFailoverMonitor>>
        monitors;

    explicit ChaosWorld(const ChaosConfig &cfg) : dep(cfg.seed)
    {
        cluster::TopoSpec ts;
        ts.services = cfg.services;
        ts.depth = cfg.depth;
        ts.rpcDeadline = sim::milliseconds(2);
        ts.workersPerService = 2;
        ts.seed = cfg.seed;
        if (cfg.prodShapes) {
            ts.endpointsPerService = 2;
            ts.sharedBackends = 2;
            ts.fanoutTailAlpha = 1.2;
            ts.diamondProbability = 0.35;
        }
        topo = cluster::generateTopology(ts);
        // Hedging engages on sync calls into replicated groups; the
        // root is the sole caller of the replicated level-1 services,
        // so make sure it is a sync client.
        topo.specs[0].clientModel = app::ClientModel::Sync;
        if (cfg.regions > 0) {
            // Hedge-locality under test: the root only crosses
            // regions when no local replica is usable.
            topo.specs[0].balancing.defaultPolicy =
                cluster::BalancerPolicy::PreferLocal;
        }
        for (std::size_t i = 0; i < topo.specs.size(); ++i) {
            app::ResilienceSpec &res = topo.specs[i].resilience;
            res.retry.maxAttempts = 2;
            res.retry.baseBackoff = sim::microseconds(100);
            res.retry.maxBackoff = sim::milliseconds(1);
            res.shedQueueThreshold = 64;
            res.propagateDeadline = true;
            res.hopMargin = sim::microseconds(100);
            res.cancellation = true;
            if (i % 3 == 0) {
                res.breaker.enabled = true;
                res.breaker.failureThreshold = 3;
                res.breaker.openDuration = sim::milliseconds(2);
            }
            if (i % 2 == 0) {
                res.hedge.enabled = true;
                res.hedge.delay = sim::microseconds(300);
            }
            if (cfg.overload) {
                app::OverloadSpec &ov = res.overload;
                ov.enabled = true;
                ov.initialLimit = 48;
                ov.minLimit = 4;
                ov.window = 16;
                ov.maxSojourn = sim::milliseconds(2);
                ov.deadlineAware = true;
                ov.brownout = true;
                res.retry.budgetRatio = 0.1;
                // Mark the tail call of multi-call fanouts as a
                // brownout candidate so congested windows actually
                // exercise the skip path.
                for (app::EndpointSpec &ep : topo.specs[i].endpoints)
                    for (app::Op &op : ep.handler.ops)
                        if (op.kind == app::OpKind::Rpc &&
                            op.rpcs.size() > 1)
                            op.rpcs.back().optional = true;
            }
        }
        if (cfg.regions == 0) {
            root = &cluster::deployTopology(dep, topo, cfg.machines);
        } else {
            // Region world: same machine pool size, but spread over
            // cfg.regions regions meshed by short seeded WAN links
            // (no ambient bursts -- WAN drops come from fault
            // windows, so ledger violations shrink to their cause).
            const unsigned perRegion =
                std::max(1u, (cfg.machines + cfg.regions - 1) /
                             cfg.regions);
            std::vector<cluster::RegionSpec> regions;
            for (unsigned r = 0; r < cfg.regions; ++r)
                regions.push_back({regionName(r), perRegion});
            cluster::WanProfile wan;
            wan.baseLatency = sim::microseconds(80);
            wan.latencySpread = sim::microseconds(40);
            wan.seed = cfg.seed;
            cluster::buildRegions(dep, regions, wan);

            cluster::Placer placer;
            const std::size_t pool = dep.machines().size();
            const auto slots = static_cast<unsigned>(
                (topo.specs.size() + pool - 1) / pool);
            for (const auto &m : dep.machines())
                placer.addMachine(*m, slots);
            for (const app::ServiceSpec &s : topo.specs)
                dep.deploy(s, placer.place());
            dep.wireAll();
            root = dep.find(topo.specs.front().name);
        }

        // Replicate the first two level-1 services so hedges and the
        // balancer's replica exclusion actually engage. In the region
        // world each replica lands in a different region than the
        // monitor's view, with a failover monitor watching the group.
        unsigned replicated = 0;
        for (std::size_t i = 0;
             i < topo.specs.size() && replicated < 2; ++i) {
            if (topo.level[i] != 1)
                continue;
            if (cfg.regions > 0) {
                dep.addReplicaInRegion(
                    topo.specs[i].name,
                    regionName((replicated + 1) % cfg.regions));
                cluster::RegionFailoverSpec fs;
                fs.period = sim::milliseconds(1);
                fs.failureThreshold = 2;
                fs.viewRegion = root->machine().regionId();
                monitors.push_back(
                    std::make_unique<cluster::RegionFailoverMonitor>(
                        dep, topo.specs[i].name, metrics, fs));
            } else {
                dep.addReplica(
                    topo.specs[i].name,
                    *dep.machines()[replicated %
                                    dep.machines().size()]);
            }
            ++replicated;
        }
        for (const auto &m : monitors)
            m->start();

        for (const auto &svc : dep.services()) {
            probes.push_back(
                std::make_unique<profile::ProbeCollector>());
            svc->setProbe(probes.back().get());
        }
    }
};

/** Sum of probe counts for one kind across all instances. */
std::uint64_t
probeTotal(const ChaosWorld &w, trace::OutcomeKind kind)
{
    std::uint64_t total = 0;
    for (const auto &p : w.probes)
        total += p->outcomeCount(kind);
    return total;
}

void
checkInvariants(const ChaosConfig &cfg, ChaosWorld &w,
                const workload::Client &client,
                std::vector<std::string> &out)
{
    using trace::OutcomeKind;
    const os::Network &net = w.dep.network();

    // (1) Network message ledger. The planted fixture bug "forgets"
    // that faults drop messages, so any drop becomes a violation --
    // the fuzzer must catch it and shrink the plan that caused it.
    const std::uint64_t accountedDrops =
        cfg.plantLedgerBug ? 0 : net.messagesDropped();
    if (net.messagesSent() !=
        net.messagesDelivered() + accountedDrops +
            net.messagesInFlight()) {
        out.push_back(format(
            "net-msg-ledger: sent %llu != delivered %llu + "
            "dropped %llu + in-flight %llu",
            (unsigned long long)net.messagesSent(),
            (unsigned long long)net.messagesDelivered(),
            (unsigned long long)accountedDrops,
            (unsigned long long)net.messagesInFlight()));
    }

    // (2) Network byte ledger (exact at quiescence; a non-empty
    // in-flight set is reported by the orphan check below).
    if (net.messagesInFlight() == 0 &&
        net.bytesSent() != net.bytesDelivered() + net.bytesDropped()) {
        out.push_back(format(
            "net-byte-ledger: sent %llu != delivered %llu + "
            "dropped %llu",
            (unsigned long long)net.bytesSent(),
            (unsigned long long)net.bytesDelivered(),
            (unsigned long long)net.bytesDropped()));
    }

    // (3) Client-side conservation: every sent request settles or
    // is still in flight (calls left over after too short a drain
    // are the orphan checks' to report).
    const std::uint64_t settled = client.completedOk() +
        client.completedError() + client.completedShed() +
        client.timedOut() + client.inFlight();
    if (client.sent() != settled) {
        out.push_back(format(
            "client-conservation: sent %llu != ok %llu + error %llu "
            "+ shed %llu + timeout %llu + in-flight %llu",
            (unsigned long long)client.sent(),
            (unsigned long long)client.completedOk(),
            (unsigned long long)client.completedError(),
            (unsigned long long)client.completedShed(),
            (unsigned long long)client.timedOut(),
            (unsigned long long)client.inFlight()));
    }

    // (4-7) Per-service books.
    for (std::size_t i = 0; i < w.dep.services().size(); ++i) {
        app::ServiceInstance &svc = *w.dep.services()[i];
        const app::ServiceStats &s = svc.stats();
        const profile::ProbeCollector &p = *w.probes[i];
        const std::string &label = svc.instanceLabel();

        // (4) RPC outcome conservation: every call entered settles
        // exactly once.
        const std::uint64_t settledCalls = s.rpcOk + s.rpcTimeouts +
            s.rpcBreakerFastFails + s.rpcCancelled;
        if (s.rpcCallsStarted != settledCalls) {
            out.push_back(format(
                "rpc-conservation[%s]: started %llu != ok %llu + "
                "timeout %llu + breaker %llu + cancelled %llu",
                label.c_str(),
                (unsigned long long)s.rpcCallsStarted,
                (unsigned long long)s.rpcOk,
                (unsigned long long)s.rpcTimeouts,
                (unsigned long long)s.rpcBreakerFastFails,
                (unsigned long long)s.rpcCancelled));
        }

        // (5) No orphan in-flight work after the drain.
        if (svc.activeRequests() != 0)
            out.push_back(format(
                "orphan-request[%s]: %llu requests still active "
                "after drain", label.c_str(),
                (unsigned long long)svc.activeRequests()));
        if (svc.inboundQueueDepth() != 0)
            out.push_back(format(
                "orphan-queue[%s]: %llu requests still queued "
                "after drain", label.c_str(),
                (unsigned long long)svc.inboundQueueDepth()));

        // (6) Stats <-> probe reconciliation.
        struct Pair
        {
            const char *name;
            std::uint64_t stat;
            std::uint64_t probe;
        };
        const Pair pairs[] = {
            {"rpc_ok", s.rpcOk,
             p.outcomeCount(OutcomeKind::RpcOk) +
                 p.outcomeCount(OutcomeKind::RpcRetriedOk) +
                 p.outcomeCount(OutcomeKind::RpcHedgeWon)},
            {"rpc_timeouts", s.rpcTimeouts,
             p.outcomeCount(OutcomeKind::RpcTimeout)},
            {"rpc_breaker", s.rpcBreakerFastFails,
             p.outcomeCount(OutcomeKind::RpcBreakerOpen)},
            {"rpc_cancelled", s.rpcCancelled,
             p.outcomeCount(OutcomeKind::RpcCancelled)},
            {"hedge_wins", s.rpcHedgeWins,
             p.outcomeCount(OutcomeKind::RpcHedgeWon)},
            {"requests_shed", s.requestsShed,
             p.outcomeCount(OutcomeKind::RequestShed)},
            {"requests_degraded", s.requestsDegraded,
             p.outcomeCount(OutcomeKind::RequestError)},
            {"requests_cancelled", s.requestsCancelled,
             p.outcomeCount(OutcomeKind::RequestCancelled)},
        };
        for (const Pair &pr : pairs) {
            if (pr.stat != pr.probe)
                out.push_back(format(
                    "stats-probe[%s].%s: stats %llu != probe %llu",
                    label.c_str(), pr.name,
                    (unsigned long long)pr.stat,
                    (unsigned long long)pr.probe));
        }

        // (7) Hedges never outnumber their launches.
        if (s.rpcHedgeWins > s.rpcHedges)
            out.push_back(format(
                "hedge-books[%s]: wins %llu > hedges %llu",
                label.c_str(), (unsigned long long)s.rpcHedgeWins,
                (unsigned long long)s.rpcHedges));
    }

    if (net.messagesInFlight() != 0)
        out.push_back(format(
            "orphan-network: %llu messages still in flight after "
            "drain",
            (unsigned long long)net.messagesInFlight()));

    // (8) Probe <-> tracer reconciliation: the probes collectively
    // saw exactly what the tracer's unsampled counters recorded.
    for (std::size_t k = 0; k < trace::kOutcomeKinds; ++k) {
        const auto kind = static_cast<OutcomeKind>(k);
        const std::uint64_t probes = probeTotal(w, kind);
        const std::uint64_t traced =
            w.dep.tracer().outcomeCount(kind);
        if (probes != traced)
            out.push_back(format(
                "probe-tracer[%s]: probes %llu != tracer %llu",
                trace::outcomeKindName(kind),
                (unsigned long long)probes,
                (unsigned long long)traced));
    }

    // (9) Per-WAN-link ledgers: every directed region link accounts
    // each message and byte it carried exactly once, and none is
    // still in flight after the drain. The planted region fixture bug
    // "forgets" the per-link dropped term, the WAN-scoped twin of the
    // global planted ledger bug.
    for (const auto &entry : net.wanLinks()) {
        const os::WanLinkStats &ls = entry.second.stats;
        const std::string link =
            w.dep.regionName(entry.first.first) + "->" +
            w.dep.regionName(entry.first.second);
        const std::uint64_t wanDrops =
            cfg.plantWanLedgerBug ? 0 : ls.msgsDropped;
        if (ls.msgsSent !=
            ls.msgsDelivered + wanDrops + ls.msgsInFlight()) {
            out.push_back(format(
                "wan-msg-ledger[%s]: sent %llu != delivered %llu + "
                "dropped %llu + in-flight %llu",
                link.c_str(), (unsigned long long)ls.msgsSent,
                (unsigned long long)ls.msgsDelivered,
                (unsigned long long)wanDrops,
                (unsigned long long)ls.msgsInFlight()));
        }
        const std::uint64_t wanByteDrops =
            cfg.plantWanLedgerBug ? 0 : ls.bytesDropped;
        if (ls.msgsInFlight() == 0 &&
            ls.bytesSent != ls.bytesDelivered + wanByteDrops) {
            out.push_back(format(
                "wan-byte-ledger[%s]: sent %llu != delivered %llu + "
                "dropped %llu",
                link.c_str(), (unsigned long long)ls.bytesSent,
                (unsigned long long)ls.bytesDelivered,
                (unsigned long long)wanByteDrops));
        }
        if (ls.msgsInFlight() != 0)
            out.push_back(format(
                "orphan-wan[%s]: %llu messages still in flight "
                "after drain",
                link.c_str(),
                (unsigned long long)ls.msgsInFlight()));
    }

    // (10) Outcome conservation aggregated per region: failover
    // re-routing must not settle any call twice, nor lose one, in
    // either the failed or the surviving regions.
    if (w.dep.regionCount() > 1) {
        for (std::uint32_t r = 0;
             r < static_cast<std::uint32_t>(w.dep.regionCount());
             ++r) {
            std::uint64_t started = 0;
            std::uint64_t settledCalls = 0;
            bool hosts = false;
            for (const auto &svc : w.dep.services()) {
                if (svc->machine().regionId() != r)
                    continue;
                hosts = true;
                const app::ServiceStats &s = svc->stats();
                started += s.rpcCallsStarted;
                settledCalls += s.rpcOk + s.rpcTimeouts +
                    s.rpcBreakerFastFails + s.rpcCancelled;
            }
            if (hosts && started != settledCalls)
                out.push_back(format(
                    "region-conservation[%s]: started %llu != "
                    "settled %llu",
                    w.dep.regionName(r).c_str(),
                    (unsigned long long)started,
                    (unsigned long long)settledCalls));
        }
    }
}

} // namespace

OutcomeMix &
OutcomeMix::operator+=(const OutcomeMix &o)
{
    clientSent += o.clientSent;
    clientOk += o.clientOk;
    clientError += o.clientError;
    clientShed += o.clientShed;
    clientTimedOut += o.clientTimedOut;
    clientLate += o.clientLate;
    cancelsSent += o.cancelsSent;
    rpcOk += o.rpcOk;
    rpcTimeouts += o.rpcTimeouts;
    rpcBreakerFastFails += o.rpcBreakerFastFails;
    rpcCancelled += o.rpcCancelled;
    rpcHedges += o.rpcHedges;
    rpcHedgeWins += o.rpcHedgeWins;
    requestsShed += o.requestsShed;
    requestsCancelled += o.requestsCancelled;
    return *this;
}

fault::FaultPlan
generateRandomPlan(const ChaosConfig &cfg, std::uint64_t planSeed)
{
    sim::Rng rng(planSeed ^ 0xd1770c4a05ull);
    fault::FaultPlan plan;
    const unsigned span =
        cfg.maxFaults > cfg.minFaults ? cfg.maxFaults - cfg.minFaults
                                      : 0;
    const unsigned count = cfg.minFaults +
        static_cast<unsigned>(rng.uniformInt(span + 1));
    // Region kinds only join the sampling space in region worlds, so
    // a regions == 0 campaign draws exactly the pre-region sequence.
    const std::uint64_t kinds = cfg.regions > 0 ? 9 : 6;
    for (unsigned f = 0; f < count; ++f) {
        const auto kind = static_cast<fault::FaultKind>(
            rng.uniformInt(kinds));
        const auto start = static_cast<sim::Time>(
            rng.uniformInt(static_cast<std::uint64_t>(cfg.runFor)));
        const sim::Time duration = sim::microseconds(200) +
            static_cast<sim::Time>(rng.uniformInt(
                static_cast<std::uint64_t>(sim::milliseconds(5))));
        const std::string a =
            machineName(static_cast<unsigned>(
                rng.uniformInt(std::uint64_t{cfg.machines})));
        // Link peer: another machine, or the external client side.
        std::string b;
        if (cfg.machines > 1 && !rng.bernoulli(0.25)) {
            do {
                b = machineName(static_cast<unsigned>(
                    rng.uniformInt(std::uint64_t{cfg.machines})));
            } while (b == a);
        }
        switch (kind) {
          case fault::FaultKind::LinkDrop:
            plan.linkDrop(a, b, start, duration,
                          rng.uniform(0.2, 0.95));
            break;
          case fault::FaultKind::LinkLatency:
            plan.linkLatency(a, b, start, duration,
                             sim::microseconds(100) +
                                 static_cast<sim::Time>(rng.uniformInt(
                                     static_cast<std::uint64_t>(
                                         sim::microseconds(1500)))));
            break;
          case fault::FaultKind::Partition:
            plan.partition(a, b, start, duration);
            break;
          case fault::FaultKind::MachineCrash:
            plan.machineCrash(a, start, duration);
            break;
          case fault::FaultKind::ServiceCrash:
            plan.serviceCrash(
                serviceName(static_cast<unsigned>(
                    rng.uniformInt(std::uint64_t{cfg.services}))),
                start, duration);
            break;
          case fault::FaultKind::DiskSlowdown:
            plan.diskSlowdown(a, start, duration,
                              rng.uniform(2.0, 16.0));
            break;
          case fault::FaultKind::RegionPartition:
          case fault::FaultKind::RegionOutage:
          case fault::FaultKind::WanDegrade: {
            const std::string ra = regionName(static_cast<unsigned>(
                rng.uniformInt(std::uint64_t{cfg.regions})));
            // Region peer: another region, or empty = isolate `ra`
            // from every other region.
            std::string rb;
            if (cfg.regions > 1 && !rng.bernoulli(0.25)) {
                do {
                    rb = regionName(static_cast<unsigned>(
                        rng.uniformInt(std::uint64_t{cfg.regions})));
                } while (rb == ra);
            }
            if (kind == fault::FaultKind::RegionPartition)
                plan.regionPartition(ra, rb, start, duration);
            else if (kind == fault::FaultKind::RegionOutage)
                plan.regionOutage(ra, start, duration);
            else
                plan.wanDegrade(
                    ra, rb, start, duration, rng.uniform(0.1, 0.7),
                    sim::microseconds(50) +
                        static_cast<sim::Time>(rng.uniformInt(
                            static_cast<std::uint64_t>(
                                sim::microseconds(500)))));
            break;
          }
        }
    }
    return plan;
}

PlanRunResult
runPlan(const ChaosConfig &cfg, const fault::FaultPlan &plan)
{
    ChaosWorld w(cfg);

    std::unique_ptr<workload::Client> client;
    if (cfg.sessions) {
        workload::WorkloadSpec ws;
        // A session averages (minCalls+maxCalls)/2 calls, so divide
        // to keep the offered *call* rate comparable to cfg.qps.
        ws.sessionsPerSec = cfg.qps /
            ((ws.session.minCalls + ws.session.maxCalls) / 2.0);
        ws.connections = cfg.connections;
        ws.arrivals.kind = workload::ArrivalKind::Mmpp;
        ws.session.meanThink = sim::milliseconds(1);
        ws.classes[0].slo.deadline = cfg.clientTimeout;
        ws.timeout = cfg.clientTimeout;
        ws.propagateDeadline = true;
        ws.cancelOnTimeout = true;
        if (cfg.overload) {
            // Budgeted client retries: every retry is a fresh sent
            // call, so the conservation invariant is exercised with
            // the retry wave bounded at 10% of fresh traffic.
            ws.retry.maxAttempts = 2;
            ws.retry.backoff = sim::microseconds(200);
            ws.retry.budgetRatio = 0.1;
        }
        client = std::make_unique<workload::WorkloadEngine>(
            w.dep, *w.root, ws, cfg.seed ^ 0x10adull);
    } else {
        workload::LoadSpec ls;
        ls.qps = cfg.qps;
        ls.connections = cfg.connections;
        ls.openLoop = true;
        ls.timeout = cfg.clientTimeout;
        ls.propagateDeadline = true;
        ls.cancelOnTimeout = true;
        client = std::make_unique<workload::LoadGen>(
            w.dep, *w.root, ls, cfg.seed ^ 0x10adull);
    }

    fault::FaultInjector inj(w.dep);
    inj.install(plan);

    client->start();
    w.dep.runFor(cfg.runFor);
    client->stop();
    inj.clearAll();
    w.dep.runFor(cfg.drain);

    PlanRunResult result;
    checkInvariants(cfg, w, *client, result.violations);

    OutcomeMix &mix = result.mix;
    mix.clientSent = client->sent();
    mix.clientOk = client->completedOk();
    mix.clientError = client->completedError();
    mix.clientShed = client->completedShed();
    mix.clientTimedOut = client->timedOut();
    mix.clientLate = client->lateResponses();
    mix.cancelsSent = client->cancelsSent();
    for (const auto &svc : w.dep.services()) {
        const app::ServiceStats &s = svc->stats();
        mix.rpcOk += s.rpcOk;
        mix.rpcTimeouts += s.rpcTimeouts;
        mix.rpcBreakerFastFails += s.rpcBreakerFastFails;
        mix.rpcCancelled += s.rpcCancelled;
        mix.rpcHedges += s.rpcHedges;
        mix.rpcHedgeWins += s.rpcHedgeWins;
        mix.requestsShed += s.requestsShed;
        mix.requestsCancelled += s.requestsCancelled;
    }
    return result;
}

ShrinkResult
shrinkPlan(const ChaosConfig &cfg, const fault::FaultPlan &plan)
{
    ShrinkResult result;
    result.plan = plan;

    std::vector<std::string> lastViolations;
    const auto violates =
        [&](const std::vector<fault::FaultSpec> &faults) -> bool {
        fault::FaultPlan candidate;
        candidate.faults = faults;
        const PlanRunResult r = runPlan(cfg, candidate);
        ++result.probes;
        if (!r.ok())
            lastViolations = r.violations;
        return !r.ok();
    };

    // The plan must violate to begin with; record its violations.
    if (!violates(plan.faults)) {
        result.violations.clear();
        return result;
    }

    // Phase 1: ddmin over the fault list -- try dropping complement
    // chunks, doubling granularity when nothing can be dropped.
    std::vector<fault::FaultSpec> cur = plan.faults;
    std::size_t n = 2;
    while (cur.size() >= 2 && result.probes < cfg.maxShrinkProbes) {
        const std::size_t chunk = (cur.size() + n - 1) / n;
        bool reduced = false;
        for (std::size_t at = 0;
             at < cur.size() && result.probes < cfg.maxShrinkProbes;
             at += chunk) {
            std::vector<fault::FaultSpec> complement;
            complement.reserve(cur.size());
            for (std::size_t i = 0; i < cur.size(); ++i) {
                if (i < at || i >= at + chunk)
                    complement.push_back(cur[i]);
            }
            if (complement.empty())
                continue;
            if (violates(complement)) {
                cur = std::move(complement);
                n = n > 2 ? n - 1 : 2;
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (n >= cur.size())
                break;
            n = std::min(cur.size(), n * 2);
        }
    }

    // Phase 2: narrow the surviving windows -- keep a half-duration
    // window (first or second half) whenever it still violates.
    for (std::size_t i = 0;
         i < cur.size() && result.probes < cfg.maxShrinkProbes; ++i) {
        for (unsigned round = 0;
             round < 6 && result.probes < cfg.maxShrinkProbes;
             ++round) {
            const fault::FaultSpec orig = cur[i];
            if (orig.duration < sim::microseconds(100))
                break;
            bool narrowed = false;
            for (int half = 0; half < 2 && !narrowed; ++half) {
                std::vector<fault::FaultSpec> candidate = cur;
                candidate[i].duration = orig.duration / 2;
                candidate[i].start = half == 0
                    ? orig.start
                    : orig.start + orig.duration / 2;
                if (result.probes >= cfg.maxShrinkProbes)
                    break;
                if (violates(candidate)) {
                    cur = std::move(candidate);
                    narrowed = true;
                }
            }
            if (!narrowed)
                break;
        }
    }

    result.plan.faults = cur;
    result.violations = lastViolations;
    return result;
}

std::string
formatFaultPlan(const fault::FaultPlan &plan)
{
    std::string out = "fault::FaultPlan plan;\n";
    for (const fault::FaultSpec &f : plan.faults) {
        switch (f.kind) {
          case fault::FaultKind::LinkDrop:
            out += format(
                "plan.linkDrop(\"%s\", \"%s\", %llu, %llu, %.17g);\n",
                f.a.c_str(), f.b.c_str(),
                (unsigned long long)f.start,
                (unsigned long long)f.duration, f.magnitude);
            break;
          case fault::FaultKind::LinkLatency:
            out += format(
                "plan.linkLatency(\"%s\", \"%s\", %llu, %llu, "
                "%llu);\n",
                f.a.c_str(), f.b.c_str(),
                (unsigned long long)f.start,
                (unsigned long long)f.duration,
                (unsigned long long)f.extraLatency);
            break;
          case fault::FaultKind::Partition:
            out += format(
                "plan.partition(\"%s\", \"%s\", %llu, %llu);\n",
                f.a.c_str(), f.b.c_str(),
                (unsigned long long)f.start,
                (unsigned long long)f.duration);
            break;
          case fault::FaultKind::MachineCrash:
            out += format("plan.machineCrash(\"%s\", %llu, %llu);\n",
                          f.a.c_str(), (unsigned long long)f.start,
                          (unsigned long long)f.duration);
            break;
          case fault::FaultKind::ServiceCrash:
            out += format("plan.serviceCrash(\"%s\", %llu, %llu);\n",
                          f.a.c_str(), (unsigned long long)f.start,
                          (unsigned long long)f.duration);
            break;
          case fault::FaultKind::DiskSlowdown:
            out += format(
                "plan.diskSlowdown(\"%s\", %llu, %llu, %.17g);\n",
                f.a.c_str(), (unsigned long long)f.start,
                (unsigned long long)f.duration, f.magnitude);
            break;
          case fault::FaultKind::RegionPartition:
            out += format(
                "plan.regionPartition(\"%s\", \"%s\", %llu, "
                "%llu);\n",
                f.a.c_str(), f.b.c_str(),
                (unsigned long long)f.start,
                (unsigned long long)f.duration);
            break;
          case fault::FaultKind::RegionOutage:
            out += format("plan.regionOutage(\"%s\", %llu, %llu);\n",
                          f.a.c_str(), (unsigned long long)f.start,
                          (unsigned long long)f.duration);
            break;
          case fault::FaultKind::WanDegrade:
            out += format(
                "plan.wanDegrade(\"%s\", \"%s\", %llu, %llu, %.17g, "
                "%llu);\n",
                f.a.c_str(), f.b.c_str(),
                (unsigned long long)f.start,
                (unsigned long long)f.duration, f.magnitude,
                (unsigned long long)f.extraLatency);
            break;
        }
    }
    return out;
}

unsigned
ChaosReport::violating() const
{
    unsigned count = 0;
    for (const PlanReport &p : plans)
        count += p.result.ok() ? 0 : 1;
    return count;
}

ChaosReport
runChaos(const ChaosConfig &cfg, unsigned planCount,
         sim::RunExecutor *executor)
{
    // Per-plan seeds derive from the master seed alone, so the
    // campaign is reproducible and each plan is independent.
    sim::Rng master(cfg.seed ^ 0xc4a0c4a0ull);
    std::vector<std::uint64_t> seeds(planCount);
    for (auto &s : seeds)
        s = master();

    const auto one = [&cfg](std::uint64_t seed) {
        PlanReport report;
        report.planSeed = seed;
        report.plan = generateRandomPlan(cfg, seed);
        report.result = runPlan(cfg, report.plan);
        return report;
    };

    ChaosReport report;
    if (executor != nullptr && executor->jobs() > 1) {
        std::vector<std::function<PlanReport()>> tasks;
        tasks.reserve(planCount);
        for (std::uint64_t seed : seeds)
            tasks.push_back([seed, one] { return one(seed); });
        report.plans =
            executor->runOrdered<PlanReport>(std::move(tasks));
    } else {
        report.plans.reserve(planCount);
        for (std::uint64_t seed : seeds)
            report.plans.push_back(one(seed));
    }
    return report;
}

} // namespace ditto::chaos
