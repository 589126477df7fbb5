#include "profile/session.h"

#include "profile/cpu_profiler.h"
#include "profile/perf_report.h"
#include "profile/probe_collector.h"

namespace ditto::profile {

ServiceProfile
profileService(app::Deployment &dep, app::ServiceInstance &svc,
               const ProfileOptions &opts)
{
    os::Machine &machine = svc.machine();

    // Warm the service (caches, page cache, connections).
    dep.runFor(opts.warmup);

    // Attach the instrumentation (an observed core runs exactly).
    CpuProfiler cpu(svc.name() + ".", opts.maxWsBytes);
    for (unsigned c = 0; c < machine.coreCount(); ++c)
        machine.core(c).setObserver(&cpu);
    ProbeCollector probe;
    svc.setProbe(&probe);
    probe.begin(dep.events().now());
    svc.beginMeasure();

    dep.runFor(opts.window);

    // Snapshot reference counters before detaching.
    const PerfReport ref = snapshotService(svc);

    for (unsigned c = 0; c < machine.coreCount(); ++c)
        machine.core(c).setObserver(nullptr);
    svc.setProbe(nullptr);

    const double requests =
        std::max(1.0, static_cast<double>(svc.stats().requests));

    ServiceProfile prof;
    prof.serviceName = svc.name();
    prof.requestsObserved = requests;
    prof.mix = cpu.mixProfile(requests);
    prof.branch = cpu.branchProfile();
    prof.dmem = cpu.dataMemProfile();
    prof.imem = cpu.instMemProfile();
    prof.dep = cpu.depProfile(ref.mlpSerializedFraction);
    prof.syscalls = probe.syscallProfile();
    prof.syscalls.requestsObserved = requests;
    prof.syscalls.diskReadBytesPerRequest =
        static_cast<double>(svc.stats().diskReadBytes) / requests;
    prof.threads = probe.threadObservations();
    prof.asyncEvidence = probe.asyncEvidence();

    prof.reference.ipc = ref.ipc;
    prof.reference.instructionsPerRequest = ref.instructionsPerRequest;
    prof.reference.cyclesPerRequest = ref.cyclesPerRequest;
    prof.reference.branchMispredictRate = ref.branchMispredictRate;
    prof.reference.l1iMissRate = ref.l1iMissRate;
    prof.reference.l1dMissRate = ref.l1dMissRate;
    prof.reference.l2MissRate = ref.l2MissRate;
    prof.reference.llcMissRate = ref.llcMissRate;
    prof.reference.p99LatencyMs = ref.p99LatencyMs;

    const app::ServiceStats &stats = svc.stats();
    prof.avgRequestBytes = stats.requests
        ? static_cast<double>(stats.rxBytes) /
            static_cast<double>(stats.requests)
        : 0;
    prof.avgResponseBytes = stats.requests
        ? static_cast<double>(stats.txBytes) /
            static_cast<double>(stats.requests)
        : 0;
    return prof;
}

} // namespace ditto::profile
