#include "bench/bench_common.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

namespace ditto::bench {

BenchRuntime::BenchRuntime(int argc, char **argv, std::string name)
    : name_(std::move(name)),
      start_(std::chrono::steady_clock::now()),
      executor_(std::make_unique<sim::RunExecutor>(
          sim::RunExecutor::jobsFromArgs(argc, argv)))
{
}

BenchRuntime::~BenchRuntime()
{
    finish();
}

void
BenchRuntime::finish()
{
    if (finished_)
        return;
    finished_ = true;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    // stderr, so stdout stays byte-identical across worker counts.
    std::fprintf(stderr, "[%s] wall-clock %.2fs (jobs=%u)\n",
                 name_.c_str(), seconds, jobs());
    recordBenchTiming(name_, seconds, jobs());
}

void
recordBenchTiming(const std::string &name, double wallSeconds,
                  unsigned jobs)
{
    // Sub-0.1s runs (bench_table1 replays recorded tables in
    // microseconds) would truncate to "0.000" at fixed 3-decimal
    // precision; widen until the measurement keeps real digits.
    const int precision = wallSeconds >= 0.1 ? 3 : 6;
    std::ostringstream value;
    value << "{\"wall_seconds\": "
          << stats::formatDouble(wallSeconds, precision)
          << ", \"jobs\": " << jobs << "}";
    recordBenchEntry(name, value.str());
}

void
recordBenchEntry(const std::string &name, const std::string &json)
{
    const char *path = "BENCH_pipeline.json";

    // Keep other benches' entries: the file is one flat object with
    // one `"bench": {...}` line per bench.
    std::map<std::string, std::string> entries;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t q0 = line.find('"');
        if (q0 == std::string::npos)
            continue;
        const std::size_t q1 = line.find('"', q0 + 1);
        const std::size_t b0 = line.find('{', q1);
        const std::size_t b1 = line.rfind('}');
        if (q1 == std::string::npos || b0 == std::string::npos ||
            b1 == std::string::npos || b1 < b0)
            continue;
        entries[line.substr(q0 + 1, q1 - q0 - 1)] =
            line.substr(b0, b1 - b0 + 1);
    }
    in.close();

    entries[name] = json;

    std::ofstream out(path, std::ios::trunc);
    out << "{\n";
    std::size_t i = 0;
    for (const auto &[bench, json] : entries) {
        out << "  \"" << bench << "\": " << json;
        out << (++i == entries.size() ? "\n" : ",\n");
    }
    out << "}\n";
}

std::vector<AppCase>
singleTierApps()
{
    return {
        {"Memcached", apps::memcachedSpec(), apps::memcachedLoad()},
        {"NGINX", apps::nginxSpec(), apps::nginxLoad()},
        {"MongoDB", apps::mongodbSpec(), apps::mongodbLoad()},
        {"Redis", apps::redisSpec(), apps::redisLoad()},
    };
}

RunResult
runSingleTier(const app::ServiceSpec &spec,
              const workload::LoadSpec &load,
              const hw::PlatformSpec &platform, sim::Time warm,
              sim::Time measure, std::uint64_t seed)
{
    app::Deployment dep(seed);
    os::Machine &machine = dep.addMachine("node", platform);
    app::ServiceInstance &svc = dep.deploy(spec, machine);
    dep.wireAll();
    workload::LoadGen gen(dep, svc, load, seed ^ 0x10ad);
    gen.start();
    dep.runFor(warm);
    dep.beginMeasureAll();
    gen.beginMeasure();
    dep.runFor(measure);

    RunResult result;
    result.report = profile::snapshotService(svc);
    profile::overrideLatency(result.report, gen.latency());
    result.clientLatency = gen.latency();
    result.achievedQps = gen.achievedQps();
    return result;
}

SnRunResult
runSocialNetwork(const std::vector<app::ServiceSpec> &tiers,
                 const std::string &rootName,
                 const workload::LoadSpec &load,
                 const hw::PlatformSpec &platform, sim::Time warm,
                 sim::Time measure, std::uint64_t seed)
{
    app::Deployment dep(seed);
    os::Machine &machine = dep.addMachine("node", platform);
    for (const app::ServiceSpec &tier : tiers)
        dep.deploy(tier, machine);
    dep.wireAll();
    app::ServiceInstance *root = dep.find(rootName);
    workload::LoadGen gen(dep, *root, load, seed ^ 0x10ad);
    gen.start();
    dep.runFor(warm);
    dep.beginMeasureAll();
    gen.beginMeasure();
    dep.runFor(measure);

    SnRunResult result;
    for (const app::ServiceSpec &tier : tiers) {
        app::ServiceInstance *svc = dep.find(tier.name);
        if (svc)
            result.tiers[tier.name] = profile::snapshotService(*svc);
    }
    result.clientLatency = gen.latency();
    result.achievedQps = gen.achievedQps();
    return result;
}

core::CloneResult
cloneSingleTier(const AppCase &app, sim::RunExecutor &executor)
{
    const std::uint64_t seed = 79;
    app::Deployment dep(seed);
    os::Machine &machine = dep.addMachine("node", hw::platformA());
    app::ServiceInstance &svc = dep.deploy(app.spec, machine);
    dep.wireAll();
    const workload::LoadSpec load = app.load.at(app.load.mediumQps);
    workload::LoadGen gen(dep, svc, load, seed ^ 0x10ad);
    gen.start();

    core::CloneOptions opts;
    opts.executor = &executor;
    opts.profiling.warmup = sim::milliseconds(150);
    opts.profiling.window = sim::milliseconds(120);
    return core::cloneService(dep, svc, load, hw::platformA(), opts);
}

core::TopologyCloneResult
cloneSocialNetwork(sim::RunExecutor &executor)
{
    const std::uint64_t seed = 80;
    app::Deployment dep(seed);
    os::Machine &machine = dep.addMachine("node", hw::platformA());
    const auto tiers = apps::socialNetworkSpecs();
    for (const app::ServiceSpec &tier : tiers)
        dep.deploy(tier, machine);
    dep.wireAll();
    app::ServiceInstance *root =
        dep.find(apps::socialNetworkFrontend());
    const auto load = apps::socialNetworkLoad();
    workload::LoadGen gen(dep, *root, load.at(load.mediumQps * 0.6),
                          seed ^ 0x10ad);
    gen.start();
    dep.runFor(sim::milliseconds(120));

    core::CloneOptions opts;
    opts.fineTune = true;  // per-tier calibration in sandboxes
    opts.executor = &executor;
    opts.maxTuneIterations = 4;
    opts.tuneTolerance = 0.08;
    opts.tuneWarmup = sim::milliseconds(100);
    opts.tuneWindow = sim::milliseconds(150);
    opts.profiling.warmup = sim::milliseconds(40);
    opts.profiling.window = sim::milliseconds(80);

    std::vector<std::string> names;
    for (const app::ServiceSpec &tier : tiers)
        names.push_back(tier.name);
    return core::cloneTopology(dep, names, load.connections, opts);
}

workload::LoadSpec
socialCloneLoad(double qps)
{
    return core::cloneLoadSpec(apps::socialNetworkLoad().at(qps));
}

std::string
cell(double v, int precision)
{
    return stats::formatDouble(v, precision);
}

void
addMetricRows(stats::TablePrinter &table, const std::string &tag,
              const profile::PerfReport &orig,
              const profile::PerfReport &synth)
{
    auto row = [&](const std::string &metric, double a, double s,
                   int precision = 3) {
        table.addRow({tag, metric, cell(a, precision),
                      cell(s, precision),
                      stats::formatPercent(
                          profile::relativeError(s, a), 1)});
    };
    row("IPC", orig.ipc, synth.ipc);
    row("BranchMiss", orig.branchMispredictRate,
        synth.branchMispredictRate, 4);
    row("L1i miss", orig.l1iMissRate, synth.l1iMissRate);
    row("L1d miss", orig.l1dMissRate, synth.l1dMissRate);
    row("L2 miss", orig.l2MissRate, synth.l2MissRate);
    row("LLC miss", orig.llcMissRate, synth.llcMissRate);
    row("Net MB/s", orig.netBandwidthBytesPerSec / 1e6,
        synth.netBandwidthBytesPerSec / 1e6, 1);
    if (orig.diskBandwidthBytesPerSec > 1e5 ||
        synth.diskBandwidthBytesPerSec > 1e5) {
        row("Disk MB/s", orig.diskBandwidthBytesPerSec / 1e6,
            synth.diskBandwidthBytesPerSec / 1e6, 1);
    }
}

void
ErrorAccumulator::record(const std::string &metric, double orig,
                         double synth, double denomFloor)
{
    // Rates near zero would explode a pure relative error; floor the
    // denominator so "0.1% vs 0.4% LLC misses" is a small error, as
    // in the paper's percentage-point comparisons.
    auto &[sum, count] = sums_[metric];
    sum += std::abs(synth - orig) / std::max(orig, denomFloor);
    count += 1;
}

void
ErrorAccumulator::add(const profile::PerfReport &orig,
                      const profile::PerfReport &synth)
{
    record("IPC", orig.ipc, synth.ipc, 0.05);
    record("Branch", orig.branchMispredictRate,
           synth.branchMispredictRate, 0.01);
    record("L1i", orig.l1iMissRate, synth.l1iMissRate, 0.02);
    record("L1d", orig.l1dMissRate, synth.l1dMissRate, 0.02);
    record("L2", orig.l2MissRate, synth.l2MissRate, 0.05);
    record("LLC", orig.llcMissRate, synth.llcMissRate, 0.05);
    record("NetBW", orig.netBandwidthBytesPerSec,
           synth.netBandwidthBytesPerSec, 1e6);
    if (orig.diskBandwidthBytesPerSec > 1e5) {
        record("DiskBW", orig.diskBandwidthBytesPerSec,
               synth.diskBandwidthBytesPerSec, 1e6);
    }
}

void
ErrorAccumulator::print(std::ostream &os) const
{
    stats::TablePrinter table({"metric", "avg error"});
    for (const auto &[metric, entry] : sums_) {
        table.addRow({metric,
                      stats::formatPercent(
                          entry.first / std::max(1, entry.second),
                          1)});
    }
    stats::printBanner(os,
                       "Average clone error per metric (Sec. 6.2.1)");
    table.print(os);
}

} // namespace ditto::bench
