/**
 * @file
 * Tests for the profiling toolchain: stack-distance curves, the CPU
 * profiler, the probe collector, Eq. 1/Eq. 2 post-processing, and
 * perf reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "app/deployment.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "profile/cpu_profiler.h"
#include "profile/perf_report.h"
#include "profile/probe_collector.h"
#include "profile/session.h"
#include "profile/stack_distance.h"
#include "workload/loadgen.h"

namespace {

using namespace ditto;
using namespace ditto::profile;

TEST(StackDistance, CyclicWalkHitsIffCapacityCoversSet)
{
    StackDistanceCurve curve;
    const std::uint64_t lines = 256;  // 16KB working set (index 8)
    for (int pass = 0; pass < 10; ++pass) {
        for (std::uint64_t l = 0; l < lines; ++l)
            curve.access(l);
    }
    const auto hits = curve.hitsBySize();
    const double warmAccesses = 9.0 * lines;  // all but the cold pass
    // 16KB (index 8) and above: everything but cold misses hits.
    EXPECT_DOUBLE_EQ(hits[8], warmAccesses);
    EXPECT_DOUBLE_EQ(hits[25], warmAccesses);
    // Any smaller capacity: zero hits (LRU worst case for cyclic).
    EXPECT_DOUBLE_EQ(hits[7], 0.0);
    EXPECT_DOUBLE_EQ(hits[0], 0.0);
    EXPECT_DOUBLE_EQ(curve.coldMisses(), static_cast<double>(lines));
}

TEST(StackDistance, RepeatedLineAlwaysHitsSmallest)
{
    StackDistanceCurve curve;
    for (int i = 0; i < 100; ++i)
        curve.access(42);
    const auto hits = curve.hitsBySize();
    EXPECT_DOUBLE_EQ(hits[0], 99.0);
}

TEST(StackDistance, TwoAlternatingLinesNeedTwoLines)
{
    StackDistanceCurve curve;
    for (int i = 0; i < 50; ++i) {
        curve.access(1);
        curve.access(2);
    }
    const auto hits = curve.hitsBySize();
    // Distance 2: misses in a 1-line cache, hits with >= 2 lines
    // (index 1 = 128B).
    EXPECT_DOUBLE_EQ(hits[0], 0.0);
    EXPECT_DOUBLE_EQ(hits[1], 98.0);
}

TEST(StackDistance, MonotoneNonDecreasingCurve)
{
    StackDistanceCurve curve;
    sim::Rng rng(5);
    for (int i = 0; i < 20000; ++i)
        curve.access(rng.uniformInt(std::uint64_t{4096}));
    const auto hits = curve.hitsBySize();
    for (std::size_t i = 1; i < hits.size(); ++i)
        EXPECT_GE(hits[i], hits[i - 1]);
    EXPECT_LE(hits.back(), curve.totalAccesses());
}

TEST(StackDistance, CompressionPreservesDistances)
{
    // Interleaved pattern distances stay exact after many repetitions.
    // The renumbering at kMaxTime itself is checked by
    // FlatTableMatchesMapBackedCurveAcrossCompression.
    StackDistanceCurve curve;
    for (int rep = 0; rep < 1000; ++rep) {
        for (std::uint64_t l = 0; l < 8; ++l)
            curve.access(l);
    }
    const auto hits = curve.hitsBySize();
    EXPECT_DOUBLE_EQ(hits[3], 1000.0 * 8 - 8);  // 8 lines = 512B
    EXPECT_DOUBLE_EQ(hits[2], 0.0);
}

/**
 * The curve as it was with a std::unordered_map for last-use times,
 * frozen as the oracle for the flat table. Do not update it along
 * with src/profile/stack_distance.cc.
 */
class MapBackedCurve
{
  public:
    MapBackedCurve() { bit_.assign(1 << 16, 0); }

    std::size_t
    access(std::uint64_t lineAddr)
    {
        total_ += 1;
        if (time_ >= kMaxTime)
            compress();
        const std::uint32_t now = time_++;
        ensure(now);
        const auto it = lastTime_.find(lineAddr);
        if (it == lastTime_.end()) {
            cold_ += 1;
            bitAdd(now, 1);
            lastTime_.emplace(lineAddr, now);
            return kWsSizes;
        }
        const std::uint32_t prev = it->second;
        const std::int64_t distance = bitPrefix(now) - bitPrefix(prev) + 1;
        const auto d = static_cast<std::uint64_t>(
            distance < 1 ? 1 : distance);
        const unsigned idx = d <= 1
            ? 0
            : static_cast<unsigned>(64 - std::countl_zero(d - 1));
        minHitIdx_[std::min<std::size_t>(idx, kWsSizes)] += 1;
        bitAdd(prev, -1);
        bitAdd(now, 1);
        it->second = now;
        return std::min<std::size_t>(idx, kWsSizes);
    }

    std::array<double, kWsSizes>
    hitsBySize() const
    {
        std::array<double, kWsSizes> hits{};
        double cumulative = 0;
        for (std::size_t i = 0; i < kWsSizes; ++i) {
            cumulative += minHitIdx_[i];
            hits[i] = cumulative;
        }
        return hits;
    }

    double coldMisses() const { return cold_; }

    static constexpr std::uint32_t kMaxTime = 1u << 24;

  private:
    std::unordered_map<std::uint64_t, std::uint32_t> lastTime_;
    std::vector<std::int32_t> bit_;
    std::uint32_t time_ = 0;
    std::array<double, kWsSizes + 1> minHitIdx_{};
    double total_ = 0;
    double cold_ = 0;

    void
    ensure(std::uint32_t pos)
    {
        if (pos >= bit_.size()) {
            std::size_t size = bit_.size();
            while (pos >= size)
                size *= 2;
            bit_.resize(size, 0);
        }
    }

    void
    bitAdd(std::uint32_t pos, std::int32_t delta)
    {
        ensure(pos);
        for (std::uint32_t i = pos + 1; i <= bit_.size(); i += i & (~i + 1))
            bit_[i - 1] += delta;
    }

    std::int64_t
    bitPrefix(std::uint32_t pos) const
    {
        std::int64_t sum = 0;
        std::uint32_t limit = pos + 1;
        if (limit > bit_.size())
            limit = static_cast<std::uint32_t>(bit_.size());
        for (std::uint32_t i = limit; i > 0; i -= i & (~i + 1))
            sum += bit_[i - 1];
        return sum;
    }

    void
    compress()
    {
        std::vector<std::pair<std::uint32_t, std::uint64_t>> live;
        for (const auto &[line, t] : lastTime_)
            live.push_back({t, line});
        std::sort(live.begin(), live.end());
        std::fill(bit_.begin(), bit_.end(), 0);
        std::uint32_t next = 0;
        for (const auto &[t, line] : live) {
            (void)t;
            lastTime_[line] = next;
            bitAdd(next, 1);
            ++next;
        }
        time_ = next;
    }
};

TEST(StackDistance, FlatTableMatchesMapBackedCurveAcrossCompression)
{
    // 2^24 + 2^20 accesses: the time index reaches kMaxTime once, so
    // the renumbering runs with live lines of every age. The stream
    // mixes a hot set, a cyclic sweep, uniform lines over 2^18 and
    // line 0 (a stored time of 0 must not read as absent).
    StackDistanceCurve flat;
    MapBackedCurve oracle;
    sim::Rng rng(23);
    std::uint64_t sweep = 0;
    const std::uint64_t total = (1u << 24) + (1u << 20);
    for (std::uint64_t i = 0; i < total; ++i) {
        std::uint64_t line;
        switch (i % 4) {
          case 0: line = rng.uniformInt(std::uint64_t{64}); break;
          case 1: line = 1000 + (sweep++ % 5000); break;
          case 2: line = rng.uniformInt(std::uint64_t{1} << 18); break;
          default: line = i % 64 == 3 ? 0 : (i * 2654435761u) % 70000;
        }
        const std::size_t want = oracle.access(line);
        const std::size_t got = flat.access(line);
        if (want != got) {
            ASSERT_EQ(want, got) << "access " << i << " line " << line;
        }
    }
    EXPECT_EQ(oracle.hitsBySize(), flat.hitsBySize());
    EXPECT_EQ(oracle.coldMisses(), flat.coldMisses());
    EXPECT_EQ(flat.totalAccesses(), static_cast<double>(total));
}

TEST(Eq1, DataAccessDecomposition)
{
    DataMemProfile dmem;
    dmem.hitsBySize[0] = 100;
    dmem.hitsBySize[1] = 150;
    dmem.hitsBySize[2] = 150;  // no new hits at 256B
    dmem.hitsBySize[3] = 400;
    for (std::size_t i = 4; i < kWsSizes; ++i)
        dmem.hitsBySize[i] = 400;
    const auto a = dmem.accessesBySize();
    EXPECT_DOUBLE_EQ(a[0], 100);
    EXPECT_DOUBLE_EQ(a[1], 50);
    EXPECT_DOUBLE_EQ(a[2], 0);
    EXPECT_DOUBLE_EQ(a[3], 250);
    EXPECT_DOUBLE_EQ(a[4], 0);
}

TEST(Eq2, InstExecutionDecomposition)
{
    InstMemProfile imem;
    imem.hitsBySize[0] = 50;
    imem.hitsBySize[1] = 80;
    for (std::size_t i = 2; i < kWsSizes; ++i)
        imem.hitsBySize[i] = 100;
    const auto e = imem.executionsBySize();
    // 16 instructions per line (Eq. 2).
    EXPECT_DOUBLE_EQ(e[1], 16.0 * 30);
    EXPECT_DOUBLE_EQ(e[2], 16.0 * 20);
    EXPECT_DOUBLE_EQ(e[3], 0);
    // Total executions = 16 * H(max); the 64B bin gets the rest.
    EXPECT_DOUBLE_EQ(e[0], 16.0 * 100 - (16.0 * 30 + 16.0 * 20));
}

TEST(DepBins, BinningIsExponential)
{
    EXPECT_EQ(depBinOf(1), 0u);
    EXPECT_EQ(depBinOf(2), 1u);
    EXPECT_EQ(depBinOf(3), 1u);
    EXPECT_EQ(depBinOf(4), 2u);
    EXPECT_EQ(depBinOf(1024), 10u);
    EXPECT_EQ(depBinOf(100000), kDepBins - 1);
}

// ---------------------------------------------------------------------------
// CpuProfiler against crafted blocks executed on a real core.
// ---------------------------------------------------------------------------

struct ProfilerFixture
{
    hw::PlatformSpec spec = hw::platformA();
    hw::Cache llc{spec.llcBytes, spec.llcWays};
    hw::CacheHierarchy caches{spec.l1iBytes, spec.l1iWays,
                              spec.l1dBytes, spec.l1dWays,
                              spec.l2Bytes, spec.l2Ways, &llc, true};
    hw::CpuCore core{0, spec, caches, nullptr};
    hw::ExecContext ctx{0, 1};
    hw::CodeImage image{0x400000, 0x10000000, 4};
};

TEST(CpuProfiler, CapturesInstructionMixAndBranches)
{
    ProfilerFixture f;
    hw::BlockSpec spec;
    spec.label = "svc.block";
    spec.instCount = 200;
    spec.memFraction = 0.3;
    spec.branchFraction = 0.1;
    spec.branchKinds = {{3, 4}};
    spec.seed = 9;
    const auto b = f.image.addBlock(hw::buildBlock(spec));

    CpuProfiler prof("svc.");
    f.core.setObserver(&prof);
    hw::ExecStats stats;
    f.core.run(f.image, b, 500, f.ctx, stats);
    f.core.setObserver(nullptr);

    const auto mix = prof.mixProfile(100);
    EXPECT_NEAR(mix.total(), 200.0 * 500, 1.0);
    EXPECT_NEAR(mix.instsPerRequest, 200.0 * 500 / 100, 1.0);
    EXPECT_NEAR(mix.memOperandFraction(), 0.3, 0.08);

    const auto branches = prof.branchProfile();
    EXPECT_NEAR(branches.branchFraction, 0.1, 0.04);
    EXPECT_GT(branches.staticSites, 5u);
    // All sites were authored with (3,4): the dominant bin must be
    // at or near those exponents.
    double best = 0;
    unsigned bestM = 0;
    unsigned bestN = 0;
    for (unsigned m = 1; m <= 10; ++m) {
        for (unsigned n = 1; n <= 10; ++n) {
            if (branches.bins[m][n] > best) {
                best = branches.bins[m][n];
                bestM = m;
                bestN = n;
            }
        }
    }
    EXPECT_NEAR(bestM, 3, 1);
    EXPECT_NEAR(bestN, 4, 1);
}

TEST(CpuProfiler, CapturesWorkingSetCurve)
{
    ProfilerFixture f;
    hw::BlockSpec spec;
    spec.label = "svc.ws";
    spec.instCount = 64;
    spec.memFraction = 0.5;
    spec.streams = {{1 << 20, hw::StreamKind::Sequential, false, 1.0}};
    spec.seed = 10;
    const auto b = f.image.addBlock(hw::buildBlock(spec));

    CpuProfiler prof("svc.");
    f.core.setObserver(&prof);
    hw::ExecStats stats;
    f.core.run(f.image, b, 3000, f.ctx, stats);
    f.core.setObserver(nullptr);

    const auto dmem = prof.dataMemProfile();
    const auto a = dmem.accessesBySize();
    // A cyclic 1MB stream: the mass lands in the 1MB bucket (idx 14).
    double inBucket = a[14];
    double total = 0;
    for (double x : a)
        total += x;
    EXPECT_GT(inBucket, 0.85 * total);
    EXPECT_GT(dmem.regularFraction, 0.8);  // sequential stream
}

TEST(CpuProfiler, KernelBlocksExcluded)
{
    ProfilerFixture f;
    hw::BlockSpec user;
    user.label = "svc.u";
    user.instCount = 100;
    user.seed = 11;
    hw::BlockSpec kern;
    kern.label = "k.fake";
    kern.instCount = 100;
    kern.seed = 12;
    const auto ub = f.image.addBlock(hw::buildBlock(user));
    const auto kb = f.image.addBlock(hw::buildBlock(kern));

    CpuProfiler prof("svc.");
    f.core.setObserver(&prof);
    hw::ExecStats stats;
    f.core.run(f.image, ub, 10, f.ctx, stats);
    f.core.run(f.image, kb, 10, f.ctx, stats, /*kernelMode=*/true);
    f.core.setObserver(nullptr);
    EXPECT_NEAR(prof.totalInstructions(), 1000.0, 1.0);
}

TEST(CpuProfiler, PrefixFiltersOtherServices)
{
    ProfilerFixture f;
    hw::BlockSpec mine;
    mine.label = "svc.mine";
    mine.instCount = 100;
    mine.seed = 13;
    hw::BlockSpec other;
    other.label = "other.block";
    other.instCount = 100;
    other.seed = 14;
    const auto mb = f.image.addBlock(hw::buildBlock(mine));
    const auto ob = f.image.addBlock(hw::buildBlock(other));
    CpuProfiler prof("svc.");
    f.core.setObserver(&prof);
    hw::ExecStats stats;
    f.core.run(f.image, mb, 5, f.ctx, stats);
    f.core.run(f.image, ob, 5, f.ctx, stats);
    f.core.setObserver(nullptr);
    EXPECT_NEAR(prof.totalInstructions(), 500.0, 1.0);
}

TEST(CpuProfiler, DependencyDistancesReflectTightness)
{
    ProfilerFixture f;
    hw::BlockSpec tight;
    tight.label = "svc.tight";
    tight.instCount = 200;
    tight.depTightness = 0.9;
    tight.seed = 15;
    hw::BlockSpec loose = tight;
    loose.label = "svc.loose";
    loose.depTightness = 0.05;
    loose.seed = 15;

    auto profiled_raw_short_mass = [&](const hw::BlockSpec &spec) {
        ProfilerFixture local;
        const auto b = local.image.addBlock(hw::buildBlock(spec));
        CpuProfiler prof("svc.");
        local.core.setObserver(&prof);
        hw::ExecStats stats;
        local.core.run(local.image, b, 50, local.ctx, stats);
        local.core.setObserver(nullptr);
        const auto dep = prof.depProfile(0);
        double shortMass = 0;
        double total = 0;
        for (std::size_t bin = 0; bin < kDepBins; ++bin) {
            total += dep.raw[bin];
            if (bin <= 2)
                shortMass += dep.raw[bin];
        }
        return total > 0 ? shortMass / total : 0.0;
    };
    EXPECT_GT(profiled_raw_short_mass(tight),
              profiled_raw_short_mass(loose) + 0.1);
}

TEST(ProbeCollector, AggregatesSyscallsPerRequest)
{
    ProbeCollector probe;
    probe.begin(0);

    class Dummy : public os::Thread
    {
      public:
        explicit Dummy(std::string n) : os::Thread(std::move(n), 0, 1) {}
        os::StepResult step(os::StepCtx &) override
        {
            return {os::StopReason::Exit};
        }
    };
    Dummy t1("w1");
    Dummy t2("w2");
    for (int i = 0; i < 10; ++i) {
        probe.onSyscall(t1, app::SysKind::SocketRead, 128);
        probe.onSyscall(t2, app::SysKind::Pread, 4096);
        probe.onRequestDone(0, 1000);
    }
    probe.onFileAccess(t2, 1 << 20, 4096, false);

    const auto prof = probe.syscallProfile();
    EXPECT_EQ(probe.requests(), 10u);
    const auto &reads =
        prof.perKind.at(static_cast<int>(app::SysKind::SocketRead));
    EXPECT_DOUBLE_EQ(reads.countPerRequest, 1.0);
    EXPECT_DOUBLE_EQ(reads.avgBytes, 128.0);
    const auto &preads =
        prof.perKind.at(static_cast<int>(app::SysKind::Pread));
    EXPECT_DOUBLE_EQ(preads.avgBytes, 4096.0);
    EXPECT_EQ(prof.fileSpanBytes, (1u << 20) + 4096u);

    const auto threads = probe.threadObservations();
    ASSERT_EQ(threads.size(), 2u);
    EXPECT_EQ(threads[0].name, "w1");
}

TEST(ProbeCollector, CallGraphPathsPerThread)
{
    ProbeCollector probe;
    probe.begin(0);
    class Dummy : public os::Thread
    {
      public:
        Dummy() : os::Thread("t", 0, 1) {}
        os::StepResult step(os::StepCtx &) override
        {
            return {os::StopReason::Exit};
        }
    };
    Dummy t;
    probe.onCallEnter(t, "outer");
    probe.onCallEnter(t, "inner");
    probe.onCallExit(t, "inner");
    probe.onCallExit(t, "outer");
    const auto threads = probe.threadObservations();
    ASSERT_EQ(threads.size(), 1u);
    ASSERT_EQ(threads[0].callPaths.size(), 2u);
    EXPECT_EQ(threads[0].callPaths[0], "/outer");
    EXPECT_EQ(threads[0].callPaths[1], "/outer/inner");
}

TEST(ProbeCollector, AsyncEvidenceFromOverlappedRpcs)
{
    ProbeCollector sync;
    ProbeCollector async;
    class Dummy : public os::Thread
    {
      public:
        Dummy() : os::Thread("t", 0, 1) {}
        os::StepResult step(os::StepCtx &) override
        {
            return {os::StopReason::Exit};
        }
    };
    Dummy t;
    for (int i = 0; i < 10; ++i) {
        // Sync: issue, read, issue, read.
        sync.onRpcIssued(t, 0, 0, 10, 10);
        sync.onSyscall(t, app::SysKind::SocketRead, 10);
        // Async: issue three back-to-back, then read.
        async.onRpcIssued(t, 0, 0, 10, 10);
        async.onRpcIssued(t, 1, 0, 10, 10);
        async.onRpcIssued(t, 2, 0, 10, 10);
        async.onSyscall(t, app::SysKind::SocketRead, 10);
    }
    EXPECT_LT(sync.asyncEvidence(), 0.05);
    EXPECT_GT(async.asyncEvidence(), 0.5);
}

TEST(PerfReport, RelativeErrorAndSnapshot)
{
    EXPECT_NEAR(relativeError(1.1, 1.0), 0.1, 1e-9);
    EXPECT_NEAR(relativeError(0.9, 1.0), 0.1, 1e-9);
    EXPECT_GT(relativeError(1.0, 0.0), 1e6);
}

TEST(ProfileSession, EndToEndProfileIsSane)
{
    app::Deployment dep(21);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    app::ServiceSpec spec;
    spec.name = "tiny";
    spec.threads.workers = 2;
    hw::BlockSpec bs;
    bs.label = "tiny.h";
    bs.instCount = 150;
    bs.memFraction = 0.3;
    bs.branchFraction = 0.1;
    bs.streams = {{64 << 10, hw::StreamKind::Sequential, false, 1.0}};
    bs.seed = 22;
    spec.blocks.push_back(hw::buildBlock(bs));
    app::EndpointSpec ep;
    ep.name = "get";
    ep.handler.ops = {app::opCall("handle", {{app::opCompute(0, 20)}})};
    spec.endpoints.push_back(ep);
    app::ServiceInstance &svc = dep.deploy(spec, m);
    dep.wireAll();

    workload::LoadSpec load;
    load.qps = 2000;
    load.connections = 4;
    workload::LoadGen gen(dep, svc, load, 5);
    gen.start();

    ProfileOptions opts;
    opts.warmup = sim::milliseconds(50);
    opts.window = sim::milliseconds(100);
    const ServiceProfile prof = profileService(dep, svc, opts);

    EXPECT_EQ(prof.serviceName, "tiny");
    EXPECT_GT(prof.requestsObserved, 50);
    EXPECT_NEAR(prof.mix.instsPerRequest, 20 * 150, 20 * 150 * 0.2);
    EXPECT_GT(prof.reference.ipc, 0.1);
    EXPECT_GT(prof.threads.size(), 1u);
    EXPECT_GT(prof.syscalls.perKind.size(), 1u);
    // Observers detached: exact mode off again.
    EXPECT_GT(prof.avgResponseBytes, 0);
}

// ---------------------------------------------------------------------------
// PerfReport percentile golden test
// ---------------------------------------------------------------------------

/** Records every request latency exactly, bypassing the histogram. */
struct LatencyTap : app::ServiceProbe
{
    std::vector<sim::Time> latencies;

    void
    onRequestDone(std::uint32_t, sim::Time latency) override
    {
        latencies.push_back(latency);
    }
};

TEST(PerfReport, PercentilesMatchBruteForceWithinHistogramBound)
{
    // snapshotService() reads p50/p95/p99 from the log-linear
    // latency histogram (32 sub-buckets per power of two, so at most
    // ~3.2% relative bucket error). A probe taps the exact latency
    // stream in parallel; brute-force order statistics over that
    // stream (rank ceil(q*n), the histogram's documented rank rule)
    // are the golden reference the report must track.
    app::Deployment dep(29);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    app::ServiceSpec spec;
    spec.name = "tap";
    spec.threads.workers = 2;
    hw::BlockSpec bs;
    bs.label = "tap.h";
    bs.instCount = 120;
    bs.seed = 31;
    spec.blocks.push_back(hw::buildBlock(bs));
    app::EndpointSpec ep;
    ep.name = "get";
    ep.handler.ops = {app::opCompute(0, 12)};
    spec.endpoints.push_back(ep);
    app::ServiceInstance &svc = dep.deploy(spec, m);
    dep.wireAll();

    LatencyTap tap;
    svc.setProbe(&tap);

    workload::LoadSpec load;
    load.qps = 4000;
    load.connections = 8;
    load.openLoop = true;
    workload::LoadGen gen(dep, svc, load, 37);
    gen.start();
    dep.runFor(sim::milliseconds(80));

    const PerfReport report = snapshotService(svc);
    ASSERT_GE(tap.latencies.size(), 100u);
    ASSERT_EQ(tap.latencies.size(), svc.stats().latency.count());

    std::vector<sim::Time> sorted = tap.latencies;
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    auto golden = [&](double q) {
        auto rank = static_cast<std::size_t>(
            std::ceil(q * n - 1e-9));
        rank = std::clamp<std::size_t>(rank, 1, sorted.size());
        return sim::toMilliseconds(sorted[rank - 1]);
    };

    EXPECT_LE(relativeError(report.p50LatencyMs, golden(0.50)), 0.032);
    EXPECT_LE(relativeError(report.p95LatencyMs, golden(0.95)), 0.032);
    EXPECT_LE(relativeError(report.p99LatencyMs, golden(0.99)), 0.032);

    // The mean is tracked exactly (sum/count), not bucketed: only
    // the report's ns truncation separates it from the golden mean.
    double sumMs = 0;
    for (const sim::Time v : sorted)
        sumMs += sim::toMilliseconds(v);
    EXPECT_LE(relativeError(report.avgLatencyMs, sumMs / n), 1e-3);
}

} // namespace
