/**
 * @file
 * Tests for the body generator (stage semantics, Eq. 1/2 synthesis)
 * and the skeleton generator / fine tuner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "core/body_generator.h"
#include "core/fine_tuner.h"
#include "core/skeleton_generator.h"
#include "hw/isa.h"

namespace {

using namespace ditto;
using namespace ditto::core;

/** A hand-written profile with known, analyzable structure. */
profile::ServiceProfile
syntheticProfile()
{
    profile::ServiceProfile prof;
    prof.serviceName = "orig";
    prof.requestsObserved = 1000;

    const hw::Isa &isa = hw::Isa::instance();
    prof.mix.counts.assign(isa.size(), 0.0);
    prof.mix.counts[isa.opcode("ADD_GPR64_GPR64")] = 4e6;
    prof.mix.counts[isa.opcode("MOV_GPR64_MEM64")] = 1.6e6;
    prof.mix.counts[isa.opcode("MOV_MEM64_GPR64")] = 0.4e6;
    prof.mix.counts[isa.opcode("IMUL_GPR64_GPR64")] = 0.5e6;
    prof.mix.counts[isa.opcode("JNZ_RELBR")] = 1e6;
    prof.mix.instsPerRequest = 8000;

    prof.branch.branchFraction = 0.12;
    prof.branch.bins[2][3] = 1000;
    prof.branch.bins[4][5] = 500;
    prof.branch.totalExecutions = 1500;
    prof.branch.staticSites = 40;

    // Data: 60% of accesses in 4KB (idx 6), 40% in 1MB (idx 14).
    prof.dmem.accessesPerInst = 0.25;
    prof.dmem.totalAccesses = 2e6;
    double cumulative = 0;
    for (std::size_t i = 0; i < profile::kWsSizes; ++i) {
        if (i == 6)
            cumulative += 0.6 * 2e6;
        if (i == 14)
            cumulative += 0.4 * 2e6;
        prof.dmem.hitsBySize[i] = cumulative;
    }
    prof.dmem.storeFraction = 0.25;
    prof.dmem.sharedFraction = 0.3;
    prof.dmem.regularFraction = 0.5;

    // Instructions: 70% in 4KB blocks, 30% in 64KB (idx 10) blocks.
    const double fetches = 8e6 / 16;
    cumulative = 0;
    for (std::size_t j = 0; j < profile::kWsSizes; ++j) {
        if (j == 6)
            cumulative += 0.7 * fetches;
        if (j == 10)
            cumulative += 0.3 * fetches;
        prof.imem.hitsBySize[j] = cumulative;
    }
    prof.imem.totalFetches = fetches;

    prof.dep.raw[1] = 100;
    prof.dep.raw[4] = 300;
    prof.dep.waw[3] = 200;
    prof.dep.war[2] = 100;
    prof.dep.chaseFraction = 0.2;

    profile::SyscallStat pread;
    pread.countPerRequest = 1.5;
    pread.avgBytes = 8192;
    prof.syscalls.perKind[static_cast<int>(app::SysKind::Pread)] =
        pread;
    profile::SyscallStat futex;
    futex.countPerRequest = 0.2;
    prof.syscalls.perKind[static_cast<int>(app::SysKind::FutexWait)] =
        futex;
    prof.syscalls.fileSpanBytes = 4ull << 30;

    prof.avgRequestBytes = 200;
    prof.avgResponseBytes = 1024;
    prof.reference.ipc = 0.8;
    prof.reference.instructionsPerRequest = 12000;
    prof.reference.l1iMissRate = 0.05;
    prof.reference.l1dMissRate = 0.3;
    prof.reference.branchMispredictRate = 0.03;
    return prof;
}

double
totalGeneratedInstsPerRequest(const GeneratedBody &body)
{
    // Walk the handler and accumulate expected executions.
    double total = 0;
    std::function<void(const app::Program &, double)> walk =
        [&](const app::Program &prog, double scale) {
            for (const app::Op &op : prog.ops) {
                switch (op.kind) {
                  case app::OpKind::Compute: {
                    const double iters =
                        (static_cast<double>(op.itersMin) +
                         static_cast<double>(op.itersMax)) / 2;
                    total += scale * iters *
                        static_cast<double>(
                            body.blocks[op.block].insts.size());
                    break;
                  }
                  case app::OpKind::Choice: {
                    double sum = 0;
                    for (double p : op.probs)
                        sum += p;
                    for (std::size_t arm = 0; arm < op.subs.size();
                         ++arm) {
                        const double p = arm < op.probs.size()
                            ? op.probs[arm] / sum : 0;
                        walk(op.subs[arm], scale * p);
                    }
                    break;
                  }
                  case app::OpKind::Call:
                    walk(op.subs[0], scale);
                    break;
                  default:
                    break;
                }
            }
        };
    walk(body.handler, 1.0);
    return total;
}

TEST(BodyGenerator, StageAIsEmpty)
{
    const auto body = generateBody(syntheticProfile(),
                                   GenerationConfig::stage('A'), "c");
    EXPECT_TRUE(body.blocks.empty());
    EXPECT_TRUE(body.handler.ops.empty());
}

TEST(BodyGenerator, StageBHasSyscallsOnly)
{
    const auto body = generateBody(syntheticProfile(),
                                   GenerationConfig::stage('B'), "c");
    EXPECT_TRUE(body.blocks.empty());
    ASSERT_FALSE(body.handler.ops.empty());
    // One whole pread + a Choice for the 0.5 fraction, plus a
    // probabilistic lock section (Choice wrapping Lock..Unlock).
    int fileReads = 0;
    int lockChoices = 0;
    for (const auto &op : body.handler.ops) {
        fileReads += op.kind == app::OpKind::FileRead;
        if (op.kind == app::OpKind::Choice && !op.subs.empty() &&
            !op.subs[0].empty() &&
            op.subs[0].ops[0].kind == app::OpKind::Lock) {
            ++lockChoices;
            // Critical section ends with the unlock.
            EXPECT_EQ(op.subs[0].ops.back().kind,
                      app::OpKind::Unlock);
        }
    }
    EXPECT_GE(fileReads, 1);
    EXPECT_EQ(lockChoices, 1);
    EXPECT_TRUE(body.usesLock);
    EXPECT_EQ(body.fileBytes, 4ull << 30);
}

TEST(BodyGenerator, StageCHomogeneousAddChain)
{
    const auto body = generateBody(syntheticProfile(),
                                   GenerationConfig::stage('C'), "c");
    ASSERT_FALSE(body.blocks.empty());
    const hw::Isa &isa = hw::Isa::instance();
    const auto add = isa.opcode("ADD_GPR64_GPR64");
    for (const auto &block : body.blocks) {
        for (const auto &inst : block.insts) {
            EXPECT_EQ(inst.opcode, add);
            EXPECT_EQ(inst.dst, 1);
            EXPECT_EQ(inst.src0, 1);
        }
    }
    EXPECT_NEAR(totalGeneratedInstsPerRequest(body), 8000,
                8000 * 0.15);
}

TEST(BodyGenerator, StageDSamplesMixWorstCaseElsewhere)
{
    const auto body = generateBody(syntheticProfile(),
                                   GenerationConfig::stage('D'), "c");
    // The mix includes loads/stores/branches now.
    int loads = 0;
    int branches = 0;
    int total = 0;
    for (const auto &block : body.blocks) {
        for (const auto &inst : block.insts) {
            const auto &info =
                hw::Isa::instance().info(inst.opcode);
            loads += info.isLoad;
            branches += inst.branch != hw::kNoBranch;
            ++total;
        }
        // Stage D: every stream is the smallest working set.
        for (const auto &s : block.streams)
            EXPECT_EQ(s.wsBytes, 64u);
        // Worst-case branch behaviour: M = N = 1.
        for (const auto &b : block.branches) {
            EXPECT_EQ(b.takenExp, 1);
            EXPECT_EQ(b.transExp, 1);
        }
    }
    EXPECT_GT(loads, 0);
    EXPECT_GT(branches, 0);
    // Stage D generates one small block; the fraction is noisy.
    EXPECT_GT(static_cast<double>(branches) / total, 0.03);
    EXPECT_LT(static_cast<double>(branches) / total, 0.30);
}

TEST(BodyGenerator, StageEBranchBinsFollowProfile)
{
    // Use the full stage so blocks are large enough for the bin
    // statistics to be meaningful (hundreds of static sites).
    const auto body = generateBody(syntheticProfile(),
                                   GenerationConfig::stage('H'), "c");
    int bin23 = 0;
    int bin45 = 0;
    int other = 0;
    for (const auto &block : body.blocks) {
        for (const auto &b : block.branches) {
            if (b.takenExp == 2 && b.transExp == 3)
                ++bin23;
            else if (b.takenExp == 4 && b.transExp == 5)
                ++bin45;
            else
                ++other;
        }
    }
    EXPECT_GT(bin23, bin45);  // 2:1 profiled ratio
    EXPECT_GT(bin45, 0);
    EXPECT_EQ(other, 0);
}

TEST(BodyGenerator, StageFInstructionFootprintsMatchEq2)
{
    const auto body = generateBody(syntheticProfile(),
                                   GenerationConfig::stage('F'), "c");
    // Expect blocks with 4KB (1024 insts) and 64KB (16384 insts)
    // footprints.
    bool saw4k = false;
    bool saw64k = false;
    for (const auto &block : body.blocks) {
        if (block.insts.size() == 1024)
            saw4k = true;
        if (block.insts.size() == 16384)
            saw64k = true;
    }
    EXPECT_TRUE(saw4k);
    EXPECT_TRUE(saw64k);
    EXPECT_NEAR(totalGeneratedInstsPerRequest(body), 8000,
                8000 * 0.30);
}

TEST(BodyGenerator, StageGDataWorkingSetsMatchEq1)
{
    const auto body = generateBody(syntheticProfile(),
                                   GenerationConfig::stage('G'), "c");
    double bytes4k = 0;
    double bytes1m = 0;
    for (const auto &block : body.blocks) {
        for (const auto &s : block.streams) {
            if (s.wsBytes == 4096)
                bytes4k += 1;
            if (s.wsBytes == (1u << 20)) {
                bytes1m += 1;
                EXPECT_TRUE(s.shared);  // big sets are shared
            }
        }
    }
    EXPECT_GT(bytes4k, 0);
    EXPECT_GT(bytes1m, 0);
}

TEST(BodyGenerator, StageHUsesPointerChasing)
{
    const auto noDeps = generateBody(syntheticProfile(),
                                     GenerationConfig::stage('G'), "c");
    const auto withDeps = generateBody(
        syntheticProfile(), GenerationConfig::stage('H'), "c");
    auto chase_streams = [](const GeneratedBody &body) {
        int count = 0;
        for (const auto &block : body.blocks) {
            for (const auto &s : block.streams) {
                count +=
                    s.kind == hw::StreamKind::PointerChase;
            }
        }
        return count;
    };
    EXPECT_EQ(chase_streams(noDeps), 0);
    EXPECT_GT(chase_streams(withDeps), 0);
}

TEST(BodyGenerator, InstScaleKnobScalesVolume)
{
    GenerationConfig cfg = GenerationConfig::stage('H');
    cfg.instScale = 2.0;
    const auto doubled = generateBody(syntheticProfile(), cfg, "c");
    EXPECT_NEAR(totalGeneratedInstsPerRequest(doubled), 16000,
                16000 * 0.30);
}

TEST(BodyGenerator, DeterministicForSameSeed)
{
    const auto a = generateBody(syntheticProfile(),
                                GenerationConfig::stage('H'), "c");
    const auto b = generateBody(syntheticProfile(),
                                GenerationConfig::stage('H'), "c");
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        ASSERT_EQ(a.blocks[i].insts.size(), b.blocks[i].insts.size());
        for (std::size_t k = 0; k < a.blocks[i].insts.size(); ++k)
            EXPECT_EQ(a.blocks[i].insts[k].opcode,
                      b.blocks[i].insts[k].opcode);
    }
}

TEST(BodyGenerator, BlockLabelsCarryClonePrefix)
{
    const auto body = generateBody(syntheticProfile(),
                                   GenerationConfig::stage('H'),
                                   "orig_clone");
    for (const auto &block : body.blocks)
        EXPECT_EQ(block.label.rfind("orig_clone.", 0), 0u);
}

// ---------------------------------------------------------------------------
// Skeleton generator.
// ---------------------------------------------------------------------------

TEST(SkeletonGenerator, AssemblesDeployableSpec)
{
    SkeletonInference skel;
    skel.serverModel = app::ServerModel::IoMultiplex;
    skel.workers = 4;
    BackgroundInference bg;
    bg.count = 1;
    bg.period = sim::milliseconds(50);
    skel.background.push_back(bg);

    std::vector<profile::EdgeProfile> edges;
    profile::EdgeProfile e;
    e.caller = "orig";
    e.callee = "dep";
    e.callsPerCallerRequest = 1.4;
    e.avgRequestBytes = 256;
    e.avgResponseBytes = 512;
    edges.push_back(e);

    const std::map<std::string, std::string> nameMap = {
        {"orig", "orig_clone"}, {"dep", "dep_clone"}};
    const app::ServiceSpec spec = generateClone(
        syntheticProfile(), skel, edges, nameMap,
        GenerationConfig::stage('H'));

    EXPECT_EQ(spec.name, "orig_clone");
    EXPECT_EQ(spec.serverModel, app::ServerModel::IoMultiplex);
    EXPECT_EQ(spec.threads.workers, 4u);
    ASSERT_EQ(spec.downstreams.size(), 1u);
    EXPECT_EQ(spec.downstreams[0], "dep_clone");
    ASSERT_EQ(spec.endpoints.size(), 1u);
    EXPECT_FALSE(spec.endpoints[0].handler.ops.empty());
    EXPECT_EQ(spec.background.size(), 1u);
    EXPECT_EQ(spec.locks, 1u);
    ASSERT_EQ(spec.fileBytes.size(), 1u);

    // RPC ops: one whole call + one fractional (0.4) Choice.
    int rpcs = 0;
    int choices = 0;
    for (const auto &op : spec.endpoints[0].handler.ops) {
        rpcs += op.kind == app::OpKind::Rpc;
        if (op.kind == app::OpKind::Choice && !op.subs.empty() &&
            !op.subs[0].empty() &&
            op.subs[0].ops[0].kind == app::OpKind::Rpc) {
            ++choices;
        }
    }
    EXPECT_EQ(rpcs, 1);
    EXPECT_EQ(choices, 1);
}

// ---------------------------------------------------------------------------
// Fine tuner on an analytic pseudo-clone.
// ---------------------------------------------------------------------------

TEST(FineTuner, ConvergesOnLinearModel)
{
    profile::ReferenceCounters target;
    target.ipc = 1.0;
    target.instructionsPerRequest = 10000;
    target.l1iMissRate = 0.05;
    target.l1dMissRate = 0.2;
    target.l2MissRate = 0.5;
    target.branchMispredictRate = 0.04;

    // Analytic "clone": counters respond linearly-ish to the knobs.
    CloneRunner runner = [&](const GenerationConfig &cfg) {
        profile::PerfReport r;
        r.instructionsPerRequest = 13000 * cfg.instScale;
        r.l1iMissRate = 0.08 * std::pow(cfg.imemTailScale, 0.9);
        r.l1dMissRate = 0.3 * std::pow(cfg.dmemTailScale, 0.9);
        r.l2MissRate = 0.5;
        r.branchMispredictRate = 0.04;
        // IPC degrades with miss rates and chasing.
        r.ipc = 1.6 - 2.0 * r.l1dMissRate - 4.0 * r.l1iMissRate -
            0.1 * cfg.chaseScale;
        return r;
    };

    const TuneResult result =
        fineTune(target, GenerationConfig{}, runner, TuneOptions{});
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.iterations, 10u);
    EXPECT_LT(result.finalIpcError, 0.05);
    EXPECT_NEAR(result.config.instScale, 10.0 / 13.0, 0.08);
}

TEST(FineTuner, StopsAtMaxIterations)
{
    profile::ReferenceCounters target;
    target.ipc = 5.0;  // unreachable
    target.instructionsPerRequest = 1;
    std::atomic<unsigned> calls{0};
    CloneRunner runner = [&](const GenerationConfig &) {
        ++calls;
        profile::PerfReport r;
        r.ipc = 1.0;
        r.instructionsPerRequest = 100;
        return r;
    };
    TuneOptions opts;
    opts.maxIterations = 6;
    const TuneResult result =
        fineTune(target, GenerationConfig{}, runner, opts);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.iterations, 6u);
    EXPECT_EQ(result.trace.size(), 6u);
    // The initial config, then three step sizes per later iteration,
    // with or without an executor.
    EXPECT_EQ(calls.load(), 1u + 3u * (6u - 1u));

    calls = 0;
    sim::RunExecutor pool(2);
    opts.executor = &pool;
    const TuneResult pooled =
        fineTune(target, GenerationConfig{}, runner, opts);
    EXPECT_EQ(calls.load(), 16u);
    EXPECT_EQ(pooled.iterations, result.iterations);
    EXPECT_TRUE(pooled.config == result.config);
}

TEST(GenerationConfig, StagePresetsAreCumulative)
{
    const auto a = GenerationConfig::stage('A');
    EXPECT_FALSE(a.syscalls);
    EXPECT_FALSE(a.instCount);
    const auto d = GenerationConfig::stage('D');
    EXPECT_TRUE(d.syscalls);
    EXPECT_TRUE(d.instMix);
    EXPECT_FALSE(d.branchBehavior);
    const auto h = GenerationConfig::stage('H');
    EXPECT_TRUE(h.dataDeps);
    EXPECT_TRUE(h.dataMem);
}

} // namespace
