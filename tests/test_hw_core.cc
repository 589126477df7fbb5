/**
 * @file
 * Tests for the CPU core cost model: ILP, port pressure, memory
 * stalls, pointer chasing, top-down accounting, sampling and replay,
 * and a differential test of the planned interpreter against the
 * per-instruction one it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/block_builder.h"
#include "hw/block_plan.h"
#include "hw/cpu_core.h"
#include "hw/platform.h"
#include "os/machine.h"
#include "sim/event_queue.h"

namespace {

using namespace ditto::hw;

struct CoreFixture
{
    PlatformSpec spec = platformA();
    Cache llc{spec.llcBytes, spec.llcWays};
    CacheHierarchy caches{spec.l1iBytes, spec.l1iWays,
                          spec.l1dBytes, spec.l1dWays,
                          spec.l2Bytes, spec.l2Ways, &llc,
                          spec.prefetchEnabled};
    CpuCore core{0, spec, caches, nullptr};
    ExecContext ctx{0, 1};

    CoreFixture() { core.setExactMode(true); }

    CodeImage
    makeImage() const
    {
        return CodeImage(0x400000, 0x10000000, 4);
    }
};

/** A block of `n` dependent adds: dst == src == r1. */
CodeBlock
serialAdds(unsigned n)
{
    const Isa &isa = Isa::instance();
    CodeBlock block;
    block.label = "serial";
    for (unsigned i = 0; i < n; ++i) {
        Inst inst;
        inst.opcode = isa.opcode("ADD_GPR64_GPR64");
        inst.dst = 1;
        inst.src0 = 1;
        block.insts.push_back(inst);
    }
    return block;
}

/** A block of `n` independent adds rotating over 8 registers. */
CodeBlock
parallelAdds(unsigned n)
{
    const Isa &isa = Isa::instance();
    CodeBlock block;
    block.label = "parallel";
    for (unsigned i = 0; i < n; ++i) {
        Inst inst;
        inst.opcode = isa.opcode("ADD_GPR64_GPR64");
        inst.dst = static_cast<std::uint8_t>(i % 8);
        inst.src0 = static_cast<std::uint8_t>((i + 1) % 8);
        block.insts.push_back(inst);
    }
    return block;
}

TEST(CpuCore, IlpSerialChainSlowerThanParallel)
{
    CoreFixture f;
    CodeImage image = f.makeImage();
    const auto serial = image.addBlock(serialAdds(64));
    const auto parallel = image.addBlock(parallelAdds(64));

    ExecStats s1;
    ExecStats s2;
    const double cSerial = f.core.run(image, serial, 50, f.ctx, s1);
    const double cParallel =
        f.core.run(image, parallel, 50, f.ctx, s2);
    // Serial chain: ~1 inst/cycle bound by latency; parallel: bound
    // by issue width 4.
    EXPECT_GT(cSerial, 2.0 * cParallel);
    EXPECT_GT(s2.ipc(), 2.0);
    EXPECT_LT(s1.ipc(), 1.3);
}

TEST(CpuCore, PortPressureDivisionBound)
{
    CoreFixture f;
    CodeImage image = f.makeImage();
    const Isa &isa = Isa::instance();

    CodeBlock divs;
    divs.label = "divs";
    for (int i = 0; i < 32; ++i) {
        Inst inst;
        inst.opcode = isa.opcode("DIV_GPR64");
        inst.dst = static_cast<std::uint8_t>(i % 8);
        divs.insts.push_back(inst);
    }
    const auto divBlock = image.addBlock(divs);
    const auto addBlock = image.addBlock(parallelAdds(32));
    ExecStats sd;
    ExecStats sa;
    const double cd = f.core.run(image, divBlock, 20, f.ctx, sd);
    const double ca = f.core.run(image, addBlock, 20, f.ctx, sa);
    // All divides contend for port 0 and carry many uops.
    EXPECT_GT(cd, 5 * ca);
}

TEST(CpuCore, PointerChaseSerializesMisses)
{
    CoreFixture f;
    CodeImage image = f.makeImage();
    const Isa &isa = Isa::instance();

    auto make_loads = [&](StreamKind kind, const char *label) {
        CodeBlock block;
        block.label = label;
        block.streams.push_back(
            MemStreamDesc{64 << 20, kind, false, 1});
        for (int i = 0; i < 32; ++i) {
            Inst inst;
            inst.opcode = isa.opcode("MOV_GPR64_MEM64");
            inst.dst = static_cast<std::uint8_t>(i % 8);
            inst.memStream = 0;
            block.insts.push_back(inst);
        }
        return block;
    };
    const auto chase =
        image.addBlock(make_loads(StreamKind::PointerChase, "chase"));
    const auto rand =
        image.addBlock(make_loads(StreamKind::Random, "rand"));
    ExecStats sc;
    ExecStats sr;
    const double cc = f.core.run(image, chase, 40, f.ctx, sc);
    const double cr = f.core.run(image, rand, 40, f.ctx, sr);
    // Both miss everywhere (64MB working set), but chasing cannot
    // overlap misses: far slower, and the serialized-miss counter
    // fills up.
    EXPECT_GT(cc, 3 * cr);
    EXPECT_GT(sc.serializedMissCycles, 10 * sc.parallelMissCycles);
    EXPECT_GT(sr.parallelMissCycles, 10 * sr.serializedMissCycles);
}

TEST(CpuCore, WorkingSetSizeDrivesMissRatesAndIpc)
{
    CoreFixture f;
    CodeImage image = f.makeImage();

    BlockSpec small;
    small.label = "small";
    small.instCount = 64;
    small.memFraction = 0.5;
    small.streams = {{16 << 10, StreamKind::Sequential, false, 1.0}};
    small.seed = 1;
    BlockSpec huge = small;
    huge.label = "huge";
    huge.streams = {{128u << 20, StreamKind::Random, false, 1.0}};
    huge.seed = 1;

    const auto smallB = image.addBlock(buildBlock(small));
    const auto hugeB = image.addBlock(buildBlock(huge));
    ExecStats ss;
    ExecStats sh;
    f.core.run(image, smallB, 200, f.ctx, ss);
    f.core.run(image, hugeB, 200, f.ctx, sh);
    EXPECT_LT(ss.missRateL1d(), 0.1);
    EXPECT_GT(sh.missRateL1d(), 0.5);
    EXPECT_GT(ss.ipc(), 1.5 * sh.ipc());
    // The huge working set spills past the LLC.
    EXPECT_GT(sh.llcMisses, 0);
}

TEST(CpuCore, TopDownBucketsSumToCycles)
{
    CoreFixture f;
    CodeImage image = f.makeImage();
    BlockSpec spec;
    spec.label = "mixed";
    spec.instCount = 256;
    spec.memFraction = 0.3;
    spec.branchFraction = 0.15;
    spec.streams = {{1 << 20, StreamKind::Random, false, 1.0}};
    spec.seed = 3;
    const auto b = image.addBlock(buildBlock(spec));
    ExecStats s;
    const double cycles = f.core.run(image, b, 100, f.ctx, s);
    const double sum = s.retiringCycles + s.frontendCycles +
        s.badSpecCycles + s.backendCycles;
    EXPECT_NEAR(sum, cycles, cycles * 1e-6);
    EXPECT_GT(s.retiringCycles, 0);
    EXPECT_GT(s.backendCycles, 0);
    EXPECT_GT(s.badSpecCycles, 0);
}

TEST(CpuCore, BigFootprintCausesFrontendStalls)
{
    CoreFixture f;
    CodeImage image = f.makeImage();
    // 128KB of straight-line code: busts the 32KB L1i every pass.
    BlockSpec spec;
    spec.label = "hugecode";
    spec.instCount = 32768;
    spec.memFraction = 0.05;
    spec.branchFraction = 0.0;
    spec.seed = 4;
    const auto big = image.addBlock(buildBlock(spec));
    const auto tiny = image.addBlock(parallelAdds(128));
    ExecStats warm;
    f.core.run(image, tiny, 50, f.ctx, warm);  // warm the tiny block
    ExecStats sb;
    ExecStats st;
    f.core.run(image, big, 6, f.ctx, sb);
    f.core.run(image, tiny, 50, f.ctx, st);
    EXPECT_GT(sb.missRateL1i(), 0.5);
    EXPECT_GT(sb.frontendCycles / sb.cycles,
              st.frontendCycles / std::max(1.0, st.cycles) + 0.05);
}

TEST(CpuCore, SamplingApproximatesExact)
{
    // Same block, many iterations: sampled execution must track the
    // exact interpreter within a few percent.
    auto run = [&](bool exact) {
        CoreFixture f;
        f.core.setExactMode(exact);
        CodeImage image = f.makeImage();
        BlockSpec spec;
        spec.label = "sampled";
        spec.instCount = 128;
        spec.memFraction = 0.3;
        spec.branchFraction = 0.1;
        spec.streams = {{256 << 10, StreamKind::Sequential, false, 1.0}};
        spec.seed = 5;
        const auto b = image.addBlock(buildBlock(spec));
        ExecStats s;
        f.core.run(image, b, 5000, f.ctx, s);
        return s;
    };
    const ExecStats exact = run(true);
    const ExecStats sampled = run(false);
    EXPECT_NEAR(sampled.instructions, exact.instructions,
                exact.instructions * 0.001);
    EXPECT_NEAR(sampled.cycles, exact.cycles, exact.cycles * 0.10);
    EXPECT_NEAR(sampled.ipc(), exact.ipc(), exact.ipc() * 0.10);
}

TEST(CpuCore, ReplayApproximatesSteadyState)
{
    // Repeated short calls: the replay cache must give nearly the
    // same aggregate cycles as exact interpretation.
    auto run = [&](bool exact) {
        CoreFixture f;
        f.core.setExactMode(exact);
        CodeImage image = f.makeImage();
        BlockSpec spec;
        spec.label = "replayed";
        spec.instCount = 200;
        spec.memFraction = 0.3;
        spec.branchFraction = 0.1;
        spec.streams = {{64 << 10, StreamKind::Sequential, false, 1.0}};
        spec.seed = 6;
        const auto b = image.addBlock(buildBlock(spec));
        ExecStats s;
        for (int call = 0; call < 400; ++call)
            f.core.run(image, b, 2, f.ctx, s);
        return s;
    };
    const ExecStats exact = run(true);
    const ExecStats replayed = run(false);
    EXPECT_NEAR(replayed.instructions, exact.instructions,
                exact.instructions * 0.001);
    EXPECT_NEAR(replayed.cycles, exact.cycles, exact.cycles * 0.12);
}

TEST(CpuCore, ContentionFactorScalesCycles)
{
    CoreFixture f;
    CodeImage image = f.makeImage();
    const auto b = image.addBlock(parallelAdds(64));
    ExecStats warm;
    f.core.run(image, b, 100, f.ctx, warm);  // warm caches first
    ExecStats s1;
    const double base = f.core.run(image, b, 100, f.ctx, s1);
    f.core.setContentionFactor(1.5);
    ExecStats s2;
    const double contended = f.core.run(image, b, 100, f.ctx, s2);
    EXPECT_NEAR(contended, base * 1.5, base * 0.05);
}

TEST(CpuCore, KernelModeAttribution)
{
    CoreFixture f;
    CodeImage image = f.makeImage();
    const auto b = image.addBlock(parallelAdds(64));
    ExecStats s;
    f.core.run(image, b, 10, f.ctx, s, /*kernelMode=*/true);
    EXPECT_DOUBLE_EQ(s.kernelInstructions, s.instructions);
    f.core.run(image, b, 10, f.ctx, s, /*kernelMode=*/false);
    EXPECT_LT(s.kernelInstructions, s.instructions);
}

TEST(CpuCore, RepStringCostScalesWithBytes)
{
    CoreFixture f;
    CodeImage image = f.makeImage();
    const Isa &isa = Isa::instance();
    auto make_rep = [&](std::uint32_t bytes) {
        CodeBlock block;
        block.label = "rep";
        block.streams.push_back(
            MemStreamDesc{1 << 20, StreamKind::Sequential, false, 1});
        Inst inst;
        inst.opcode = isa.opcode("REP_MOVSB");
        inst.memStream = 0;
        inst.repBytes = bytes;
        block.insts.push_back(inst);
        return image.addBlock(block);
    };
    const auto small = make_rep(64);
    const auto large = make_rep(8192);
    ExecStats ss;
    ExecStats sl;
    const double cs = f.core.run(image, small, 20, f.ctx, ss);
    const double cl = f.core.run(image, large, 20, f.ctx, sl);
    EXPECT_GT(cl, 5 * cs);
    // The large copy touches ~128 lines per instruction.
    EXPECT_GT(sl.l1dAccesses, 100 * ss.instructions);
}

namespace ref {

/**
 * The core as it ran before block plans, frozen as the oracle for
 * hw::CpuCore: every instruction of every iteration takes its own
 * critical-path step and its own greedy port assignment. It shares
 * only ExecContext, the caches, the predictor and the coherence
 * domain with the live core. Do not update it along with
 * src/hw/cpu_core.cc.
 */
class Core
{
  public:
    Core(unsigned id, const PlatformSpec &spec, CacheHierarchy &caches,
         CoherenceDomain *coherence)
        : id_(id), spec_(spec), caches_(&caches),
          predictor_(spec.predictorLog2Entries,
                     spec.predictorHistoryBits),
          coherence_(coherence)
    {
    }

    BranchPredictor &predictor() { return predictor_; }
    void setObserver(ExecObserver *observer) { observer_ = observer; }
    void setExactMode(bool exact) { exactMode_ = exact; }
    void setContentionFactor(double f) { contention_ = f; }

    double
    run(const CodeImage &image, std::uint32_t blockId,
        std::uint64_t iterations, ExecContext &ctx, ExecStats &stats,
        bool kernelMode = false)
    {
        if (iterations == 0)
            return 0;
        const CodeImage::LinkedBlock &block = image.block(blockId);
        if (observer_)
            observer_->onBlockEnter(block.code, iterations, kernelMode);

        constexpr std::uint64_t kWarmIters = 16;
        constexpr std::uint64_t kSampleIters = 32;

        const bool mayAccelerate = !exactMode_ && !observer_;
        ReplayEntry *entry = nullptr;
        if (mayAccelerate) {
            entry = &replay_[&block];
            if (entry->seeded &&
                entry->interpretedCalls >= CpuCore::kReplayMinCalls &&
                entry->sinceInterpret < CpuCore::kReplayWindow) {
                ++entry->sinceInterpret;
                ExecStats phase;
                phase.add(entry->perIter,
                          static_cast<double>(iterations));
                if (kernelMode) {
                    phase.kernelInstructions += phase.instructions;
                    phase.kernelCycles += phase.cycles;
                }
                stats.add(phase);
                return phase.cycles;
            }
        }

        ExecStats phase;
        if (!mayAccelerate || iterations <= kWarmIters + kSampleIters) {
            runPhase(image, block, iterations, ctx, phase);
        } else {
            runPhase(image, block, kWarmIters, ctx, phase);
            ExecStats sample;
            runPhase(image, block, kSampleIters, ctx, sample);
            const double scale = static_cast<double>(
                iterations - kWarmIters) /
                static_cast<double>(kSampleIters);
            phase.add(sample, scale);
        }

        if (entry) {
            ++entry->interpretedCalls;
            entry->sinceInterpret = 0;
            ExecStats perIter;
            perIter.add(phase, 1.0 / static_cast<double>(iterations));
            if (!entry->seeded) {
                entry->perIter = perIter;
                entry->seeded = true;
            } else {
                ExecStats blended;
                blended.add(entry->perIter, 0.7);
                blended.add(perIter, 0.3);
                entry->perIter = blended;
            }
        }

        if (kernelMode) {
            phase.kernelInstructions += phase.instructions;
            phase.kernelCycles += phase.cycles;
        }
        stats.add(phase);
        return phase.cycles;
    }

  private:
    struct ReplayEntry
    {
        ExecStats perIter;
        unsigned interpretedCalls = 0;
        unsigned sinceInterpret = 0;
        bool seeded = false;
    };

    unsigned id_;
    const PlatformSpec spec_;
    CacheHierarchy *caches_;
    BranchPredictor predictor_;
    CoherenceDomain *coherence_;
    ExecObserver *observer_ = nullptr;
    bool exactMode_ = false;
    double contention_ = 1.0;
    std::unordered_map<const void *, ReplayEntry> replay_;
    std::vector<double> chainReady_;

    std::uint64_t
    nextStreamAddr(const CodeImage::LinkedStream &stream,
                   ExecContext &ctx, ExecContext::BlockRt &rt,
                   std::size_t streamIdx)
    {
        const std::uint64_t wsLines =
            std::max<std::uint64_t>(1, stream.desc.wsBytes / kLineBytes);
        std::uint64_t &cursor = rt.streamCursor[streamIdx];
        std::uint64_t line = 0;
        switch (stream.desc.kind) {
          case StreamKind::Sequential:
            line = cursor;
            cursor = (cursor + 1) % wsLines;
            break;
          case StreamKind::Strided:
            line = cursor;
            cursor = (cursor +
                      std::max<std::uint32_t>(1, stream.desc.stride)) %
                wsLines;
            break;
          case StreamKind::PointerChase: {
            std::uint64_t &x = rt.streamLcg[streamIdx];
            x = (x * 5 + 13) & (wsLines - 1);
            line = x;
            break;
          }
          case StreamKind::Random:
            line = ctx.rng().uniformInt(wsLines);
            break;
        }
        const unsigned slot = stream.perThreadSpan ? ctx.threadSlot() : 0;
        return stream.base + slot * stream.perThreadSpan +
            line * kLineBytes;
    }

    void
    runPhase(const CodeImage &image, const CodeImage::LinkedBlock &block,
             std::uint64_t iterations, ExecContext &ctx, ExecStats &out)
    {
        const Isa &isa = Isa::instance();
        const CodeBlock &code = block.code;
        ExecContext::BlockRt &rt = ctx.blockRt(
            &block, code.streams.size(), code.branches.size());
        const MemLatency &lat = spec_.latency;

        double regReady[kNumRegs] = {};
        double portLoad[kNumPorts] = {};
        chainReady_.assign(code.streams.size(), 0.0);
        double critPath = 0;
        double parallelMissCycles = 0;
        double frontendStall = 0;
        double badSpec = 0;
        double totalUops = 0;

        const std::uint64_t iLines = std::max<std::uint64_t>(
            1, (code.iFootprintBytes() + kLineBytes - 1) / kLineBytes);

        for (std::uint64_t it = 0; it < iterations; ++it) {
            for (std::uint64_t l = 0; l < iLines; ++l) {
                const std::uint64_t addr = block.iBase + l * kLineBytes;
                const CacheLevel level = caches_->accessInst(addr);
                out.l1iAccesses += 1;
                if (level != CacheLevel::L1) {
                    out.l1iMisses += 1;
                    out.l2Accesses += 1;
                    if (level != CacheLevel::L2) {
                        out.l2Misses += 1;
                        out.llcAccesses += 1;
                        if (level != CacheLevel::L3)
                            out.llcMisses += 1;
                    }
                    frontendStall += (lat.of(level) - lat.l1) *
                        spec_.frontendStallFactor;
                }
                if (observer_)
                    observer_->onInstFetch(addr);
            }

            for (std::size_t idx = 0; idx < code.insts.size(); ++idx) {
                const Inst &inst = code.insts[idx];
                const InstInfo &info = isa.info(inst.opcode);

                out.instructions += 1;
                double uops = info.uops;
                double effLat = info.latency;
                std::uint64_t memTouches = 1;
                if (info.repPerElem && inst.repBytes) {
                    const std::uint64_t chunks = (inst.repBytes + 15) / 16;
                    effLat += static_cast<double>(info.repPerElem) *
                        static_cast<double>(chunks);
                    uops += static_cast<double>(chunks) / 2.0;
                    memTouches = (inst.repBytes + kLineBytes - 1) /
                        kLineBytes;
                }
                out.uops += uops;
                totalUops += uops;

                if (inst.memStream != kNoStream &&
                    inst.memStream < block.streamIds.size()) {
                    const auto &stream = image.stream(
                        block.streamIds[inst.memStream]);
                    for (std::uint64_t t = 0; t < memTouches; ++t) {
                        const std::uint64_t addr = nextStreamAddr(
                            stream, ctx, rt, inst.memStream);
                        const CacheLevel level =
                            caches_->accessData(addr, info.isStore);
                        out.l1dAccesses += 1;
                        if (info.isLoad)
                            out.loads += 1;
                        if (info.isStore)
                            out.stores += 1;
                        if (level != CacheLevel::L1) {
                            out.l1dMisses += 1;
                            out.l2Accesses += 1;
                            if (level != CacheLevel::L2) {
                                out.l2Misses += 1;
                                out.llcAccesses += 1;
                                if (level != CacheLevel::L3)
                                    out.llcMisses += 1;
                            }
                            const double extra = lat.of(level) - lat.l1;
                            if (info.isLoad &&
                                stream.desc.kind ==
                                    StreamKind::PointerChase) {
                                effLat += extra;
                                out.serializedMissCycles += extra;
                            } else if (info.isLoad) {
                                parallelMissCycles += extra;
                                out.parallelMissCycles += extra;
                            } else {
                                parallelMissCycles += extra * 0.3;
                                out.parallelMissCycles += extra * 0.3;
                            }
                        }
                        if (stream.desc.shared && coherence_) {
                            if (info.isStore)
                                coherence_->sharedWrite(id_, addr);
                            else
                                coherence_->sharedRead(id_, addr);
                        }
                        if (observer_) {
                            observer_->onDataAccess(addr, info.isStore,
                                                    stream.desc.shared);
                        }
                    }
                }

                double ready = 0;
                if (inst.src0 != kNoReg)
                    ready = std::max(ready, regReady[inst.src0]);
                if (inst.src1 != kNoReg)
                    ready = std::max(ready, regReady[inst.src1]);
                const bool chased = inst.memStream != kNoStream &&
                    inst.memStream < code.streams.size() &&
                    code.streams[inst.memStream].kind ==
                        StreamKind::PointerChase;
                if (chased)
                    ready = std::max(ready, chainReady_[inst.memStream]);
                const double done = ready + effLat;
                if (chased)
                    chainReady_[inst.memStream] = done;
                if (inst.dst != kNoReg)
                    regReady[inst.dst] = done;
                critPath = std::max(critPath, done);

                if (info.ports) {
                    for (unsigned u = 0;
                         u < static_cast<unsigned>(uops + 0.5); ++u) {
                        int best = -1;
                        for (int p = 0; p < kNumPorts; ++p) {
                            if (!(info.ports & (1u << p)))
                                continue;
                            if (best < 0 || portLoad[p] < portLoad[best])
                                best = p;
                        }
                        if (best >= 0)
                            portLoad[best] += 1;
                    }
                }

                if (inst.branch != kNoBranch &&
                    inst.branch < code.branches.size()) {
                    const BranchDesc &desc = code.branches[inst.branch];
                    const std::uint64_t cnt =
                        rt.branchCount[inst.branch]++;
                    const bool taken = BranchPattern::direction(desc, cnt);
                    const std::uint64_t pc =
                        block.iBase + idx * kInstBytes;
                    const bool mis =
                        predictor_.predictAndUpdate(pc, taken);
                    out.branches += 1;
                    if (mis) {
                        out.mispredicts += 1;
                        badSpec += spec_.mispredictPenalty;
                    }
                    if (observer_)
                        observer_->onBranch(pc, taken);
                }

                if (observer_)
                    observer_->onInst(inst, info);
            }
        }

        const double retiring = totalUops /
            static_cast<double>(std::max(1u, spec_.issueWidth));
        double portBound = 0;
        for (double p : portLoad)
            portBound = std::max(portBound, p);
        const double coreBound =
            std::max({retiring, portBound, critPath});
        const double memStall = parallelMissCycles /
            static_cast<double>(std::max(1u, spec_.mlp));
        const double backend = (coreBound - retiring) + memStall;
        double cycles = retiring + backend + frontendStall + badSpec;
        cycles *= contention_;

        out.retiringCycles += retiring * contention_;
        out.backendCycles += backend * contention_;
        out.frontendCycles += frontendStall * contention_;
        out.badSpecCycles += badSpec * contention_;
        out.cycles += cycles;
    }
};

} // namespace ref

/** Every callback of a run, flattened, so two runs' logs compare. */
class LogObserver : public ExecObserver
{
  public:
    std::vector<std::uint64_t> log;

    void
    onBlockEnter(const CodeBlock &block, std::uint64_t iterations,
                 bool kernelMode) override
    {
        log.insert(log.end(), {1, block.insts.size(), iterations,
                               kernelMode ? 1u : 0u});
    }

    void
    onInst(const Inst &inst, const InstInfo &info) override
    {
        log.insert(log.end(), {2, inst.opcode, inst.dst, inst.memStream,
                               inst.repBytes, info.uops});
    }

    void
    onDataAccess(std::uint64_t addr, bool isWrite, bool shared) override
    {
        log.insert(log.end(), {3, addr, isWrite ? 1u : 0u,
                               shared ? 1u : 0u});
    }

    void
    onInstFetch(std::uint64_t addr) override
    {
        log.insert(log.end(), {4, addr});
    }

    void
    onBranch(std::uint64_t pc, bool taken) override
    {
        log.insert(log.end(), {5, pc, taken ? 1u : 0u});
    }
};

/** Each ExecStats field whose bits differ, by name. */
std::string
statsDiff(const ExecStats &want, const ExecStats &got)
{
    std::string diff;
    auto field = [&](const char *name, double w, double g) {
        if (std::bit_cast<std::uint64_t>(w) !=
            std::bit_cast<std::uint64_t>(g)) {
            diff += std::string(" ") + name + " " + std::to_string(w) +
                "/" + std::to_string(g);
        }
    };
#define DITTO_FIELD(f) field(#f, want.f, got.f)
    DITTO_FIELD(instructions);
    DITTO_FIELD(uops);
    DITTO_FIELD(cycles);
    DITTO_FIELD(branches);
    DITTO_FIELD(mispredicts);
    DITTO_FIELD(l1iAccesses);
    DITTO_FIELD(l1iMisses);
    DITTO_FIELD(l1dAccesses);
    DITTO_FIELD(l1dMisses);
    DITTO_FIELD(l2Accesses);
    DITTO_FIELD(l2Misses);
    DITTO_FIELD(llcAccesses);
    DITTO_FIELD(llcMisses);
    DITTO_FIELD(loads);
    DITTO_FIELD(stores);
    DITTO_FIELD(retiringCycles);
    DITTO_FIELD(frontendCycles);
    DITTO_FIELD(badSpecCycles);
    DITTO_FIELD(backendCycles);
    DITTO_FIELD(parallelMissCycles);
    DITTO_FIELD(serializedMissCycles);
    DITTO_FIELD(kernelInstructions);
    DITTO_FIELD(kernelCycles);
#undef DITTO_FIELD
    return diff;
}

bool
sameCacheStats(const CacheStats &a, const CacheStats &b)
{
    return a.accesses == b.accesses && a.misses == b.misses &&
        a.evictions == b.evictions && a.invalidations == b.invalidations &&
        a.prefetchFills == b.prefetchFills &&
        a.prefetchHits == b.prefetchHits;
}

/** Mispredictions of a copy of `p` over a fixed probe sequence. */
std::vector<bool>
nextOutcomes(BranchPredictor p, std::uint64_t pcBase)
{
    std::vector<bool> out;
    for (std::uint64_t i = 0; i < 64; ++i)
        out.push_back(p.predictAndUpdate(pcBase + 4 * (i % 24), i % 3 != 0));
    return out;
}

/** A block whose port bound dominates: LEA (p1/p5) and p1-only ops. */
CodeBlock
portBoundBlock()
{
    const Isa &isa = Isa::instance();
    const char *const names[] = {"LEA_GPR64_AGEN", "IMUL_GPR64_GPR64",
                                 "LEA_GPR64_AGEN", "POPCNT_GPR64_GPR64",
                                 "SHL_GPR64_IMM8", "CMOVZ_GPR64_GPR64"};
    CodeBlock block;
    block.label = "ports";
    for (unsigned i = 0; i < 48; ++i) {
        Inst inst;
        inst.opcode = isa.opcode(names[i % std::size(names)]);
        inst.dst = static_cast<std::uint8_t>(i % 12);
        inst.src0 = static_cast<std::uint8_t>((i + 7) % 12);
        block.insts.push_back(inst);
    }
    return block;
}

/** A REP_MOVSB inserted every `every` instructions of `block`. */
void
spliceRep(CodeBlock &block, const char *iform, std::uint16_t stream,
          std::uint32_t bytes, std::size_t every)
{
    Inst rep;
    rep.opcode = Isa::instance().opcode(iform);
    rep.memStream = stream;
    rep.repBytes = bytes;
    for (std::size_t at = every; at < block.insts.size(); at += every + 1)
        block.insts.insert(block.insts.begin() + at, rep);
}

/** The oracle's blocks: lean, chase, shared, port- and REP-bound. */
std::vector<CodeBlock>
differentialBlocks()
{
    std::vector<CodeBlock> blocks;

    BlockSpec lean;
    lean.label = "lean";
    lean.instCount = 160;
    lean.memFraction = 0.35;
    lean.mix = MixWeights::hashCode();
    lean.mix.lock = 0.02;
    lean.streams = {{64 << 10, StreamKind::Sequential, false, 1.0},
                    {2 << 20, StreamKind::Random, false, 1.0},
                    {16 << 10, StreamKind::Sequential, true, 1.0},
                    {256 << 10, StreamKind::Strided, false, 0.5}};
    lean.seed = 11;
    blocks.push_back(buildBlock(lean));
    blocks.back().streams[3].stride = 3;
    spliceRep(blocks.back(), "REP_MOVSB", 0, 512, 40);
    spliceRep(blocks.back(), "REP_STOSB", 2, 100, 57);

    BlockSpec chase;
    chase.label = "chase";
    chase.instCount = 120;
    chase.memFraction = 0.3;
    chase.streams = {{1 << 20, StreamKind::PointerChase, false, 2.0},
                     {8 << 10, StreamKind::Sequential, true, 1.0}};
    chase.seed = 12;
    blocks.push_back(buildBlock(chase));
    spliceRep(blocks.back(), "REPNE_SCASB", 0, 256, 50);

    // Stores only: the chase stream chains, but no miss enters the
    // critical path, so the block runs lean.
    BlockSpec chaseStores = chase;
    chaseStores.label = "chase-stores";
    chaseStores.storeFraction = 1.0;
    chaseStores.seed = 13;
    blocks.push_back(buildBlock(chaseStores));

    BlockSpec numeric;
    numeric.label = "numeric";
    numeric.instCount = 96;
    numeric.mix = MixWeights::numericCode();
    numeric.depTightness = 0.9;
    numeric.streams = {{32 << 10, StreamKind::Sequential, true, 1.0}};
    numeric.seed = 14;
    blocks.push_back(buildBlock(numeric));

    blocks.push_back(portBoundBlock());

    CodeBlock reps;
    reps.label = "reps";
    reps.streams.push_back(
        MemStreamDesc{1 << 20, StreamKind::Sequential, false, 1});
    for (std::uint32_t bytes : {2048u, 4096u, 1000u}) {
        Inst inst;
        inst.opcode = Isa::instance().opcode("REP_MOVSB");
        inst.memStream = 0;
        inst.repBytes = bytes;
        reps.insts.push_back(inst);
    }
    blocks.push_back(reps);

    blocks.push_back(serialAdds(40));
    return blocks;
}

enum class DiffMode
{
    Replay,
    Exact,
    Observed
};

const char *
modeName(DiffMode mode)
{
    switch (mode) {
      case DiffMode::Replay: return "Replay";
      case DiffMode::Exact: return "Exact";
      case DiffMode::Observed: return "Observed";
    }
    return "Unknown";
}

// Test output then names the mode, not its bytes.
void
PrintTo(DiffMode mode, std::ostream *os)
{
    *os << modeName(mode);
}

/** One machine and its two cores' contexts; live and oracle sides. */
struct DiffSide
{
    ditto::sim::EventQueue events;
    ditto::os::Machine machine{"m", withCoresAndFrequency(platformA(), 2,
                                                          2.1),
                               events, 7};
    ExecContext ctx[2] = {ExecContext{0, 21}, ExecContext{2, 21}};
    LogObserver observer;
};

class CoreDifferential : public ::testing::TestWithParam<DiffMode>
{
};

TEST_P(CoreDifferential, MatchesPerInstructionInterpreter)
{
    const DiffMode mode = GetParam();
    CodeImage image(0x400000, 0x10000000, 4);
    std::vector<std::uint32_t> ids;
    for (const CodeBlock &b : differentialBlocks())
        ids.push_back(image.addBlock(b));

    // Cores 0 and 2 of a 2-core SMT machine: two cache hierarchies,
    // so shared streams send coherence traffic between them.
    DiffSide live;
    DiffSide oracleSide;
    CpuCore *liveCore[2] = {&live.machine.core(0), &live.machine.core(2)};
    ref::Core oracle[2] = {
        ref::Core(0, oracleSide.machine.spec(),
                  oracleSide.machine.core(0).caches(), &oracleSide.machine),
        ref::Core(2, oracleSide.machine.spec(),
                  oracleSide.machine.core(2).caches(), &oracleSide.machine)};
    for (int c = 0; c < 2; ++c) {
        const bool exact = mode == DiffMode::Exact;
        liveCore[c]->setExactMode(exact);
        oracle[c].setExactMode(exact);
        if (mode == DiffMode::Observed) {
            liveCore[c]->setObserver(&live.observer);
            oracle[c].setObserver(&oracleSide.observer);
        }
    }
    liveCore[1]->setContentionFactor(1.25);
    oracle[1].setContentionFactor(1.25);

    ExecStats liveTotal;
    ExecStats oracleTotal;
    const std::uint64_t schedule[] = {1, 16, 32, 48, 49, 200, 5};
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t n : schedule) {
            for (std::size_t b = 0; b < ids.size(); ++b) {
                const int c = static_cast<int>((b + round + n) % 2);
                const bool kernel = n == 16;
                ExecStats liveStats;
                ExecStats oracleStats;
                const double liveCycles = liveCore[c]->run(
                    image, ids[b], n, live.ctx[c], liveStats, kernel);
                const double oracleCycles = oracle[c].run(
                    image, ids[b], n, oracleSide.ctx[c], oracleStats,
                    kernel);
                liveTotal.add(liveStats);
                oracleTotal.add(oracleStats);

                const std::string where = image.block(ids[b]).code.label +
                    " n=" + std::to_string(n) + " round " +
                    std::to_string(round) + ":";
                ASSERT_EQ(std::bit_cast<std::uint64_t>(oracleCycles),
                          std::bit_cast<std::uint64_t>(liveCycles))
                    << where;
                ASSERT_EQ(statsDiff(oracleStats, liveStats), "") << where;
                ASSERT_EQ(statsDiff(oracleTotal, liveTotal), "") << where;
                ASSERT_EQ(oracleSide.observer.log, live.observer.log)
                    << where;
                for (int k = 0; k < 2; ++k) {
                    CacheHierarchy &lc = liveCore[k]->caches();
                    CacheHierarchy &oc =
                        oracleSide.machine.core(k * 2).caches();
                    ASSERT_TRUE(sameCacheStats(oc.l1i().stats(),
                                               lc.l1i().stats()))
                        << where;
                    ASSERT_TRUE(sameCacheStats(oc.l1d().stats(),
                                               lc.l1d().stats()))
                        << where;
                    ASSERT_TRUE(sameCacheStats(oc.l2().stats(),
                                               lc.l2().stats()))
                        << where;
                    ASSERT_EQ(nextOutcomes(oracle[k].predictor(),
                                           0x400000 + 64 * b),
                              nextOutcomes(liveCore[k]->predictor(),
                                           0x400000 + 64 * b))
                        << where;
                }
                ASSERT_TRUE(sameCacheStats(oracleSide.machine.llc().stats(),
                                           live.machine.llc().stats()))
                    << where;
            }
        }
    }

    // Both paths were taken, and the memo grew to the longest phase
    // the mode interprets and was reused after.
    const std::size_t longest = mode == DiffMode::Replay ? 48 : 200;
    for (std::uint32_t id : ids) {
        const BlockPlan *plan = image.block(id).plan.get();
        ASSERT_NE(plan, nullptr);
        EXPECT_EQ(plan->memoSize(), longest)
            << image.block(id).code.label;
    }
    EXPECT_TRUE(image.block(ids[1]).plan.get()->chases());
    EXPECT_FALSE(image.block(ids[2]).plan.get()->chases());
    EXPECT_GT(liveTotal.serializedMissCycles, 0);
    EXPECT_GT(liveTotal.mispredicts, 0);
    EXPECT_GT(live.machine.core(0).caches().l1d().stats().invalidations +
                  live.machine.core(2).caches().l1d().stats().invalidations,
              0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CoreDifferential,
    ::testing::Values(DiffMode::Replay, DiffMode::Exact,
                      DiffMode::Observed),
    [](const ::testing::TestParamInfo<DiffMode> &info) {
        return std::string(modeName(info.param));
    });

TEST(BlockPlan, CopiedImageBuildsItsOwnPlan)
{
    CoreFixture f;
    CodeImage image = f.makeImage();
    const auto b = image.addBlock(serialAdds(8));
    ExecStats s;
    f.core.run(image, b, 4, f.ctx, s);
    ASSERT_NE(image.block(b).plan.get(), nullptr);

    CodeImage copy = image;
    EXPECT_EQ(copy.block(b).plan.get(), nullptr);
    // A block added later moves the blocks; their plans move along.
    const BlockPlan *plan = image.block(b).plan.get();
    for (int i = 0; i < 8; ++i)
        image.addBlock(parallelAdds(8));
    EXPECT_EQ(image.block(b).plan.get(), plan);

    ExecStats fromCopy;
    CoreFixture g;
    g.core.run(copy, b, 4, g.ctx, fromCopy);
    EXPECT_EQ(statsDiff(s, fromCopy), "");
}

} // namespace
