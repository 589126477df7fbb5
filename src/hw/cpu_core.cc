#include "hw/cpu_core.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ditto::hw {

void
ExecStats::add(const ExecStats &other, double scale)
{
    instructions += other.instructions * scale;
    uops += other.uops * scale;
    cycles += other.cycles * scale;
    branches += other.branches * scale;
    mispredicts += other.mispredicts * scale;
    l1iAccesses += other.l1iAccesses * scale;
    l1iMisses += other.l1iMisses * scale;
    l1dAccesses += other.l1dAccesses * scale;
    l1dMisses += other.l1dMisses * scale;
    l2Accesses += other.l2Accesses * scale;
    l2Misses += other.l2Misses * scale;
    llcAccesses += other.llcAccesses * scale;
    llcMisses += other.llcMisses * scale;
    loads += other.loads * scale;
    stores += other.stores * scale;
    retiringCycles += other.retiringCycles * scale;
    frontendCycles += other.frontendCycles * scale;
    badSpecCycles += other.badSpecCycles * scale;
    backendCycles += other.backendCycles * scale;
    kernelInstructions += other.kernelInstructions * scale;
    kernelCycles += other.kernelCycles * scale;
    parallelMissCycles += other.parallelMissCycles * scale;
    serializedMissCycles += other.serializedMissCycles * scale;
}

ExecContext::ExecContext(unsigned threadSlot, std::uint64_t seed)
    : threadSlot_(threadSlot), rng_(seed ^ (threadSlot * 0x9e3779b9ull))
{
}

ExecContext::BlockRt &
ExecContext::blockRt(const void *blockKey, std::size_t streams,
                     std::size_t branches)
{
    BlockRt &rt = rt_[blockKey];
    if (rt.streamCursor.size() != streams) {
        rt.streamCursor.assign(streams, 0);
        rt.streamLcg.assign(streams, 1);
    }
    if (rt.branchCount.size() != branches)
        rt.branchCount.assign(branches, 0);
    return rt;
}

CpuCore::CpuCore(unsigned id, const PlatformSpec &spec,
                 CacheHierarchy &caches, CoherenceDomain *coherence)
    : id_(id), spec_(spec), caches_(&caches),
      predictor_(spec.predictorLog2Entries, spec.predictorHistoryBits),
      coherence_(coherence)
{
}

void
CpuCore::setObserver(ExecObserver *observer)
{
    observer_ = observer;
}

void
CpuCore::contextSwitch(std::uint64_t salt)
{
    // Direct cost is charged by the scheduler; here we model the
    // indirect cost: private-cache pollution from the other task.
    caches_->pollute(0.30, salt);
}

std::uint64_t
CpuCore::nextStreamAddr(const CodeImage::LinkedStream &stream,
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
        cursor = (cursor + std::max<std::uint32_t>(1, stream.desc.stride))
            % wsLines;
        break;
      case StreamKind::PointerChase: {
        // Full-period LCG over the pow-2 line count: a = 5 (== 1 mod 4),
        // odd increment -> a maximal-period permutation walk, which is
        // unprefetchable and serializes on the load like real chasing.
        std::uint64_t &x = rt.streamLcg[streamIdx];
        x = (x * 5 + 13) & (wsLines - 1);
        line = x;
        break;
      }
      case StreamKind::Random:
        line = ctx.rng().uniformInt(wsLines);
        break;
    }

    const unsigned slot = stream.perThreadSpan
        ? ctx.threadSlot() : 0;
    return stream.base + slot * stream.perThreadSpan +
        line * kLineBytes;
}

void
CpuCore::runPhase(const CodeImage &image,
                  const CodeImage::LinkedBlock &block,
                  std::uint64_t iterations, ExecContext &ctx,
                  ExecStats &out)
{
    const Isa &isa = Isa::instance();
    const CodeBlock &code = block.code;
    ExecContext::BlockRt &rt = ctx.blockRt(
        &block, code.streams.size(), code.branches.size());

    const MemLatency &lat = spec_.latency;

    double regReady[kNumRegs] = {};
    double portLoad[kNumPorts] = {};
    // Pointer-chase streams serialize through memory: each access
    // depends on the previous one's loaded value (mov r11, [r11]).
    chainReady_.assign(code.streams.size(), 0.0);
    double critPath = 0;
    double parallelMissCycles = 0;
    double frontendStall = 0;
    double badSpec = 0;
    double totalUops = 0;

    const std::uint64_t iLines = std::max<std::uint64_t>(
        1, (code.iFootprintBytes() + kLineBytes - 1) / kLineBytes);

    for (std::uint64_t it = 0; it < iterations; ++it) {
        // ---- instruction fetch over the block's footprint --------------
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

        // ---- execute the instruction sequence ---------------------------
        for (std::size_t idx = 0; idx < code.insts.size(); ++idx) {
            const Inst &inst = code.insts[idx];
            const InstInfo &info = isa.info(inst.opcode);

            out.instructions += 1;
            double uops = info.uops;
            double effLat = info.latency;

            // REP string forms scale with the repeat count.
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

            // Memory operand.
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
                            stream.desc.kind == StreamKind::PointerChase) {
                            // Serialized: enters the dependency chain.
                            effLat += extra;
                            out.serializedMissCycles += extra;
                        } else if (info.isLoad) {
                            parallelMissCycles += extra;
                            out.parallelMissCycles += extra;
                        } else {
                            // Store misses mostly hidden by the store
                            // buffer; a fraction backs up.
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

            // Register dataflow critical path.
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

            // Port pressure: greedy least-loaded among allowed ports.
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

            // Conditional branch.
            if (inst.branch != kNoBranch &&
                inst.branch < code.branches.size()) {
                const BranchDesc &desc = code.branches[inst.branch];
                const std::uint64_t cnt = rt.branchCount[inst.branch]++;
                const bool taken = BranchPattern::direction(desc, cnt);
                const std::uint64_t pc = block.iBase + idx * kInstBytes;
                const bool mis = predictor_.predictAndUpdate(pc, taken);
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

    // ---- assemble the cycle count and top-down buckets -----------------
    const double retiring = totalUops /
        static_cast<double>(std::max(1u, spec_.issueWidth));
    double portBound = 0;
    for (double p : portLoad)
        portBound = std::max(portBound, p);
    const double coreBound = std::max({retiring, portBound, critPath});
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

double
CpuCore::run(const CodeImage &image, std::uint32_t blockId,
             std::uint64_t iterations, ExecContext &ctx,
             ExecStats &stats, bool kernelMode)
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
            entry->interpretedCalls >= kReplayMinCalls &&
            entry->sinceInterpret < kReplayWindow) {
            // Steady state: charge the averaged per-iteration cost
            // without re-interpreting (cache/predictor state frozen).
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
        // Warm the caches/predictor, then measure a steady-state
        // sample and extrapolate the remaining iterations.
        runPhase(image, block, kWarmIters, ctx, phase);
        ExecStats sample;
        runPhase(image, block, kSampleIters, ctx, sample);
        const double scale = static_cast<double>(
            iterations - kWarmIters) / static_cast<double>(kSampleIters);
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

} // namespace ditto::hw
