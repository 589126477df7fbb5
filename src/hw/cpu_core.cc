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
    if (!block.plan.get())
        block.plan.set(std::make_unique<BlockPlan>(image, block));
    BlockPlan &plan = *block.plan.get();
    const std::vector<BlockPlan::Op> &ops = plan.ops();
    ExecContext::BlockRt &rt = ctx.blockRt(
        &block, code.streams.size(), code.branches.size());

    const MemLatency &lat = spec_.latency;

    // A lean run visits only the plan's ops and reads the critical
    // path from the memo. A full run walks every instruction: a
    // pointer-chase load's miss latency enters the critical path, and
    // an observer sees each instruction.
    const bool full = plan.chases() || observer_;
    if (full)
        flow_.reset(code.streams.size());
    const std::size_t steps = full ? code.insts.size() : ops.size();
    double parallelMissCycles = 0;
    double frontendStall = 0;
    double badSpec = 0;

    for (std::uint64_t it = 0; it < iterations; ++it) {
        // ---- instruction fetch over the block's footprint --------------
        for (std::uint64_t l = 0; l < plan.iLines(); ++l) {
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
        std::size_t nextOp = 0;
        for (std::size_t step = 0; step < steps; ++step) {
            const std::size_t idx = full ? step : ops[step].inst;
            const BlockPlan::Op *op = nullptr;
            if (nextOp < ops.size() && ops[nextOp].inst == idx)
                op = &ops[nextOp++];
            const Inst &inst = code.insts[idx];
            double effLat = 0;  // read on a full walk only
            if (full)
                effLat = baseLatency(inst, isa.info(inst.opcode));

            // Memory operand.
            for (std::uint32_t t = 0; op && t < op->touches; ++t) {
                const auto &stream = image.stream(op->streamId);
                const std::uint64_t addr = nextStreamAddr(
                    stream, ctx, rt, op->stream);
                const CacheLevel level =
                    caches_->accessData(addr, op->isStore);
                out.l1dAccesses += 1;
                if (op->isLoad)
                    out.loads += 1;
                if (op->isStore)
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
                    if (op->chase) {
                        // Serialized: enters the dependency chain.
                        effLat += extra;
                        out.serializedMissCycles += extra;
                    } else if (op->isLoad) {
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
                    if (op->isStore)
                        coherence_->sharedWrite(id_, addr);
                    else
                        coherence_->sharedRead(id_, addr);
                }
                if (observer_) {
                    observer_->onDataAccess(addr, op->isStore,
                                            stream.desc.shared);
                }
            }

            // Conditional branch.
            if (op && op->branch != kNoBranch) {
                const BranchDesc &desc = code.branches[op->branch];
                const std::uint64_t cnt = rt.branchCount[op->branch]++;
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

            if (full) {
                flow_.issue(code, inst, effLat);
                if (observer_)
                    observer_->onInst(inst, isa.info(inst.opcode));
            }
        }
    }

    // ---- assemble the cycle count and top-down buckets -----------------
    // Every per-instruction term of these is an integer-valued double,
    // so the plan's per-iteration sums are exact.
    const double n = static_cast<double>(iterations);
    const double totalUops = plan.uopsPerIter() * n;
    out.instructions += plan.instsPerIter() * n;
    out.uops += totalUops;
    const double retiring = totalUops /
        static_cast<double>(std::max(1u, spec_.issueWidth));
    const double portBound = plan.portMax(code, iterations);
    const double critPath = full ? flow_.critPath
                                 : plan.critPath(code, iterations);
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
