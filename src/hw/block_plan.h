/**
 * @file
 * A linked block's execution plan: what CpuCore needs to run the
 * block, split into the part every iteration costs the same and the
 * part that depends on machine state.
 *
 * A block's register critical path and its greedy port pressure
 * depend only on its instructions (opcodes, registers, REP lengths)
 * and on how many times it loops, never on the caches or the
 * predictor -- unless a load walks a pointer-chase stream, whose miss
 * latency enters the dependence chain. Every term of both is an
 * integer-valued double (iform latencies, REP chunk counts, port
 * uops), so summing them per iteration count once and reading the sum
 * back is exact, not an approximation. The plan keeps those sums in a
 * memo indexed by iteration count, and lists the instructions that
 * still need work at run time: the ones with a memory operand or a
 * conditional branch.
 */

#ifndef DITTO_HW_BLOCK_PLAN_H_
#define DITTO_HW_BLOCK_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hw/code.h"
#include "hw/isa.h"

namespace ditto::hw {

/** Cycles an instruction takes with no miss latency (REP forms scale). */
inline double
baseLatency(const Inst &inst, const InstInfo &info)
{
    double lat = info.latency;
    if (info.repPerElem && inst.repBytes) {
        const std::uint64_t chunks = (inst.repBytes + 15) / 16;
        lat += static_cast<double>(info.repPerElem) *
            static_cast<double>(chunks);
    }
    return lat;
}

/** Fused uops of an instruction (REP forms add half a uop a chunk). */
inline double
instUops(const Inst &inst, const InstInfo &info)
{
    double uops = info.uops;
    if (info.repPerElem && inst.repBytes) {
        const std::uint64_t chunks = (inst.repBytes + 15) / 16;
        uops += static_cast<double>(chunks) / 2.0;
    }
    return uops;
}

/**
 * Register dataflow state of a run: when each register's value and
 * each pointer-chase stream's next address are ready, and the latest
 * completion so far (the critical path).
 */
struct Dataflow
{
    double regReady[kNumRegs] = {};
    /** Per block-local stream; only pointer-chase entries are used. */
    std::vector<double> chainReady;
    double critPath = 0;

    explicit Dataflow(std::size_t streams = 0) { reset(streams); }

    /** Back to time 0, with `streams` chain entries. */
    void
    reset(std::size_t streams)
    {
        std::fill(std::begin(regReady), std::end(regReady), 0.0);
        chainReady.assign(streams, 0.0);
        critPath = 0;
    }

    /**
     * Issue `inst` with latency `lat`. A memory operand on a
     * pointer-chase stream waits on, and then feeds, that stream's
     * previous access (mov r11, [r11]).
     */
    void
    issue(const CodeBlock &code, const Inst &inst, double lat)
    {
        double ready = 0;
        if (inst.src0 != kNoReg)
            ready = std::max(ready, regReady[inst.src0]);
        if (inst.src1 != kNoReg)
            ready = std::max(ready, regReady[inst.src1]);
        const bool chased = inst.memStream != kNoStream &&
            inst.memStream < code.streams.size() &&
            code.streams[inst.memStream].kind == StreamKind::PointerChase;
        if (chased)
            ready = std::max(ready, chainReady[inst.memStream]);
        const double done = ready + lat;
        if (chased)
            chainReady[inst.memStream] = done;
        if (inst.dst != kNoReg)
            regReady[inst.dst] = done;
        critPath = std::max(critPath, done);
    }
};

/**
 * Per-block plan, built on the block's first run and owned by its
 * CodeImage::LinkedBlock. Not copyable: a copied image builds its own.
 */
class BlockPlan
{
  public:
    /** An instruction with run-time work. */
    struct Op
    {
        std::uint32_t inst;      //!< index into the block's insts
        std::uint32_t touches;   //!< lines touched; 0: no memory operand
        std::uint32_t streamId;  //!< into CodeImage::stream()
        std::uint16_t stream;    //!< block-local stream (cursor slot)
        std::uint16_t branch;    //!< branch site, or kNoBranch
        bool isLoad;
        bool isStore;
        /** A load on a pointer-chase stream: its misses serialize. */
        bool chase;
    };

    BlockPlan(const CodeImage &image, const CodeImage::LinkedBlock &block);
    BlockPlan(const BlockPlan &) = delete;
    BlockPlan &operator=(const BlockPlan &) = delete;

    /** Instructions with a memory operand or a branch, in block order. */
    const std::vector<Op> &ops() const { return ops_; }

    double instsPerIter() const { return insts_; }
    double uopsPerIter() const { return uops_; }
    /** Instruction-cache lines the block's footprint spans. */
    std::uint64_t iLines() const { return iLines_; }

    /**
     * Some load walks a pointer-chase stream, so the critical path
     * depends on where its accesses hit and cannot come from the memo.
     */
    bool chases() const { return chases_; }

    /** Critical path of `n` >= 1 iterations with no miss latency. */
    double
    critPath(const CodeBlock &code, std::uint64_t n)
    {
        extendTo(code, n);
        return memo_[n - 1].critPath;
    }

    /** Most uops on one port after `n` >= 1 iterations. */
    double
    portMax(const CodeBlock &code, std::uint64_t n)
    {
        extendTo(code, n);
        return memo_[n - 1].portMax;
    }

    /** Iteration counts the memo holds (for tests and accounting). */
    std::size_t memoSize() const { return memo_.size(); }

  private:
    struct Bound
    {
        double critPath;
        double portMax;
    };

    std::vector<Op> ops_;
    double insts_ = 0;
    double uops_ = 0;
    std::uint64_t iLines_ = 1;
    bool chases_ = false;

    /** memo_[n - 1]: the bounds after n iterations. */
    std::vector<Bound> memo_;
    /** State after memo_.size() iterations, to extend from. */
    Dataflow flow_;
    double portLoad_[kNumPorts] = {};

    /** Run iterations past the memo's end until it covers `n`. */
    void extendTo(const CodeBlock &code, std::uint64_t n);
};

} // namespace ditto::hw

#endif // DITTO_HW_BLOCK_PLAN_H_
