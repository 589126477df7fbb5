/**
 * @file
 * CPU core model: interprets CodeBlocks and produces cycle counts
 * with top-down attribution (retiring / frontend / bad speculation /
 * backend, after Yasin's methodology referenced by the paper).
 *
 * The model is structural where the paper's cloning arguments need it
 * to be (caches simulated access-by-access, a real pattern-history
 * branch predictor, dataflow critical path through registers for ILP,
 * port-pressure accounting for the instruction mix) and analytical
 * where cycle-accuracy would add cost without changing the cloning
 * story (no reorder-buffer simulation; parallel miss latencies
 * overlap up to the platform MLP).
 *
 * The critical path and port pressure are pure functions of a block
 * and its iteration count, so each block's BlockPlan computes them
 * once per count (hw/block_plan.h); a run interprets only the
 * instructions with a memory operand or a branch, unless a
 * pointer-chase load or an observer needs every instruction.
 */

#ifndef DITTO_HW_CPU_CORE_H_
#define DITTO_HW_CPU_CORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hw/block_plan.h"
#include "hw/branch_predictor.h"
#include "hw/cache.h"
#include "hw/code.h"
#include "hw/platform.h"
#include "sim/rng.h"

namespace ditto::hw {

/**
 * Execution statistics, accumulated over block runs.
 *
 * Counts are doubles so sampled iterations can be extrapolated
 * exactly (see CpuCore's iteration sampling).
 */
struct ExecStats
{
    double instructions = 0;
    double uops = 0;
    double cycles = 0;

    double branches = 0;
    double mispredicts = 0;

    double l1iAccesses = 0;
    double l1iMisses = 0;
    double l1dAccesses = 0;
    double l1dMisses = 0;
    double l2Accesses = 0;
    double l2Misses = 0;
    double llcAccesses = 0;
    double llcMisses = 0;

    double loads = 0;
    double stores = 0;

    double retiringCycles = 0;
    double frontendCycles = 0;
    double badSpecCycles = 0;
    double backendCycles = 0;

    /** Miss latency absorbed in parallel (MLP-overlapped). */
    double parallelMissCycles = 0;
    /** Miss latency serialized on the dependence chain (chasing). */
    double serializedMissCycles = 0;

    double kernelInstructions = 0;
    double kernelCycles = 0;

    /** Accumulate `other`, scaling every field. */
    void add(const ExecStats &other, double scale = 1.0);

    double ipc() const { return cycles > 0 ? instructions / cycles : 0; }
    double cpi() const { return instructions > 0 ? cycles / instructions : 0; }

    double
    mispredictRate() const
    {
        return branches > 0 ? mispredicts / branches : 0;
    }

    double missRateL1i() const { return rate(l1iMisses, l1iAccesses); }
    double missRateL1d() const { return rate(l1dMisses, l1dAccesses); }
    double missRateL2() const { return rate(l2Misses, l2Accesses); }
    double missRateLlc() const { return rate(llcMisses, llcAccesses); }

    /** Branch mispredictions per kilo-instruction. */
    double
    branchMpki() const
    {
        return instructions > 0 ? 1000.0 * mispredicts / instructions : 0;
    }

  private:
    static double
    rate(double num, double den)
    {
        return den > 0 ? num / den : 0.0;
    }
};

/**
 * Hook receiving the executed stream -- the profilers' view of the
 * machine (the moral equivalent of SDE / Valgrind instrumentation).
 */
class ExecObserver
{
  public:
    virtual ~ExecObserver() = default;

    /** A block is about to run `iterations` times. */
    virtual void
    onBlockEnter(const CodeBlock &block, std::uint64_t iterations,
                 bool kernelMode)
    {
        (void)block;
        (void)iterations;
        (void)kernelMode;
    }

    /** One dynamic instruction (registers resolved). */
    virtual void
    onInst(const Inst &inst, const InstInfo &info)
    {
        (void)inst;
        (void)info;
    }

    /** One data access (byte address, line-granular). */
    virtual void
    onDataAccess(std::uint64_t addr, bool isWrite, bool shared)
    {
        (void)addr;
        (void)isWrite;
        (void)shared;
    }

    /** One instruction-fetch access (line address). */
    virtual void
    onInstFetch(std::uint64_t addr)
    {
        (void)addr;
    }

    /** One conditional branch execution. */
    virtual void
    onBranch(std::uint64_t pc, bool taken)
    {
        (void)pc;
        (void)taken;
    }
};

/** Coherence fan-out: lets a shared write invalidate peer caches. */
class CoherenceDomain
{
  public:
    virtual ~CoherenceDomain() = default;

    /** Called when core `coreId` writes a shared line. */
    virtual void sharedWrite(unsigned coreId, std::uint64_t addr) = 0;

    /** Called when core `coreId` reads a shared line. */
    virtual void sharedRead(unsigned coreId, std::uint64_t addr) = 0;
};

/**
 * Per-software-thread execution state: stream cursors and branch
 * pattern counters per block, plus the RNG for Random streams.
 */
class ExecContext
{
  public:
    explicit ExecContext(unsigned threadSlot, std::uint64_t seed = 1);

    unsigned threadSlot() const { return threadSlot_; }

    struct BlockRt
    {
        std::vector<std::uint64_t> streamCursor;
        std::vector<std::uint64_t> streamLcg;
        std::vector<std::uint64_t> branchCount;
    };

    /** State for a block, created on first use. */
    BlockRt &blockRt(const void *blockKey, std::size_t streams,
                     std::size_t branches);

    sim::Rng &rng() { return rng_; }

  private:
    unsigned threadSlot_;
    sim::Rng rng_;
    std::unordered_map<const void *, BlockRt> rt_;
};

/**
 * One logical CPU. References a cache hierarchy that may be shared
 * with an SMT sibling (so hyperthread co-location contends for
 * L1/L2 for real); owns its branch predictor.
 */
class CpuCore
{
  public:
    CpuCore(unsigned id, const PlatformSpec &spec,
            CacheHierarchy &caches, CoherenceDomain *coherence);

    /**
     * Execute a linked block `iterations` times.
     *
     * @return cycles consumed (converted to time by the caller using
     *         the platform frequency).
     */
    double run(const CodeImage &image, std::uint32_t blockId,
               std::uint64_t iterations, ExecContext &ctx,
               ExecStats &stats, bool kernelMode = false);

    CacheHierarchy &caches() { return *caches_; }
    BranchPredictor &predictor() { return predictor_; }
    unsigned id() const { return id_; }

    /**
     * Attach/detach a profiler. While one is attached the core runs
     * exactly (no iteration sampling or replay) whatever
     * setExactMode says; detaching leaves the exact-mode setting as
     * it was.
     */
    void setObserver(ExecObserver *observer);

    /** Disable iteration sampling and replay (profiling-accurate). */
    void setExactMode(bool exact) { exactMode_ = exact; }

    /**
     * Replay acceleration: after a block has been interpreted
     * `kReplayMinCalls` times on this core, only every
     * `kReplayWindow`-th call is interpreted; the rest charge the
     * exponentially-averaged steady-state cost. Exact mode and
     * attached observers always interpret.
     */
    static constexpr unsigned kReplayMinCalls = 12;
    static constexpr unsigned kReplayWindow = 12;

    /**
     * Multiplier >= 1 applied to final cycle counts when an SMT
     * sibling or an external CPU stressor contends for the pipeline.
     */
    void setContentionFactor(double f) { contention_ = f; }
    double contentionFactor() const { return contention_; }

    /** Context-switch cost: cycles + private cache pollution. */
    void contextSwitch(std::uint64_t salt);

    /** Cycles charged per context switch (direct cost). */
    static constexpr double kContextSwitchCycles = 2200;

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
    /** runPhase()'s dataflow state for a full walk, reused. */
    Dataflow flow_;

    void runPhase(const CodeImage &image,
                  const CodeImage::LinkedBlock &block,
                  std::uint64_t iterations, ExecContext &ctx,
                  ExecStats &out);

    std::uint64_t nextStreamAddr(const CodeImage::LinkedStream &stream,
                                 ExecContext &ctx,
                                 ExecContext::BlockRt &rt,
                                 std::size_t streamIdx);
};

} // namespace ditto::hw

#endif // DITTO_HW_CPU_CORE_H_
