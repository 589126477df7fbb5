/**
 * @file
 * Machine-level program representation.
 *
 * Both the "original" applications and Ditto-generated clones are
 * expressed as CodeBlocks: short loops of Insts over the iform table,
 * annotated with memory-stream and branch descriptors. This mirrors
 * the synthetic assembly structure in Fig. 3 of the paper (blocks of
 * instructions looping with a given instruction working set and data
 * working set, bitmask-driven conditional branches, pointer chasing).
 *
 * The profilers observe only the *executed* stream of these blocks --
 * never the descriptors -- so clones are reconstructed purely from
 * dynamic statistics, like on real hardware.
 */

#ifndef DITTO_HW_CODE_H_
#define DITTO_HW_CODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "hw/isa.h"

namespace ditto::hw {

class BlockPlan;

/** Register file indices: 16 GPRs then 16 XMM registers. */
inline constexpr std::uint8_t kNumGprs = 16;
inline constexpr std::uint8_t kNumXmms = 16;
inline constexpr std::uint8_t kNumRegs = kNumGprs + kNumXmms;
inline constexpr std::uint8_t kNoReg = 0xff;

/** First XMM register index. */
inline constexpr std::uint8_t kXmmBase = kNumGprs;

inline constexpr std::uint16_t kNoStream = 0xffff;
inline constexpr std::uint16_t kNoBranch = 0xffff;

/** Cache line size used throughout the machine model. */
inline constexpr std::uint64_t kLineBytes = 64;

/** Average x86 instruction size assumed by Eq. 2 of the paper. */
inline constexpr std::uint64_t kInstBytes = 4;

/** How a memory stream walks its working set. */
enum class StreamKind : std::uint8_t
{
    Sequential,    //!< consecutive cache lines, wraps (Fig. 4); prefetchable
    Strided,       //!< fixed multi-line stride; prefetchable
    PointerChase,  //!< serialized dependent loads (mov r11, [r11])
    Random,        //!< uniform lines within the working set; irregular
};

/**
 * A data memory stream: one logical working set walked by the memory
 * instructions that reference it.
 *
 * Addresses are line-granular. Per the paper's working-set synthesis,
 * a 2^i-byte stream accesses lines in [2^(i-1), 2^i) of its base
 * allocation sequentially, so on an LRU hierarchy it hits iff the
 * cache is at least 2^i bytes (Sec. 4.4.4).
 */
struct MemStreamDesc
{
    std::uint64_t wsBytes = kLineBytes;  //!< working set size (pow-2)
    StreamKind kind = StreamKind::Sequential;
    bool shared = false;   //!< shared across threads (coherence misses)
    std::uint32_t stride = 1;  //!< lines per step for Strided
    /**
     * Allocation pool: streams with the same nonzero poolKey, size
     * and sharing mode reuse ONE allocation across blocks (the
     * paper's single synthetic array with offsets). 0 = private
     * allocation per stream declaration.
     */
    std::uint32_t poolKey = 0;
};

/**
 * A conditional branch site with the paper's bitmask behaviour
 * (Sec. 4.4.3): taken rate 2^-M, transition rate 2^-N, both quantized
 * to M, N in [1, 10]. The dynamic direction sequence is periodic:
 * runs of 2^(N+1-M')-taken / rest-not-taken within a period of
 * 2^(N+1), matching `test reg, BITMASK; jz`.
 */
struct BranchDesc
{
    std::uint8_t takenExp = 1;  //!< M: taken rate = 2^-M
    std::uint8_t transExp = 1;  //!< N: transition rate = 2^-N
};

/** One instruction: opcode plus register/memory/branch operands. */
struct Inst
{
    Opcode opcode = 0;
    std::uint8_t dst = kNoReg;
    std::uint8_t src0 = kNoReg;
    std::uint8_t src1 = kNoReg;
    std::uint16_t memStream = kNoStream;
    std::uint16_t branch = kNoBranch;
    /** Repeat count for RepString forms (bytes); 0 otherwise. */
    std::uint32_t repBytes = 0;
};

/**
 * A loopable block of instructions -- the unit of compute in every
 * handler. The block's static size defines its instruction-memory
 * footprint; its streams define the data footprint.
 */
struct CodeBlock
{
    std::string label;           //!< for call-graph / thread profiling
    std::vector<Inst> insts;
    std::vector<MemStreamDesc> streams;
    std::vector<BranchDesc> branches;

    /** Static instruction footprint in bytes. */
    std::uint64_t
    iFootprintBytes() const
    {
        return static_cast<std::uint64_t>(insts.size()) * kInstBytes;
    }

    /** Total data footprint of private+shared streams in bytes. */
    std::uint64_t
    dFootprintBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &s : streams)
            total += s.wsBytes;
        return total;
    }
};

/**
 * A linked collection of code blocks with assigned virtual addresses.
 *
 * Linking lays blocks out contiguously in a per-service text segment
 * (so the *cumulative* static footprint drives i-cache behaviour and
 * branch aliasing) and assigns each stream a base address in the
 * service's data segment. Private streams get a distinct copy per
 * hardware thread slot; shared streams a single one.
 */
class CodeImage
{
  public:
    struct LinkedStream
    {
        MemStreamDesc desc;
        std::uint64_t base = 0;          //!< shared base
        std::uint64_t perThreadSpan = 0; //!< stride between thread copies
    };

    /**
     * Owner of a block's BlockPlan (hw/block_plan.h). A copy starts
     * empty, so a copied image builds its own plans; a move keeps it.
     */
    class PlanSlot
    {
      public:
        PlanSlot();
        PlanSlot(const PlanSlot &) : PlanSlot() {}
        PlanSlot(PlanSlot &&) noexcept;
        PlanSlot &operator=(const PlanSlot &other);
        PlanSlot &operator=(PlanSlot &&) noexcept;
        ~PlanSlot();

        BlockPlan *get() const { return plan_.get(); }
        void set(std::unique_ptr<BlockPlan> plan);

      private:
        std::unique_ptr<BlockPlan> plan_;
    };

    /**
     * A linked block. Its plan is built by CpuCore on the block's
     * first run, through this const reference: a deployment's images
     * run on one thread, so nothing guards it.
     */
    struct LinkedBlock
    {
        CodeBlock code;
        std::uint64_t iBase = 0;           //!< text address of the block
        std::vector<std::uint32_t> streamIds; //!< into streams()
        mutable PlanSlot plan;
    };

    /**
     * @param textBase  base virtual address for the text segment
     * @param dataBase  base virtual address for the data segment
     * @param maxThreads number of private-copy slots per stream
     */
    CodeImage(std::uint64_t textBase, std::uint64_t dataBase,
              unsigned maxThreads);

    /** Link a block; returns its block id. */
    std::uint32_t addBlock(const CodeBlock &block);

    const LinkedBlock &block(std::uint32_t id) const
    {
        return blocks_[id];
    }
    std::size_t blockCount() const { return blocks_.size(); }

    const LinkedStream &stream(std::uint32_t id) const
    {
        return streams_[id];
    }
    std::size_t streamCount() const { return streams_.size(); }

    /** End of the text segment (next free address). */
    std::uint64_t textEnd() const { return textNext_; }

    /** End of the data segment (next free address). */
    std::uint64_t dataEnd() const { return dataNext_; }

    /** Total bytes of text linked. */
    std::uint64_t textBytes() const { return textNext_ - textBase_; }

    unsigned maxThreads() const { return maxThreads_; }

  private:
    using PoolId = std::tuple<std::uint32_t, std::uint64_t, bool>;

    std::uint64_t textBase_;
    std::uint64_t textNext_;
    std::uint64_t dataNext_;
    unsigned maxThreads_;
    std::vector<LinkedBlock> blocks_;
    std::vector<LinkedStream> streams_;
    std::map<PoolId, std::uint32_t> pooled_;
};

/** Round up to the next power of two (minimum kLineBytes). */
std::uint64_t roundUpPow2(std::uint64_t v);

} // namespace ditto::hw

#endif // DITTO_HW_CODE_H_
