/**
 * @file
 * x86-like instruction set metadata.
 *
 * The machine model interprets programs expressed over a table of
 * "iforms" -- instruction forms in the spirit of Intel XED, which is
 * what Intel SDE reports and what Ditto's instruction-mix analysis
 * clusters (Sec. 4.4.2). Each iform carries the microarchitectural
 * attributes the cost model and the clusterer need: uop count,
 * latency, execution-port set, functional class, and operand kind.
 *
 * Latencies/ports approximate Skylake numbers from uops.info and
 * Agner Fog's tables; exact silicon fidelity is not the goal -- a
 * *consistent* cost structure that differentiates iforms the same way
 * real hardware does is (e.g. CRC32 is 3 cycles on port 1 only, plain
 * integer ALU is 1 cycle on any of 4 ports, REP/LOCK forms cost tens
 * of cycles).
 */

#ifndef DITTO_HW_ISA_H_
#define DITTO_HW_ISA_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace ditto::hw {

/** Functional class of an iform (Ditto clustering feature 1). */
enum class InstClass : std::uint8_t
{
    DataMove,   //!< mov/movzx/lea/cmov/push/pop
    IntArith,   //!< add/sub/inc/cmp/test/neg
    IntMul,     //!< imul/mul
    IntDiv,     //!< idiv/div
    Logic,      //!< and/or/xor/not
    Shift,      //!< shl/shr/sar/rol/ror
    FpArith,    //!< x87/scalar SSE add/sub/cmp
    FpMul,      //!< scalar SSE mul
    FpDiv,      //!< scalar SSE div/sqrt
    SimdInt,    //!< packed integer SSE/AVX
    SimdFp,     //!< packed FP SSE/AVX
    Control,    //!< jmp/jcc/call/ret
    Lock,       //!< LOCK-prefixed RMW
    RepString,  //!< REP MOVS/STOS/SCAS
    Crc,        //!< crc32 and friends (fixed-port specialty ops)
    Nop,        //!< nop/pause
    Convert,    //!< cvt* int<->fp
    System,     //!< syscall/rdtsc/cpuid
};

/** Dominant operand kind (Ditto clustering feature 2). */
enum class OperandKind : std::uint8_t
{
    Gpr,   //!< general purpose registers
    X87,   //!< x87 floating point stack
    Xmm,   //!< XMM/YMM vector registers
    Mem,   //!< memory operand dominates (e.g. string ops)
    None,  //!< no operands (nop, rdtsc)
};

/** Execution-port bitmask, Skylake-style ports 0..7. */
enum PortMask : std::uint8_t
{
    kPort0 = 1 << 0,
    kPort1 = 1 << 1,
    kPort2 = 1 << 2,  //!< load AGU
    kPort3 = 1 << 3,  //!< load AGU
    kPort4 = 1 << 4,  //!< store data
    kPort5 = 1 << 5,
    kPort6 = 1 << 6,
    kPort7 = 1 << 7,  //!< store AGU
};

/** Number of execution ports modeled. */
inline constexpr int kNumPorts = 8;

/** Static metadata describing one iform. */
struct InstInfo
{
    std::string_view iform;  //!< XED-style name, e.g. "ADD_GPR64_GPR64"
    InstClass cls;
    OperandKind operands;
    std::uint8_t uops;       //!< fused-domain uop count
    std::uint8_t latency;    //!< result latency in cycles
    std::uint8_t ports;      //!< PortMask of issueable ports
    bool isLoad;
    bool isStore;
    bool isBranch;
    /**
     * Extra cycles per repeat element for RepString forms; zero
     * otherwise. The dynamic cost is latency + repPerElem * count.
     */
    std::uint8_t repPerElem;
};

/** Opcode: dense index into the iform table. */
using Opcode = std::uint16_t;

/**
 * The global iform table.
 *
 * Singleton by design: the table is immutable machine metadata, and
 * every component (apps, profilers, generators) must agree on opcode
 * indices.
 */
class Isa
{
  public:
    /** The process-wide table. */
    static const Isa &instance();

    /** Number of iforms. */
    std::size_t size() const { return table_.size(); }

    /** Metadata for an opcode. */
    const InstInfo &info(Opcode op) const { return table_[op]; }

    /** Look up an opcode by iform name; aborts on unknown names. */
    Opcode opcode(std::string_view iform) const;

    /** Look up an opcode; returns false when the iform is unknown. */
    bool tryOpcode(std::string_view iform, Opcode &out) const;

    /** All opcodes of a given class. */
    std::vector<Opcode> opcodesOfClass(InstClass cls) const;

    /** True when the opcode references memory (load or store). */
    bool
    touchesMemory(Opcode op) const
    {
        const InstInfo &i = info(op);
        return i.isLoad || i.isStore;
    }

  private:
    Isa();

    std::vector<InstInfo> table_;
};

} // namespace ditto::hw

#endif // DITTO_HW_ISA_H_
