#include "hw/isa.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace ditto::hw {

namespace {

constexpr std::uint8_t kAluPorts = kPort0 | kPort1 | kPort5 | kPort6;
constexpr std::uint8_t kLoadPorts = kPort2 | kPort3;
constexpr std::uint8_t kStorePorts = kPort4 | kPort7;
constexpr std::uint8_t kP0 = kPort0;
constexpr std::uint8_t kP1 = kPort1;
constexpr std::uint8_t kP5 = kPort5;
constexpr std::uint8_t kP6 = kPort6;
constexpr std::uint8_t kP01 = kPort0 | kPort1;
constexpr std::uint8_t kP06 = kPort0 | kPort6;
constexpr std::uint8_t kP015 = kPort0 | kPort1 | kPort5;

struct Row
{
    std::string_view iform;
    InstClass cls;
    OperandKind op;
    std::uint8_t uops;
    std::uint8_t lat;
    std::uint8_t ports;
    bool load;
    bool store;
    bool branch;
    std::uint8_t rep;
};

// The iform table. Order defines opcode values; append-only.
const Row kTable[] = {
    // ---- data movement -------------------------------------------------
    {"MOV_GPR64_GPR64", InstClass::DataMove, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"MOV_GPR64_IMM64", InstClass::DataMove, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"MOV_GPR32_GPR32", InstClass::DataMove, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"MOV_GPR64_MEM64", InstClass::DataMove, OperandKind::Gpr,
     1, 4, kLoadPorts, true, false, false, 0},
    {"MOV_GPR32_MEM32", InstClass::DataMove, OperandKind::Gpr,
     1, 4, kLoadPorts, true, false, false, 0},
    {"MOV_MEM64_GPR64", InstClass::DataMove, OperandKind::Gpr,
     2, 1, kStorePorts, false, true, false, 0},
    {"MOV_MEM32_GPR32", InstClass::DataMove, OperandKind::Gpr,
     2, 1, kStorePorts, false, true, false, 0},
    {"MOVZX_GPR64_MEM8", InstClass::DataMove, OperandKind::Gpr,
     1, 4, kLoadPorts, true, false, false, 0},
    {"MOVSX_GPR64_MEM16", InstClass::DataMove, OperandKind::Gpr,
     1, 4, kLoadPorts, true, false, false, 0},
    {"LEA_GPR64_AGEN", InstClass::DataMove, OperandKind::Gpr,
     1, 1, kPort1 | kPort5, false, false, false, 0},
    {"CMOVZ_GPR64_GPR64", InstClass::DataMove, OperandKind::Gpr,
     1, 1, kP06, false, false, false, 0},
    {"CMOVNZ_GPR64_GPR64", InstClass::DataMove, OperandKind::Gpr,
     1, 1, kP06, false, false, false, 0},
    {"XCHG_GPR64_GPR64", InstClass::DataMove, OperandKind::Gpr,
     3, 2, kAluPorts, false, false, false, 0},
    {"PUSH_GPR64", InstClass::DataMove, OperandKind::Gpr,
     1, 1, kStorePorts, false, true, false, 0},
    {"POP_GPR64", InstClass::DataMove, OperandKind::Gpr,
     1, 4, kLoadPorts, true, false, false, 0},
    {"MOVAPS_XMM_XMM", InstClass::DataMove, OperandKind::Xmm,
     1, 1, kP015, false, false, false, 0},
    {"MOVDQU_XMM_MEM128", InstClass::DataMove, OperandKind::Xmm,
     1, 5, kLoadPorts, true, false, false, 0},
    {"MOVDQU_MEM128_XMM", InstClass::DataMove, OperandKind::Xmm,
     2, 1, kStorePorts, false, true, false, 0},
    {"MOVQ_XMM_GPR64", InstClass::DataMove, OperandKind::Xmm,
     1, 2, kP0, false, false, false, 0},
    {"MOVQ_GPR64_XMM", InstClass::DataMove, OperandKind::Xmm,
     1, 2, kP0, false, false, false, 0},

    // ---- integer arithmetic --------------------------------------------
    {"ADD_GPR64_GPR64", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"ADD_GPR64_IMM32", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"ADD_GPR64_MEM64", InstClass::IntArith, OperandKind::Gpr,
     2, 5, kLoadPorts, true, false, false, 0},
    {"ADD_MEM64_GPR64", InstClass::IntArith, OperandKind::Gpr,
     4, 6, kLoadPorts, true, true, false, 0},
    {"SUB_GPR64_GPR64", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"SUB_GPR64_MEM64", InstClass::IntArith, OperandKind::Gpr,
     2, 5, kLoadPorts, true, false, false, 0},
    {"INC_GPR64", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"DEC_GPR64", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"NEG_GPR64", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"ADC_GPR64_GPR64", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kP06, false, false, false, 0},
    {"CMP_GPR64_GPR64", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"CMP_GPR64_IMM32", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"CMP_GPR64_MEM64", InstClass::IntArith, OperandKind::Gpr,
     2, 5, kLoadPorts, true, false, false, 0},
    {"TEST_GPR64_GPR64", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"TEST_GPR32_IMM32", InstClass::IntArith, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},

    // ---- integer multiply / divide -------------------------------------
    {"IMUL_GPR64_GPR64", InstClass::IntMul, OperandKind::Gpr,
     1, 3, kP1, false, false, false, 0},
    {"IMUL_GPR32_GPR32", InstClass::IntMul, OperandKind::Gpr,
     1, 3, kP1, false, false, false, 0},
    {"MUL_GPR64", InstClass::IntMul, OperandKind::Gpr,
     2, 4, kP1 | kP5, false, false, false, 0},
    {"IMUL_GPR64_MEM64", InstClass::IntMul, OperandKind::Gpr,
     2, 8, kP1 | kLoadPorts, true, false, false, 0},
    {"MUL_MEM64", InstClass::IntMul, OperandKind::Gpr,
     3, 8, kP1 | kP5 | kLoadPorts, true, false, false, 0},
    {"DIV_GPR64", InstClass::IntDiv, OperandKind::Gpr,
     10, 36, kP0, false, false, false, 0},
    {"IDIV_GPR64", InstClass::IntDiv, OperandKind::Gpr,
     10, 42, kP0, false, false, false, 0},
    {"DIV_GPR32", InstClass::IntDiv, OperandKind::Gpr,
     10, 26, kP0, false, false, false, 0},
    {"IDIV_GPR32", InstClass::IntDiv, OperandKind::Gpr,
     10, 26, kP0, false, false, false, 0},

    // ---- logic / shift ---------------------------------------------------
    {"AND_GPR64_GPR64", InstClass::Logic, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"OR_GPR64_GPR64", InstClass::Logic, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"XOR_GPR64_GPR64", InstClass::Logic, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"XOR_GPR32_GPR32", InstClass::Logic, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"NOT_GPR64", InstClass::Logic, OperandKind::Gpr,
     1, 1, kAluPorts, false, false, false, 0},
    {"AND_GPR64_MEM64", InstClass::Logic, OperandKind::Gpr,
     2, 5, kLoadPorts, true, false, false, 0},
    {"XOR_MEM64_GPR64", InstClass::Logic, OperandKind::Gpr,
     4, 6, kLoadPorts, true, true, false, 0},
    {"SHL_GPR64_IMM8", InstClass::Shift, OperandKind::Gpr,
     1, 1, kP06, false, false, false, 0},
    {"SHR_GPR64_IMM8", InstClass::Shift, OperandKind::Gpr,
     1, 1, kP06, false, false, false, 0},
    {"SAR_GPR64_IMM8", InstClass::Shift, OperandKind::Gpr,
     1, 1, kP06, false, false, false, 0},
    {"SHL_GPR64_CL", InstClass::Shift, OperandKind::Gpr,
     3, 2, kP06, false, false, false, 0},
    {"ROL_GPR64_IMM8", InstClass::Shift, OperandKind::Gpr,
     1, 1, kP06, false, false, false, 0},
    {"ROR_GPR64_CL", InstClass::Shift, OperandKind::Gpr,
     3, 2, kP06, false, false, false, 0},

    // ---- scalar floating point -------------------------------------------
    {"ADDSD_XMM_XMM", InstClass::FpArith, OperandKind::Xmm,
     1, 4, kP01, false, false, false, 0},
    {"SUBSD_XMM_XMM", InstClass::FpArith, OperandKind::Xmm,
     1, 4, kP01, false, false, false, 0},
    {"ADDSS_XMM_XMM", InstClass::FpArith, OperandKind::Xmm,
     1, 4, kP01, false, false, false, 0},
    {"UCOMISD_XMM_XMM", InstClass::FpArith, OperandKind::Xmm,
     1, 2, kP0, false, false, false, 0},
    {"MAXSD_XMM_XMM", InstClass::FpArith, OperandKind::Xmm,
     1, 4, kP01, false, false, false, 0},
    {"ADDSD_XMM_MEM64", InstClass::FpArith, OperandKind::Xmm,
     2, 9, kLoadPorts, true, false, false, 0},
    {"FADD_X87", InstClass::FpArith, OperandKind::X87,
     1, 3, kP5, false, false, false, 0},
    {"FSUB_X87", InstClass::FpArith, OperandKind::X87,
     1, 3, kP5, false, false, false, 0},
    {"MULSD_XMM_XMM", InstClass::FpMul, OperandKind::Xmm,
     1, 4, kP01, false, false, false, 0},
    {"MULSS_XMM_XMM", InstClass::FpMul, OperandKind::Xmm,
     1, 4, kP01, false, false, false, 0},
    {"FMUL_X87", InstClass::FpMul, OperandKind::X87,
     1, 5, kP0, false, false, false, 0},
    {"DIVSD_XMM_XMM", InstClass::FpDiv, OperandKind::Xmm,
     1, 14, kP0, false, false, false, 0},
    {"DIVSS_XMM_XMM", InstClass::FpDiv, OperandKind::Xmm,
     1, 11, kP0, false, false, false, 0},
    {"SQRTSD_XMM_XMM", InstClass::FpDiv, OperandKind::Xmm,
     1, 18, kP0, false, false, false, 0},
    {"FDIV_X87", InstClass::FpDiv, OperandKind::X87,
     1, 15, kP0, false, false, false, 0},

    // ---- SIMD -------------------------------------------------------------
    {"PADDQ_XMM_XMM", InstClass::SimdInt, OperandKind::Xmm,
     1, 1, kP015, false, false, false, 0},
    {"PADDD_XMM_XMM", InstClass::SimdInt, OperandKind::Xmm,
     1, 1, kP015, false, false, false, 0},
    {"PSUBB_XMM_XMM", InstClass::SimdInt, OperandKind::Xmm,
     1, 1, kP015, false, false, false, 0},
    {"PAND_XMM_XMM", InstClass::SimdInt, OperandKind::Xmm,
     1, 1, kP015, false, false, false, 0},
    {"POR_XMM_XMM", InstClass::SimdInt, OperandKind::Xmm,
     1, 1, kP015, false, false, false, 0},
    {"PXOR_XMM_XMM", InstClass::SimdInt, OperandKind::Xmm,
     1, 1, kP015, false, false, false, 0},
    {"PCMPEQB_XMM_XMM", InstClass::SimdInt, OperandKind::Xmm,
     1, 1, kP01, false, false, false, 0},
    {"PMOVMSKB_GPR32_XMM", InstClass::SimdInt, OperandKind::Xmm,
     1, 3, kP0, false, false, false, 0},
    {"PSHUFB_XMM_XMM", InstClass::SimdInt, OperandKind::Xmm,
     1, 1, kP5, false, false, false, 0},
    {"PMULLD_XMM_XMM", InstClass::SimdInt, OperandKind::Xmm,
     2, 10, kP01, false, false, false, 0},
    {"PADDD_XMM_MEM128", InstClass::SimdInt, OperandKind::Xmm,
     2, 6, kLoadPorts, true, false, false, 0},
    {"PUNPCKLBW_XMM_XMM", InstClass::SimdInt, OperandKind::Xmm,
     1, 1, kP5, false, false, false, 0},
    {"ADDPS_XMM_XMM", InstClass::SimdFp, OperandKind::Xmm,
     1, 4, kP01, false, false, false, 0},
    {"ADDPD_XMM_XMM", InstClass::SimdFp, OperandKind::Xmm,
     1, 4, kP01, false, false, false, 0},
    {"MULPD_XMM_XMM", InstClass::SimdFp, OperandKind::Xmm,
     1, 4, kP01, false, false, false, 0},
    {"DIVPD_XMM_XMM", InstClass::SimdFp, OperandKind::Xmm,
     1, 14, kP0, false, false, false, 0},
    {"CVTSI2SD_XMM_GPR64", InstClass::Convert, OperandKind::Xmm,
     2, 6, kP01, false, false, false, 0},
    {"CVTTSD2SI_GPR64_XMM", InstClass::Convert, OperandKind::Xmm,
     2, 6, kP01, false, false, false, 0},

    // ---- control flow -------------------------------------------------
    {"JMP_RELBR", InstClass::Control, OperandKind::None,
     1, 1, kP6, false, false, true, 0},
    {"JZ_RELBR", InstClass::Control, OperandKind::None,
     1, 1, kP06, false, false, true, 0},
    {"JNZ_RELBR", InstClass::Control, OperandKind::None,
     1, 1, kP06, false, false, true, 0},
    {"JL_RELBR", InstClass::Control, OperandKind::None,
     1, 1, kP06, false, false, true, 0},
    {"JNB_RELBR", InstClass::Control, OperandKind::None,
     1, 1, kP06, false, false, true, 0},
    {"JLE_RELBR", InstClass::Control, OperandKind::None,
     1, 1, kP06, false, false, true, 0},
    {"CALL_NEAR_RELBR", InstClass::Control, OperandKind::None,
     2, 2, kP6 | kStorePorts, false, true, true, 0},
    {"RET_NEAR", InstClass::Control, OperandKind::None,
     2, 2, kP6 | kLoadPorts, true, false, true, 0},
    {"JMP_MEM64", InstClass::Control, OperandKind::Mem,
     2, 5, kP6 | kLoadPorts, true, false, true, 0},

    // ---- LOCK-prefixed atomics ---------------------------------------
    {"LOCK_ADD_MEM64_GPR64", InstClass::Lock, OperandKind::Mem,
     8, 18, kLoadPorts, true, true, false, 0},
    {"LOCK_XADD_MEM64_GPR64", InstClass::Lock, OperandKind::Mem,
     9, 20, kLoadPorts, true, true, false, 0},
    {"LOCK_CMPXCHG_MEM64_GPR64", InstClass::Lock, OperandKind::Mem,
     10, 20, kLoadPorts, true, true, false, 0},
    {"LOCK_DEC_MEM32", InstClass::Lock, OperandKind::Mem,
     8, 18, kLoadPorts, true, true, false, 0},
    {"XCHG_MEM64_GPR64", InstClass::Lock, OperandKind::Mem,
     8, 18, kLoadPorts, true, true, false, 0},

    // ---- REP string operations ----------------------------------------
    // Dynamic cost: latency + repPerElem * ceil(count / 16 bytes).
    {"REP_MOVSB", InstClass::RepString, OperandKind::Mem,
     4, 20, kLoadPorts, true, true, false, 1},
    {"REP_STOSB", InstClass::RepString, OperandKind::Mem,
     3, 16, kStorePorts, false, true, false, 1},
    {"REPNE_SCASB", InstClass::RepString, OperandKind::Mem,
     4, 16, kLoadPorts, true, false, false, 2},
    {"REP_CMPSB", InstClass::RepString, OperandKind::Mem,
     5, 18, kLoadPorts, true, false, false, 2},

    // ---- fixed-port specialty ops ---------------------------------------
    {"CRC32_GPR64_GPR64", InstClass::Crc, OperandKind::Gpr,
     1, 3, kP1, false, false, false, 0},
    {"CRC32_GPR64_MEM64", InstClass::Crc, OperandKind::Gpr,
     2, 7, kP1 | kLoadPorts, true, false, false, 0},
    {"POPCNT_GPR64_GPR64", InstClass::Crc, OperandKind::Gpr,
     1, 3, kP1, false, false, false, 0},
    {"LZCNT_GPR64_GPR64", InstClass::Crc, OperandKind::Gpr,
     1, 3, kP1, false, false, false, 0},
    {"TZCNT_GPR64_GPR64", InstClass::Crc, OperandKind::Gpr,
     1, 3, kP1, false, false, false, 0},
    {"BSWAP_GPR64", InstClass::Crc, OperandKind::Gpr,
     1, 2, kP1 | kP5, false, false, false, 0},

    // ---- nop / system ----------------------------------------------------
    {"NOP", InstClass::Nop, OperandKind::None,
     1, 1, kAluPorts, false, false, false, 0},
    {"PAUSE", InstClass::Nop, OperandKind::None,
     4, 40, kP0 | kP5, false, false, false, 0},
    {"RDTSC", InstClass::System, OperandKind::None,
     15, 25, kP0, false, false, false, 0},
    {"CPUID", InstClass::System, OperandKind::None,
     30, 100, kP0, false, false, false, 0},
    {"SYSCALL", InstClass::System, OperandKind::None,
     20, 80, kP0, false, false, false, 0},
    {"MFENCE", InstClass::System, OperandKind::None,
     4, 33, kStorePorts, false, false, false, 0},
    {"LFENCE", InstClass::System, OperandKind::None,
     2, 6, kP6, false, false, false, 0},
};

} // namespace

const Isa &
Isa::instance()
{
    static const Isa isa;
    return isa;
}

Isa::Isa()
{
    table_.reserve(std::size(kTable));
    for (const Row &r : kTable) {
        table_.push_back(InstInfo{r.iform, r.cls, r.op, r.uops, r.lat,
                                  r.ports, r.load, r.store, r.branch,
                                  r.rep});
    }
}

namespace {

const std::unordered_map<std::string_view, Opcode> &
iformIndex()
{
    static const std::unordered_map<std::string_view, Opcode> index =
        [] {
            std::unordered_map<std::string_view, Opcode> m;
            const Isa &isa = Isa::instance();
            for (Opcode i = 0; i < isa.size(); ++i)
                m.emplace(isa.info(i).iform, i);
            return m;
        }();
    return index;
}

} // namespace

Opcode
Isa::opcode(std::string_view iform) const
{
    Opcode out = 0;
    if (!tryOpcode(iform, out)) {
        std::fprintf(stderr, "unknown iform: %.*s\n",
                     static_cast<int>(iform.size()), iform.data());
        std::abort();
    }
    return out;
}

bool
Isa::tryOpcode(std::string_view iform, Opcode &out) const
{
    const auto &index = iformIndex();
    const auto it = index.find(iform);
    if (it == index.end())
        return false;
    out = it->second;
    return true;
}

std::vector<Opcode>
Isa::opcodesOfClass(InstClass cls) const
{
    std::vector<Opcode> out;
    for (Opcode i = 0; i < table_.size(); ++i) {
        if (table_[i].cls == cls)
            out.push_back(i);
    }
    return out;
}

} // namespace ditto::hw
