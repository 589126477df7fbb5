#include "hw/block_plan.h"

#include <bit>
#include <cassert>

namespace ditto::hw {

BlockPlan::BlockPlan(const CodeImage &image,
                     const CodeImage::LinkedBlock &block)
    : flow_(block.code.streams.size())
{
    const Isa &isa = Isa::instance();
    const CodeBlock &code = block.code;
    insts_ = static_cast<double>(code.insts.size());
    iLines_ = std::max<std::uint64_t>(
        1, (code.iFootprintBytes() + kLineBytes - 1) / kLineBytes);

    for (std::size_t idx = 0; idx < code.insts.size(); ++idx) {
        const Inst &inst = code.insts[idx];
        const InstInfo &info = isa.info(inst.opcode);
        uops_ += instUops(inst, info);

        Op op{};
        op.inst = static_cast<std::uint32_t>(idx);
        op.branch = kNoBranch;
        if (inst.memStream != kNoStream &&
            inst.memStream < block.streamIds.size()) {
            op.stream = inst.memStream;
            op.streamId = block.streamIds[inst.memStream];
            op.touches = 1;
            if (info.repPerElem && inst.repBytes) {
                op.touches = static_cast<std::uint32_t>(
                    (inst.repBytes + kLineBytes - 1) / kLineBytes);
            }
            op.isLoad = info.isLoad;
            op.isStore = info.isStore;
            op.chase = info.isLoad &&
                image.stream(op.streamId).desc.kind ==
                    StreamKind::PointerChase;
            chases_ = chases_ || op.chase;
        }
        if (inst.branch != kNoBranch && inst.branch < code.branches.size())
            op.branch = inst.branch;
        if (op.touches || op.branch != kNoBranch)
            ops_.push_back(op);
    }
    ops_.shrink_to_fit();
}

void
BlockPlan::extendTo(const CodeBlock &code, std::uint64_t n)
{
    assert(n > 0);
    if (n <= memo_.size())
        return;
    const Isa &isa = Isa::instance();
    memo_.reserve(n);
    while (memo_.size() < n) {
        for (const Inst &inst : code.insts) {
            const InstInfo &info = isa.info(inst.opcode);
            flow_.issue(code, inst, baseLatency(inst, info));

            // Port pressure: each uop goes to the least-loaded port it
            // may issue on, the lowest-numbered one on a tie.
            const auto uops = static_cast<unsigned>(
                instUops(inst, info) + 0.5);
            for (unsigned u = 0; info.ports && u < uops; ++u) {
                int best = -1;
                for (unsigned m = info.ports; m != 0; m &= m - 1) {
                    const int p = std::countr_zero(m);
                    if (best < 0 || portLoad_[p] < portLoad_[best])
                        best = p;
                }
                portLoad_[best] += 1;
            }
        }
        memo_.push_back({flow_.critPath,
                         *std::max_element(std::begin(portLoad_),
                                           std::end(portLoad_))});
    }
}

} // namespace ditto::hw
