#include "hw/code.h"

#include <bit>

#include "hw/block_plan.h"

namespace ditto::hw {

CodeImage::PlanSlot::PlanSlot() = default;
CodeImage::PlanSlot::PlanSlot(PlanSlot &&) noexcept = default;
CodeImage::PlanSlot &
CodeImage::PlanSlot::operator=(PlanSlot &&) noexcept = default;
CodeImage::PlanSlot::~PlanSlot() = default;

CodeImage::PlanSlot &
CodeImage::PlanSlot::operator=(const PlanSlot &other)
{
    if (this != &other)
        plan_.reset();
    return *this;
}

void
CodeImage::PlanSlot::set(std::unique_ptr<BlockPlan> plan)
{
    plan_ = std::move(plan);
}

std::uint64_t
roundUpPow2(std::uint64_t v)
{
    if (v <= kLineBytes)
        return kLineBytes;
    return std::bit_ceil(v);
}

CodeImage::CodeImage(std::uint64_t textBase, std::uint64_t dataBase,
                     unsigned maxThreads)
    : textBase_(textBase), textNext_(textBase), dataNext_(dataBase),
      maxThreads_(maxThreads == 0 ? 1 : maxThreads)
{
}

std::uint32_t
CodeImage::addBlock(const CodeBlock &block)
{
    LinkedBlock linked;
    linked.code = block;
    linked.iBase = textNext_;
    textNext_ += block.iFootprintBytes();
    // Keep blocks line-aligned so footprints compose cleanly.
    textNext_ = (textNext_ + kLineBytes - 1) & ~(kLineBytes - 1);

    for (const MemStreamDesc &desc : block.streams) {
        if (desc.poolKey != 0) {
            // Pooled: reuse an existing same-shape allocation.
            const PoolId pool{desc.poolKey, roundUpPow2(desc.wsBytes),
                              desc.shared};
            const auto it = pooled_.find(pool);
            if (it != pooled_.end()) {
                LinkedStream ls = streams_[it->second];
                ls.desc.kind = desc.kind;  // per-site walk pattern
                linked.streamIds.push_back(
                    static_cast<std::uint32_t>(streams_.size()));
                streams_.push_back(ls);
                continue;
            }
        }
        LinkedStream ls;
        ls.desc = desc;
        ls.desc.wsBytes = roundUpPow2(desc.wsBytes);
        ls.base = dataNext_;
        if (desc.shared) {
            ls.perThreadSpan = 0;
            dataNext_ += ls.desc.wsBytes;
        } else {
            ls.perThreadSpan = ls.desc.wsBytes;
            dataNext_ += ls.desc.wsBytes * maxThreads_;
        }
        if (desc.poolKey != 0) {
            pooled_[PoolId{desc.poolKey, ls.desc.wsBytes,
                           desc.shared}] =
                static_cast<std::uint32_t>(streams_.size());
        }
        linked.streamIds.push_back(
            static_cast<std::uint32_t>(streams_.size()));
        streams_.push_back(ls);
    }

    blocks_.push_back(std::move(linked));
    return static_cast<std::uint32_t>(blocks_.size() - 1);
}

} // namespace ditto::hw
