#include "profile/cpu_profiler.h"

#include <algorithm>
#include <cmath>

namespace ditto::profile {

namespace {

/** Quantize a rate in (0,1] to an exponent in [1,10] (log scale). */
unsigned
quantizeExp(double rate)
{
    if (rate <= 0)
        return kBranchExpMax;
    const double e = -std::log2(rate);
    const long r = std::lround(e);
    return static_cast<unsigned>(
        std::clamp<long>(r, kBranchExpMin, kBranchExpMax));
}

} // namespace

CpuProfiler::CpuProfiler(std::string labelPrefix)
    : prefix_(std::move(labelPrefix)),
      opcodeCounts_(hw::Isa::instance().size(), 0.0),
      strideTable_(16)
{
}

CpuProfiler::~CpuProfiler() = default;

void
CpuProfiler::onBlockEnter(const hw::CodeBlock &block,
                          std::uint64_t /*iterations*/, bool kernelMode)
{
    active_ = !kernelMode &&
        (prefix_.empty() ||
         block.label.compare(0, prefix_.size(), prefix_) == 0);
}

void
CpuProfiler::onInst(const hw::Inst &inst, const hw::InstInfo &info)
{
    if (!active_)
        return;
    opcodeCounts_[inst.opcode] += 1;
    instCount_ += 1;
    if (info.repPerElem && inst.repBytes) {
        repBytesSum_ += inst.repBytes;
        repCount_ += 1;
    }

    // Dependency distances through registers.
    ++seq_;
    auto record = [](std::array<double, kDepBins> &hist,
                     std::uint64_t dist) {
        hist[depBinOf(dist)] += 1;
    };
    if (inst.src0 != hw::kNoReg && lastWrite_[inst.src0])
        record(raw_, seq_ - lastWrite_[inst.src0]);
    if (inst.src1 != hw::kNoReg && lastWrite_[inst.src1])
        record(raw_, seq_ - lastWrite_[inst.src1]);
    if (inst.dst != hw::kNoReg) {
        if (lastRead_[inst.dst])
            record(war_, seq_ - lastRead_[inst.dst]);
        if (lastWrite_[inst.dst])
            record(waw_, seq_ - lastWrite_[inst.dst]);
    }
    if (inst.src0 != hw::kNoReg)
        lastRead_[inst.src0] = seq_;
    if (inst.src1 != hw::kNoReg)
        lastRead_[inst.src1] = seq_;
    if (inst.dst != hw::kNoReg)
        lastWrite_[inst.dst] = seq_;
}

void
CpuProfiler::onDataAccess(std::uint64_t addr, bool isWrite, bool shared)
{
    if (!active_)
        return;
    dAccesses_ += 1;
    if (isWrite)
        stores_ += 1;
    if (shared)
        sharedAccesses_ += 1;

    const std::size_t sizeIdx = dCurve_.access(addr / hw::kLineBytes);

    // Regular/irregular classification via a stride table.
    const std::uint64_t line = addr / hw::kLineBytes;
    bool regular = false;
    bool matched = false;
    for (StrideEntry &e : strideTable_) {
        if (!e.valid)
            continue;
        const std::int64_t delta = static_cast<std::int64_t>(line) -
            static_cast<std::int64_t>(e.lastLine);
        if (delta != 0 && delta == e.stride) {
            regular = true;
            e.lastLine = line;
            matched = true;
            break;
        }
        if (delta != 0 && delta >= -8 && delta <= 8) {
            e.stride = delta;
            e.lastLine = line;
            matched = true;
            break;
        }
    }
    if (!matched) {
        // Replace a pseudo-random entry (keyed by the line address).
        StrideEntry &e = strideTable_[line % strideTable_.size()];
        e.valid = true;
        e.lastLine = line;
        e.stride = 0;
    }
    if (regular)
        regularAccesses_ += 1;
    if (sizeIdx < kWsSizes) {
        samplesBySize_[sizeIdx] += 1;
        if (regular)
            regularBySize_[sizeIdx] += 1;
    }
}

void
CpuProfiler::onInstFetch(std::uint64_t addr)
{
    if (!active_)
        return;
    iFetches_ += 1;
    iCurve_.access(addr / hw::kLineBytes);
}

void
CpuProfiler::onBranch(std::uint64_t pc, bool taken)
{
    if (!active_)
        return;
    branchExecs_ += 1;
    BranchSite &site = sites_[pc];
    site.execs += 1;
    if (taken)
        site.taken += 1;
    if (site.seen && taken != site.lastDir)
        site.transitions += 1;
    site.lastDir = taken;
    site.seen = true;
}

InstMixProfile
CpuProfiler::mixProfile(double requests) const
{
    InstMixProfile p;
    p.counts = opcodeCounts_;
    p.instsPerRequest = requests > 0 ? instCount_ / requests : 0;
    p.avgRepBytes = repCount_ > 0 ? repBytesSum_ / repCount_ : 0;
    return p;
}

BranchProfile
CpuProfiler::branchProfile() const
{
    BranchProfile p;
    p.totalExecutions = branchExecs_;
    p.branchFraction = instCount_ > 0 ? branchExecs_ / instCount_ : 0;
    p.staticSites = sites_.size();
    for (const auto &[pc, site] : sites_) {
        if (site.execs == 0)
            continue;
        const double takenRate =
            static_cast<double>(site.taken) /
            static_cast<double>(site.execs);
        // Symmetric: jz vs jnz -- use the minority direction rate.
        const double minority = std::min(takenRate, 1.0 - takenRate);
        const double transRate =
            static_cast<double>(site.transitions) /
            static_cast<double>(site.execs);
        const unsigned m = quantizeExp(std::max(minority, 1e-4));
        const unsigned n = quantizeExp(std::max(transRate, 1e-4));
        p.bins[m][n] += static_cast<double>(site.execs);
    }
    return p;
}

DataMemProfile
CpuProfiler::dataMemProfile() const
{
    DataMemProfile p;
    p.hitsBySize = dCurve_.hitsBySize();
    p.totalAccesses = dAccesses_;
    p.accessesPerInst = instCount_ > 0 ? dAccesses_ / instCount_ : 0;
    p.storeFraction = dAccesses_ > 0 ? stores_ / dAccesses_ : 0;
    p.sharedFraction =
        dAccesses_ > 0 ? sharedAccesses_ / dAccesses_ : 0;
    p.regularFraction =
        dAccesses_ > 0 ? regularAccesses_ / dAccesses_ : 0;
    p.regularBySize = regularBySize_;
    p.accessSamplesBySize = samplesBySize_;
    return p;
}

InstMemProfile
CpuProfiler::instMemProfile() const
{
    InstMemProfile p;
    p.hitsBySize = iCurve_.hitsBySize();
    p.totalFetches = iFetches_;
    return p;
}

DepProfile
CpuProfiler::depProfile(double chaseFraction) const
{
    DepProfile p;
    p.raw = raw_;
    p.war = war_;
    p.waw = waw_;
    p.chaseFraction = chaseFraction;
    return p;
}

} // namespace ditto::profile
