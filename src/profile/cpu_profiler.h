/**
 * @file
 * CPU-level profiler: the Intel SDE + Valgrind stand-in.
 *
 * Attached as an ExecObserver to every core of the profiled machine,
 * it observes the dynamic user-level instruction stream of one
 * service (filtered by block-label prefix; kernel blocks are
 * excluded, since kernel behaviour is cloned via syscalls, Sec. 4.4)
 * and collects:
 *   - dynamic iform counts (instruction mix),
 *   - per-site branch taken/transition statistics,
 *   - data/instruction working-set hit curves H(2^i), by feeding the
 *     access stream through simulated caches of every power-of-two
 *     size (8-way below 1MB, 16-way at/above, per the paper),
 *   - RAW/WAR/WAW register dependency distances,
 *   - shared-vs-private and regular-vs-irregular access ratios.
 */

#ifndef DITTO_PROFILE_CPU_PROFILER_H_
#define DITTO_PROFILE_CPU_PROFILER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/cpu_core.h"
#include "profile/profile_data.h"
#include "profile/stack_distance.h"

namespace ditto::profile {

class CpuProfiler : public hw::ExecObserver
{
  public:
    /**
     * @param labelPrefix only blocks whose label starts with this
     *        prefix are profiled ("" = all user blocks); the stack-
     *        distance profiler covers all working-set sizes in one pass
     */
    explicit CpuProfiler(std::string labelPrefix);
    ~CpuProfiler() override;

    // ExecObserver
    void onBlockEnter(const hw::CodeBlock &block,
                      std::uint64_t iterations,
                      bool kernelMode) override;
    void onInst(const hw::Inst &inst, const hw::InstInfo &info) override;
    void onDataAccess(std::uint64_t addr, bool isWrite,
                      bool shared) override;
    void onInstFetch(std::uint64_t addr) override;
    void onBranch(std::uint64_t pc, bool taken) override;

    // ---- finalized outputs -------------------------------------------------

    InstMixProfile mixProfile(double requests) const;
    BranchProfile branchProfile() const;
    DataMemProfile dataMemProfile() const;
    InstMemProfile instMemProfile() const;
    DepProfile depProfile(double chaseFraction) const;

    double totalInstructions() const { return instCount_; }

  private:
    struct BranchSite
    {
        std::uint64_t execs = 0;
        std::uint64_t taken = 0;
        std::uint64_t transitions = 0;
        bool lastDir = false;
        bool seen = false;
    };

    /** Lightweight stride detector for the regular/irregular ratio. */
    struct StrideEntry
    {
        std::uint64_t lastLine = 0;
        std::int64_t stride = 0;
        bool valid = false;
    };

    std::string prefix_;
    bool active_ = false;

    // instruction mix
    std::vector<double> opcodeCounts_;
    double instCount_ = 0;
    double repBytesSum_ = 0;
    double repCount_ = 0;

    // branches
    std::unordered_map<std::uint64_t, BranchSite> sites_;
    double branchExecs_ = 0;

    // dependency distances
    std::uint64_t seq_ = 0;
    std::uint64_t lastWrite_[hw::kNumRegs] = {};
    std::uint64_t lastRead_[hw::kNumRegs] = {};
    std::array<double, kDepBins> raw_{};
    std::array<double, kDepBins> war_{};
    std::array<double, kDepBins> waw_{};

    // memory (single-pass LRU stack-distance curves)
    StackDistanceCurve dCurve_;
    StackDistanceCurve iCurve_;
    double dAccesses_ = 0;
    double iFetches_ = 0;
    double stores_ = 0;
    double sharedAccesses_ = 0;
    double regularAccesses_ = 0;
    std::array<double, kWsSizes> regularBySize_{};
    std::array<double, kWsSizes> samplesBySize_{};
    std::vector<StrideEntry> strideTable_;
};

} // namespace ditto::profile

#endif // DITTO_PROFILE_CPU_PROFILER_H_
