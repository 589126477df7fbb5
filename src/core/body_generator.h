/**
 * @file
 * Application-body generator (Sec. 4.4): synthesizes code blocks and
 * handler ops purely from a ServiceProfile.
 *
 * Stage toggles mirror the accuracy-decomposition study (Fig. 9):
 *   A skeleton only          -> all toggles off
 *   B + syscalls             -> syscalls
 *   C + instruction count    -> instCount (homogeneous add chain)
 *   D + instruction mix      -> instMix (clustered iform sampling;
 *                               worst-case branches, tightest deps,
 *                               smallest working sets)
 *   E + branch behaviour     -> branchBehavior (profiled M/N bins)
 *   F + instruction memory   -> instMem (blocks sized per Eq. 2)
 *   G + data memory          -> dataMem (streams sized per Eq. 1,
 *                               shared/private + regular/irregular)
 *   H + data dependencies    -> dataDeps (register assignment from
 *                               RAW/WAR/WAW bins; pointer chasing per
 *                               the measured MLP)
 *   I fine tuning            -> the scale knobs, driven by FineTuner
 */

#ifndef DITTO_CORE_BODY_GENERATOR_H_
#define DITTO_CORE_BODY_GENERATOR_H_

#include <string>
#include <vector>

#include "app/program.h"
#include "hw/code.h"
#include "profile/profile_data.h"

namespace ditto::core {

/** Generator stage toggles + fine-tuning knobs. */
struct GenerationConfig
{
    bool syscalls = true;
    bool instCount = true;
    bool instMix = true;
    bool branchBehavior = true;
    bool instMem = true;
    bool dataMem = true;
    bool dataDeps = true;

    // Fine-tuning knobs (Sec. 4.5). Grouped: instScale alone;
    // imemTailScale with branchExpShift (both steer the frontend);
    // dmemTailScale for the data hierarchy; chaseScale for MLP.
    double instScale = 1.0;
    double imemTailScale = 1.0;
    double dmemTailScale = 1.0;
    double chaseScale = 1.0;
    int branchExpShift = 0;

    std::uint64_t seed = 0xd1770;

    /** Stage presets A..H for the Fig. 9 decomposition. */
    static GenerationConfig stage(char stage);

    bool operator==(const GenerationConfig &) const = default;
};

/** Output of body generation. */
struct GeneratedBody
{
    std::vector<hw::CodeBlock> blocks;
    /** Handler ops (compute + file I/O + locks), skeleton-free. */
    app::Program handler;
    /** Background body (periodic flush work), if any was profiled. */
    app::Program background;
    /** Whether the profile showed futex activity (locks needed). */
    bool usesLock = false;
    /** File size to create (0 = no file ops). */
    std::uint64_t fileBytes = 0;
    /** Page-cache prewarm fraction inferred from disk counters. */
    double filePrewarmFraction = 0;
};

/**
 * Generate the synthetic application body from a profile.
 *
 * @param labelPrefix prefix for generated block labels (the clone's
 *        service name, so profilers can attribute them)
 */
GeneratedBody generateBody(const profile::ServiceProfile &prof,
                           const GenerationConfig &cfg,
                           const std::string &labelPrefix);

} // namespace ditto::core

#endif // DITTO_CORE_BODY_GENERATOR_H_
