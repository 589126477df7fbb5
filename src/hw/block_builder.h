/**
 * @file
 * Procedural authoring of CodeBlocks.
 *
 * Hand-written components of the simulated world (the kernel's
 * syscall paths, the "original" applications' request handlers) are
 * generated from high-level specs: instruction count, class mix,
 * memory streams, branch behaviour, and dependency tightness. The
 * builder is seeded and deterministic.
 *
 * Note this is NOT Ditto's generator: Ditto's BodyGenerator (in
 * src/core) builds blocks purely from profiled statistics. This
 * builder plays the role of "the original developers" writing code
 * with interesting, realistic structure for the profilers to observe.
 */

#ifndef DITTO_HW_BLOCK_BUILDER_H_
#define DITTO_HW_BLOCK_BUILDER_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "hw/code.h"
#include "sim/rng.h"

namespace ditto::hw {

/** Weighted instruction-class mix for authored code. */
struct MixWeights
{
    double move = 0.30;
    double arith = 0.30;
    double logic = 0.08;
    double shift = 0.04;
    double mul = 0.02;
    double div = 0.0;
    double fp = 0.0;
    double simd = 0.0;
    double crc = 0.0;
    double lock = 0.0;

    /** Typical pointer-heavy server/kernel code. */
    static MixWeights serverCode();
    /** Hashing/checksum heavy code (KVS lookups). */
    static MixWeights hashCode();
    /** Parser/state-machine code (branchy, byte-wise). */
    static MixWeights parserCode();
    /** Numeric code with FP/SIMD content. */
    static MixWeights numericCode();
};

/** Data stream referenced by a block under construction. */
struct StreamSpec
{
    std::uint64_t wsBytes = 4096;
    StreamKind kind = StreamKind::Sequential;
    bool shared = false;
    /** Relative share of the block's memory operations. */
    double weight = 1.0;
};

/** BlockSpec::branchKinds' default: one biased, one mixed behaviour. */
inline constexpr BranchDesc kDefaultBranchKinds[] = {{1, 2}, {3, 3}};

/** Full description of a block to author. */
struct BlockSpec
{
    std::string label;
    unsigned instCount = 64;
    MixWeights mix;
    std::vector<StreamSpec> streams;
    /** Fraction of instructions carrying a memory operand. */
    double memFraction = 0.25;
    /** Of memory ops, the fraction that are stores. */
    double storeFraction = 0.3;
    /** Fraction of instructions that are conditional branches. */
    double branchFraction = 0.12;
    /** Branch behaviours to draw sites from (uniformly). */
    std::vector<BranchDesc> branchKinds{std::begin(kDefaultBranchKinds),
                                        std::end(kDefaultBranchKinds)};
    /**
     * Dependency tightness in [0,1]: probability a source register
     * was written recently (short RAW distances limit ILP).
     */
    double depTightness = 0.35;
    std::uint64_t seed = 1;
};

/** Author a block from a spec (deterministic given the seed). */
CodeBlock buildBlock(const BlockSpec &spec);

} // namespace ditto::hw

#endif // DITTO_HW_BLOCK_BUILDER_H_
