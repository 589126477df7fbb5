/**
 * @file
 * LRU stack-distance (reuse-distance) profiling.
 *
 * One pass over the access stream yields the hit count H(2^i) for
 * *every* cache capacity at once (Mattson's inclusion property for
 * fully-associative LRU): an access hits in a cache of L lines iff
 * its stack distance is <= L. Implemented with the Bennett-Kruskal
 * Fenwick-tree algorithm, O(log n) per access.
 *
 * The paper simulates each power-of-two capacity separately with
 * 8/16-way associativity and reports an average 1.9% miss-rate error
 * from associativity variations; the fully-associative curve is
 * within that band and ~25x faster, which is what makes exhaustive
 * profiling runs practical here. (Substitution documented in
 * DESIGN.md.)
 */

#ifndef DITTO_PROFILE_STACK_DISTANCE_H_
#define DITTO_PROFILE_STACK_DISTANCE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/flat_map64.h"
#include "profile/profile_data.h"

namespace ditto::profile {

class StackDistanceCurve
{
  public:
    StackDistanceCurve();

    /**
     * Record an access to a 64B-line address.
     * @return the smallest size index (wsBytes(i)) whose LRU cache
     *         hits this access, or kWsSizes for cold/far misses.
     */
    std::size_t access(std::uint64_t lineAddr);

    /** H(2^i): hits in a 2^i... byte LRU cache (wsBytes(i)). */
    std::array<double, kWsSizes> hitsBySize() const;

    double totalAccesses() const { return total_; }
    double coldMisses() const { return cold_; }

  private:
    /** Line address -> time of its latest access. */
    core::BasicFlatMap64<std::uint32_t> lastTime_;
    std::vector<std::int32_t> bit_;  //!< Fenwick tree over time
    std::uint32_t time_ = 0;
    /** Accesses whose minimum hitting size index is i. */
    std::array<double, kWsSizes + 1> minHitIdx_{};
    double total_ = 0;
    double cold_ = 0;

    void bitAdd(std::uint32_t pos, std::int32_t delta);
    std::int64_t bitPrefix(std::uint32_t pos) const;
    void ensure(std::uint32_t pos);

    /**
     * Renumber live timestamps densely and rebuild the Fenwick tree.
     * Keeps memory proportional to the number of distinct lines, not
     * the total access count.
     */
    void compress();

    /** Compress when the time index reaches this bound. */
    static constexpr std::uint32_t kMaxTime = 1u << 24;
};

} // namespace ditto::profile

#endif // DITTO_PROFILE_STACK_DISTANCE_H_
