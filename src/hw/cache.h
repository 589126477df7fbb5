/**
 * @file
 * Structural cache model: set-associative caches with true-LRU
 * replacement, an inclusive three-level hierarchy with a shared LLC,
 * a next-line stream prefetcher, and write-invalidate coherence for
 * shared lines.
 *
 * The caches are simulated access-by-access (not analytically) so the
 * paper's working-set argument (Sec. 4.4.4: a sequential 2^i-byte
 * loop hits iff capacity >= 2^i under LRU) holds in this model for
 * the same structural reason it holds on silicon.
 */

#ifndef DITTO_HW_CACHE_H_
#define DITTO_HW_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hw/code.h"

namespace ditto::hw {

/** Where an access was satisfied. */
enum class CacheLevel : std::uint8_t
{
    L1 = 1,
    L2 = 2,
    L3 = 3,
    Memory = 4,
};

/** Per-cache hit/miss/eviction counters. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t prefetchHits = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
            static_cast<double>(accesses) : 0.0;
    }
};

/**
 * One set-associative cache with true LRU.
 *
 * Addresses are byte addresses; the cache operates on 64B lines.
 * Associativity is 1..64 ways. The set count (capacity / 64B / ways)
 * is rounded down to a power of two for mask indexing, so a capacity
 * that does not give a power-of-two set count simulates fewer lines
 * than capacityBytes() reports (Platform A's 30.25 MB 11-way LLC
 * simulates 32,768 sets, about 22 MB).
 *
 * Lines are stored as structure-of-arrays in set-major order: a tag
 * array, an LRU-stamp array, and two bitmaps with one bit per line,
 * validity and "filled by a prefetch, not yet hit". A set's tags are
 * contiguous, so a lookup reads only the set's valid-bit window and
 * its tags, and invalidateFraction() costs O(valid lines) rather than
 * O(capacity). The tag and stamp arrays are allocated but never
 * written in bulk: a line's tag and stamp are first written when a
 * fill takes its way, and every read is guarded by its valid bit, so
 * a fresh page of lines a cache never uses takes no host memory.
 */
class Cache
{
  public:
    /** @throw std::invalid_argument if ways is 0 or above 64. */
    Cache(std::uint64_t capacityBytes, unsigned ways);

    /** Copies the valid lines only; the copy is independent. */
    Cache(const Cache &other);
    Cache &operator=(const Cache &other);
    Cache(Cache &&) noexcept = default;
    Cache &operator=(Cache &&) noexcept = default;

    /**
     * Look up a line; on miss the line is filled (allocating on both
     * reads and writes: write-allocate).
     * @retval true on hit.
     */
    bool access(std::uint64_t addr, bool isWrite);

    /** Fill a line without counting an access (prefetch path). */
    void fill(std::uint64_t addr, bool prefetch = false);

    /** True if the line is present (no state change, no counting). */
    bool probe(std::uint64_t addr) const;

    /**
     * The present line's LRU stamp (larger is more recent), 0 if the
     * line is absent. No state change; for tests.
     */
    std::uint64_t recency(std::uint64_t addr) const;

    /** Drop a line if present. @retval true if it was present. */
    bool invalidate(std::uint64_t addr);

    /** Invalidate a fraction of all lines (context-switch pollution). */
    void invalidateFraction(double fraction, std::uint64_t salt);

    /** Empty the cache. */
    void flush();

    std::uint64_t capacityBytes() const { return capacity_; }
    unsigned ways() const { return ways_; }
    std::uint64_t sets() const { return sets_; }

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

  private:
    friend class CacheHierarchy;

    /** An address's set: first line index, tag, valid-way mask. */
    struct Slot
    {
        std::size_t base;
        std::uint64_t tag;
        std::uint64_t valid;
    };

    std::uint64_t capacity_;
    unsigned ways_;
    std::uint64_t sets_;
    std::uint64_t setMask_;
    unsigned setShift_;
    std::uint64_t wayMask_;
    /** Line i's tag; written on allocation, read only while valid. */
    std::unique_ptr<std::uint64_t[]> tags_;
    /** Line i's LRU stamp (the tick of its last use), same rule. */
    std::unique_ptr<std::uint64_t[]> stamps_;
    /** Bit i set iff line i holds a line; the only validity record. */
    std::vector<std::uint64_t> valid_;
    /**
     * Bit i set iff line i was filled by a prefetch and not hit since;
     * rewritten on every allocation, read only while valid.
     */
    std::vector<std::uint64_t> prefetched_;
    /** Line the last missing access() allocated. */
    std::size_t lastAccess_ = 0;
    std::uint64_t tick_ = 0;
    CacheStats stats_;

    Slot slotOf(std::uint64_t addr) const;
    std::size_t find(const Slot &slot) const;
    std::size_t allocate(const Slot &slot, bool prefetch);

    /**
     * fill() of the line the last access() missed on and allocated:
     * the same tick and recency update without rescanning the set.
     */
    void touchLastAccess();

    /**
     * probe() then, if absent, fill(addr, prefetch), in one scan.
     * @retval true if the line was filled.
     */
    bool fillIfAbsent(std::uint64_t addr, bool prefetch);
};

/** Latencies (cycles) of each level of the hierarchy. */
struct MemLatency
{
    unsigned l1 = 4;
    unsigned l2 = 12;
    unsigned l3 = 40;
    unsigned memory = 220;

    unsigned
    of(CacheLevel level) const
    {
        switch (level) {
          case CacheLevel::L1: return l1;
          case CacheLevel::L2: return l2;
          case CacheLevel::L3: return l3;
          case CacheLevel::Memory: return memory;
        }
        return memory;
    }
};

/**
 * Next-line stream prefetcher (Sec. 4.4.4: hardware prefetchers
 * detect consecutive/strided line sequences). Tracks a small table of
 * active streams; on a detected stream it prefetches `degree` lines
 * ahead into L2 and L1d.
 */
class StreamPrefetcher
{
  public:
    StreamPrefetcher(unsigned tableSize = 16, unsigned degree = 4);

    /**
     * Observe a demand access; returns line addresses to prefetch
     * (possibly empty). `out` is cleared first.
     */
    void observe(std::uint64_t lineAddr,
                 std::vector<std::uint64_t> &out);

    void reset();

  private:
    struct StreamEntry
    {
        std::uint64_t lastLine = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::vector<StreamEntry> table_;
    unsigned degree_;
    std::uint64_t tick_ = 0;
};

/**
 * The private L1i/L1d/L2 of one core plus a pointer to the node's
 * shared LLC. Inclusive fills; misses propagate outward and fill
 * inward.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(std::uint64_t l1iBytes, unsigned l1iWays,
                   std::uint64_t l1dBytes, unsigned l1dWays,
                   std::uint64_t l2Bytes, unsigned l2Ways,
                   Cache *sharedLlc, bool prefetchEnabled);

    /**
     * Data access. @return the level that satisfied it.
     */
    CacheLevel accessData(std::uint64_t addr, bool isWrite);

    /** Instruction fetch access. */
    CacheLevel accessInst(std::uint64_t addr);

    /** Invalidate a data line in the private levels (coherence). */
    void invalidateData(std::uint64_t addr);

    /** Context-switch pollution: drop a fraction of private lines. */
    void pollute(double fraction, std::uint64_t salt);

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache *llc() { return llc_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }

    bool prefetchEnabled() const { return prefetchEnabled_; }

  private:
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache *llc_;
    StreamPrefetcher prefetcher_;
    bool prefetchEnabled_;
    std::vector<std::uint64_t> prefetchScratch_;
};

} // namespace ditto::hw

#endif // DITTO_HW_CACHE_H_
