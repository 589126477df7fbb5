/**
 * @file
 * Tests for the cache model: LRU semantics, the paper's working-set
 * property, hierarchy behaviour, prefetching, coherence hooks, and a
 * differential test against the per-line-valid-flag reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <ostream>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "hw/cache.h"

namespace {

using namespace ditto::hw;

TEST(Cache, HitsAfterFill)
{
    Cache c(1024, 2);
    EXPECT_FALSE(c.access(0x1000, false));  // cold miss
    EXPECT_TRUE(c.access(0x1000, false));   // now resident
    EXPECT_TRUE(c.access(0x1020, false));   // same 64B line
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2 ways x 1 set: 128B direct conflict domain.
    Cache c(128, 2);
    ASSERT_EQ(c.sets(), 1u);
    c.access(0 * 64, false);   // A
    c.access(1 * 64, false);   // B
    c.access(0 * 64, false);   // touch A -> B is LRU
    c.access(2 * 64, false);   // C evicts B
    EXPECT_TRUE(c.probe(0 * 64));
    EXPECT_FALSE(c.probe(1 * 64));
    EXPECT_TRUE(c.probe(2 * 64));
}

/**
 * The paper's working-set guarantee (Sec. 4.4.4): a sequential cyclic
 * walk over a 2^i-byte set hits (after warmup) iff capacity >= 2^i,
 * and misses every access when capacity < 2^i under LRU.
 */
class WorkingSetProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(WorkingSetProperty, SequentialCyclicWalk)
{
    const std::uint64_t wsBytes = GetParam();
    const std::uint64_t lines = wsBytes / kLineBytes;

    // Capacity == working set: all hits after the first pass.
    {
        Cache fits(wsBytes, 8);
        for (std::uint64_t pass = 0; pass < 3; ++pass) {
            for (std::uint64_t l = 0; l < lines; ++l)
                fits.access(l * kLineBytes, false);
        }
        EXPECT_EQ(fits.stats().misses, lines);  // cold only
    }
    // Capacity == half: every access misses (LRU worst case).
    {
        Cache small(wsBytes / 2, 8);
        for (std::uint64_t pass = 0; pass < 3; ++pass) {
            for (std::uint64_t l = 0; l < lines; ++l)
                small.access(l * kLineBytes, false);
        }
        EXPECT_EQ(small.stats().misses, small.stats().accesses);
    }
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes, WorkingSetProperty,
                         ::testing::Values(1024, 4096, 32768,
                                           262144, 1048576));

TEST(Cache, NonPow2CapacityRoundsDown)
{
    // 30.25MB LLC (Platform A): must still construct and be usable.
    Cache llc(31719424, 11);
    // 45,056 sets round down to 32,768: about 22 MB is simulated
    // while capacityBytes() still reports 30.25 MB.
    EXPECT_EQ(llc.sets(), 32768u);
    EXPECT_EQ(llc.capacityBytes(), 31719424u);
    EXPECT_FALSE(llc.access(0x123456, false));
    EXPECT_TRUE(llc.access(0x123456, false));
}

TEST(Cache, RejectsZeroWays)
{
    EXPECT_THROW(Cache(4096, 0), std::invalid_argument);
}

TEST(Cache, RejectsMoreThan64Ways)
{
    EXPECT_THROW(Cache(1 << 20, 65), std::invalid_argument);
    Cache widest(64 * 64 * 2, 64);
    EXPECT_EQ(widest.sets(), 2u);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(4096, 4);
    c.access(0x40, true);
    EXPECT_TRUE(c.probe(0x40));
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.invalidate(0x40));
    EXPECT_EQ(c.stats().invalidations, 1u);
}

TEST(Cache, InvalidateFractionRemovesRoughlyThatShare)
{
    Cache c(64 * 1024, 8);
    const std::uint64_t lines = 64 * 1024 / 64;
    for (std::uint64_t l = 0; l < lines; ++l)
        c.access(l * 64, false);
    c.invalidateFraction(0.5, 1234);
    std::uint64_t present = 0;
    for (std::uint64_t l = 0; l < lines; ++l)
        present += c.probe(l * 64);
    EXPECT_NEAR(static_cast<double>(present),
                static_cast<double>(lines) / 2,
                static_cast<double>(lines) * 0.1);
}

TEST(Cache, PrefetchedFlagBelongsToTheLineNotTheWay)
{
    // One set of two ways: a fill takes the first free way.
    constexpr std::uint64_t a = 0 * 64, b = 1 * 64, c = 2 * 64;

    // A way that held a prefetched line is invalidated and refilled on
    // demand: the new line is not a prefetch hit, by access or fill.
    Cache refilled(128, 2);
    ASSERT_EQ(refilled.sets(), 1u);
    refilled.fill(a, true);
    ASSERT_TRUE(refilled.invalidate(a));
    EXPECT_FALSE(refilled.access(b, false));
    EXPECT_TRUE(refilled.access(b, false));
    refilled.fill(c, true);
    ASSERT_TRUE(refilled.invalidate(c));
    refilled.fill(a, false);
    EXPECT_TRUE(refilled.access(a, false));
    EXPECT_EQ(refilled.stats().prefetchFills, 2u);
    EXPECT_EQ(refilled.stats().prefetchHits, 0u);

    // fill(addr, true) of a present line leaves its flag alone, set
    // or clear.
    Cache present(128, 2);
    present.access(a, false);
    present.fill(a, true);
    present.fill(b, true);
    present.fill(b, true);
    EXPECT_EQ(present.stats().prefetchFills, 1u);
    EXPECT_TRUE(present.access(a, false));
    EXPECT_EQ(present.stats().prefetchHits, 0u);
    EXPECT_TRUE(present.access(b, false));
    EXPECT_EQ(present.stats().prefetchHits, 1u);

    // A hit clears the flag exactly once.
    Cache hit(128, 2);
    hit.fill(a, true);
    EXPECT_TRUE(hit.access(a, false));
    EXPECT_TRUE(hit.access(a, true));
    EXPECT_TRUE(hit.access(a, false));
    EXPECT_EQ(hit.stats().prefetchHits, 1u);
}

TEST(Cache, CopyIsIdenticalAndIndependent)
{
    // 8 sets x 4 ways, filled to about half with demand and prefetch
    // fills, one set full enough to have evicted, one line invalidated.
    Cache source(8 * 4 * 64, 4);
    ASSERT_EQ(source.sets(), 8u);
    const std::vector<std::uint64_t> addrs = {
        0x000, 0x040, 0x200, 0x400, 0x600, 0x800, 0xa00, 0x0c0,
        0x1c0, 0x3c0, 0x100};
    for (std::size_t k = 0; k < addrs.size(); ++k)
        source.fill(addrs[k], k % 3 == 0);
    source.access(0x040, true);
    source.access(0x000, false);
    ASSERT_TRUE(source.invalidate(0x1c0));

    auto snapshot = [&](const Cache &c) {
        std::vector<std::uint64_t> s;
        for (std::uint64_t l = 0; l < 64; ++l) {
            s.push_back(c.probe(l * 64));
            s.push_back(c.recency(l * 64));
        }
        const CacheStats &st = c.stats();
        for (std::uint64_t v : {st.accesses, st.misses, st.evictions,
                                st.invalidations, st.prefetchFills,
                                st.prefetchHits})
            s.push_back(v);
        return s;
    };
    const std::vector<std::uint64_t> before = snapshot(source);

    Cache copy = source;
    Cache assigned(64, 1);
    assigned.access(0x5000, false);
    assigned = source;
    EXPECT_EQ(snapshot(copy), before);
    EXPECT_EQ(snapshot(assigned), before);

    // The copies carry on exactly as the source would, prefetch flags
    // and LRU order included.
    for (Cache *c : {&source, &copy, &assigned}) {
        c->access(0x000, false);
        c->access(0xe00, false);
        c->fill(0x640, true);
    }
    EXPECT_EQ(snapshot(copy), snapshot(source));
    EXPECT_EQ(snapshot(assigned), snapshot(source));

    // Changing one leaves the others alone.
    const std::vector<std::uint64_t> after = snapshot(source);
    copy.flush();
    copy.access(0x000, false);
    assigned.invalidateFraction(1.0, 7);
    EXPECT_EQ(snapshot(source), after);
    source.invalidate(0x000);
    EXPECT_TRUE(copy.probe(0x000));
    EXPECT_FALSE(assigned.probe(0x000));
}

TEST(CacheHierarchy, MissPathFillsAllLevels)
{
    Cache llc(1 << 20, 16);
    CacheHierarchy h(32768, 8, 32768, 8, 262144, 8, &llc, false);
    EXPECT_EQ(h.accessData(0x5000, false), CacheLevel::Memory);
    // Now resident everywhere.
    EXPECT_TRUE(h.l1d().probe(0x5000));
    EXPECT_TRUE(h.l2().probe(0x5000));
    EXPECT_TRUE(llc.probe(0x5000));
    EXPECT_EQ(h.accessData(0x5000, false), CacheLevel::L1);
}

TEST(CacheHierarchy, L2HitAfterL1Eviction)
{
    Cache llc(1 << 20, 16);
    CacheHierarchy h(4096, 4, 4096, 4, 262144, 8, &llc, false);
    h.accessData(0x0, false);
    // Thrash L1d (4KB) with 16KB of lines; 0x0 falls out of L1 but
    // stays in L2.
    for (std::uint64_t l = 1; l <= 256; ++l)
        h.accessData(l * 64, false);
    EXPECT_EQ(h.accessData(0x0, false), CacheLevel::L2);
}

TEST(CacheHierarchy, InstructionPathUsesL1i)
{
    Cache llc(1 << 20, 16);
    CacheHierarchy h(32768, 8, 32768, 8, 262144, 8, &llc, false);
    EXPECT_EQ(h.accessInst(0x7000), CacheLevel::Memory);
    EXPECT_EQ(h.accessInst(0x7000), CacheLevel::L1);
    // Data access to the same line does not hit in L1d (separate
    // arrays) but does hit in the unified L2.
    EXPECT_EQ(h.accessData(0x7000, false), CacheLevel::L2);
}

TEST(CacheHierarchy, CoherenceInvalidationForcesMiss)
{
    Cache llc(1 << 20, 16);
    CacheHierarchy h(32768, 8, 32768, 8, 262144, 8, &llc, false);
    h.accessData(0x9000, false);
    EXPECT_EQ(h.accessData(0x9000, false), CacheLevel::L1);
    h.invalidateData(0x9000);
    // Line still in LLC: coherence miss is served from L3.
    EXPECT_EQ(h.accessData(0x9000, false), CacheLevel::L3);
}

TEST(StreamPrefetcher, DetectsSequentialStream)
{
    StreamPrefetcher pf(8, 4);
    EXPECT_EQ(pf.observe(100).count, 0u);
    EXPECT_EQ(pf.observe(101).count, 0u);  // trains stride +1
    const StreamPrefetcher::Round round = pf.observe(102);  // confirms
    EXPECT_EQ(round.count, 4u);
    EXPECT_EQ(round.line(1), 103u);
    EXPECT_EQ(round.line(4), 106u);
}

TEST(StreamPrefetcher, DetectsNegativeStride)
{
    StreamPrefetcher pf(8, 4);
    pf.observe(1000);
    pf.observe(992);  // trains stride -8, the farthest reach
    const StreamPrefetcher::Round round = pf.observe(984);
    EXPECT_EQ(round.count, 4u);
    EXPECT_EQ(round.line(1), 976u);
    EXPECT_EQ(round.line(4), 952u);
    // Nine lines on is out of reach: a new stream, not a confirm.
    EXPECT_EQ(pf.observe(975).count, 0u);
}

TEST(StreamPrefetcher, IgnoresRandomAccesses)
{
    StreamPrefetcher pf(8, 4);
    std::uint64_t addrs[] = {5, 900, 77, 12345, 42, 60000, 3, 777};
    for (std::uint64_t a : addrs)
        EXPECT_EQ(pf.observe(a).count, 0u) << a;
}

TEST(StreamPrefetcher, SettleStampLastsUntilRetrained)
{
    StreamPrefetcher pf(8, 4);
    pf.observe(100);
    pf.observe(102);
    EXPECT_EQ(pf.observe(104).settledAt, StreamPrefetcher::kUnsettled);
    pf.settle(7);
    EXPECT_EQ(pf.observe(106).settledAt, 7u);
    pf.settle(9);
    // Another stride retrains the stream and forgets the stamp.
    pf.observe(107);
    const StreamPrefetcher::Round round = pf.observe(108);
    EXPECT_EQ(round.count, 4u);
    EXPECT_EQ(round.settledAt, StreamPrefetcher::kUnsettled);
}

TEST(StreamPrefetcher, NewStreamTakesLeastRecentlyUsedEntry)
{
    StreamPrefetcher pf(2, 4);
    pf.observe(100);
    pf.observe(101);   // stream A trained at 101
    pf.observe(5000);  // stream B, the second entry
    pf.observe(5001);  // B trained; A is now least recently used
    pf.observe(9000);  // replaces A
    EXPECT_EQ(pf.observe(5002).count, 4u);  // B survived
    EXPECT_EQ(pf.observe(102).count, 0u);   // A is gone: a new stream
}

TEST(CacheHierarchy, PrefetchHidesSequentialMisses)
{
    Cache llcA(8 << 20, 16);
    Cache llcB(8 << 20, 16);
    CacheHierarchy withPf(32768, 8, 32768, 8, 262144, 8, &llcA, true);
    CacheHierarchy noPf(32768, 8, 32768, 8, 262144, 8, &llcB, false);

    // Stream 1MB sequentially through both (exceeds L1/L2).
    auto run = [](CacheHierarchy &h) {
        std::uint64_t misses = 0;
        for (std::uint64_t l = 0; l < 16384; ++l) {
            if (h.accessData(l * 64, false) != CacheLevel::L1)
                ++misses;
        }
        return misses;
    };
    const std::uint64_t pfMisses = run(withPf);
    const std::uint64_t plainMisses = run(noPf);
    EXPECT_LT(pfMisses, plainMisses / 4);
}

// ---------------------------------------------------------------------
// Differential test. `ref` is the model the validity bitmap replaced:
// a per-line valid flag, victim() and fill() each rescanning the set,
// and probe()-then-fill() of every line a confirmed stream asks for,
// with a frozen copy of the stream table's ordered scan. A seeded
// random script drives it and the real model in lockstep; any change
// in victim choice, tick order, counting or prefetches issued shows up
// as a differing result, counter, presence or LRU stamp.

namespace ref {

class StreamPrefetcher
{
  public:
    StreamPrefetcher(unsigned tableSize = 16, unsigned degree = 4)
        : table_(tableSize), degree_(degree)
    {
    }

    void
    observe(std::uint64_t lineAddr, std::vector<std::uint64_t> &out)
    {
        out.clear();
        ++tick_;
        StreamEntry *lruEntry = &table_[0];
        for (StreamEntry &e : table_) {
            if (!lruEntry->valid) {
                // keep current lruEntry (free slot wins)
            } else if (!e.valid || e.lastUse < lruEntry->lastUse) {
                lruEntry = &e;
            }
            if (!e.valid)
                continue;
            const std::int64_t delta =
                static_cast<std::int64_t>(lineAddr) -
                static_cast<std::int64_t>(e.lastLine);
            if (delta != 0 && delta == e.stride) {
                if (++e.confidence >= 2) {
                    for (unsigned d = 1; d <= degree_; ++d) {
                        out.push_back(static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(lineAddr) +
                            e.stride * static_cast<std::int64_t>(d)));
                    }
                }
                e.lastLine = lineAddr;
                e.lastUse = tick_;
                return;
            }
            if (delta != 0 && delta >= -8 && delta <= 8) {
                e.stride = delta;
                e.confidence = 1;
                e.lastLine = lineAddr;
                e.lastUse = tick_;
                return;
            }
        }
        lruEntry->valid = true;
        lruEntry->lastLine = lineAddr;
        lruEntry->stride = 0;
        lruEntry->confidence = 0;
        lruEntry->lastUse = tick_;
    }

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

class Cache
{
  public:
    Cache(std::uint64_t capacityBytes, unsigned ways) : ways_(ways)
    {
        std::uint64_t line_count = capacityBytes / kLineBytes;
        if (line_count < ways_)
            line_count = ways_;
        sets_ = std::bit_floor(line_count / ways_);
        if (sets_ == 0)
            sets_ = 1;
        setMask_ = sets_ - 1;
        setShift_ = static_cast<unsigned>(std::countr_zero(sets_));
        lines_.assign(sets_ * ways_, Line{});
    }

    bool
    access(std::uint64_t addr, bool /*isWrite*/)
    {
        ++stats_.accesses;
        ++tick_;
        if (Line *line = find(addr)) {
            if (line->prefetched) {
                ++stats_.prefetchHits;
                line->prefetched = false;
            }
            line->lastUse = tick_;
            return true;
        }
        ++stats_.misses;
        Line *line = victim(addr);
        if (line->valid)
            ++stats_.evictions;
        line->tag = (addr / kLineBytes) >> setShift_;
        line->lastUse = tick_;
        line->valid = true;
        line->prefetched = false;
        return false;
    }

    void
    fill(std::uint64_t addr, bool prefetch = false)
    {
        ++tick_;
        if (Line *line = find(addr)) {
            line->lastUse = tick_;
            return;
        }
        Line *line = victim(addr);
        if (line->valid)
            ++stats_.evictions;
        line->tag = (addr / kLineBytes) >> setShift_;
        line->lastUse = tick_;
        line->valid = true;
        line->prefetched = prefetch;
        if (prefetch)
            ++stats_.prefetchFills;
    }

    bool probe(std::uint64_t addr) const { return find(addr) != nullptr; }

    std::uint64_t
    recency(std::uint64_t addr) const
    {
        const Line *line = find(addr);
        return line ? line->lastUse : 0;
    }

    bool
    invalidate(std::uint64_t addr)
    {
        if (Line *line = find(addr)) {
            line->valid = false;
            ++stats_.invalidations;
            return true;
        }
        return false;
    }

    void
    invalidateFraction(double fraction, std::uint64_t salt)
    {
        if (fraction <= 0.0)
            return;
        const auto threshold =
            static_cast<std::uint64_t>(fraction * 4294967296.0);
        for (std::size_t i = 0; i < lines_.size(); ++i) {
            if (!lines_[i].valid)
                continue;
            std::uint64_t h = (i * 0x9e3779b97f4a7c15ull) ^ salt;
            h ^= h >> 29;
            h *= 0xbf58476d1ce4e5b9ull;
            h ^= h >> 32;
            if ((h & 0xffffffffull) < threshold) {
                lines_[i].valid = false;
                ++stats_.invalidations;
            }
        }
    }

    void
    flush()
    {
        for (Line &line : lines_)
            line.valid = false;
    }

    std::uint64_t sets() const { return sets_; }
    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool prefetched = false;
    };

    unsigned ways_;
    std::uint64_t sets_;
    std::uint64_t setMask_;
    unsigned setShift_;
    std::vector<Line> lines_;
    std::uint64_t tick_ = 0;
    CacheStats stats_;

    Line *
    find(std::uint64_t addr)
    {
        const std::uint64_t line = addr / kLineBytes;
        Line *base = &lines_[(line & setMask_) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == line >> setShift_)
                return &base[w];
        }
        return nullptr;
    }

    const Line *
    find(std::uint64_t addr) const
    {
        return const_cast<Cache *>(this)->find(addr);
    }

    Line *
    victim(std::uint64_t addr)
    {
        const std::uint64_t line = addr / kLineBytes;
        Line *base = &lines_[(line & setMask_) * ways_];
        Line *lru = &base[0];
        for (unsigned w = 0; w < ways_; ++w) {
            if (!base[w].valid)
                return &base[w];
            if (base[w].lastUse < lru->lastUse)
                lru = &base[w];
        }
        return lru;
    }
};

class CacheHierarchy
{
  public:
    CacheHierarchy(std::uint64_t l1iBytes, unsigned l1iWays,
                   std::uint64_t l1dBytes, unsigned l1dWays,
                   std::uint64_t l2Bytes, unsigned l2Ways,
                   Cache *sharedLlc, bool prefetchEnabled)
        : l1i_(l1iBytes, l1iWays), l1d_(l1dBytes, l1dWays),
          l2_(l2Bytes, l2Ways), llc_(sharedLlc),
          prefetchEnabled_(prefetchEnabled)
    {
    }

    CacheLevel
    accessData(std::uint64_t addr, bool isWrite)
    {
        CacheLevel level = CacheLevel::Memory;
        if (l1d_.access(addr, isWrite)) {
            level = CacheLevel::L1;
        } else if (l2_.access(addr, isWrite)) {
            level = CacheLevel::L2;
            l1d_.fill(addr);
        } else if (llc_ && llc_->access(addr, isWrite)) {
            level = CacheLevel::L3;
            l2_.fill(addr);
            l1d_.fill(addr);
        } else {
            if (llc_)
                llc_->fill(addr);
            l2_.fill(addr);
            l1d_.fill(addr);
        }
        if (prefetchEnabled_) {
            prefetcher_.observe(addr / kLineBytes, scratch_);
            for (std::uint64_t line : scratch_) {
                const std::uint64_t pfAddr = line * kLineBytes;
                if (!l2_.probe(pfAddr)) {
                    if (llc_ && !llc_->probe(pfAddr))
                        llc_->fill(pfAddr, true);
                    l2_.fill(pfAddr, true);
                }
                if (!l1d_.probe(pfAddr))
                    l1d_.fill(pfAddr, true);
            }
        }
        return level;
    }

    CacheLevel
    accessInst(std::uint64_t addr)
    {
        if (l1i_.access(addr, false))
            return CacheLevel::L1;
        if (l2_.access(addr, false)) {
            l1i_.fill(addr);
            return CacheLevel::L2;
        }
        if (llc_ && llc_->access(addr, false)) {
            l2_.fill(addr);
            l1i_.fill(addr);
            return CacheLevel::L3;
        }
        if (llc_)
            llc_->fill(addr);
        l2_.fill(addr);
        l1i_.fill(addr);
        return CacheLevel::Memory;
    }

    void
    invalidateData(std::uint64_t addr)
    {
        l1d_.invalidate(addr);
        l2_.invalidate(addr);
    }

    void
    pollute(double fraction, std::uint64_t salt)
    {
        l1i_.invalidateFraction(fraction, salt);
        l1d_.invalidateFraction(fraction, salt ^ 0xabcdef);
        l2_.invalidateFraction(fraction * 0.25, salt ^ 0x123456);
    }

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }

  private:
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache *llc_;
    StreamPrefetcher prefetcher_;
    bool prefetchEnabled_;
    std::vector<std::uint64_t> scratch_;
};

} // namespace ref

constexpr std::uint64_t kPlatformALlcBytes = 31719424;  // 30.25 MB

/** Lines of the touched working set; each is probed after every step. */
class Touched
{
  public:
    void
    add(std::uint64_t addr)
    {
        const std::uint64_t line = addr / kLineBytes * kLineBytes;
        if (seen_.insert(line).second)
            lines_.push_back(line);
    }

    const std::vector<std::uint64_t> &lines() const { return lines_; }

  private:
    std::unordered_set<std::uint64_t> seen_;
    std::vector<std::uint64_t> lines_;
};

/**
 * Addresses crowding a few sets of a `sets` x `ways` cache: set 0,
 * the last set, and sets whose valid bits straddle two bitmap words,
 * each with more tags than ways so the sets overflow.
 */
class AddrPool
{
  public:
    AddrPool(std::uint64_t sets, unsigned ways, std::mt19937_64 &rng)
        : sets_(sets), tags_(2 * ways + 3)
    {
        std::vector<std::uint64_t> want = {0, sets - 1, rng() % sets};
        unsigned straddling = 0;
        for (std::uint64_t s = 0; s < sets && straddling < 3; ++s) {
            if ((s * ways) % 64 + ways > 64) {
                want.push_back(s);
                ++straddling;
            }
        }
        for (std::uint64_t s : want) {
            if (std::find(setIdx_.begin(), setIdx_.end(), s) ==
                setIdx_.end())
                setIdx_.push_back(s);
        }
    }

    /** A byte address in one of the pool's lines. */
    std::uint64_t
    pick(std::mt19937_64 &rng) const
    {
        const std::uint64_t set = setIdx_[rng() % setIdx_.size()];
        return (set + sets_ * (rng() % tags_)) * kLineBytes + rng() % 64;
    }

  private:
    std::uint64_t sets_;
    unsigned tags_;
    std::vector<std::uint64_t> setIdx_;
};

double
pollutionFraction(std::mt19937_64 &rng)
{
    return 0.0375 + (0.5 - 0.0375) *
        static_cast<double>(rng() % 1000) / 999.0;
}

::testing::AssertionResult
sameStats(const CacheStats &want, const CacheStats &got)
{
    if (want.accesses == got.accesses && want.misses == got.misses &&
        want.evictions == got.evictions &&
        want.invalidations == got.invalidations &&
        want.prefetchFills == got.prefetchFills &&
        want.prefetchHits == got.prefetchHits)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "stats differ: accesses " << want.accesses << "/"
        << got.accesses << " misses " << want.misses << "/" << got.misses
        << " evictions " << want.evictions << "/" << got.evictions
        << " invalidations " << want.invalidations << "/"
        << got.invalidations << " prefetchFills " << want.prefetchFills
        << "/" << got.prefetchFills << " prefetchHits "
        << want.prefetchHits << "/" << got.prefetchHits;
}

/** Counters, and presence and LRU stamp of every touched line. */
::testing::AssertionResult
sameCache(const ref::Cache &want, const Cache &got, const Touched &touched)
{
    if (auto r = sameStats(want.stats(), got.stats()); !r)
        return r;
    for (std::uint64_t addr : touched.lines()) {
        if (want.probe(addr) != got.probe(addr) ||
            want.recency(addr) != got.recency(addr))
            return ::testing::AssertionFailure()
                << "line 0x" << std::hex << addr << std::dec
                << ": present " << want.probe(addr) << "/"
                << got.probe(addr) << " stamp " << want.recency(addr)
                << "/" << got.recency(addr);
    }
    return ::testing::AssertionSuccess();
}

struct Geometry
{
    const char *name;
    std::uint64_t bytes;
    unsigned ways;
};

// Test names then carry no pointer bytes.
void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.name;
}

class CacheDifferential : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheDifferential, MatchesReferenceModel)
{
    const Geometry g = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::mt19937_64 rng(seed);
        ref::Cache want(g.bytes, g.ways);
        Cache got(g.bytes, g.ways);
        ASSERT_EQ(want.sets(), got.sets());
        const AddrPool pool(got.sets(), g.ways, rng);
        Touched touched;
        std::uint64_t last = pool.pick(rng);
        for (int step = 0; step < 2000; ++step) {
            const unsigned op = rng() % 1000;
            const std::uint64_t addr = op >= 800 ? last : pool.pick(rng);
            touched.add(addr);
            if (op < 450 || op >= 800) {
                const bool write = rng() & 1;
                ASSERT_EQ(want.access(addr, write), got.access(addr, write))
                    << "seed " << seed << " step " << step;
            } else if (op < 620) {
                const bool prefetch = rng() & 1;
                want.fill(addr, prefetch);
                got.fill(addr, prefetch);
            } else if (op < 700) {
                ASSERT_EQ(want.probe(addr), got.probe(addr))
                    << "seed " << seed << " step " << step;
            } else if (op < 780) {
                ASSERT_EQ(want.invalidate(addr), got.invalidate(addr))
                    << "seed " << seed << " step " << step;
            } else if (op < 799) {
                const double fraction = pollutionFraction(rng);
                const std::uint64_t salt = rng();
                want.invalidateFraction(fraction, salt);
                got.invalidateFraction(fraction, salt);
            } else {
                want.flush();
                got.flush();
            }
            last = addr;
            ASSERT_TRUE(sameCache(want, got, touched))
                << "seed " << seed << " step " << step << " op " << op;
        }
        // The script reached full sets and the pollution walk.
        EXPECT_GT(got.stats().evictions, 0u);
        EXPECT_GT(got.stats().invalidations, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(Geometry{"OneSet", 8 * 64, 8},
                      Geometry{"L1_8way", 32 << 10, 8},
                      Geometry{"L2_16way", 1 << 20, 16},
                      Geometry{"LLC_20way", 1 << 20, 20},
                      Geometry{"OneSet64way", 64 * 64, 64},
                      Geometry{"PlatformA_LLC_11way", kPlatformALlcBytes,
                               11}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::string(info.param.name);
    });

/** The prefetcher's degree: lines a confirmed stream fills ahead. */
constexpr unsigned kDegree = 4;

/** Byte offset of `lines` lines at `stride`, modulo 2^64. */
std::uint64_t
lineStep(std::int64_t stride, unsigned lines)
{
    return static_cast<std::uint64_t>(stride) * lines * kLineBytes;
}

/** A stride of 1..8 lines either way, other than `other`. */
std::int64_t
randomStride(std::mt19937_64 &rng, std::int64_t other)
{
    for (;;) {
        const auto stride = static_cast<std::int64_t>(1 + rng() % 8) *
            ((rng() & 1) ? 1 : -1);
        if (stride != other)
            return stride;
    }
}

/** One core's strided data run, resumed across script steps. */
struct StridedRun
{
    std::uint64_t next = 0;  // line
    std::int64_t stride = 0;
    unsigned left = 0;
};

::testing::AssertionResult
sameData(ref::CacheHierarchy &want, CacheHierarchy &got,
         std::uint64_t addr)
{
    const CacheLevel a = want.accessData(addr, false);
    const CacheLevel b = got.accessData(addr, false);
    if (a == b)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "data access 0x" << std::hex << addr << std::dec << ": level "
        << static_cast<int>(a) << "/" << static_cast<int>(b);
}

struct HierarchyShape
{
    const char *name;
    std::uint64_t l1i, l1d, l2, llc;  // llc 0: no LLC
    unsigned l1iWays, l1dWays, l2Ways, llcWays;
    unsigned cores;                   // hierarchies sharing the LLC
};

void
PrintTo(const HierarchyShape &shape, std::ostream *os)
{
    *os << shape.name;
}

class CacheHierarchyDifferential
    : public ::testing::TestWithParam<std::tuple<HierarchyShape, bool>>
{
};

TEST_P(CacheHierarchyDifferential, MatchesReferenceModel)
{
    const auto [shape, prefetch] = GetParam();
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        std::mt19937_64 rng(seed);
        std::optional<ref::Cache> wantLlc;
        std::optional<Cache> gotLlc;
        if (shape.llc) {
            wantLlc.emplace(shape.llc, shape.llcWays);
            gotLlc.emplace(shape.llc, shape.llcWays);
        }
        std::vector<std::unique_ptr<ref::CacheHierarchy>> want;
        std::vector<std::unique_ptr<CacheHierarchy>> got;
        for (unsigned c = 0; c < shape.cores; ++c) {
            want.push_back(std::make_unique<ref::CacheHierarchy>(
                shape.l1i, shape.l1iWays, shape.l1d, shape.l1dWays,
                shape.l2, shape.l2Ways, wantLlc ? &*wantLlc : nullptr,
                prefetch));
            got.push_back(std::make_unique<CacheHierarchy>(
                shape.l1i, shape.l1iWays, shape.l1d, shape.l1dWays,
                shape.l2, shape.l2Ways, gotLlc ? &*gotLlc : nullptr,
                prefetch));
        }
        // Crowd the outermost level's sets; inner levels alias harder.
        const AddrPool pool(gotLlc ? gotLlc->sets() : got[0]->l2().sets(),
                            shape.llc ? shape.llcWays : shape.l2Ways, rng);
        Touched touched;

        auto same = [&]() -> ::testing::AssertionResult {
            if (gotLlc) {
                if (auto r = sameCache(*wantLlc, *gotLlc, touched); !r)
                    return r << " (LLC)";
            }
            for (unsigned c = 0; c < shape.cores; ++c) {
                if (auto r = sameCache(want[c]->l1i(), got[c]->l1i(),
                                       touched); !r)
                    return r << " (core " << c << " L1i)";
                if (auto r = sameCache(want[c]->l1d(), got[c]->l1d(),
                                       touched); !r)
                    return r << " (core " << c << " L1d)";
                if (auto r = sameCache(want[c]->l2(), got[c]->l2(),
                                       touched); !r)
                    return r << " (core " << c << " L2)";
            }
            return ::testing::AssertionSuccess();
        };

        std::vector<StridedRun> runs(shape.cores);
        std::uint64_t last = pool.pick(rng);
        for (int step = 0; step < 1200; ++step) {
            const unsigned c = static_cast<unsigned>(rng() % shape.cores);
            ref::CacheHierarchy &w = *want[c];
            CacheHierarchy &g = *got[c];
            const unsigned op = rng() % 100;
            const std::uint64_t addr = op >= 92 ? last : pool.pick(rng);
            touched.add(addr);
            if (op < 40 || op >= 92) {
                const bool write = rng() & 1;
                ASSERT_EQ(w.accessData(addr, write),
                          g.accessData(addr, write))
                    << "seed " << seed << " step " << step;
            } else if (op < 60) {
                ASSERT_EQ(w.accessInst(addr), g.accessInst(addr))
                    << "seed " << seed << " step " << step;
            } else if (op < 68) {
                // Resume this core's strided run, or start one: stride
                // +-1..+-8 for degree + 4 to degree + 11 lines, so its
                // stream confirms several rounds in a row.
                StridedRun &run = runs[c];
                if (run.left == 0) {
                    // 2^24 lines up keeps the pool's sets and leaves
                    // room below for a negative stride.
                    run.next = pool.pick(rng) / kLineBytes + (1u << 24);
                    run.stride = randomStride(rng, 0);
                    run.left = kDegree + 4 + rng() % 8;
                }
                for (unsigned k = 1 + rng() % 6; k > 0 && run.left > 0;
                     --k, --run.left) {
                    const std::uint64_t a = run.next * kLineBytes;
                    for (unsigned d = 0; d <= kDegree; ++d)
                        touched.add(a + lineStep(run.stride, d));
                    ASSERT_TRUE(sameData(w, g, a))
                        << "seed " << seed << " step " << step;
                    if (rng() % 8 == 0) {
                        // Change stride: the stream retrains.
                        const std::int64_t old = run.stride;
                        run.stride = randomStride(rng, old);
                        run.next += static_cast<std::uint64_t>(
                            run.stride - old);
                    }
                    run.next += static_cast<std::uint64_t>(run.stride);
                    if (rng() % 4 != 0)
                        continue;
                    // Mid-run, a line the stream has prefetched past
                    // the next one leaves L1d or L2, or lines elsewhere
                    // do. The next confirm must probe again.
                    const std::uint64_t t = run.next * kLineBytes +
                        lineStep(run.stride, 1 + rng() % (kDegree - 1));
                    switch (rng() % 4) {
                      case 0:
                        w.invalidateData(t);
                        g.invalidateData(t);
                        break;
                      case 1: {
                        const double fraction = pollutionFraction(rng);
                        const std::uint64_t salt = rng();
                        switch (rng() % 3) {
                          case 0:
                            w.pollute(fraction, salt);
                            g.pollute(fraction, salt);
                            break;
                          case 1:
                            w.l1d().invalidateFraction(fraction, salt);
                            g.l1d().invalidateFraction(fraction, salt);
                            break;
                          default:
                            w.l2().invalidateFraction(fraction, salt);
                            g.l2().invalidateFraction(fraction, salt);
                        }
                        break;
                      }
                      case 2:
                        if (rng() & 1) {
                            w.l1d().flush();
                            g.l1d().flush();
                        } else {
                            w.l2().flush();
                            g.l2().flush();
                        }
                        break;
                      default:
                        // Evict it: data accesses crowding its L1d set,
                        // or fetches crowding its L2 set.
                        if (rng() & 1) {
                            const std::uint64_t apart =
                                g.l1d().sets() * kLineBytes;
                            for (unsigned j = 1; j <= shape.l1dWays;
                                 ++j) {
                                touched.add(t + j * apart);
                                ASSERT_TRUE(sameData(w, g, t + j * apart))
                                    << "seed " << seed << " step " << step;
                            }
                        } else {
                            const std::uint64_t apart =
                                g.l2().sets() * kLineBytes;
                            for (unsigned j = 1; j <= shape.l2Ways;
                                 ++j) {
                                touched.add(t + j * apart);
                                ASSERT_EQ(w.accessInst(t + j * apart),
                                          g.accessInst(t + j * apart))
                                    << "seed " << seed << " step " << step;
                            }
                        }
                    }
                    ASSERT_TRUE(same())
                        << "seed " << seed << " step " << step
                        << " mid-run";
                }
            } else if (op < 80) {
                w.invalidateData(addr);
                g.invalidateData(addr);
            } else if (op < 86) {
                const double fraction = pollutionFraction(rng);
                const std::uint64_t salt = rng();
                w.pollute(fraction, salt);
                g.pollute(fraction, salt);
            } else if (op < 91) {
                const double fraction = pollutionFraction(rng);
                const std::uint64_t salt = rng();
                switch (rng() % 3) {
                  case 0:
                    w.l1i().invalidateFraction(fraction, salt);
                    g.l1i().invalidateFraction(fraction, salt);
                    break;
                  case 1:
                    w.l1d().invalidateFraction(fraction, salt);
                    g.l1d().invalidateFraction(fraction, salt);
                    break;
                  default:
                    w.l2().invalidateFraction(fraction, salt);
                    g.l2().invalidateFraction(fraction, salt);
                }
            } else {
                switch (rng() % 3) {
                  case 0:
                    w.l1d().flush();
                    g.l1d().flush();
                    break;
                  case 1:
                    w.l2().flush();
                    g.l2().flush();
                    break;
                  default:
                    if (gotLlc) {
                        wantLlc->flush();
                        gotLlc->flush();
                    }
                }
            }
            last = addr;
            ASSERT_TRUE(same())
                << "seed " << seed << " step " << step << " op " << op;
        }
        // The script reached every level and, when on, the prefetcher.
        const CacheStats &l1d = got[0]->l1d().stats();
        EXPECT_GT(got[0]->l2().stats().evictions, 0u);
        if (gotLlc) {
            EXPECT_GT(gotLlc->stats().evictions, 0u);
        }
        if (prefetch) {
            EXPECT_GT(l1d.prefetchHits, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheHierarchyDifferential,
    ::testing::Combine(
        ::testing::Values(
            // One-set L1i, two-set L1d, four-set L2; two cores.
            HierarchyShape{"Tiny", 8 * 64, 16 * 64, 64 * 64,
                           kPlatformALlcBytes, 8, 8, 16, 11, 2},
            HierarchyShape{"PlatformA", 32 << 10, 32 << 10, 1 << 20,
                           kPlatformALlcBytes, 8, 8, 16, 11, 1},
            HierarchyShape{"PlatformA2Cores", 32 << 10, 32 << 10, 1 << 20,
                           kPlatformALlcBytes, 8, 8, 16, 11, 2},
            // An 8-set direct-mapped L2: a round's own fills can evict
            // one another, so rounds must not settle their stream.
            HierarchyShape{"NarrowL2", 32 << 10, 32 << 10, 8 * 64,
                           kPlatformALlcBytes, 8, 8, 1, 11, 1},
            HierarchyShape{"NoLlc", 8 * 64, 16 * 64, 64 * 64, 0, 8, 8,
                           16, 0, 1}),
        ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) +
            (std::get<1>(info.param) ? "_Prefetch" : "_NoPrefetch");
    });

} // namespace
