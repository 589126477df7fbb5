#include "hw/cache.h"

#include <bit>
#include <stdexcept>
#include <string>

namespace ditto::hw {

namespace {

inline std::uint64_t
lineOf(std::uint64_t addr)
{
    return addr / kLineBytes;
}

/** find()'s result when the line is not present. */
constexpr std::size_t kAbsent = ~std::size_t{0};

} // namespace

Cache::Cache(std::uint64_t capacityBytes, unsigned ways)
    : capacity_(capacityBytes), ways_(ways)
{
    // A set's valid bits are read as one 64-bit window.
    if (ways_ == 0 || ways_ > 64)
        throw std::invalid_argument(
            "Cache: ways must be 1..64, got " + std::to_string(ways_));
    std::uint64_t line_count = capacity_ / kLineBytes;
    if (line_count < ways_)
        line_count = ways_;
    sets_ = line_count / ways_;
    // Round the set count down to a power of two for mask indexing;
    // capacities like 30.25MB (Platform A LLC) produce non-pow2 set
    // counts, so keep the largest pow2 not exceeding it.
    sets_ = std::bit_floor(sets_);
    if (sets_ == 0)
        sets_ = 1;
    setMask_ = sets_ - 1;
    setShift_ = static_cast<unsigned>(std::countr_zero(sets_));
    wayMask_ = ways_ == 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << ways_) - 1;
    const std::size_t lines = sets_ * ways_;
    // Left unwritten: a fill writes a line's tag and stamp, and its
    // valid bit guards every read, so pages of lines that are never
    // filled are never touched.
    tags_ = std::make_unique_for_overwrite<std::uint64_t[]>(lines);
    stamps_ = std::make_unique_for_overwrite<std::uint64_t[]>(lines);
    // One padding word past the last line: see slotOf().
    valid_.assign((lines + 63) / 64 + 1, 0);
    prefetched_.assign(valid_.size(), 0);
}

Cache::Cache(const Cache &other)
    : capacity_(other.capacity_), ways_(other.ways_), sets_(other.sets_),
      setMask_(other.setMask_), setShift_(other.setShift_),
      wayMask_(other.wayMask_),
      tags_(std::make_unique_for_overwrite<std::uint64_t[]>(
          sets_ * ways_)),
      stamps_(std::make_unique_for_overwrite<std::uint64_t[]>(
          sets_ * ways_)),
      valid_(other.valid_), prefetched_(other.prefetched_),
      lastAccess_(other.lastAccess_), tick_(other.tick_),
      removals_(other.removals_), stats_(other.stats_)
{
    // Only valid lines have a tag and stamp to copy.
    for (std::size_t word = 0; word < valid_.size(); ++word) {
        for (std::uint64_t m = valid_[word]; m; m &= m - 1) {
            const std::size_t i =
                word * 64 + static_cast<unsigned>(std::countr_zero(m));
            tags_[i] = other.tags_[i];
            stamps_[i] = other.stamps_[i];
        }
    }
}

Cache &
Cache::operator=(const Cache &other)
{
    if (this != &other)
        *this = Cache(other);
    return *this;
}

// slotOf() and find() are on every access's hit path: keep them inline.
inline Cache::Slot
Cache::slotOf(std::uint64_t addr) const
{
    const std::uint64_t line = lineOf(addr);
    const std::size_t base = (line & setMask_) * ways_;
    // The set's bits may straddle into the next word (e.g. 11 ways);
    // the padding word makes that read safe for the last set, and the
    // split shift keeps off == 0 defined without a branch.
    const std::size_t word = base / 64;
    const unsigned off = base % 64;
    const std::uint64_t valid = (valid_[word] >> off) |
        (valid_[word + 1] << 1 << (63 - off));
    return {base, line >> setShift_, valid & wayMask_};
}

inline std::size_t
Cache::find(const Slot &slot) const
{
    for (std::uint64_t m = slot.valid; m; m &= m - 1) {
        const std::size_t i =
            slot.base + static_cast<unsigned>(std::countr_zero(m));
        if (tags_[i] == slot.tag)
            return i;
    }
    return kAbsent;
}

std::size_t
Cache::allocate(const Slot &slot, bool prefetch)
{
    std::size_t i;
    if (const std::uint64_t free = ~slot.valid & wayMask_) {
        i = slot.base + static_cast<unsigned>(std::countr_zero(free));
        valid_[i / 64] |= std::uint64_t{1} << (i % 64);
    } else {
        // Full set: the first least-recently-used way.
        i = slot.base;
        for (std::size_t w = slot.base + 1; w < slot.base + ways_; ++w) {
            if (stamps_[w] < stamps_[i])
                i = w;
        }
        ++stats_.evictions;
        ++removals_;
    }
    tags_[i] = slot.tag;
    stamps_[i] = tick_;
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (prefetch)
        prefetched_[i / 64] |= bit;
    else
        prefetched_[i / 64] &= ~bit;
    return i;
}

bool
Cache::access(std::uint64_t addr, bool /*isWrite*/)
{
    ++stats_.accesses;
    ++tick_;
    const Slot slot = slotOf(addr);
    const std::size_t i = find(slot);
    if (i != kAbsent) {
        std::uint64_t &prefetched = prefetched_[i / 64];
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        if (prefetched & bit) {
            ++stats_.prefetchHits;
            prefetched &= ~bit;
        }
        stamps_[i] = tick_;
        return true;
    }
    ++stats_.misses;
    lastAccess_ = allocate(slot, false);
    return false;
}

void
Cache::fill(std::uint64_t addr, bool prefetch)
{
    ++tick_;
    const Slot slot = slotOf(addr);
    const std::size_t i = find(slot);
    if (i != kAbsent) {
        stamps_[i] = tick_;
        return;
    }
    allocate(slot, prefetch);
    if (prefetch)
        ++stats_.prefetchFills;
}

void
Cache::touchLastAccess()
{
    ++tick_;
    stamps_[lastAccess_] = tick_;
}

// Inline: the prefetch path calls it several times per access, and
// the line is usually present already.
inline bool
Cache::fillIfAbsent(std::uint64_t addr, bool prefetch)
{
    const Slot slot = slotOf(addr);
    if (find(slot) != kAbsent)
        return false;
    ++tick_;
    allocate(slot, prefetch);
    if (prefetch)
        ++stats_.prefetchFills;
    return true;
}

bool
Cache::probe(std::uint64_t addr) const
{
    return find(slotOf(addr)) != kAbsent;
}

std::uint64_t
Cache::recency(std::uint64_t addr) const
{
    const std::size_t i = find(slotOf(addr));
    return i == kAbsent ? 0 : stamps_[i];
}

bool
Cache::invalidate(std::uint64_t addr)
{
    const std::size_t i = find(slotOf(addr));
    if (i == kAbsent)
        return false;
    valid_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    ++stats_.invalidations;
    ++removals_;
    return true;
}

void
Cache::invalidateFraction(double fraction, std::uint64_t salt)
{
    if (fraction <= 0.0)
        return;
    // Deterministic pseudo-random selection keyed by line index+salt.
    const auto threshold =
        static_cast<std::uint64_t>(fraction * 4294967296.0);
    for (std::size_t word = 0; word < valid_.size(); ++word) {
        std::uint64_t drop = 0;
        for (std::uint64_t m = valid_[word]; m; m &= m - 1) {
            const std::uint64_t i =
                word * 64 + static_cast<unsigned>(std::countr_zero(m));
            std::uint64_t h = (i * 0x9e3779b97f4a7c15ull) ^ salt;
            h ^= h >> 29;
            h *= 0xbf58476d1ce4e5b9ull;
            h ^= h >> 32;
            if ((h & 0xffffffffull) < threshold) {
                drop |= m & -m;
                ++stats_.invalidations;
                ++removals_;
            }
        }
        valid_[word] &= ~drop;
    }
}

void
Cache::flush()
{
    for (std::uint64_t &word : valid_) {
        removals_ += static_cast<unsigned>(std::popcount(word));
        word = 0;
    }
}

StreamPrefetcher::StreamPrefetcher(unsigned tableSize, unsigned degree)
    : lastLines_(tableSize, kFree), table_(tableSize), degree_(degree)
{
}

StreamPrefetcher::Round
StreamPrefetcher::observe(std::uint64_t lineAddr)
{
    ++tick_;
    // One range test per entry finds the stream that acts: within
    // reach means 0 < |lineAddr - last| <= kReach, which a free
    // entry's kFree never is. A confirming delta equals a trained
    // stride and so is in reach too.
    constexpr auto reach = static_cast<std::uint64_t>(kReach);
    const std::size_t n = lastLines_.size();
    std::size_t i = 0;
    while (i < n) {
        const std::uint64_t shifted = lineAddr - lastLines_[i] + reach;
        if (shifted <= 2 * reach && shifted != reach)
            break;
        ++i;
    }
    if (i == n) {
        // A new stream on the first free entry, else the least
        // recently used one.
        std::size_t victim = 0;
        for (std::size_t j = 0; j < n; ++j) {
            if (lastLines_[j] == kFree) {
                victim = j;
                break;
            }
            if (table_[j].lastUse < table_[victim].lastUse)
                victim = j;
        }
        lastLines_[victim] = lineAddr;
        table_[victim] = {0, tick_, kUnsettled};
        return {};
    }
    StreamEntry &e = table_[i];
    const auto delta = static_cast<std::int64_t>(lineAddr - lastLines_[i]);
    lastLines_[i] = lineAddr;
    e.lastUse = tick_;
    if (delta != e.stride) {
        e.stride = delta;
        e.settledAt = kUnsettled;
        return {};
    }
    confirmed_ = i;
    return {lineAddr, e.stride, degree_, e.settledAt};
}

void
StreamPrefetcher::settle(std::uint64_t stamp)
{
    table_[confirmed_].settledAt = stamp;
}

CacheHierarchy::CacheHierarchy(std::uint64_t l1iBytes, unsigned l1iWays,
                               std::uint64_t l1dBytes, unsigned l1dWays,
                               std::uint64_t l2Bytes, unsigned l2Ways,
                               Cache *sharedLlc, bool prefetchEnabled)
    : l1i_(l1iBytes, l1iWays), l1d_(l1dBytes, l1dWays),
      l2_(l2Bytes, l2Ways), llc_(sharedLlc),
      prefetchEnabled_(prefetchEnabled)
{
    // A round's lines span (degree - 1) strides of at most kReach.
    const std::uint64_t span = std::uint64_t{prefetcher_.degree() - 1} *
        StreamPrefetcher::kReach;
    settleRounds_ = l1d_.sets() > span && l2_.sets() > span;
}

CacheLevel
CacheHierarchy::accessData(std::uint64_t addr, bool isWrite)
{
    CacheLevel level = CacheLevel::Memory;
    if (l1d_.access(addr, isWrite)) {
        level = CacheLevel::L1;
    } else if (l2_.access(addr, isWrite)) {
        // Each missing access() allocated the line; filling it inward
        // is only the recency update fill() would have made.
        level = CacheLevel::L2;
        l1d_.touchLastAccess();
    } else if (llc_ && llc_->access(addr, isWrite)) {
        level = CacheLevel::L3;
        l2_.touchLastAccess();
        l1d_.touchLastAccess();
    } else {
        level = CacheLevel::Memory;
        if (llc_)
            llc_->touchLastAccess();
        l2_.touchLastAccess();
        l1d_.touchLastAccess();
    }

    if (prefetchEnabled_) {
        const StreamPrefetcher::Round round =
            prefetcher_.observe(addr / kLineBytes);
        if (round.count == 0)
            return level;
        // The stream's previous round left lines 1..count-1 of this
        // one present in L2 and L1d (settleRounds_: none of its fills
        // evicted another), and an unchanged removal count means none
        // has left since, so probing them again would change nothing.
        const unsigned first =
            round.settledAt == removals() ? round.count : 1;
        for (unsigned d = first; d <= round.count; ++d) {
            const std::uint64_t pfAddr = round.line(d) * kLineBytes;
            if (l2_.fillIfAbsent(pfAddr, true) && llc_)
                llc_->fillIfAbsent(pfAddr, true);
            l1d_.fillIfAbsent(pfAddr, true);
        }
        if (settleRounds_)
            prefetcher_.settle(removals());
    }
    return level;
}

CacheLevel
CacheHierarchy::accessInst(std::uint64_t addr)
{
    if (l1i_.access(addr, false))
        return CacheLevel::L1;
    if (l2_.access(addr, false)) {
        l1i_.touchLastAccess();
        return CacheLevel::L2;
    }
    if (llc_ && llc_->access(addr, false)) {
        l2_.touchLastAccess();
        l1i_.touchLastAccess();
        return CacheLevel::L3;
    }
    if (llc_)
        llc_->touchLastAccess();
    l2_.touchLastAccess();
    l1i_.touchLastAccess();
    return CacheLevel::Memory;
}

void
CacheHierarchy::invalidateData(std::uint64_t addr)
{
    l1d_.invalidate(addr);
    l2_.invalidate(addr);
}

void
CacheHierarchy::pollute(double fraction, std::uint64_t salt)
{
    l1i_.invalidateFraction(fraction, salt);
    l1d_.invalidateFraction(fraction, salt ^ 0xabcdef);
    l2_.invalidateFraction(fraction * 0.25, salt ^ 0x123456);
}

} // namespace ditto::hw
