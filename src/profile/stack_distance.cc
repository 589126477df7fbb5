#include "profile/stack_distance.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace ditto::profile {

StackDistanceCurve::StackDistanceCurve()
{
    bit_.assign(1 << 16, 0);
}

void
StackDistanceCurve::ensure(std::uint32_t pos)
{
    if (pos >= bit_.size()) {
        std::size_t size = bit_.size();
        while (pos >= size)
            size *= 2;
        bit_.resize(size, 0);
    }
}

void
StackDistanceCurve::bitAdd(std::uint32_t pos, std::int32_t delta)
{
    ensure(pos);
    for (std::uint32_t i = pos + 1; i <= bit_.size();
         i += i & (~i + 1)) {
        bit_[i - 1] += delta;
    }
}

std::int64_t
StackDistanceCurve::bitPrefix(std::uint32_t pos) const
{
    std::int64_t sum = 0;
    std::uint32_t limit = pos + 1;
    if (limit > bit_.size())
        limit = static_cast<std::uint32_t>(bit_.size());
    for (std::uint32_t i = limit; i > 0; i -= i & (~i + 1))
        sum += bit_[i - 1];
    return sum;
}

void
StackDistanceCurve::compress()
{
    std::vector<std::pair<std::uint32_t, std::uint64_t>> live;
    live.reserve(lastTime_.size());
    lastTime_.forEach([&](std::uint64_t line, std::uint32_t t) {
        live.push_back({t, line});
    });
    std::sort(live.begin(), live.end());

    std::fill(bit_.begin(), bit_.end(), 0);
    std::uint32_t next = 0;
    for (const auto &[t, line] : live) {
        (void)t;
        *lastTime_.find(line) = next;
        bitAdd(next, 1);
        ++next;
    }
    time_ = next;
}

std::size_t
StackDistanceCurve::access(std::uint64_t lineAddr)
{
    total_ += 1;
    if (time_ >= kMaxTime)
        compress();
    const std::uint32_t now = time_++;
    ensure(now);

    std::uint32_t *last = lastTime_.find(lineAddr);
    if (!last) {
        cold_ += 1;
        bitAdd(now, 1);
        lastTime_.ref(lineAddr) = now;
        return kWsSizes;
    }

    const std::uint32_t prev = *last;
    // Distinct lines touched since `prev`: each has its latest access
    // marked in (prev, now); +1 for the line itself.
    const std::int64_t between =
        bitPrefix(now) - bitPrefix(prev);  // excludes prev, includes <now marks
    const std::int64_t distance = between + 1;

    // Smallest capacity index that hits: lines(i) = 2^i >= distance.
    const auto d = static_cast<std::uint64_t>(
        distance < 1 ? 1 : distance);
    const unsigned idx = d <= 1
        ? 0
        : static_cast<unsigned>(64 - std::countl_zero(d - 1));
    if (idx < kWsSizes)
        minHitIdx_[idx] += 1;
    else
        minHitIdx_[kWsSizes] += 1;  // misses everywhere tracked

    bitAdd(prev, -1);
    bitAdd(now, 1);
    *last = now;
    return std::min<std::size_t>(idx, kWsSizes);
}

std::array<double, kWsSizes>
StackDistanceCurve::hitsBySize() const
{
    std::array<double, kWsSizes> hits{};
    double cumulative = 0;
    for (std::size_t i = 0; i < kWsSizes; ++i) {
        cumulative += minHitIdx_[i];
        hits[i] = cumulative;
    }
    return hits;
}

} // namespace ditto::profile
