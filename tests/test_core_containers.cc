/**
 * @file
 * Unit tests for the hot-path containers in src/core: the slab arena
 * behind the network's in-flight pool, the string interner behind
 * dense service ids, and the flat hash map behind the coherence
 * sharers directory.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/flat_map64.h"
#include "core/slab_arena.h"
#include "core/string_interner.h"

using namespace ditto;

namespace {

struct Tracked
{
    static int liveCount;
    int value;

    explicit Tracked(int v) : value(v) { ++liveCount; }
    Tracked(const Tracked &other) : value(other.value) { ++liveCount; }
    Tracked(Tracked &&other) noexcept : value(other.value)
    {
        ++liveCount;
    }
    ~Tracked() { --liveCount; }
};

int Tracked::liveCount = 0;

TEST(SlabArena, CreateDestroyRecyclesNodes)
{
    core::SlabArena<Tracked> arena;
    Tracked *a = arena.create(Tracked{1});
    Tracked *b = arena.create(Tracked{2});
    EXPECT_EQ(a->value, 1);
    EXPECT_EQ(b->value, 2);
    EXPECT_EQ(arena.liveCount(), 2u);

    arena.destroy(a);
    EXPECT_EQ(arena.liveCount(), 1u);
    // The freed node is recycled before any new chunk is touched.
    Tracked *c = arena.create(Tracked{3});
    EXPECT_EQ(c, a);
    EXPECT_EQ(c->value, 3);
    arena.destroy(b);
    arena.destroy(c);
    EXPECT_EQ(arena.liveCount(), 0u);
    EXPECT_EQ(Tracked::liveCount, 0);
}

TEST(SlabArena, ClearDestroysLiveObjects)
{
    {
        core::SlabArena<Tracked> arena;
        for (int i = 0; i < 100; ++i)
            arena.create(Tracked{i});
        EXPECT_EQ(arena.liveCount(), 100u);
        EXPECT_EQ(Tracked::liveCount, 100);
        arena.clear();
        EXPECT_EQ(arena.liveCount(), 0u);
        EXPECT_EQ(Tracked::liveCount, 0);
        // Arena stays usable after clear().
        Tracked *t = arena.create(Tracked{7});
        EXPECT_EQ(t->value, 7);
    }
    // Destruction also reclaims whatever was still live.
    EXPECT_EQ(Tracked::liveCount, 0);
}

TEST(SlabArena, GrowsAcrossChunks)
{
    core::SlabArena<std::uint64_t> arena;
    std::vector<std::uint64_t *> ptrs;
    for (std::uint64_t i = 0; i < 5000; ++i)
        ptrs.push_back(arena.create(i));
    for (std::uint64_t i = 0; i < 5000; ++i)
        EXPECT_EQ(*ptrs[i], i);
    EXPECT_GE(arena.capacity(), 5000u);
    for (std::uint64_t *p : ptrs)
        arena.destroy(p);
    EXPECT_EQ(arena.liveCount(), 0u);
}

TEST(StringInterner, DenseIdsAndRoundTrip)
{
    core::StringInterner interner;
    const std::uint32_t a = interner.intern("frontend");
    const std::uint32_t b = interner.intern("backend");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(interner.intern("frontend"), a);
    EXPECT_EQ(interner.lookup("frontend"), a);
    EXPECT_EQ(interner.lookup("missing"), core::StringInterner::kInvalidId);
    EXPECT_EQ(interner.name(a), "frontend");
    EXPECT_EQ(interner.name(b), "backend");
    EXPECT_EQ(interner.size(), 2u);
}

TEST(StringInterner, SurvivesGrowth)
{
    core::StringInterner interner;
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(interner.intern("svc-" + std::to_string(i)),
                  static_cast<std::uint32_t>(i));
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(interner.lookup("svc-" + std::to_string(i)),
                  static_cast<std::uint32_t>(i));
        EXPECT_EQ(interner.name(static_cast<std::uint32_t>(i)),
                  "svc-" + std::to_string(i));
    }
}

TEST(FlatMap64, MatchesUnorderedMapReference)
{
    // Differential check against std::unordered_map over an access
    // pattern shaped like the sharers directory: arithmetic line
    // progressions plus random lines, read-modify-write of bitmasks.
    core::FlatMap64 flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::uint64_t x = 12345;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t line = (i % 3 == 0)
            ? (x >> 40)                       // scattered
            : static_cast<std::uint64_t>(i) * 64;  // progression
        const std::uint64_t bit = std::uint64_t{1} << (x % 64);
        flat.ref(line) |= bit;
        ref[line] |= bit;
    }
    EXPECT_EQ(flat.size(), ref.size());
    for (const auto &[k, v] : ref)
        EXPECT_EQ(flat.ref(k), v);
}

TEST(FlatMap64, ZeroKeyAndClear)
{
    core::FlatMap64 map;
    map.ref(0) = 42;
    EXPECT_EQ(map.ref(0), 42u);
    EXPECT_EQ(map.size(), 1u);
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.ref(0), 0u);
}

TEST(FlatMap64, FindTellsAbsentFromZeroAndForEachVisitsAll)
{
    core::FlatMap64 map;
    EXPECT_EQ(map.find(7), nullptr);
    map.ref(7) = 0;
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 0u);

    // Past several growths: every entry visited once, values writable.
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (std::uint64_t k = 0; k < 5000; ++k) {
        map.ref(k * 97) = k;
        ref[k * 97] = k;
    }
    ref[7] = 0;
    std::size_t visited = 0;
    map.forEach([&](std::uint64_t key, std::uint64_t &value) {
        ++visited;
        EXPECT_EQ(ref.at(key), value);
        value += 1;
    });
    EXPECT_EQ(visited, ref.size());
    EXPECT_EQ(map.size(), ref.size());
    for (const auto &[k, v] : ref)
        EXPECT_EQ(*map.find(k), v + 1);
    EXPECT_EQ(map.find(5000 * 97 + 1), nullptr);
}

} // namespace
