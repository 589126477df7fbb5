/**
 * @file
 * Unit tests for the simulation core: RNG, distributions, events.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "sim/distributions.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace {

using namespace ditto::sim;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a() == b();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(Rng, UniformIntUnbiasedSmallRange)
{
    Rng rng(9);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 30000; ++i)
        counts[rng.uniformInt(std::uint64_t{3})]++;
    EXPECT_EQ(counts.size(), 3u);
    for (const auto &[v, c] : counts) {
        EXPECT_LT(v, 3u);
        EXPECT_NEAR(c, 10000, 500);
    }
}

TEST(Rng, UniformIntInclusiveRange)
{
    Rng rng(10);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(std::int64_t{5}, std::int64_t{8});
        ASSERT_GE(v, 5);
        ASSERT_LE(v, 8);
    }
    // Degenerate range returns the bound.
    EXPECT_EQ(rng.uniformInt(std::int64_t{4}, std::int64_t{4}), 4);
    EXPECT_EQ(rng.uniformInt(std::int64_t{9}, std::int64_t{3}), 9);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(250.0);
    EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(Rng, NormalMoments)
{
    Rng rng(12);
    double sum = 0;
    double sq = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(10.0, 3.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, PoissonMeanSmallAndLarge)
{
    Rng rng(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(3.5));
    EXPECT_NEAR(sum / n, 3.5, 0.1);
    sum = 0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(80.0));
    EXPECT_NEAR(sum / n, 80.0, 0.5);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(14);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(20);
    Rng b = a.split();
    // Streams diverge.
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a() == b();
    EXPECT_LT(same, 3);
}

TEST(ZipfDist, UniformWhenThetaZero)
{
    Rng rng(31);
    ZipfDist zipf(10, 0.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        counts[zipf.sample(rng)]++;
    for (const auto &[v, c] : counts) {
        EXPECT_LT(v, 10u);
        EXPECT_NEAR(c, 5000, 400);
    }
}

TEST(ZipfDist, SkewedFavorsLowRanks)
{
    Rng rng(32);
    ZipfDist zipf(1000, 0.99);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        counts[zipf.sample(rng)]++;
    // Rank 0 should dominate any high rank by a wide margin.
    EXPECT_GT(counts[0], 2000);
    int tail = 0;
    for (const auto &[v, c] : counts) {
        if (v > 900)
            tail += c;
    }
    EXPECT_LT(tail, counts[0]);
}

TEST(EmpiricalDist, SamplesProportionally)
{
    Rng rng(33);
    EmpiricalDist dist;
    dist.add(1, 1.0);
    dist.add(2, 3.0);
    EXPECT_FALSE(dist.empty());
    EXPECT_DOUBLE_EQ(dist.totalWeight(), 4.0);
    int twos = 0;
    for (int i = 0; i < 40000; ++i)
        twos += dist.sample(rng) == 2;
    EXPECT_NEAR(twos / 40000.0, 0.75, 0.02);
    EXPECT_NEAR(dist.mean(), 1.75, 1e-9);
    EXPECT_NEAR(dist.probabilityOf(2), 0.75, 1e-9);
}

TEST(EmpiricalDist, IgnoresNonPositiveWeights)
{
    EmpiricalDist dist;
    dist.add(5, 0.0);
    dist.add(6, -1.0);
    EXPECT_TRUE(dist.empty());
    EXPECT_EQ(dist.size(), 0u);
}

TEST(RangeDist, SamplesWithinBuckets)
{
    Rng rng(34);
    RangeDist dist;
    dist.add(10.0, 20.0, 1.0);
    dist.add(100.0, 200.0, 1.0);
    for (int i = 0; i < 1000; ++i) {
        const double x = dist.sample(rng);
        EXPECT_TRUE((x >= 10 && x < 20) || (x >= 100 && x < 200));
    }
    EXPECT_NEAR(dist.mean(), (15.0 + 150.0) / 2, 1e-9);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt(30, [&] { order.push_back(3); });
    q.scheduleAt(10, [&] { order.push_back(1); });
    q.scheduleAt(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, FifoForEqualTimestamps)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.scheduleAt(100, [&order, i] { order.push_back(i); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    const EventId id = q.scheduleAt(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));  // double-cancel is a no-op
    q.runAll();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.scheduleAt(10, [&] { ++count; });
    q.scheduleAt(20, [&] { ++count; });
    q.scheduleAt(30, [&] { ++count; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20u);
    q.runAll();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsScheduledDuringRun)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.scheduleAfter(10, chain);
    };
    q.scheduleAt(0, chain);
    q.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, CancelAfterFireReturnsFalse)
{
    EventQueue q;
    bool ran = false;
    const EventId id = q.scheduleAt(10, [&] { ran = true; });
    q.runAll();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(q.cancel(id));  // already fired; not cancellable
}

TEST(EventQueue, CancelStaleIdAfterSlotReuse)
{
    // Cancelling an id whose slot has been recycled must not touch
    // the new occupant (the sequence tag disambiguates).
    EventQueue q;
    const EventId dead = q.scheduleAt(10, [] {});
    EXPECT_TRUE(q.cancel(dead));  // slot returns to the free list
    bool ran = false;
    q.scheduleAt(20, [&] { ran = true; });  // likely reuses the slot
    EXPECT_FALSE(q.cancel(dead));  // stale id: must be rejected
    q.runAll();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CancelUpdatesSizeAndKeepsFifoOfSurvivors)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(
            q.scheduleAt(100, [&order, i] { order.push_back(i); }));
    EXPECT_EQ(q.size(), 6u);
    EXPECT_TRUE(q.cancel(ids[1]));
    EXPECT_TRUE(q.cancel(ids[4]));
    EXPECT_EQ(q.size(), 4u);  // size reflects cancellation eagerly
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelHeavyChurnReusesSlots)
{
    // Schedule/cancel churn far beyond the live population: the slot
    // pool must recycle instead of growing without bound, and stale
    // heap entries must not break ordering of survivors.
    EventQueue q;
    int fired = 0;
    for (int round = 0; round < 1000; ++round) {
        const EventId timeout = q.scheduleAt(
            static_cast<Time>(1000 + round), [] { FAIL(); });
        q.scheduleAt(static_cast<Time>(round), [&] { ++fired; });
        EXPECT_TRUE(q.cancel(timeout));
    }
    q.runAll();
    EXPECT_EQ(fired, 1000);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduleInPastClampsToNow)
{
    EventQueue q;
    q.scheduleAt(100, [] {});
    q.runAll();
    EXPECT_EQ(q.now(), 100u);
    bool ran = false;
    q.scheduleAt(50, [&] { ran = true; });  // in the past
    q.runAll();
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.now(), 100u);  // did not go backwards
}

TEST(Time, UnitConversions)
{
    EXPECT_EQ(microseconds(1), 1000u);
    EXPECT_EQ(milliseconds(1), 1000000u);
    EXPECT_EQ(seconds(1), 1000000000u);
    EXPECT_DOUBLE_EQ(toMilliseconds(milliseconds(5)), 5.0);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(2)), 2.0);
    EXPECT_DOUBLE_EQ(toMicroseconds(microseconds(7)), 7.0);
}

// ---- wheel-vs-heap differential tests -------------------------------
//
// The timing wheel must execute any workload in exactly the (when,
// sequence) order a binary heap gives -- the bit-identical-output
// contract of DESIGN.md §8. Each workload below is generated once from
// a seed and replayed verbatim against an EventQueue and HeapQueue;
// the per-event execution logs (label, now) and executedCount() must
// match.

/**
 * Reference queue: the binary-heap timer backend the wheel replaced,
 * kept only as the differential oracle. Live events run in (when,
 * schedule order); past timestamps clamp to now(); cancel leaves a
 * tombstone the pop skips; runUntil() advances now() to its limit.
 */
class HeapQueue
{
  public:
    Time now() const { return now_; }
    std::size_t size() const { return live_; }
    std::uint64_t executedCount() const { return executed_; }

    EventId
    scheduleAt(Time when, std::function<void()> cb)
    {
        const EventId id = callbacks_.size();
        callbacks_.push_back(std::move(cb));
        heap_.emplace(std::max(when, now_), id);
        ++live_;
        return id;
    }

    EventId
    scheduleAfter(Time delay, std::function<void()> cb)
    {
        return scheduleAt(now_ + delay, std::move(cb));
    }

    bool
    cancel(EventId id)
    {
        if (id >= callbacks_.size() || !callbacks_[id])
            return false;
        callbacks_[id] = nullptr;
        --live_;
        return true;
    }

    bool
    runOne()
    {
        if (!skimDead())
            return false;
        const auto [when, id] = heap_.top();
        heap_.pop();
        now_ = when;
        std::function<void()> cb = std::move(callbacks_[id]);
        callbacks_[id] = nullptr;
        --live_;
        ++executed_;
        cb();
        return true;
    }

    std::uint64_t
    runUntil(Time limit)
    {
        std::uint64_t count = 0;
        while (skimDead() && heap_.top().first <= limit && runOne())
            ++count;
        now_ = std::max(now_, limit);
        return count;
    }

    std::uint64_t
    runAll()
    {
        std::uint64_t count = 0;
        while (runOne())
            ++count;
        return count;
    }

  private:
    using Item = std::pair<Time, EventId>;  //!< (when, schedule order)
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap_;
    std::vector<std::function<void()>> callbacks_;  //!< null once dead
    Time now_ = 0;
    std::size_t live_ = 0;
    std::uint64_t executed_ = 0;

    /** Drop dead heap tops; false when the heap drained. */
    bool
    skimDead()
    {
        while (!heap_.empty() && !callbacks_[heap_.top().second])
            heap_.pop();
        return !heap_.empty();
    }
};

/** One generated timer workload action. */
struct DiffOp
{
    enum Kind
    {
        Schedule,    //!< scheduleAt(when, <log label>)
        Cancel,      //!< cancel the `target`-th scheduled event
        RunUntil,    //!< runUntil(when)
        RunSome,     //!< runOne() x target
    };
    Kind kind;
    Time when = 0;
    std::size_t target = 0;
};

/** Replay `ops` on one queue; returns the execution log. */
template <typename Queue>
std::vector<std::pair<std::size_t, Time>>
replayOps(Queue &q, const std::vector<DiffOp> &ops)
{
    std::vector<std::pair<std::size_t, Time>> log;
    std::vector<EventId> ids;
    std::size_t nextLabel = 0;
    // Self-scheduling callbacks: every 5th event re-arms a follow-up
    // (two at the *same* timestamp for the FIFO tie-break), so the
    // backends also agree on events scheduled mid-drain.
    std::function<void(std::size_t)> fire = [&](std::size_t label) {
        log.emplace_back(label, q.now());
        if (label % 5 == 0 && label < 1u << 20) {
            const std::size_t child = label + (1u << 20);
            q.scheduleAfter(17, [&fire, child] { fire(child); });
            q.scheduleAfter(17, [&fire, child] { fire(child + 1); });
        }
    };
    for (const DiffOp &op : ops) {
        switch (op.kind) {
        case DiffOp::Schedule: {
            const std::size_t label = nextLabel++;
            ids.push_back(
                q.scheduleAt(op.when, [&fire, label] { fire(label); }));
            break;
        }
        case DiffOp::Cancel:
            if (!ids.empty())
                q.cancel(ids[op.target % ids.size()]);
            break;
        case DiffOp::RunUntil:
            q.runUntil(op.when);
            break;
        case DiffOp::RunSome:
            for (std::size_t i = 0; i < op.target; ++i)
                q.runOne();
            break;
        }
    }
    q.runAll();
    return log;
}

void
expectBackendsAgree(const std::vector<DiffOp> &ops)
{
    EventQueue wheel;
    HeapQueue heap;
    const auto wheelLog = replayOps(wheel, ops);
    const auto heapLog = replayOps(heap, ops);
    ASSERT_EQ(wheelLog.size(), heapLog.size());
    for (std::size_t i = 0; i < wheelLog.size(); ++i) {
        ASSERT_EQ(wheelLog[i], heapLog[i]) << "divergence at event "
                                           << i;
    }
    EXPECT_EQ(wheel.executedCount(), heap.executedCount());
    EXPECT_EQ(wheel.now(), heap.now());
    EXPECT_EQ(wheel.size(), heap.size());
}

TEST(EventQueueDifferential, DenseTimers)
{
    Rng rng(101);
    std::vector<DiffOp> ops;
    for (int i = 0; i < 4000; ++i)
        ops.push_back({DiffOp::Schedule, rng() % 50000, 0});
    expectBackendsAgree(ops);
}

TEST(EventQueueDifferential, EqualTimestampBursts)
{
    Rng rng(202);
    std::vector<DiffOp> ops;
    for (int burst = 0; burst < 64; ++burst) {
        const Time when = rng() % 4096;
        for (int i = 0; i < 16; ++i)
            ops.push_back({DiffOp::Schedule, when, 0});
    }
    expectBackendsAgree(ops);
}

TEST(EventQueueDifferential, CancelHeavyChurn)
{
    Rng rng(303);
    std::vector<DiffOp> ops;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t draw = rng();
        if (draw % 3 == 0)
            ops.push_back({DiffOp::Cancel, 0, rng()});
        else
            ops.push_back({DiffOp::Schedule, draw % 100000, 0});
        if (draw % 17 == 0)
            ops.push_back({DiffOp::RunSome, 0, 3});
    }
    expectBackendsAgree(ops);
}

TEST(EventQueueDifferential, FarFutureEpochCrossings)
{
    // Timestamps beyond 2^32 ns ahead overflow the wheel into the far
    // heap; epoch pulls must preserve order across the boundary.
    Rng rng(404);
    std::vector<DiffOp> ops;
    const Time epoch = Time{1} << 32;
    for (int i = 0; i < 500; ++i) {
        const Time base = (rng() % 5) * epoch;
        ops.push_back({DiffOp::Schedule, base + rng() % 100000, 0});
    }
    for (int i = 0; i < 100; ++i)
        ops.push_back({DiffOp::Cancel, 0, rng()});
    expectBackendsAgree(ops);
}

TEST(EventQueueDifferential, CascadeBoundaries)
{
    // Exercise timestamps straddling wheel level boundaries (256,
    // 65536, 2^24 ns) where cascade re-insertion happens.
    std::vector<DiffOp> ops;
    for (const Time boundary :
         {Time{256}, Time{65536}, Time{1} << 24, Time{1} << 32}) {
        for (const Time delta : {Time{0}, Time{1}, Time{255}}) {
            for (int k = 1; k <= 3; ++k) {
                ops.push_back(
                    {DiffOp::Schedule, k * boundary - delta, 0});
                ops.push_back(
                    {DiffOp::Schedule, k * boundary + delta, 0});
            }
        }
    }
    expectBackendsAgree(ops);
}

TEST(EventQueueDifferential, RunUntilPartitions)
{
    // Drain the same workload in uneven runUntil() slices, including
    // limits that land between events and inside cascade windows.
    Rng rng(505);
    std::vector<DiffOp> ops;
    Time limit = 0;
    for (int i = 0; i < 1500; ++i) {
        ops.push_back({DiffOp::Schedule, rng() % 2000000, 0});
        if (i % 50 == 49) {
            limit += 1 + rng() % 70000;
            ops.push_back({DiffOp::RunUntil, limit, 0});
        }
    }
    expectBackendsAgree(ops);
}

TEST(EventQueueDifferential, MixedStress)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed * 0x9e3779b9ull);
        std::vector<DiffOp> ops;
        Time limit = 0;
        for (int i = 0; i < 2500; ++i) {
            switch (rng() % 8) {
            case 0:
                ops.push_back({DiffOp::Cancel, 0, rng()});
                break;
            case 1:
                limit += rng() % 300000;
                ops.push_back({DiffOp::RunUntil, limit, 0});
                break;
            case 2:
                ops.push_back({DiffOp::RunSome, 0, rng() % 4});
                break;
            default:
                // Mix near, mid, and far (epoch-crossing) horizons.
                ops.push_back(
                    {DiffOp::Schedule,
                     limit + (rng() % (Time{1} << (8 + 4 * (i % 7)))),
                     0});
                break;
            }
        }
        expectBackendsAgree(ops);
    }
}

} // namespace
