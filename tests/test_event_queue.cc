/** @file Unit tests for the discrete-event simulation core. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <random>
#include <type_traits>

#include "common/event_queue.hh"

using namespace cais;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&, i] { order.push_back(i); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleFurtherEvents)
{
    EventQueue eq;
    int hits = 0;
    std::function<void()> chain = [&] {
        ++hits;
        if (hits < 10)
            eq.scheduleAfter(5, chain);
    };
    eq.schedule(0, chain);
    eq.runAll();
    EXPECT_EQ(hits, 10);
    EXPECT_EQ(eq.now(), 45u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int hits = 0;
    for (Cycle t = 0; t < 100; t += 10)
        eq.schedule(t, [&] { ++hits; });
    std::uint64_t n = eq.runUntil(45);
    EXPECT_EQ(n, 5u);
    EXPECT_EQ(hits, 5);
    EXPECT_EQ(eq.size(), 5u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenDrained)
{
    EventQueue eq;
    eq.runUntil(1000);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, RunAllHonorsEventBudget)
{
    EventQueue eq;
    std::function<void()> forever = [&] { eq.scheduleAfter(1, forever); };
    eq.schedule(0, forever);
    std::uint64_t n = eq.runAll(1000);
    EXPECT_EQ(n, 1000u);
}

TEST(EventQueue, ResetClearsStateAndTime)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runAll();
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runAll();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

// ---------------------------------------------------------------------
// (when, seq) ordering and near-ring/far-heap boundary behavior.
// ---------------------------------------------------------------------

/** Each scheduled event's cycle, in scheduling order, and the
 *  scheduling indices in the order the events ran. */
struct RandomRun
{
    std::vector<Cycle> when;
    std::vector<std::size_t> ran;
};

static RandomRun
runRandomSchedule(unsigned seed)
{
    EventQueue eq;
    RandomRun run;
    auto at = [&](Cycle when, std::function<void()> then) {
        std::size_t idx = run.when.size();
        run.when.push_back(when);
        eq.schedule(when, [&run, idx, then = std::move(then)] {
            run.ran.push_back(idx);
            if (then)
                then();
        });
    };
    std::mt19937 rng(seed);
    // Mixed same-cycle bursts, in-window deltas, and far-heap deltas.
    std::uniform_int_distribution<Cycle> delta(0, 3 * EventQueue::nearWindow);
    for (int i = 0; i < 64; ++i)
        at(delta(rng), nullptr);
    // Self-scheduling events interleave with the static batch.
    int hops = 0;
    std::function<void()> chain = [&] {
        if (++hops < 256)
            at(eq.now() + 1 + static_cast<Cycle>(hops % 97), chain);
    };
    at(0, chain);
    eq.runAll();
    return run;
}

TEST(EventQueue, RandomScheduleRunsInWhenSeqOrder)
{
    // The contract: events run by cycle, ties in scheduling order.
    // A stable sort of the scheduling order by cycle gives exactly
    // that order, whichever of the ring or the heap held each event.
    for (unsigned seed : {1u, 2u, 42u}) {
        RandomRun run = runRandomSchedule(seed);
        std::vector<std::size_t> expected(run.when.size());
        std::iota(expected.begin(), expected.end(), std::size_t{0});
        std::stable_sort(expected.begin(), expected.end(),
                         [&](std::size_t a, std::size_t b) {
                             return run.when[a] < run.when[b];
                         });
        EXPECT_EQ(run.ran, expected) << "seed " << seed;
    }
}

TEST(EventQueue, SameCycleFifoAcrossBucketAndHeap)
{
    // Events landing on one cycle run in insertion order even when
    // some were scheduled via the near ring and some via the far
    // heap (scheduled before time advanced into the window).
    EventQueue eq;
    std::vector<int> order;
    const Cycle target = 2 * EventQueue::nearWindow;
    eq.schedule(target, [&] { order.push_back(0); });            // far heap
    eq.schedule(target - 10, [&] {                               // far heap
        eq.scheduleAfter(10, [&] { order.push_back(1); });       // near ring
        eq.schedule(target, [&] { order.push_back(2); });        // near ring
    });
    eq.schedule(target, [&] { order.push_back(3); });            // far heap
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(EventQueue, BucketWindowBoundaryCrossing)
{
    EventQueue eq;
    std::vector<Cycle> fired;
    auto hit = [&] { fired.push_back(eq.now()); };
    // Straddle the near-window edge: in-window, last in-window
    // cycle, first out-of-window cycle, and far beyond.
    eq.schedule(EventQueue::nearWindow - 1, hit);
    eq.schedule(EventQueue::nearWindow, hit);
    eq.schedule(EventQueue::nearWindow + 1, hit);
    eq.schedule(10 * EventQueue::nearWindow, hit);
    eq.runAll();
    EXPECT_EQ(fired,
              (std::vector<Cycle>{EventQueue::nearWindow - 1,
                                  EventQueue::nearWindow,
                                  EventQueue::nearWindow + 1,
                                  10 * EventQueue::nearWindow}));
}

TEST(EventQueue, RunUntilLeavesFarEventsPending)
{
    EventQueue eq;
    int near_hits = 0, far_hits = 0;
    eq.schedule(100, [&] { ++near_hits; });
    eq.schedule(5 * EventQueue::nearWindow, [&] { ++far_hits; });
    eq.runUntil(200);
    EXPECT_EQ(near_hits, 1);
    EXPECT_EQ(far_hits, 0);
    EXPECT_EQ(eq.now(), 200u);
    EXPECT_EQ(eq.size(), 1u);
    eq.runAll();
    EXPECT_EQ(far_hits, 1);
}

TEST(EventQueue, ResetReproducesTieBreaks)
{
    EventQueue eq;
    auto run = [&] {
        std::vector<int> order;
        for (int i = 0; i < 4; ++i)
            eq.schedule(5, [&order, i] { order.push_back(i); });
        eq.schedule(2 * EventQueue::nearWindow,
                    [&order] { order.push_back(99); });
        eq.runAll();
        return order;
    };
    auto first = run();
    eq.reset();
    EXPECT_EQ(eq.executed(), 0u);
    auto second = run();
    EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------
// InlineEvent: allocation-free move-only callback storage.
// ---------------------------------------------------------------------

namespace
{

/** Counts destructor runs to verify InlineEvent lifetime handling. */
struct DtorCounter
{
    int *count;
    explicit DtorCounter(int *c) : count(c) {}
    DtorCounter(DtorCounter &&o) noexcept : count(o.count)
    {
        o.count = nullptr;
    }
    DtorCounter &operator=(DtorCounter &&) = delete;
    ~DtorCounter()
    {
        if (count)
            ++*count;
    }
    void operator()() const {}
};

} // namespace

TEST(InlineEvent, InvokesStoredCallable)
{
    int hits = 0;
    InlineEvent ev([&hits] { ++hits; });
    ASSERT_TRUE(static_cast<bool>(ev));
    ev();
    EXPECT_EQ(hits, 1);
}

TEST(InlineEvent, DefaultConstructedIsEmpty)
{
    InlineEvent ev;
    EXPECT_FALSE(static_cast<bool>(ev));
}

TEST(InlineEvent, MoveTransfersCallableAndEmptiesSource)
{
    int hits = 0;
    InlineEvent a([&hits] { ++hits; });
    InlineEvent b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);
}

TEST(InlineEvent, DestroysStoredCallableExactlyOnce)
{
    int dtors = 0;
    {
        InlineEvent ev{DtorCounter(&dtors)};
        InlineEvent moved(std::move(ev));
        EXPECT_EQ(dtors, 0); // moved-from shells don't count
    }
    EXPECT_EQ(dtors, 1);
}

TEST(InlineEvent, MoveAssignDestroysPreviousCallable)
{
    int first = 0, second = 0;
    InlineEvent ev{DtorCounter(&first)};
    ev = InlineEvent{DtorCounter(&second)};
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 0);
    ev = InlineEvent();
    EXPECT_EQ(second, 1);
}

TEST(InlineEvent, HoldsPacketSizedCaptureInline)
{
    // The whole point: a capture the size of a Packet plus routing
    // context must fit the inline buffer (compile-time checked by
    // the static_asserts in InlineEvent; exercised here at runtime).
    struct Big
    {
        unsigned char blob[96];
    } big = {};
    big.blob[95] = 7;
    int out = 0;
    InlineEvent ev([big, &out] { out = big.blob[95]; });
    ev();
    EXPECT_EQ(out, 7);
}

TEST(InlineEvent, TriviallyCopyableCaptureMovesByValue)
{
    struct Blob
    {
        unsigned char bytes[100];
    } blob = {};
    blob.bytes[0] = 3;
    blob.bytes[99] = 9;
    int out = 0;
    auto fn = [blob, &out] { out = blob.bytes[0] * blob.bytes[99]; };
    static_assert(std::is_trivially_copyable_v<decltype(fn)>);
    InlineEvent a(fn);
    InlineEvent b(std::move(a));
    InlineEvent c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(out, 27);
}

TEST(EventQueue, InPlaceCaptureDestroyedOnceWhenRun)
{
    EventQueue eq;
    int dtors = 0;
    int runs = 0;
    eq.schedule(5, [d = DtorCounter(&dtors), &runs] { ++runs; });
    eq.scheduleAfter(7, [d = DtorCounter(&dtors), &runs] { ++runs; });
    // The argument temporaries are moved-from shells.
    EXPECT_EQ(dtors, 0);
    eq.runAll();
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(dtors, 2);
}

TEST(EventQueue, ResetDestroysUnrunCapturesOnce)
{
    EventQueue eq;
    int dtors = 0;
    bool ran = false;
    eq.schedule(3, [d = DtorCounter(&dtors), &ran] { ran = true; });
    // Far enough out to take the far-future heap.
    eq.schedule(EventQueue::nearWindow * 3,
                [d = DtorCounter(&dtors), &ran] { ran = true; });
    eq.reset();
    EXPECT_FALSE(ran);
    EXPECT_EQ(dtors, 2);
    EXPECT_TRUE(eq.empty());
}
