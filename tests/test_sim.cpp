/**
 * @file
 * Unit tests for the simulation kernel: event ordering, clock domains,
 * and the stats primitives.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/eventq.hpp"
#include "sim/stats.hpp"
#include "snap/snap.hpp"

namespace smtp
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBeatsInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); }, EventQueue::prioLate);
    eq.schedule(5, [&] { order.push_back(2); }, EventQueue::prioDefault);
    eq.schedule(5, [&] { order.push_back(3); }, EventQueue::prioEarly);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 15u);
}

TEST(EventQueue, RunWithLimitStopsAndAdvances)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_EQ(eq.nextTick(), 100u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

TEST(ClockDomain, PaperFrequencies)
{
    ClockDomain cpu2(2000);
    EXPECT_EQ(cpu2.period(), 500u); // 2 GHz -> 500 ps
    ClockDomain cpu4(4000);
    EXPECT_EQ(cpu4.period(), 250u);
    ClockDomain mc(400);
    EXPECT_EQ(mc.period(), 2500u); // 400 MHz
    ClockDomain half(1000);
    EXPECT_EQ(half.period(), 1000u);
}

TEST(ClockDomain, EdgeComputation)
{
    ClockDomain c(2000); // 500 ps
    EXPECT_EQ(c.nextEdge(0), 0u);
    EXPECT_EQ(c.nextEdge(1), 500u);
    EXPECT_EQ(c.nextEdge(500), 500u);
    EXPECT_EQ(c.edgeAfter(0), 500u);
    EXPECT_EQ(c.edgeAfter(499), 500u);
    EXPECT_EQ(c.edgeAfter(500), 1000u);
    EXPECT_EQ(c.cyclesToTicks(7), 3500u);
    EXPECT_EQ(c.ticksToCycles(3500), 7u);
}

TEST(Stats, CounterAndDistribution)
{
    Counter c;
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);

    Distribution d;
    EXPECT_EQ(d.mean(), 0.0);
    d.sample(2.0);
    d.sample(4.0);
    d.sample(6.0);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 6.0);
    EXPECT_EQ(d.samples(), 3u);
    d.sample(10.0, 2);
    EXPECT_EQ(d.samples(), 5u);
    EXPECT_DOUBLE_EQ(d.mean(), 32.0 / 5.0);
}

TEST(Stats, PeakTracker)
{
    PeakTracker p;
    EXPECT_EQ(p.peak(), 0u);
    p.observe(3);
    p.observe(7);
    p.observe(5);
    EXPECT_EQ(p.peak(), 7u);
}

TEST(Stats, DistributionHistogramPercentiles)
{
    Distribution d;
    EXPECT_FALSE(d.histogramEnabled());
    EXPECT_EQ(d.percentile(50.0), 0.0); // no histogram attached

    d.enableHistogram(0.0, 100.0, 10);
    EXPECT_TRUE(d.histogramEnabled());
    EXPECT_EQ(d.percentile(50.0), 0.0); // no samples yet

    for (int i = 1; i <= 100; ++i)
        d.sample(static_cast<double>(i) - 0.5); // 10 per bucket
    EXPECT_EQ(d.samples(), 100u);
    // p50 lands exactly on the 50th sample = last of bucket [40,50).
    EXPECT_DOUBLE_EQ(d.percentile(50.0), 50.0);
    // Last bucket's edge (100) clamps to the observed max of 99.5.
    EXPECT_DOUBLE_EQ(d.percentile(95.0), 99.5);
    EXPECT_DOUBLE_EQ(d.percentile(99.0), 99.5);
    // Conservative: the estimate is the bucket's upper edge.
    EXPECT_DOUBLE_EQ(d.percentile(41.0), 50.0);
    // p0 still resolves to the first non-empty bucket's edge.
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 10.0);

    // Boundary: values at lo land in the first bucket, values at hi in
    // the overflow bucket; overflow percentiles clamp to max().
    Distribution e;
    e.enableHistogram(0.0, 10.0, 10);
    e.sample(0.0);
    e.sample(10.0);
    e.sample(25.0);
    ASSERT_EQ(e.histogram().size(), 12u);
    EXPECT_EQ(e.histogram().front(), 0u);  // underflow empty
    EXPECT_EQ(e.histogram()[1], 1u);       // [0,1) holds the 0.0
    EXPECT_EQ(e.histogram().back(), 2u);   // 10.0 and 25.0 overflow
    EXPECT_DOUBLE_EQ(e.percentile(99.0), 25.0);

    // Underflow resolves to min().
    Distribution u;
    u.enableHistogram(10.0, 20.0, 5);
    u.sample(-3.0);
    EXPECT_EQ(u.histogram().front(), 1u);
    EXPECT_DOUBLE_EQ(u.percentile(50.0), -3.0);

    // reset() clears counts but keeps the bucket configuration.
    e.reset();
    EXPECT_TRUE(e.histogramEnabled());
    EXPECT_EQ(e.samples(), 0u);
    e.sample(5.0);
    EXPECT_EQ(e.histogram()[6], 1u); // [5,6)
}

TEST(Stats, PercentileClampsOnThinSamples)
{
    // A tail percentile of a thin sample must resolve to the last
    // occupied bucket, never run off the histogram or report an empty
    // edge beyond the observed max — p99 of 10 requests is a real
    // latency, not a bucket boundary no request ever hit.
    Distribution d;
    d.enableHistogram(0.0, 100.0, 10);
    for (int i = 0; i < 10; ++i)
        d.sample(static_cast<double>(i) * 10.0 + 5.0); // one per bucket
    EXPECT_DOUBLE_EQ(d.percentile(99.0), d.max());
    EXPECT_DOUBLE_EQ(d.percentile(99.0), 95.0);
    EXPECT_DOUBLE_EQ(d.percentile(100.0), 95.0);

    // Out-of-range p clamps to [0, 100] instead of misbehaving.
    EXPECT_DOUBLE_EQ(d.percentile(250.0), d.percentile(100.0));
    EXPECT_DOUBLE_EQ(d.percentile(-5.0), d.percentile(0.0));

    // The degenerate single-sample case: every percentile is that one
    // observation (clamped into [min, max] == the sample itself).
    Distribution one;
    one.enableHistogram(0.0, 100.0, 10);
    one.sample(42.0);
    EXPECT_DOUBLE_EQ(one.percentile(50.0), 42.0);
    EXPECT_DOUBLE_EQ(one.percentile(99.0), 42.0);
}

TEST(Stats, GroupDumpSortedByName)
{
    StatGroup g("grp");
    Counter zeta, alpha;
    Distribution midDist;
    PeakTracker beta;
    zeta += 1;
    alpha += 2;
    g.add("zeta", &zeta);
    g.add("alpha", &alpha);
    g.add("mid", &midDist);
    g.add("beta", &beta);
    StatGroup childB("node1"), childA("node0");
    g.addChild(&childB);
    g.addChild(&childA);
    std::ostringstream os;
    g.dump(os);
    auto text = os.str();
    // Registration order was zeta, alpha — the dump must be sorted.
    EXPECT_LT(text.find("alpha"), text.find("zeta"));
    EXPECT_LT(text.find("node0"), text.find("node1"));
    // Kinds keep their sections (counters, dists, peaks), each sorted.
    EXPECT_LT(text.find("zeta"), text.find("mid"));
    EXPECT_LT(text.find("mid"), text.find("beta"));
}

TEST(Stats, GroupDumpIsHierarchical)
{
    StatGroup root("machine");
    StatGroup child("node0");
    Counter c;
    c += 3;
    root.addChild(&child);
    child.add("misses", &c);
    std::ostringstream os;
    root.dump(os);
    auto text = os.str();
    EXPECT_NE(text.find("machine"), std::string::npos);
    EXPECT_NE(text.find("node0"), std::string::npos);
    EXPECT_NE(text.find("misses = 3"), std::string::npos);
}

// ------------------------------------------------------ InlineCallback

TEST(InlineCallback, EmptyAndBool)
{
    InlineCallback cb;
    EXPECT_FALSE(static_cast<bool>(cb));
    cb = [] {};
    EXPECT_TRUE(static_cast<bool>(cb));
    cb = InlineCallback();
    EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, SmallCapturesStayInline)
{
    // The capture shapes the schedulers actually use must stay on the
    // no-allocation fast path.
    int x = 0;
    auto by_ref = [&x] { ++x; };
    auto three_ptrs = [p1 = &x, p2 = &x, p3 = &x] { ++*p1; };
    auto ptr_and_ints =
        [p = &x, a = std::uint64_t{1}, b = std::uint64_t{2},
         c = std::uint64_t{3}] { *p += static_cast<int>(a + b + c); };
    static_assert(InlineCallback::storesInline<decltype(by_ref)>);
    static_assert(InlineCallback::storesInline<decltype(three_ptrs)>);
    static_assert(InlineCallback::storesInline<decltype(ptr_and_ints)>);

    InlineCallback cb(by_ref);
    cb();
    EXPECT_EQ(x, 1);
    InlineCallback copy = cb;
    copy();
    EXPECT_EQ(x, 2);
    InlineCallback moved = std::move(copy);
    moved();
    EXPECT_EQ(x, 3);
}

TEST(InlineCallback, LargeCapturesFallBackToHeap)
{
    std::array<std::uint64_t, 16> big{};
    big[15] = 7;
    int sink = 0;
    auto fat = [big, &sink] { sink += static_cast<int>(big[15]); };
    static_assert(!InlineCallback::storesInline<decltype(fat)>);

    InlineCallback cb(fat);
    cb();
    EXPECT_EQ(sink, 7);
    InlineCallback copy = cb; // Deep copy: both remain invocable.
    InlineCallback moved = std::move(cb);
    copy();
    moved();
    EXPECT_EQ(sink, 21);
}

TEST(InlineCallback, HoldsStdFunctionTransparently)
{
    int hits = 0;
    std::function<void()> fn = [&hits] { ++hits; };
    InlineCallback cb(fn);
    cb();
    cb();
    EXPECT_EQ(hits, 2);
}

// ------------------------------------------------ event order oracle

/**
 * Drive the queue through a deterministic pseudo-random schedule mixing
 * near/far deltas, same-tick bursts, all three priorities, and events
 * scheduling events. Every callback records the (when, prio, seq) key
 * it was scheduled with; seq mirrors the queue's insertion counter
 * (one per schedule call), so the executed keys must be strictly
 * increasing under that order.
 */
TEST(EventQueueKernels, RunsInWhenPrioSeqOrder)
{
    using Key = std::tuple<Tick, int, std::uint64_t>;
    EventQueue eq;
    std::vector<Key> ran;
    std::uint64_t seq = 0;
    std::mt19937_64 rng(0xC0FFEE);

    constexpr EventQueue::Priority prios[] = {
        EventQueue::prioEarly, EventQueue::prioDefault,
        EventQueue::prioLate};

    std::function<void(Tick, EventQueue::Priority, Tick)> at;
    at = [&](Tick when, EventQueue::Priority prio, Tick chain) {
        Key key{when, prio, seq++};
        eq.schedule(
            when,
            [&, key, chain] {
                EXPECT_EQ(eq.curTick(), std::get<0>(key));
                ran.push_back(key);
                // Near events schedule follow-ups themselves.
                if (chain != 0)
                    at(eq.curTick() + chain, EventQueue::prioDefault, 0);
            },
            prio);
    };

    for (int round = 0; round < 200; ++round) {
        // A burst of same-tick events at mixed priorities.
        Tick burst = eq.curTick() + rng() % 64;
        for (int i = 0; i < 4; ++i)
            at(burst, prios[rng() % 3], 0);
        // Near events ...
        for (int i = 0; i < 8; ++i) {
            Tick d = rng() % 5000;
            at(eq.curTick() + d, EventQueue::prioDefault, d / 2 + 1);
        }
        // ... and far events, millions of ticks out.
        for (int i = 0; i < 2; ++i) {
            at(eq.curTick() + (1u << 20) + rng() % (1u << 22),
               prios[rng() % 3], 0);
        }
        // Drain a bounded stretch so scheduling interleaves with
        // execution.
        eq.run(eq.curTick() + 10000);
    }
    eq.run();

    EXPECT_EQ(ran.size(), seq);
    EXPECT_EQ(eq.executedCount(), seq);
    for (std::size_t i = 1; i < ran.size(); ++i)
        ASSERT_LT(ran[i - 1], ran[i]) << "out of order at event " << i;
}

TEST(EventQueueKernels, ScheduleBehindAdvancedCursor)
{
    // run(limit) advances curTick past empty stretches; events then
    // scheduled near curTick must still run in tick order.
    EventQueue eq;
    std::vector<int> order;
    eq.run(100000);
    EXPECT_EQ(eq.curTick(), 100000u);
    eq.schedule(100001, [&order] { order.push_back(1); });
    eq.schedule(100002, [&order] { order.push_back(2); });
    eq.schedule(200000, [&order] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueKernels, NextTickTracksEarliestEvent)
{
    EventQueue eq;
    eq.schedule(700, [] {});
    eq.schedule(50, [] {});
    eq.schedule(1u << 24, [] {});
    EXPECT_EQ(eq.nextTick(), 50u);
    eq.run(60);
    EXPECT_EQ(eq.nextTick(), 700u);
    eq.run(1000);
    EXPECT_EQ(eq.nextTick(), Tick{1} << 24);
    eq.run();
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_EQ(eq.executedCount(), 3u);
}

TEST(EventQueueMark, RunsAfterPriorEventsAndBeforeSameTickOnes)
{
    // The mark sits after every event queued before the tick began and
    // before every one queued during it, wherever in the tick it is
    // taken: the zero-delay event below is queued first but runs last.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(1);
        eq.scheduleIn(0, [&] { order.push_back(4); });
        eq.scheduleAtMark([&] { order.push_back(3); });
    });
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(10, [&] { order.push_back(5); }, EventQueue::prioLate);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueueMark, BoundedRunTakesTheNextTicksMark)
{
    // run(limit) takes tick limit+1's mark before it returns, so an
    // event marked from the barrier phase runs before everything
    // inserted after the return (mailbox drains, refill pokes).
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(11, [&] { order.push_back(1); });
    eq.run(10);
    eq.schedule(11, [&] { order.push_back(3); });
    eq.scheduleAtMark([&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueMark, SlicedRunNumbersEventsLikeAnUninterruptedOne)
{
    // Marks use no sequence number: stopping at run(limit) and resuming
    // leaves the queue byte-identical to an uninterrupted run. The
    // pending null entries carry their sequence numbers into the image.
    auto drive = [](EventQueue &eq, std::vector<Tick> stops) {
        for (Tick t = 5; t < 60; t += 9) {
            eq.schedule(t, [&eq] {
                eq.scheduleIn(3, [] {});
                eq.scheduleIn(1000, EventQueue::Callback{});
            });
        }
        eq.schedule(30, [&eq] { eq.scheduleAtMark([] {}); });
        for (Tick stop : stops)
            eq.run(stop);
        snap::Ser out;
        eq.io(out);
        return out.buffer();
    };
    EventQueue whole, sliced;
    auto a = drive(whole, {500});
    auto b = drive(sliced, {12, 13, 29, 30, 31, 500});
    EXPECT_EQ(whole.executedCount(), sliced.executedCount());
    EXPECT_EQ(a, b);
}

/** A snappable event that appends its tag to a shared log. */
struct TagEv
{
    static constexpr std::uint32_t kSnapId = 0x7e57;
    static inline std::vector<std::uint32_t> *log = nullptr;
    std::uint32_t tag = 0;

    void operator()() const { log->push_back(tag); }

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u32(tag);
    }
};

TEST(EventQueueMark, MarksTakenInOneTickRunInTheOrderTaken)
{
    // Every event that takes one tick's mark shares its (when, prio,
    // seq) key; they must run in the order they took it, whatever the
    // heap layout, from inside the tick and from a barrier phase, and
    // across a save and restore.
    std::vector<std::uint32_t> ran;
    TagEv::log = &ran;
    constexpr std::uint32_t marks = 19;
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < marks; ++i)
        want.push_back(i);

    EventQueue eq;
    for (std::uint32_t i = 0; i < marks; ++i)
        eq.schedule(10, [&eq, i] { eq.scheduleAtMark(TagEv{i}); });
    eq.run();
    EXPECT_EQ(ran, want);

    ran.clear();
    EventQueue before;
    before.schedule(25, TagEv{100});
    before.run(20);
    for (std::uint32_t i = 0; i < marks; ++i)
        before.scheduleAtMark(TagEv{i});
    before.schedule(21, TagEv{200});
    snap::Ser out;
    before.io(out);

    snap::EventCodec codec;
    codec.add<TagEv>();
    snap::Des in(out.buffer());
    in.setCodec(&codec);
    EventQueue after;
    after.io(in);
    ASSERT_TRUE(in.ok()) << in.error();
    after.run();
    want.push_back(200);
    want.push_back(100);
    EXPECT_EQ(ran, want);

    ran.clear();
    before.run();
    EXPECT_EQ(ran, want);
    TagEv::log = nullptr;
}

/**
 * One seeded schedule of near, far and same-tick events at all three
 * priorities, marks included, in which events (for later ticks) and the
 * driver (between bounded runs, like a barrier phase) make
 * reservations. With `twins` each reservation schedules a real event
 * instead. Every event body, runOne() step and bounded run() logs which
 * reservations count as done: the twins that have run, or the keys
 * passed() covers. Both modes must log the same lines.
 */
struct ReserveDriver
{
    explicit ReserveDriver(bool t) : twins(t) {}

    EventQueue eq;
    bool twins;
    std::vector<std::pair<Tick, std::uint64_t>> keys; ///< Reservations.
    std::vector<bool> ran;                            ///< Twins run.
    std::vector<std::string> log;
    std::mt19937_64 rng{0x5EED};
    unsigned pending = 0; ///< Regular events not yet run.
    bool twinRan = false;

    void
    note(char where)
    {
        std::string line(1, where);
        std::size_t n = twins ? ran.size() : keys.size();
        for (std::size_t i = 0; i < n; ++i) {
            bool done = twins ? ran[i]
                              : eq.passed(keys[i].first, keys[i].second);
            line += done ? '1' : '0';
        }
        log.push_back(line);
    }

    void
    reserve(Tick when)
    {
        if (!twins) {
            keys.emplace_back(when, eq.reserveOrd());
            return;
        }
        std::size_t id = ran.size();
        ran.push_back(false);
        eq.schedule(when, [this, id] {
            ran[id] = true;
            twinRan = true;
        });
    }

    void
    event(Tick when, EventQueue::Priority prio, int depth, bool mark = false)
    {
        ++pending;
        auto body = [this, depth] {
            --pending;
            note('e');
            std::uint64_t r = rng();
            if (depth == 0)
                return;
            // Events reserve for later ticks only, as the CPU does (a
            // completion is due a cycle out at the earliest).
            reserve(eq.curTick() + 1 + (r >> 8) % 4000);
            if (r % 5 == 0)
                reserve(eq.curTick() + 1);
            event(eq.curTick() + r % 3, EventQueue::prioDefault, depth - 1,
                  r % 7 == 0);
        };
        if (mark)
            eq.scheduleAtMark(body);
        else
            eq.schedule(when, body, prio);
    }

    /** runOne() until a regular event has run. */
    void
    step()
    {
        do {
            twinRan = false;
            eq.runOne();
        } while (twinRan);
        note('o');
    }

    void
    drive()
    {
        constexpr EventQueue::Priority prios[] = {
            EventQueue::prioEarly, EventQueue::prioDefault,
            EventQueue::prioLate};
        for (int round = 0; round < 150; ++round) {
            eq.run(eq.curTick() + 2000 + rng() % 8000);
            note('r');
            // Between a bounded run and the next runOne(), like a
            // barrier phase: the current tick's keys are all passed.
            Tick now = eq.curTick();
            Tick burst = now + rng() % 64;
            for (int i = 0; i < 3; ++i)
                event(burst, prios[rng() % 3], 2);
            reserve(burst);
            for (int i = 0; i < 4; ++i)
                event(now + rng() % 5000, EventQueue::prioDefault, 3);
            reserve(now + (1u << 20) + rng() % (1u << 22));
            event(now + (1u << 20) + rng() % (1u << 22), prios[rng() % 3],
                  0);
            event(0, EventQueue::prioDefault, 1, true);
            for (int i = 0; i < 3 && pending > 0; ++i)
                step();
        }
    }
};

TEST(EventQueueReserve, PassedFlipsExactlyWhenTheTwinRuns)
{
    ReserveDriver reserved(false), twinned(true);
    reserved.drive();
    twinned.drive();
    ASSERT_EQ(reserved.keys.size(), twinned.ran.size());
    ASSERT_GT(reserved.keys.size(), 1000u);
    ASSERT_EQ(reserved.log.size(), twinned.log.size());
    for (std::size_t i = 0; i < reserved.log.size(); ++i)
        ASSERT_EQ(reserved.log[i], twinned.log[i]) << "at line " << i;
    // Each reservation used up exactly the number its twin took.
    EXPECT_EQ(reserved.eq.reserveOrd(), twinned.eq.reserveOrd());
}

TEST(EventQueueReserve, ReservationsSurviveSaveAndRestore)
{
    // After a bounded run the queue stands at (limit, infinity); a
    // restored queue stands at (curTick, infinity), so it agrees with
    // the saved one on every reservation and keeps numbering from
    // where it stopped. The twin queue shows where each event ran.
    std::vector<std::uint32_t> ran;
    TagEv::log = &ran;
    EventQueue reserved, twinned;
    std::vector<std::pair<Tick, std::uint64_t>> keys;
    for (Tick when : {20, 35, 40}) {
        reserved.schedule(when - 5, TagEv{9});
        twinned.schedule(when - 5, TagEv{0});
        keys.emplace_back(when, reserved.reserveOrd());
        twinned.schedule(when, TagEv{static_cast<std::uint32_t>(when)});
    }
    reserved.run(35);
    twinned.run(35);
    snap::Ser out;
    reserved.io(out);
    snap::EventCodec codec;
    codec.add<TagEv>();
    snap::Des in(out.buffer());
    in.setCodec(&codec);
    EventQueue restored;
    restored.io(in);
    ASSERT_TRUE(in.ok()) << in.error();
    EXPECT_EQ(ran, (std::vector<std::uint32_t>{9, 9, 9, 0, 20, 0, 35, 0}));
    for (const EventQueue *q : {&reserved, &restored}) {
        EXPECT_TRUE(q->passed(keys[0].first, keys[0].second));
        EXPECT_TRUE(q->passed(keys[1].first, keys[1].second));
        EXPECT_FALSE(q->passed(keys[2].first, keys[2].second));
        EXPECT_TRUE(q->issued(EventQueue::seqOf(keys[2].second)));
    }
    restored.run(39);
    twinned.run(39);
    EXPECT_FALSE(restored.passed(keys[2].first, keys[2].second));
    restored.run(40);
    twinned.run(40);
    EXPECT_TRUE(restored.passed(keys[2].first, keys[2].second));
    EXPECT_EQ(ran.back(), 40u);
    EXPECT_EQ(restored.reserveOrd(), reserved.reserveOrd());
    TagEv::log = nullptr;
}

TEST(EventQueueSlab, CallbackSchedulingChunksOfEventsKeepsItsCaptures)
{
    // A running callback stays in its slab slot while it schedules more
    // events than one slab chunk holds, so its captures are intact when
    // it reads them afterwards.
    EventQueue eq;
    std::vector<std::uint64_t> ran;
    std::uint64_t seen = 0;
    std::array<std::uint64_t, 4> tags = {3, 1, 4, 1};
    auto fanOut = [&eq, &ran, &seen, tags] {
        for (std::uint64_t i = 0; i < 1000; ++i)
            eq.scheduleIn(i % 3, [&ran, i] { ran.push_back(i); });
        for (std::uint64_t t : tags)
            seen = seen * 10 + t;
    };
    static_assert(InlineCallback::storesInline<decltype(fanOut)>);
    eq.schedule(1, fanOut);
    eq.run();
    EXPECT_EQ(seen, 3141u);
    ASSERT_EQ(ran.size(), 1000u);
    // Tick order first, then scheduling order within a tick.
    std::vector<std::uint64_t> want;
    for (std::uint64_t d = 0; d < 3; ++d) {
        for (std::uint64_t i = d; i < 1000; i += 3)
            want.push_back(i);
    }
    EXPECT_EQ(ran, want);
    EXPECT_EQ(eq.executedCount(), 1001u);
}

} // namespace
} // namespace smtp
