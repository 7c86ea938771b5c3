/**
 * @file
 * Cross-shard mailbox plumbing: the lock-free SPSC ring, the Mailbox
 * growth (spill) layer on top of it, and the ShardSet barrier drain's
 * deterministic delivery order. These are the primitives the parallel
 * kernel's bit-identity contract rests on (docs/parallelism.md).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/shard.hpp"
#include "sim/spsc.hpp"

namespace smtp
{
namespace
{

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
    EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
    EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
    EXPECT_EQ(SpscRing<int>(256).capacity(), 256u);
    EXPECT_EQ(SpscRing<int>(300).capacity(), 512u);
}

TEST(SpscRing, FifoAndBackpressure)
{
    SpscRing<int> ring(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(99)) << "full ring must report back-pressure";
    EXPECT_EQ(ring.size(), 4u);
    int v = -1;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.tryPop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(ring.tryPop(v));
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, WrapAroundManyTimes)
{
    // Push/pop far past the capacity so head/tail wrap the index mask
    // repeatedly; FIFO order must survive every wrap.
    SpscRing<int> ring(8);
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 100; ++round) {
        while (ring.tryPush(next_in))
            ++next_in;
        int v;
        while (ring.tryPop(v)) {
            EXPECT_EQ(v, next_out);
            ++next_out;
        }
    }
    EXPECT_EQ(next_in, next_out);
    EXPECT_GT(next_out, 700) << "must have cycled the ring many times";
}

TEST(SpscRing, ConcurrentProducerConsumer)
{
    // One producer, one consumer, no locks: every value arrives exactly
    // once, in order. (Run under TSan in CI this also proves the
    // acquire/release protocol.)
    SpscRing<std::uint64_t> ring(64);
    constexpr std::uint64_t kCount = 200000;
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kCount;) {
            if (ring.tryPush(i))
                ++i;
            else
                std::this_thread::yield();
        }
    });
    std::uint64_t expect = 0;
    while (expect < kCount) {
        std::uint64_t v;
        if (ring.tryPop(v)) {
            ASSERT_EQ(v, expect);
            ++expect;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

CrossEvent
ev(Tick due, Tick send_tick, std::uint64_t seq)
{
    CrossEvent e;
    e.due = due;
    e.sendTick = send_tick;
    e.srcSeq = seq;
    e.cb = [] {};
    return e;
}

TEST(Mailbox, SpillGrowthKeepsFifoOrder)
{
    // Push well past the 256-entry ring: overflow diverts to the spill
    // vector, and a drain must replay ring-then-spill — exactly push
    // order, because the consumer only drains between windows.
    Mailbox box;
    constexpr unsigned kTotal = 700;
    for (unsigned i = 0; i < kTotal; ++i)
        box.push(ev(i, i, i));
    EXPECT_EQ(box.size(), kTotal);
    EXPECT_GT(box.spills(), 0u) << "must have overflowed the ring";
    EXPECT_EQ(box.spills(), kTotal - 256);

    std::vector<Tick> seen;
    box.drain([&](CrossEvent e) { seen.push_back(e.due); });
    ASSERT_EQ(seen.size(), kTotal);
    for (unsigned i = 0; i < kTotal; ++i)
        EXPECT_EQ(seen[i], i);
    EXPECT_TRUE(box.empty());
    EXPECT_EQ(box.spills(), kTotal - 256)
        << "spill counter is cumulative telemetry, not occupancy";
}

TEST(Mailbox, ForEachInspectsWithoutConsuming)
{
    Mailbox box;
    for (unsigned i = 0; i < 300; ++i)
        box.push(ev(i, i, i));
    unsigned count = 0;
    Tick expect = 0;
    box.forEach([&](const CrossEvent &e) {
        EXPECT_EQ(e.due, expect++);
        ++count;
    });
    EXPECT_EQ(count, 300u);
    EXPECT_EQ(box.size(), 300u) << "forEach must not consume";
}

TEST(ShardSet, LocalAndBarrierSchedulingBypassMailboxes)
{
    ShardSet set(2);
    int ran = 0;
    // Barrier phase (no bound shard): direct scheduling.
    set.schedule(1, 10, [&] { ++ran; });
    EXPECT_TRUE(set.mailboxesEmpty());
    // Same-shard scheduling from a bound context: also direct.
    ShardSet::setCurrent(&set, 0);
    set.schedule(0, 10, [&] { ++ran; });
    ShardSet::setCurrent(nullptr, ShardSet::noShard);
    EXPECT_TRUE(set.mailboxesEmpty());
    set.queue(0).run(10);
    set.queue(1).run(10);
    EXPECT_EQ(ran, 2);
}

TEST(ShardSet, CrossShardDrainOrderIsDeterministic)
{
    // Two producer shards post to shard 2 in interleaved order; the
    // barrier drain must deliver sorted by (due, sendTick, src, seq),
    // independent of push interleaving — that ordering is what makes
    // destination-queue sequence numbers host-thread invariant.
    ShardSet set(3);
    std::vector<int> order;
    auto post = [&](unsigned src, Tick due, int tag) {
        ShardSet::setCurrent(&set, src);
        set.schedule(2, due, [&order, tag] { order.push_back(tag); });
        ShardSet::setCurrent(nullptr, ShardSet::noShard);
    };
    post(1, 200, 3); // later due
    post(0, 100, 1); // same due as next, lower src wins
    post(1, 100, 2);
    post(0, 300, 4);
    EXPECT_FALSE(set.mailboxesEmpty());
    EXPECT_EQ(set.minPendingTick(), maxTick)
        << "mailboxed events are not pending queue events yet";
    set.drainMailboxes();
    EXPECT_TRUE(set.mailboxesEmpty());
    EXPECT_EQ(set.minPendingTick(), 100u);
    set.queue(2).run(300);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ShardSet, SingleShardWrapperDegeneratesToPlainQueue)
{
    EventQueue eq;
    ShardSet set(eq);
    EXPECT_EQ(set.count(), 1u);
    int ran = 0;
    ShardSet::setCurrent(&set, 0);
    set.schedule(0, 5, [&] { ++ran; });
    ShardSet::setCurrent(nullptr, ShardSet::noShard);
    EXPECT_TRUE(set.mailboxesEmpty());
    eq.run(5);
    EXPECT_EQ(ran, 1);
}

} // namespace
} // namespace smtp
