/**
 * @file
 * End-to-end coherence protocol tests on complete multi-node machines:
 * every stable-state transition, the three-hop intervention paths,
 * invalidation/ack collection, upgrades, writebacks, NAK/retry, and a
 * seeded randomized stress test that checks the global SWMR and
 * directory-consistency invariants after quiescence.
 */

#include <gtest/gtest.h>

#include "proto_harness.hpp"

#include "common/rng.hpp"

namespace smtp::testing
{
namespace
{

using proto::DirState;
using proto::MsgType;

class ProtoSystemTest : public ::testing::Test
{
  protected:
    ProtoMachine m;

    int completions = 0;

    std::function<void()>
    counter()
    {
        return [this] { ++completions; };
    }
};

TEST_F(ProtoSystemTest, LocalReadMissGetsEagerExclusive)
{
    Addr a = m.addrAt(0);
    m.issue(0, MemCmd::Load, a, counter());
    m.settle();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(m.nodes[0]->cache->l2State(a), LineState::Ex);
    auto e = m.dirEntryOf(a);
    EXPECT_EQ(m.fmt.state(e), proto::dirExclusive);
    EXPECT_EQ(m.fmt.owner(e), 0);
    m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, RemoteReadMiss)
{
    Addr a = m.addrAt(0); // homed at node 0
    m.issue(1, MemCmd::Load, a, counter());
    m.settle();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(m.nodes[1]->cache->l2State(a), LineState::Ex) << "eager";
    auto e = m.dirEntryOf(a);
    EXPECT_EQ(m.fmt.state(e), proto::dirExclusive);
    EXPECT_EQ(m.fmt.owner(e), 1);
    m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, SecondReaderTriggersSharingIntervention)
{
    Addr a = m.addrAt(0);
    m.issue(1, MemCmd::Load, a, counter());
    m.settle();
    m.issue(2, MemCmd::Load, a, counter());
    m.settle();
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(m.nodes[1]->cache->l2State(a), LineState::Sh);
    EXPECT_EQ(m.nodes[2]->cache->l2State(a), LineState::Sh);
    auto e = m.dirEntryOf(a);
    EXPECT_EQ(m.fmt.state(e), proto::dirShared);
    EXPECT_EQ(m.fmt.vector(e), (1u << 1) | (1u << 2));
    m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, DirtyRemoteReadForwardsThreeHop)
{
    Addr a = m.addrAt(0);
    m.issue(1, MemCmd::Store, a, counter());
    m.settle();
    ASSERT_EQ(m.nodes[1]->cache->l2State(a), LineState::Mod);

    m.issue(2, MemCmd::Load, a, counter());
    m.settle();
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(m.nodes[1]->cache->l2State(a), LineState::Sh)
        << "owner downgraded by the sharing intervention";
    EXPECT_EQ(m.nodes[2]->cache->l2State(a), LineState::Sh);
    m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, WriteInvalidatesAllSharers)
{
    Addr a = m.addrAt(3);
    for (NodeId n = 0; n < 3; ++n)
        m.issue(n, MemCmd::Load, a, counter());
    m.settle();
    // Make sure they are all genuine sharers (eager-exclusive resolves
    // through interventions on the 2nd/3rd read).
    m.issue(3, MemCmd::Store, a, counter());
    m.settle();
    EXPECT_EQ(completions, 4);
    EXPECT_EQ(m.nodes[3]->cache->l2State(a), LineState::Mod);
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_EQ(m.nodes[n]->cache->l2State(a), LineState::Inv)
            << "sharer " << unsigned(n) << " survived invalidation";
    auto e = m.dirEntryOf(a);
    EXPECT_EQ(m.fmt.state(e), proto::dirExclusive);
    EXPECT_EQ(m.fmt.owner(e), 3);
    m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, StoreOnSharedLineUpgrades)
{
    Addr a = m.addrAt(0);
    m.issue(1, MemCmd::Load, a, counter());
    m.settle();
    m.issue(2, MemCmd::Load, a, counter());
    m.settle();
    ASSERT_EQ(m.nodes[1]->cache->l2State(a), LineState::Sh);

    auto upgrades_before = m.nodes[1]->cache->upgradesIssued.value();
    m.issue(1, MemCmd::Store, a, counter());
    m.settle();
    EXPECT_EQ(m.nodes[1]->cache->upgradesIssued.value(),
              upgrades_before + 1);
    EXPECT_EQ(m.nodes[1]->cache->l2State(a), LineState::Mod);
    EXPECT_EQ(m.nodes[2]->cache->l2State(a), LineState::Inv);
    m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, WriteMigration)
{
    Addr a = m.addrAt(2);
    m.issue(0, MemCmd::Store, a, counter());
    m.settle();
    m.issue(1, MemCmd::Store, a, counter());
    m.settle();
    m.issue(3, MemCmd::Store, a, counter());
    m.settle();
    EXPECT_EQ(completions, 3);
    EXPECT_EQ(m.nodes[0]->cache->l2State(a), LineState::Inv);
    EXPECT_EQ(m.nodes[1]->cache->l2State(a), LineState::Inv);
    EXPECT_EQ(m.nodes[3]->cache->l2State(a), LineState::Mod);
    auto e = m.dirEntryOf(a);
    EXPECT_EQ(m.fmt.owner(e), 3);
    m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, DirtyEvictionWritesBackToRemoteHome)
{
    // Node 1 dirties lines homed at node 0 until one is evicted.
    // L2 = 16 KB, 16 sets: lines 2 KB apart collide in a set.
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 9; ++i)
        addrs.push_back(m.addrAt(0, 0, 0) + i * 16 * 128);
    // Keep within the placed page (4 KB): use two pages instead.
    addrs.clear();
    for (unsigned i = 0; i < 9; ++i) {
        unsigned page = i % 2;
        addrs.push_back(m.addrAt(0, page) + (i / 2) * 16 * 128 +
                        (i % 2) * 0); // every other line same set anyway
    }
    // Simpler: 9 lines, alternating between two pages homed at node 0,
    // all mapping to L2 set 0 (offset multiple of 2 KB within page).
    addrs.clear();
    for (unsigned i = 0; i < 9; ++i)
        addrs.push_back(m.addrAt(0, i % 2) + (i / 2) * 2048);

    for (auto a : addrs) {
        m.issue(1, MemCmd::Store, a, counter());
        m.settle();
    }
    // At least one line must have been written back: its directory
    // state returns to Unowned and node 1 no longer holds it.
    unsigned unowned = 0;
    for (auto a : addrs) {
        auto e = m.dirEntryOf(a);
        if (m.fmt.state(e) == proto::dirUnowned) {
            ++unowned;
            EXPECT_EQ(m.nodes[1]->cache->l2State(a), LineState::Inv);
        }
        m.checkLineInvariants(a);
    }
    EXPECT_GE(unowned, 1u);
    EXPECT_GE(m.nodes[1]->cache->writebacksDirty.value(), 1u);
}

TEST_F(ProtoSystemTest, EvictedLineCanBeReacquired)
{
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 9; ++i)
        addrs.push_back(m.addrAt(0, i % 2) + (i / 2) * 2048);
    for (auto a : addrs) {
        m.issue(1, MemCmd::Store, a, counter());
        m.settle();
    }
    // Re-acquire everything; Put-before-Get ordering must hold.
    completions = 0;
    for (auto a : addrs) {
        m.issue(1, MemCmd::Load, a, counter());
        m.settle();
    }
    EXPECT_EQ(completions, 9);
    for (auto a : addrs)
        m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, ConcurrentWritersRaceThroughNakAndIntervention)
{
    Addr a = m.addrAt(0);
    // Three nodes store concurrently; NAKs, interventions and retries
    // sort out a single final owner.
    for (NodeId n = 1; n < 4; ++n)
        m.issue(n, MemCmd::Store, a, counter());
    m.settle();
    EXPECT_EQ(completions, 3);
    unsigned writers = 0;
    for (auto &node : m.nodes)
        writers += node->cache->l2State(a) == LineState::Mod;
    EXPECT_EQ(writers, 1u);
    m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, ConcurrentReadersAllGetTheLine)
{
    Addr a = m.addrAt(1);
    for (NodeId n = 0; n < 4; ++n)
        m.issue(n, MemCmd::Load, a, counter());
    m.settle();
    EXPECT_EQ(completions, 4);
    for (auto &node : m.nodes) {
        auto st = node->cache->l2State(a);
        EXPECT_TRUE(st == LineState::Sh || st == LineState::Ex)
            << "every reader must end with a readable copy";
    }
    m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, PrefetchExclusiveBringsOwnership)
{
    Addr a = m.addrAt(0);
    m.issue(1, MemCmd::PrefetchEx, a, counter());
    m.settle();
    EXPECT_TRUE(writable(m.nodes[1]->cache->l2State(a)));
    m.checkLineInvariants(a);
}

TEST_F(ProtoSystemTest, ReadWriteReadMigratesCleanly)
{
    Addr a = m.addrAt(2);
    m.issue(0, MemCmd::Load, a, counter());
    m.settle();
    m.issue(1, MemCmd::Store, a, counter());
    m.settle();
    m.issue(0, MemCmd::Load, a, counter());
    m.settle();
    EXPECT_EQ(completions, 3);
    EXPECT_EQ(m.nodes[1]->cache->l2State(a), LineState::Sh);
    EXPECT_EQ(m.nodes[0]->cache->l2State(a), LineState::Sh);
    m.checkLineInvariants(a);
}

// ----------------------------------------------------------- stress

struct StressCase
{
    unsigned nodes;
    unsigned seed;
    unsigned ops;
};

/**
 * A protocol agent the test frees by hand. Its handlers never release
 * their sends, so a request it takes never leaves the node and the
 * requester's MSHR stays outstanding.
 */
class HoldAgent : public ProtocolAgent
{
  public:
    explicit HoldAgent(MemController &mc) : mc_(&mc) { mc.setAgent(this); }

    bool canAccept() const override { return ctx_ == nullptr; }
    void start(TransactionCtx *ctx) override { ctx_ = ctx; }
    Tick busyTicks() const override { return 0; }

    void
    free()
    {
        TransactionCtx *ctx = ctx_;
        ctx_ = nullptr;
        mc_->handlerDone(ctx);
    }

  private:
    MemController *mc_;
    TransactionCtx *ctx_ = nullptr;
};

struct ParkedRetry
{
    /** Ticks from the park to the retry's re-dispatch; maxTick if none. */
    Tick delay = maxTick;
    /** Deferrals seen by a zero-delay event the freeing event queues. */
    std::uint64_t seenAfterFree = 0;
};

/**
 * A forwarded intervention chasing node 0's outstanding miss is
 * deferred; at its retry time the agent is busy, so the controller
 * parks. The agent then frees @p free_delay ticks after the park, from
 * an event queued before that tick began. The retry's re-dispatch is a
 * second deferral, since the miss is still outstanding.
 */
ParkedRetry
parkedRetry(Tick free_delay)
{
    ProtoMachine::Options opt;
    opt.nodes = 2;
    opt.checkLevel = check::CheckLevel::Off;
    ProtoMachine m(opt);
    MemController &mc = *m.nodes[0]->mc;
    HoldAgent agent(mc);
    EventQueue &eq = m.eq;

    Addr x = m.addrAt(1, 0), y = m.addrAt(1, 1);
    m.issue(0, MemCmd::Load, x, [] {});
    eq.run(eq.curTick() + 20 * tickPerNs);
    agent.free(); // The miss for x is dispatched; its MSHR stays open.

    proto::Message fwd;
    fwd.type = MsgType::FwdIntervSh;
    fwd.addr = x;
    fwd.src = 1;
    fwd.dest = 0;
    fwd.requester = 1;
    EXPECT_TRUE(mc.niDeliver(fwd));
    while (mc.probesDeferred.value() == 0 && eq.runOne()) {
    }
    EXPECT_EQ(mc.probesDeferred.value(), 1u);
    Tick due = eq.curTick() + McParams{}.deferRetry;

    // Occupy the agent with a second miss before the retry is due.
    m.issue(0, MemCmd::Load, y, [] {});
    eq.run(due - 1);
    EXPECT_FALSE(mc.dispatchParked());
    ParkedRetry out;
    eq.schedule(due + free_delay, [&] {
        eq.scheduleIn(0, [&] {
            out.seenAfterFree = mc.probesDeferred.value();
        });
        agent.free();
    });
    eq.run(due);
    if (free_delay > 0) {
        // Parked: nothing is queued between the park and the free (a
        // once-per-tick poll chain would sit at due + 1).
        EXPECT_TRUE(mc.dispatchParked());
        EXPECT_EQ(eq.nextTick(), due + free_delay);
    }
    for (Tick t = due; t <= due + free_delay + 1; ++t) {
        eq.run(t);
        if (mc.probesDeferred.value() == 2) {
            out.delay = t - due;
            break;
        }
    }
    return out;
}

TEST(DispatchPark, FreeInALaterTickDispatchesInThatTick)
{
    // A poll chain's poll for that tick was queued the tick before, so
    // it runs ahead of anything the freeing event queues for now.
    for (Tick free_delay : {Tick{1}, Tick{1000}}) {
        ParkedRetry r = parkedRetry(free_delay);
        EXPECT_EQ(r.delay, free_delay);
        EXPECT_EQ(r.seenAfterFree, 2u) << free_delay;
    }
}

TEST(DispatchPark, FreeInTheParkingTickDispatchesOneTickLater)
{
    ParkedRetry r = parkedRetry(0);
    EXPECT_EQ(r.delay, 1u);
    EXPECT_EQ(r.seenAfterFree, 1u);
}

class ProtoStressTest : public ::testing::TestWithParam<StressCase>
{
};

TEST_P(ProtoStressTest, RandomTrafficKeepsInvariants)
{
    auto param = GetParam();
    ProtoMachine::Options opt;
    opt.nodes = param.nodes;
    ProtoMachine m(opt);
    Rng rng(param.seed);

    // A small hot pool of lines spread across all homes maximises
    // conflict (interventions, NAKs, races).
    std::vector<Addr> pool;
    for (NodeId h = 0; h < param.nodes; ++h) {
        for (unsigned l = 0; l < 4; ++l)
            pool.push_back(m.addrAt(h, 0) + l * l2LineBytes);
    }
    // Plus lines that collide in the small L2 to force writebacks.
    for (unsigned i = 0; i < 6; ++i)
        pool.push_back(m.addrAt(0, i % 2) + (i / 2) * 2048);

    unsigned completed = 0;
    unsigned launched = 0;

    // Each node keeps up to 3 operations in flight.
    struct Driver
    {
        unsigned inflight = 0;
        unsigned remaining;
    };
    std::vector<Driver> drivers(param.nodes);
    for (auto &d : drivers)
        d.remaining = param.ops;

    std::function<void(NodeId)> pump = [&](NodeId n) {
        auto &d = drivers[n];
        while (d.remaining > 0 && d.inflight < 3) {
            --d.remaining;
            ++d.inflight;
            ++launched;
            Addr a = pool[rng.below(pool.size())];
            MemCmd cmd = rng.chance(0.4) ? MemCmd::Store : MemCmd::Load;
            if (rng.chance(0.05))
                cmd = MemCmd::Prefetch;
            // Jitter the issue time to diversify interleavings.
            Tick delay = rng.below(2000) * 500;
            m.eq.scheduleIn(delay, [&m, &pump, n, cmd, a, &completed,
                                    &drivers] {
                m.issue(n, cmd, a, [&, n] {
                    ++completed;
                    --drivers[n].inflight;
                    pump(n);
                });
            });
        }
    };
    for (NodeId n = 0; n < param.nodes; ++n)
        pump(n);

    m.eq.run(m.eq.curTick() + 100000 * tickPerUs);
    ASSERT_TRUE(m.quiescent()) << "stress wedged (protocol deadlock?)";
    EXPECT_EQ(completed, launched);

    for (auto a : pool)
        m.checkLineInvariants(a);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ProtoStressTest,
    ::testing::Values(StressCase{2, 1, 150}, StressCase{4, 2, 150},
                      StressCase{4, 3, 150}, StressCase{8, 4, 120},
                      StressCase{8, 5, 120}, StressCase{16, 6, 80},
                      StressCase{4, 7, 300}, StressCase{32, 8, 40}));

} // namespace
} // namespace smtp::testing
