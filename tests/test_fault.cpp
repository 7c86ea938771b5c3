/**
 * @file
 * Tests for the deterministic fault-injection subsystem (src/fault):
 * plan spec round-trips, retry-backoff boundary values, decision-stream
 * determinism, ECC accounting, and whole-protocol-machine runs under
 * every fault class — drops recovered by retransmit, duplicates
 * filtered exactly once, forced NAKs riding the retry path, the
 * starvation detector, and the deliberate drop-without-retransmit bug
 * being caught by the watchdog.
 */

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "proto_harness.hpp"

namespace smtp
{
namespace
{

using testing::ProtoMachine;

// -------------------------------------------------------- plan parsing

TEST(FaultPlan, ParseToStringRoundTrip)
{
    fault::FaultPlan p;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse(
        "seed=42,drop=0.01,dup=0.02,delay=0.05,delaymax=300,"
        "reorder=0.03,timeout=500,maxretx=4,flip=0.001,flip2=0.0005,"
        "nak=0.02",
        p, &err))
        << err;
    EXPECT_EQ(p.seed, 42u);
    EXPECT_DOUBLE_EQ(p.netDrop, 0.01);
    EXPECT_DOUBLE_EQ(p.netDup, 0.02);
    EXPECT_DOUBLE_EQ(p.netDelay, 0.05);
    EXPECT_EQ(p.netDelayMax, 300 * tickPerNs);
    EXPECT_DOUBLE_EQ(p.netReorder, 0.03);
    EXPECT_EQ(p.retransmitTimeout, 500 * tickPerNs);
    EXPECT_EQ(p.maxRetransmits, 4u);
    EXPECT_DOUBLE_EQ(p.memFlipSingle, 0.001);
    EXPECT_DOUBLE_EQ(p.memFlipDouble, 0.0005);
    EXPECT_DOUBLE_EQ(p.forceNak, 0.02);
    EXPECT_TRUE(p.enabled());

    // The canonical form re-parses to the same plan.
    fault::FaultPlan q;
    ASSERT_TRUE(fault::FaultPlan::parse(p.toString(), q, &err)) << err;
    EXPECT_EQ(p.toString(), q.toString());
}

TEST(FaultPlan, UnknownKeyAndMalformedValueAreErrors)
{
    fault::FaultPlan p;
    std::string err;
    EXPECT_FALSE(fault::FaultPlan::parse("bogus=1", p, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    EXPECT_FALSE(fault::FaultPlan::parse("drop=notanumber", p, &err));
    EXPECT_FALSE(fault::FaultPlan::parse("drop", p, &err));
}

TEST(FaultPlan, SpecValuesAreStrict)
{
    fault::FaultPlan p;
    std::string err;
    for (const char *bad :
         {"seed=9007199254740993.0", "seed=18446744073709551616",
          "seed=-1", "seed=+1", "seed=1e3", "seed=", "maxretx=-1",
          "maxretx=4294967296", "delaymax=1.5", "timeout=1e30",
          "timeout=18446744073709552", "drop=-0.5", "drop=nan",
          "drop=inf", "drop=2", "nak=1.0000001", "droploss=2"}) {
        EXPECT_FALSE(fault::FaultPlan::parse(bad, p, &err)) << bad;
    }
    // Exact at full 64-bit range, where a double would round.
    ASSERT_TRUE(fault::FaultPlan::parse("seed=9007199254740993", p, &err))
        << err;
    EXPECT_EQ(p.seed, 9007199254740993ull);
    ASSERT_TRUE(
        fault::FaultPlan::parse("seed=18446744073709551615", p, &err))
        << err;
    EXPECT_EQ(p.seed, 18446744073709551615ull);
    ASSERT_TRUE(fault::FaultPlan::parse(
        "drop=0,dup=1,maxretx=4294967295,timeout=18446744073709551",
        p, &err))
        << err;
    EXPECT_EQ(p.maxRetransmits, 4294967295u);
    EXPECT_EQ(p.retransmitTimeout, 18446744073709551ull * tickPerNs);

    fault::RetryPolicyConfig cfg;
    for (const char *bad :
         {"exp:100abc", "fixed:-5", "fixed:", "fixed:+5", "exp:50:",
          "exp:50:3200:1", "exp:50:-1", "fixed:18446744073709552"}) {
        EXPECT_FALSE(fault::parseRetryPolicy(bad, cfg, &err)) << bad;
    }
}

TEST(FaultPlan, DefaultIsFullyDisabled)
{
    fault::FaultPlan p;
    EXPECT_FALSE(p.enabled());
    EXPECT_FALSE(p.anyNetwork());
    EXPECT_FALSE(p.anyMem());
    EXPECT_FALSE(p.anyProtocol());
}

// ------------------------------------------------- retry-policy bounds

TEST(RetryPolicy, ImmediateIsZeroAndDrawsNothing)
{
    fault::RetryPolicyConfig cfg;
    cfg.kind = fault::RetryKind::Immediate;
    Rng a(7), b(7);
    for (unsigned k = 1; k < 10; ++k)
        EXPECT_EQ(fault::retryBackoff(cfg, k, a), 0u);
    // No jitter draw: the stream is untouched.
    EXPECT_EQ(a.below(1 << 20), b.below(1 << 20));
}

TEST(RetryPolicy, FixedMatchesHistoricalBackoffBitForBit)
{
    fault::RetryPolicyConfig cfg; // Fixed, base = 100 ns
    const Tick base = cfg.base;
    Rng a(99), b(99);
    for (unsigned k = 1; k < 20; ++k) {
        // The pre-policy controller computed nakBackoff + below(nakBackoff)
        // regardless of the retry count.
        Tick expect = base + b.below(base);
        EXPECT_EQ(fault::retryBackoff(cfg, k, a), expect) << "k=" << k;
    }
}

TEST(RetryPolicy, ExpBackoffDoublesThenCaps)
{
    fault::RetryPolicyConfig cfg;
    cfg.kind = fault::RetryKind::ExpBackoff;
    cfg.base = 100 * tickPerNs;
    cfg.cap = 6400 * tickPerNs;
    Rng rng(5);
    // k-th resend backs off base << (k-1), saturating at cap; jitter is
    // uniform in [0, base).
    for (unsigned k = 1; k <= 12; ++k) {
        Tick v = fault::retryBackoff(cfg, k, rng);
        Tick expectBase =
            std::min<Tick>(cfg.base << (k - 1), cfg.cap);
        EXPECT_GE(v, expectBase) << "k=" << k;
        EXPECT_LT(v, expectBase + cfg.base) << "k=" << k;
    }
    // Far past the cap, including shift counts that would overflow a
    // 64-bit left shift.
    for (unsigned k : {20u, 41u, 64u, 1000u}) {
        Tick v = fault::retryBackoff(cfg, k, rng);
        EXPECT_GE(v, cfg.cap) << "k=" << k;
        EXPECT_LT(v, cfg.cap + cfg.base) << "k=" << k;
    }
    // k = 0 (first send being re-paced) behaves like k = 1.
    Rng r1(11), r2(11);
    EXPECT_EQ(fault::retryBackoff(cfg, 0, r1),
              fault::retryBackoff(cfg, 1, r2));
}

TEST(RetryPolicy, SpecRoundTrip)
{
    fault::RetryPolicyConfig cfg;
    std::string err;
    ASSERT_TRUE(fault::parseRetryPolicy("immediate", cfg, &err)) << err;
    EXPECT_EQ(cfg.kind, fault::RetryKind::Immediate);
    ASSERT_TRUE(fault::parseRetryPolicy("fixed:250", cfg, &err)) << err;
    EXPECT_EQ(cfg.kind, fault::RetryKind::Fixed);
    EXPECT_EQ(cfg.base, 250 * tickPerNs);
    ASSERT_TRUE(fault::parseRetryPolicy("exp:50:3200", cfg, &err)) << err;
    EXPECT_EQ(cfg.kind, fault::RetryKind::ExpBackoff);
    EXPECT_EQ(cfg.base, 50 * tickPerNs);
    EXPECT_EQ(cfg.cap, 3200 * tickPerNs);
    EXPECT_EQ(fault::retryPolicyToString(cfg), "exp:50:3200");
    fault::RetryPolicyConfig back;
    ASSERT_TRUE(fault::parseRetryPolicy(fault::retryPolicyToString(cfg),
                                        back, &err))
        << err;
    EXPECT_EQ(back.kind, cfg.kind);
    EXPECT_EQ(back.base, cfg.base);
    EXPECT_EQ(back.cap, cfg.cap);
    EXPECT_FALSE(fault::parseRetryPolicy("warp", cfg, &err));
}

// ------------------------------------------------ injector determinism

TEST(FaultInjector, SameSeedGivesIdenticalDecisionStreams)
{
    fault::FaultPlan p;
    p.seed = 1234;
    p.netDrop = 0.1;
    p.netDup = 0.1;
    p.netDelay = 0.2;
    p.netReorder = 0.2;
    p.memFlipSingle = 0.05;
    p.memFlipDouble = 0.02;
    p.forceNak = 0.1;

    fault::FaultInjector a(p, 4), b(p, 4);
    // Interleave every hook the way a live run would: the decisions are
    // a pure function of (plan, per-stream call order), so two
    // injectors stay in lock-step. This is what makes the schedule
    // identical across sweep worker counts.
    for (unsigned i = 0; i < 5000; ++i) {
        NodeId n = static_cast<NodeId>(i % 4);
        ASSERT_EQ(a.linkRetransmits(n), b.linkRetransmits(n)) << i;
        ASSERT_EQ(a.linkDuplicate(n), b.linkDuplicate(n)) << i;
        ASSERT_EQ(a.linkExtraDelay(n), b.linkExtraDelay(n)) << i;
        ASSERT_EQ(a.landingReorder(n), b.landingReorder(n)) << i;
        ASSERT_EQ(a.sdramRead(n), b.sdramRead(n)) << i;
        ASSERT_EQ(a.forceNak(n), b.forceNak(n)) << i;
    }
    EXPECT_EQ(a.injectedTotal(), b.injectedTotal());
    EXPECT_GT(a.injectedTotal(), 0u);
}

TEST(FaultInjector, PerNodeStreamsAreIndependent)
{
    fault::FaultPlan p;
    p.seed = 9;
    p.memFlipSingle = 0.5;
    fault::FaultInjector a(p, 2), b(p, 2);
    // Consuming node 0's stream must not perturb node 1's decisions.
    for (unsigned i = 0; i < 100; ++i)
        (void)a.sdramRead(0);
    for (unsigned i = 0; i < 100; ++i)
        ASSERT_EQ(a.sdramRead(1), b.sdramRead(1)) << i;
}

TEST(FaultInjector, EccAccountingMatchesPlanFractions)
{
    fault::FaultPlan p;
    p.seed = 31;
    p.memFlipSingle = 0.2;
    p.memFlipDouble = 0.1;
    fault::FaultInjector fi(p, 1);

    const unsigned reads = 20000;
    unsigned corrected = 0, detected = 0;
    for (unsigned i = 0; i < reads; ++i) {
        switch (fi.sdramRead(0)) {
          case fault::FaultInjector::Ecc::Corrected: ++corrected; break;
          case fault::FaultInjector::Ecc::Detected: ++detected; break;
          default: break;
        }
    }
    EXPECT_EQ(fi.eccCorrected(), corrected);
    EXPECT_EQ(fi.eccDetected(), detected);
    // One demand scrub per corrected flip.
    EXPECT_EQ(fi.eccScrubs(), corrected);
    EXPECT_NEAR(static_cast<double>(corrected) / reads, 0.2, 0.02);
    EXPECT_NEAR(static_cast<double>(detected) / reads, 0.1, 0.02);
}

// -------------------------------------- whole-machine fault recovery

/** A contended cross-node mix; every line visits several caches. */
void
runMix(ProtoMachine &p, unsigned rounds = 8)
{
    const Addr a = p.addrAt(0), b = p.addrAt(1), c = p.addrAt(2),
               d = p.addrAt(3);
    for (unsigned r = 0; r < rounds; ++r) {
        p.issue(static_cast<NodeId>(r % 4), MemCmd::Store, a, [] {});
        p.issue(static_cast<NodeId>((r + 1) % 4), MemCmd::Load, a, [] {});
        p.issue(static_cast<NodeId>((r + 2) % 4), MemCmd::Load, b, [] {});
        p.issue(static_cast<NodeId>((r + 3) % 4), MemCmd::Store, c, [] {});
        p.issue(static_cast<NodeId>(r % 4), MemCmd::Load, d, [] {});
        p.settle(2 * tickPerMs);
        p.checkLineInvariants(a);
        p.checkLineInvariants(c);
    }
}

TEST(FaultRecovery, DroppedMessagesAreRetransmittedToQuiescence)
{
    ProtoMachine::Options opt;
    opt.faults.seed = 2;
    opt.faults.netDrop = 0.5; // every other transmission corrupted
    ProtoMachine p(opt);
    runMix(p);
    EXPECT_GT(p.faults->netDrops(), 0u);
    EXPECT_EQ(p.faults->netLost(), 0u);
    EXPECT_EQ(p.checker->violationCount(), 0u);
    EXPECT_TRUE(p.quiescent());
}

TEST(FaultRecovery, DuplicatesAreFilteredExactlyOnce)
{
    ProtoMachine::Options opt;
    opt.faults.seed = 3;
    opt.faults.netDup = 1.0; // duplicate every delivery
    ProtoMachine p(opt);
    runMix(p);
    EXPECT_GT(p.faults->netDups(), 0u);
    // Every injected duplicate was discarded at the landing buffer, so
    // the protocol saw each message exactly once.
    EXPECT_EQ(p.faults->netDupsFiltered(),
              p.faults->netDups());
    EXPECT_EQ(p.checker->violationCount(), 0u);
    EXPECT_TRUE(p.quiescent());
}

TEST(FaultRecovery, JitterAndReorderPreserveCoherence)
{
    ProtoMachine::Options opt;
    opt.faults.seed = 4;
    opt.faults.netDelay = 0.8;
    opt.faults.netReorder = 1.0; // swap every eligible landing pair
    ProtoMachine p(opt);
    runMix(p);
    EXPECT_GT(p.faults->netDelays(), 0u);
    EXPECT_EQ(p.checker->violationCount(), 0u);
    EXPECT_TRUE(p.quiescent());
}

TEST(FaultRecovery, DoubleBitFlipsAreRefetchedAndCostLatency)
{
    ProtoMachine::Options fopt;
    fopt.faults.seed = 5;
    fopt.faults.memFlipDouble = 1.0; // every SDRAM read detects
    ProtoMachine faulty(fopt);
    ProtoMachine clean;

    const Addr line = faulty.addrAt(1);
    Tick faultyDone = 0, cleanDone = 0;
    faulty.issue(0, MemCmd::Load, line,
                 [&] { faultyDone = faulty.eq.curTick(); });
    faulty.settle();
    clean.issue(0, MemCmd::Load, line,
                [&] { cleanDone = clean.eq.curTick(); });
    clean.settle();

    EXPECT_GT(faulty.faults->eccDetected(), 0u);
    EXPECT_EQ(faulty.faults->eccRefetches(),
              faulty.faults->eccDetected());
    EXPECT_EQ(faulty.checker->violationCount(), 0u);
    // The refetch is not free: the faulty load completes later.
    ASSERT_GT(cleanDone, 0u);
    EXPECT_GT(faultyDone, cleanDone);
}

TEST(FaultRecovery, ForcedNaksRideTheRetryPathToCompletion)
{
    ProtoMachine::Options opt;
    opt.faults.seed = 6;
    opt.faults.forceNak = 0.5;
    opt.retry.kind = fault::RetryKind::ExpBackoff;
    ProtoMachine p(opt);
    runMix(p);
    EXPECT_GT(p.faults->naksForced(), 0u);
    EXPECT_EQ(p.checker->violationCount(), 0u);
    EXPECT_TRUE(p.quiescent());
}

TEST(FaultRecovery, StarvationDetectorFlagsHeavyRetries)
{
    ProtoMachine::Options opt;
    opt.faults.seed = 7;
    opt.faults.forceNak = 0.9; // expected ~10 attempts per transaction
    opt.retry.starvationRetries = 2;
    ProtoMachine p(opt);
    const Addr line = p.addrAt(1);
    for (unsigned r = 0; r < 6; ++r) {
        p.issue(0, MemCmd::Store, line, [] {});
        p.issue(2, MemCmd::Load, line, [] {});
        p.settle(5 * tickPerMs);
    }
    std::uint64_t flags = 0;
    for (auto &n : p.nodes)
        flags += n->mc->starvationFlags.value();
    EXPECT_GT(flags, 0u);
    // Starvation is reported to the checker for the wedge report but is
    // not a violation by itself.
    EXPECT_EQ(p.checker->starvations.value(), flags);
    EXPECT_EQ(p.checker->violationCount(), 0u);
}

TEST(FaultRecovery, WholeRunIsDeterministicUnderFaults)
{
    auto run = [](std::uint64_t seed) {
        ProtoMachine::Options opt;
        opt.faults.seed = seed;
        opt.faults.netDrop = 0.2;
        opt.faults.netDup = 0.2;
        opt.faults.netDelay = 0.3;
        opt.faults.memFlipSingle = 0.1;
        opt.faults.forceNak = 0.2;
        ProtoMachine p(opt);
        runMix(p, 4);
        return std::make_tuple(p.eq.curTick(),
                               p.faults->injectedTotal(),
                               p.faults->recoveredTotal());
    };
    // Same plan -> bit-identical schedule and counters; a different
    // seed -> a different injected-fault schedule.
    EXPECT_EQ(run(8), run(8));
    EXPECT_NE(std::get<1>(run(8)), std::get<1>(run(9)));
}

// ----------------------------- the deliberate unrecovered-loss bug

TEST(FaultBug, DropWithoutRetransmitIsCaughtByTheWatchdog)
{
    ProtoMachine::Options opt;
    opt.checkAbortOnViolation = false;
    opt.watchdogMaxAge = 100 * tickPerUs;
    opt.faults.seed = 10;
    opt.faults.netDrop = 1.0;
    opt.faults.injectDropWithoutRetransmit = true;
    ProtoMachine p(opt);

    // A remote store whose request traffic is silently eaten: the
    // machine cannot settle, so pump the queue directly and let the
    // watchdog catch the wedged transaction.
    p.issue(0, MemCmd::Store, p.addrAt(1), [] {});
    p.eq.run(p.eq.curTick() + 2 * tickPerMs);

    EXPECT_GT(p.faults->netLost(), 0u);
    ASSERT_GE(p.checker->violationCount(), 1u);
    EXPECT_NE(p.checker->violations()[0].find("watchdog"),
              std::string::npos)
        << p.checker->violations()[0];
    EXPECT_FALSE(p.quiescent());
}

} // namespace
} // namespace smtp
