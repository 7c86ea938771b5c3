/**
 * @file
 * Snapshot subsystem unit tests: Ser/Des primitive round trips and
 * bounds checking, the versioned container (SnapWriter/SnapReader)
 * including corruption and truncation rejection, round trips for every
 * stat type (the carry-over audit: min/max sentinels, histogram
 * buckets), trace ring normalization, and the machine-level guard
 * rails (config-hash mismatch, non-fresh machine, corrupt file).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "machine/machine.hpp"
#include "sim/stats.hpp"
#include "snap/event_codec.hpp"
#include "snap/snap.hpp"
#include "snap/snapfile.hpp"
#include "trace/trace.hpp"
#include "workload/app.hpp"

namespace smtp
{
namespace
{

/** Every field op, driven through one io() by both archives. */
struct AllOps
{
    std::uint8_t u8 = 0;
    bool yes = false, no = true;
    std::uint16_t u16 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::int8_t i8 = 0;
    std::int32_t i32 = 0;
    std::int64_t i64 = 0;
    double pi = 0.0, ninf = 0.0;
    std::string hello, empty = "x";
    std::vector<std::uint16_t> seq;
    std::vector<std::uint32_t> fixed = std::vector<std::uint32_t>(3);
    std::unordered_map<std::uint64_t, std::uint64_t> words;

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u8(u8);
        ar.b(yes);
        ar.b(no);
        ar.u16(u16);
        ar.u32(u32);
        ar.u64(u64);
        ar.i8(i8);
        ar.u32(i32);
        ar.u64(i64);
        ar.f64(pi);
        ar.f64(ninf);
        ar.str(hello);
        ar.str(empty);
        ar.seq(seq, 2, [](Ar &a, std::uint16_t &v) { a.u16(v); });
        ar.fixed(fixed, "fixed count mismatch",
                 [](Ar &a, std::uint32_t &v) { a.u32(v); });
        ar.wordMap(words);
    }
};

TEST(SerDes, PrimitivesRoundTrip)
{
    AllOps a;
    a.u8 = 0xab;
    a.yes = true;
    a.no = false;
    a.u16 = 0xbeef;
    a.u32 = 0xdeadbeefu;
    a.u64 = 0x0123456789abcdefull;
    a.i8 = -5;
    a.i32 = -123456789;
    a.i64 = -1234567890123456789ll;
    a.pi = 3.14159;
    a.ninf = -std::numeric_limits<double>::infinity();
    a.hello = "hello snapshot";
    a.empty = "";
    a.seq = {1, 2, 65535};
    a.fixed = {7, 8, 9};
    a.words = {{3, 30}, {1, 10}, {2, 20}};

    snap::Ser s;
    a.io(s);
    AllOps b;
    snap::Des d(s.buffer().data(), s.size());
    b.io(d);
    EXPECT_TRUE(d.ok()) << d.error();
    EXPECT_EQ(d.remaining(), 0u);
    EXPECT_EQ(b.u8, 0xab);
    EXPECT_TRUE(b.yes);
    EXPECT_FALSE(b.no);
    EXPECT_EQ(b.u16, 0xbeef);
    EXPECT_EQ(b.u32, 0xdeadbeefu);
    EXPECT_EQ(b.u64, 0x0123456789abcdefull);
    EXPECT_EQ(b.i8, -5);
    EXPECT_EQ(b.i32, -123456789);
    EXPECT_EQ(b.i64, -1234567890123456789ll);
    EXPECT_EQ(b.pi, 3.14159);
    EXPECT_EQ(b.ninf, -std::numeric_limits<double>::infinity());
    EXPECT_EQ(b.hello, "hello snapshot");
    EXPECT_EQ(b.empty, "");
    EXPECT_EQ(b.seq, a.seq);
    EXPECT_EQ(b.fixed, a.fixed);
    EXPECT_EQ(b.words, a.words);

    // The fixed-size sequence is construction-time geometry: a count
    // that differs on restore is rejected with the op's diagnostic.
    AllOps c;
    c.fixed.resize(2);
    snap::Des d2(s.buffer().data(), s.size());
    c.io(d2);
    EXPECT_FALSE(d2.ok());
    EXPECT_EQ(d2.error(), "fixed count mismatch");

    // Hash-map iteration order never reaches the bytes.
    AllOps e = a;
    e.words.clear();
    for (std::uint64_t k : {2, 3, 1})
        e.words[k] = a.words[k];
    snap::Ser s2;
    e.io(s2);
    EXPECT_EQ(s2.buffer(), s.buffer());
}

TEST(SerDes, TruncatedReadSticksError)
{
    snap::Ser s;
    s.u32(42);
    snap::Des d(s.buffer().data(), s.size());
    EXPECT_EQ(d.u32(), 42u);
    // Reading past the end fails softly and stays failed; values are
    // zero, never uninitialized.
    EXPECT_EQ(d.u64(), 0u);
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.u32(), 0u);
    EXPECT_FALSE(d.error().empty());
}

TEST(SerDes, CountGuardsAgainstAbsurdLengths)
{
    snap::Ser s;
    s.u64(std::numeric_limits<std::uint64_t>::max()); // hostile count
    snap::Des d(s.buffer().data(), s.size());
    // A count whose elements cannot possibly fit the remaining bytes
    // must fail instead of driving a giant allocation loop.
    EXPECT_EQ(d.count(8), 0u);
    EXPECT_FALSE(d.ok());
}

TEST(SerDes, StringLengthBeyondBufferRejected)
{
    snap::Ser s;
    s.u64(1000); // claims 1000 bytes follow
    s.u8('x');
    snap::Des d(s.buffer().data(), s.size());
    EXPECT_EQ(d.str(), "");
    EXPECT_FALSE(d.ok());
}

TEST(Hasher, DeterministicAndSensitive)
{
    snap::Hasher a, b, c;
    a.mix("config");
    a.mix(std::uint64_t{7});
    b.mix("config");
    b.mix(std::uint64_t{7});
    c.mix("config");
    c.mix(std::uint64_t{8});
    EXPECT_EQ(a.value(), b.value());
    EXPECT_NE(a.value(), c.value());
}

// ---- Container ------------------------------------------------------

TEST(SnapFile, ContainerRoundTrip)
{
    snap::SnapWriter w(0x1122334455667788ull);
    snap::Ser &s1 = w.beginSection("alpha");
    s1.u64(111);
    w.endSection();
    snap::Ser &s2 = w.beginSection("beta");
    s2.str("payload");
    w.endSection();

    snap::SnapReader r;
    ASSERT_TRUE(r.parse(w.finish())) << r.error();
    EXPECT_EQ(r.formatVersion(), snap::kFormatVersion);
    EXPECT_EQ(r.configHash(), 0x1122334455667788ull);
    ASSERT_EQ(r.sections().size(), 2u);
    EXPECT_TRUE(r.hasSection("alpha"));
    EXPECT_TRUE(r.hasSection("beta"));
    EXPECT_FALSE(r.hasSection("gamma"));

    snap::Des da = r.section("alpha");
    EXPECT_EQ(da.u64(), 111u);
    EXPECT_TRUE(da.ok());
    snap::Des db = r.section("beta");
    EXPECT_EQ(db.str(), "payload");
    EXPECT_TRUE(db.ok());

    snap::Des dg = r.section("gamma");
    EXPECT_FALSE(dg.ok());
}

TEST(SnapFile, RejectsBadMagic)
{
    snap::SnapWriter w(1);
    auto img = w.finish();
    img[0] = 'X';
    snap::SnapReader r;
    EXPECT_FALSE(r.parse(std::move(img)));
    EXPECT_FALSE(r.error().empty());
}

TEST(SnapFile, RejectsFutureVersion)
{
    snap::SnapWriter w(1);
    auto img = w.finish();
    img[8] = 0xff; // formatVersion low byte
    snap::SnapReader r;
    EXPECT_FALSE(r.parse(std::move(img)));
    EXPECT_NE(r.error().find("version"), std::string::npos);
}

TEST(SnapFile, RejectsTruncation)
{
    snap::SnapWriter w(1);
    snap::Ser &s = w.beginSection("data");
    for (int i = 0; i < 100; ++i)
        s.u64(i);
    w.endSection();
    auto img = w.finish();
    // Every possible truncation point must be rejected cleanly.
    for (std::size_t cut : {std::size_t{0}, std::size_t{4},
                            std::size_t{15}, std::size_t{30},
                            img.size() - 1}) {
        snap::SnapReader r;
        EXPECT_FALSE(r.parse(std::vector<std::uint8_t>(
            img.begin(), img.begin() + static_cast<std::ptrdiff_t>(cut))))
            << "cut at " << cut;
        EXPECT_FALSE(r.error().empty());
    }
}

TEST(SnapFile, RejectsCorruptSectionFraming)
{
    snap::SnapWriter w(1);
    snap::Ser &s = w.beginSection("data");
    s.u64(7);
    w.endSection();
    auto img = w.finish();
    // Blow up the section's payload length field (offset: 24-byte
    // header + u32 nameLen + 4 name bytes).
    img[24 + 4 + 4] = 0xff;
    img[24 + 4 + 5] = 0xff;
    snap::SnapReader r;
    EXPECT_FALSE(r.parse(std::move(img)));
    EXPECT_FALSE(r.error().empty());
}

TEST(SnapFile, FileRoundTripAndMissingFile)
{
    std::string path = ::testing::TempDir() + "snapfile_rt.smtpsnap";
    snap::SnapWriter w(42);
    snap::Ser &s = w.beginSection("x");
    s.u32(9);
    w.endSection();
    std::string err;
    ASSERT_TRUE(w.write(path, &err)) << err;

    snap::SnapReader r;
    ASSERT_TRUE(r.load(path)) << r.error();
    EXPECT_EQ(r.configHash(), 42u);

    snap::SnapReader r2;
    EXPECT_FALSE(r2.load(path + ".does-not-exist"));
    EXPECT_FALSE(r2.error().empty());
    std::filesystem::remove(path);
}

// ---- Stat type round trips (carry-over audit) -----------------------

template <typename T>
T
roundTrip(const T &orig)
{
    snap::Ser s;
    s.obj(orig);
    snap::Des d(s.buffer().data(), s.size());
    T fresh;
    fresh.io(d);
    EXPECT_TRUE(d.ok()) << d.error();
    EXPECT_EQ(d.remaining(), 0u);
    return fresh;
}

TEST(StatSnap, CounterRoundTrip)
{
    Counter c;
    c += 41;
    ++c;
    Counter r = roundTrip(c);
    EXPECT_EQ(r.value(), 42u);
}

TEST(StatSnap, PeakTrackerRoundTrip)
{
    PeakTracker p;
    p.observe(17);
    p.observe(5);
    PeakTracker r = roundTrip(p);
    EXPECT_EQ(r.peak(), 17u);
}

TEST(StatSnap, DistributionRoundTripWithSamples)
{
    Distribution d;
    d.sample(1.5);
    d.sample(-2.0, 3);
    d.sample(10.0);
    Distribution r = roundTrip(d);
    EXPECT_EQ(r.samples(), d.samples());
    EXPECT_EQ(r.mean(), d.mean());
    EXPECT_EQ(r.min(), d.min());
    EXPECT_EQ(r.max(), d.max());
}

TEST(StatSnap, DistributionEmptySentinelsSurvive)
{
    // The carry-over trap: an empty Distribution holds +/-inf min/max
    // sentinels. A naive restore (e.g. writing 0s) would corrupt the
    // first post-restore sample's min/max. Prove the sentinels ride
    // through and the next sample behaves exactly like on a fresh one.
    Distribution empty;
    Distribution r = roundTrip(empty);
    EXPECT_EQ(r.samples(), 0u);
    r.sample(-7.5);
    EXPECT_EQ(r.min(), -7.5);
    EXPECT_EQ(r.max(), -7.5);
}

TEST(StatSnap, DistributionHistogramBucketsSurvive)
{
    Distribution d;
    d.enableHistogram(0.0, 10.0, 5);
    d.sample(-1.0); // underflow
    d.sample(2.5);
    d.sample(2.6);
    d.sample(11.0); // overflow
    Distribution r = roundTrip(d);
    ASSERT_TRUE(r.histogramEnabled());
    EXPECT_EQ(r.histogram(), d.histogram());
    EXPECT_EQ(r.percentile(50.0), d.percentile(50.0));
    // Continued sampling must land in the same buckets as the twin.
    d.sample(9.9);
    r.sample(9.9);
    EXPECT_EQ(r.histogram(), d.histogram());
}

TEST(StatSnap, TraceRingNormalizesWrap)
{
    // Fill past capacity so the ring wraps, round-trip, and check the
    // restored ring exports the same events and keeps recording
    // identically to the original.
    trace::TraceBuffer orig("t", 0, trace::Category::Cpu, 4);
    for (std::uint64_t i = 0; i < 7; ++i)
        orig.record(i * 10, static_cast<trace::EventId>(1), i);

    snap::Ser s;
    orig.io(s);
    trace::TraceBuffer fresh("t", 0, trace::Category::Cpu, 4);
    snap::Des d(s.buffer().data(), s.size());
    fresh.io(d);
    ASSERT_TRUE(d.ok()) << d.error();

    orig.record(99, static_cast<trace::EventId>(2), 99);
    fresh.record(99, static_cast<trace::EventId>(2), 99);
    std::vector<trace::Event> a, b;
    orig.snapshot(a);
    fresh.snapshot(b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].meta, b[i].meta) << i;
        EXPECT_EQ(a[i].arg, b[i].arg) << i;
    }
    EXPECT_EQ(orig.recorded(), fresh.recorded());
}

TEST(StatSnap, TraceRingCapacityMismatchRejected)
{
    trace::TraceBuffer orig("t", 0, trace::Category::Cpu, 8);
    for (int i = 0; i < 20; ++i)
        orig.record(i, static_cast<trace::EventId>(1), 0);
    snap::Ser s;
    orig.io(s);
    trace::TraceBuffer fresh("t", 0, trace::Category::Cpu, 4);
    snap::Des d(s.buffer().data(), s.size());
    fresh.io(d);
    EXPECT_FALSE(d.ok());
}

// ---- Machine-level guard rails --------------------------------------

struct SnapSim
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<workload::App> app;
    std::unique_ptr<FuncMem> mem;

    explicit SnapSim(MachineModel model, double scale = 0.25)
    {
        MachineParams mp;
        mp.model = model;
        mp.nodes = 2;
        mp.appThreadsPerNode = 1;
        machine = std::make_unique<Machine>(mp);
        mem = std::make_unique<FuncMem>();
        app = workload::makeApp("FFT");
        workload::WorkloadEnv env;
        env.mem = mem.get();
        env.map = &machine->addressMap();
        env.nodes = 2;
        env.threadsPerNode = 1;
        env.scale = scale;
        app->build(env);
        for (unsigned t = 0; t < env.totalThreads(); ++t)
            machine->setGlobalSource(t, app->thread(t));
        machine->setWorkloadState(app.get());
    }
};

TEST(MachineSnap, ConfigHashMismatchRejected)
{
    SnapSim a(MachineModel::Base);
    a.machine->runUntil(50 * tickPerUs);
    auto img = a.machine->saveImage();

    SnapSim b(MachineModel::SMTp);
    EXPECT_NE(a.machine->configHash(), b.machine->configHash());
    std::string err;
    EXPECT_FALSE(b.machine->restoreImage(img, &err));
    EXPECT_NE(err.find("config hash"), std::string::npos) << err;
}

TEST(MachineSnap, NonFreshMachineRejected)
{
    SnapSim a(MachineModel::Base);
    a.machine->runUntil(50 * tickPerUs);
    auto img = a.machine->saveImage();

    SnapSim b(MachineModel::Base);
    b.machine->runUntil(10 * tickPerUs); // b has already simulated
    std::string err;
    EXPECT_FALSE(b.machine->restoreImage(img, &err));
    EXPECT_FALSE(err.empty());
}

TEST(MachineSnap, CorruptAndTruncatedImagesRejected)
{
    SnapSim a(MachineModel::Base);
    a.machine->runUntil(50 * tickPerUs);
    auto img = a.machine->saveImage();

    // Truncations at many depths: container header, section table,
    // mid-payload. All must fail with a diagnostic, none may crash.
    for (double frac : {0.0, 0.1, 0.5, 0.9, 0.999}) {
        auto cut = static_cast<std::size_t>(
            static_cast<double>(img.size()) * frac);
        std::vector<std::uint8_t> t(img.begin(),
                                    img.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
        SnapSim b(MachineModel::Base);
        std::string err;
        EXPECT_FALSE(b.machine->restoreImage(std::move(t), &err))
            << "cut fraction " << frac;
        EXPECT_FALSE(err.empty());
    }

    // Deep-payload bitflip: framing still parses, a component's section
    // decodes garbage. Restore must fail (count/validation guards), not
    // crash. Flip a byte ~3/4 through, clear of the header.
    auto flipped = img;
    flipped[flipped.size() * 3 / 4] ^= 0xff;
    SnapSim c(MachineModel::Base);
    std::string err;
    bool ok = c.machine->restoreImage(std::move(flipped), &err);
    if (!ok) {
        EXPECT_FALSE(err.empty());
    }
    // (A flip in stats payload can decode to a legal value; rejection
    // is only guaranteed for structural fields. No-crash is the
    // contract, checked by running this test at all under ASan.)
}

/** The key fields of a crafted event-queue entry. */
struct ExtraKey
{
    std::int8_t prio = 0;
    std::uint64_t seq = 0;
    /** Overrides the queue's next sequence number when non-zero. */
    std::uint64_t queueSeq = 0;
};

/**
 * @p img with one more shard-0 event-queue entry, due at the current
 * tick, whose callback is encoded as @p cb (id + payload): a crafted
 * snapshot that frames and hashes like a real one.
 */
std::vector<std::uint8_t>
withExtraEvent(const std::vector<std::uint8_t> &img,
               const std::vector<std::uint8_t> &cb, ExtraKey key = {})
{
    snap::SnapReader r;
    EXPECT_TRUE(r.parse(img)) << r.error();
    snap::SnapWriter w(r.configHash());
    for (const auto &sec : r.sections()) {
        snap::Ser &out = w.beginSection(sec.name);
        const std::uint8_t *p = img.data() + sec.offset;
        std::size_t head = 0;
        if (sec.name == "shard0.eventq") {
            snap::Des in(p, sec.length);
            std::uint64_t cur = in.u64();
            out.u64(cur);
            std::uint64_t seq = in.u64();
            out.u64(key.queueSeq != 0 ? key.queueSeq : seq);
            out.u64(in.u64()); // executed
            out.u64(in.u64() + 1);
            out.u64(cur);
            out.i8(key.prio);
            out.u64(key.seq);
            out.raw(cb.data(), cb.size());
            head = in.pos();
        }
        out.raw(p + head, sec.length - head);
        w.endSection();
    }
    return w.finish();
}

/**
 * Restore @p cb spliced into a mid-run Base image under @p key; the
 * diagnostic, empty when the restore succeeded.
 */
std::string
restoreSpliced(const std::vector<std::uint8_t> &cb, ExtraKey key)
{
    SnapSim a(MachineModel::Base);
    a.machine->runUntil(50 * tickPerUs);
    SnapSim b(MachineModel::Base);
    std::string err;
    bool ok = b.machine->restoreImage(
        withExtraEvent(a.machine->saveImage(), cb, key), &err);
    EXPECT_EQ(ok, err.empty()) << err;
    return err;
}

/** Restore @p cb spliced into a mid-run Base image; the diagnostic. */
std::string
restoreWithExtraEvent(const std::vector<std::uint8_t> &cb)
{
    std::string err = restoreSpliced(cb, {});
    EXPECT_FALSE(err.empty());
    return err;
}

std::string
restoreWithExtraEvent(const InlineCallback &ev)
{
    snap::Ser s;
    s.cb(ev);
    return restoreWithExtraEvent(s.buffer());
}

/** An empty callback's encoding: the entry's key alone is on trial. */
std::vector<std::uint8_t>
nullCallback()
{
    snap::Ser s;
    s.u32(snap::evNull);
    return s.buffer();
}

TEST(MachineSnap, EventPriorityOutOfRangeRejected)
{
    for (std::int8_t prio : {-1, 1})
        EXPECT_EQ(restoreSpliced(nullCallback(), {prio, 0, 0}), "") << +prio;
    for (std::int8_t prio : {-128, -2, 2, 127}) {
        std::string err = restoreSpliced(nullCallback(), {prio, 0, 0});
        EXPECT_NE(err.find("event priority out of range"),
                  std::string::npos)
            << +prio << ": " << err;
    }
}

TEST(MachineSnap, EventSequenceOutOfRangeRejected)
{
    constexpr std::uint64_t limit = std::uint64_t{1} << 62;
    // The queue's next sequence number, and an entry's, must stay below
    // 2^62: above it the sequence would spill into the priority bits of
    // the heap key.
    for (std::uint64_t next : {limit + 1, ~std::uint64_t{0}}) {
        std::string err = restoreSpliced(nullCallback(), {0, 0, next});
        EXPECT_NE(err.find("event sequence number out of range"),
                  std::string::npos)
            << next << ": " << err;
    }
    for (std::uint64_t seq : {limit, limit + 1, ~std::uint64_t{0}}) {
        std::string err = restoreSpliced(nullCallback(), {0, seq, 0});
        EXPECT_NE(err.find("event entry out of range"), std::string::npos)
            << seq << ": " << err;
    }
}

TEST(MachineSnap, DeepCallbackNestingRejected)
{
    // Bypass-bus crossings each carrying the next: 64 levels, and the
    // 100,000 (1.5 MB) that once recursed the decoder off the stack.
    for (int depth : {64, 100000}) {
        snap::Ser chain;
        for (int i = 0; i < depth; ++i) {
            chain.u32(snap::evMcBypassDone);
            chain.u16(0);      // node
            chain.u64(0x1000); // addr
            chain.b(false);    // write
        }
        chain.u32(snap::evNull);
        std::string err = restoreWithExtraEvent(chain.buffer());
        EXPECT_NE(err.find("callback nesting too deep"), std::string::npos)
            << depth << ": " << err;
    }
}

TEST(MachineSnap, NetRetryForUnknownNodeRejected)
{
    std::string err = restoreWithExtraEvent(Network::RetryEv{nullptr, 2, 0});
    EXPECT_NE(err.find("network retry for an unknown landing buffer"),
              std::string::npos)
        << err;
}

TEST(MachineSnap, NetLandForUnknownNodeRejected)
{
    proto::Message m;
    m.addr = 0x1000;
    m.src = 0;
    m.dest = 2;
    m.requester = 0;
    std::string err = restoreWithExtraEvent(Network::LandEv{nullptr, m});
    EXPECT_NE(err.find("network message for an unknown node"),
              std::string::npos)
        << err;
}

TEST(MachineSnap, MessageNamingUnknownRequesterRejected)
{
    // A real destination, but a requester beyond the 2-node machine or
    // none at all on a message that is not idle: either way the reply
    // would go to no node.
    for (NodeId requester : {NodeId{7}, invalidNode}) {
        proto::Message m;
        m.addr = 0x1000;
        m.src = 0;
        m.dest = 1;
        m.requester = requester;
        std::string err =
            restoreWithExtraEvent(Network::LandEv{nullptr, m});
        EXPECT_NE(err.find("network message for an unknown node"),
                  std::string::npos)
            << requester << ": " << err;
    }
}

TEST(MachineSnap, EventForDeadTransactionRejected)
{
    SnapSim a(MachineModel::Base);
    MemController *mc = a.machine->node(0).mc.get();
    PEngine *pe = a.machine->node(0).pengine.get();
    std::uint64_t dead = 1ULL << 40;
    for (const InlineCallback &ev :
         {InlineCallback(MemController::CtxMemDoneEv{mc, dead}),
          InlineCallback(PEngine::SendReleaseEv{pe, dead, 0}),
          InlineCallback(PEngine::HandlerDoneEv{pe, dead})}) {
        std::string err = restoreWithExtraEvent(ev);
        EXPECT_NE(err.find("event for an unknown transaction"),
                  std::string::npos)
            << err;
    }
}

/** One pending completion as a CPU section stores it. */
struct Pending
{
    std::uint64_t due, seq, uid;
};

/**
 * Restore a mid-run Base image whose node-0 CPU section ends with the
 * completions @p make returns (given the image's tick) in place of the
 * saved ones; the diagnostic, empty when the restore succeeded.
 */
std::string
restoreWithCompletions(
    const std::function<std::vector<Pending>(Tick)> &make)
{
    SnapSim a(MachineModel::Base);
    a.machine->runUntil(50 * tickPerUs);
    auto img = a.machine->saveImage();
    std::size_t saved = a.machine->node(0).cpu->pendingCompletions();
    snap::SnapReader r;
    EXPECT_TRUE(r.parse(img)) << r.error();
    snap::SnapWriter w(r.configHash());
    for (const auto &sec : r.sections()) {
        snap::Ser &out = w.beginSection(sec.name);
        const std::uint8_t *p = img.data() + sec.offset;
        if (sec.name != "node0.cpu") {
            out.raw(p, sec.length);
        } else {
            out.raw(p, sec.length - 8 - 24 * saved);
            auto entries = make(a.machine->eventQueue().curTick());
            out.u64(entries.size());
            for (const Pending &e : entries) {
                out.u64(e.due);
                out.u64(e.seq);
                out.u64(e.uid);
            }
        }
        w.endSection();
    }
    SnapSim b(MachineModel::Base);
    std::string err;
    bool ok = b.machine->restoreImage(w.finish(), &err);
    EXPECT_EQ(ok, err.empty()) << err;
    return err;
}

TEST(MachineSnap, CompletionForDeadInstructionRestoresAsNoOp)
{
    // Uid 0 names no instruction, like a completion whose instruction
    // was squashed: it restores, and applies as a no-op.
    EXPECT_EQ(restoreWithCompletions([](Tick now) {
                  return std::vector<Pending>{{now + 100, 1, 0},
                                              {now + 100, 3, 0}};
              }),
              "");
}

TEST(MachineSnap, CompletionDueBeforeCurrentTickRejected)
{
    std::string err = restoreWithCompletions([](Tick now) {
        return std::vector<Pending>{{now - 1, 1, 0}};
    });
    EXPECT_NE(err.find("corrupt snapshot: completion due before"),
              std::string::npos)
        << err;
}

TEST(MachineSnap, CompletionSequenceOutOfRangeRejected)
{
    // Even numbers are marks, never reservations; a number the queue has
    // not handed out yet, or one past the key's 62 bits, cannot be one.
    for (std::uint64_t seq : {std::uint64_t{2}, std::uint64_t{1} << 62,
                              (std::uint64_t{1} << 62) + 1}) {
        std::string err = restoreWithCompletions([seq](Tick now) {
            return std::vector<Pending>{{now + 100, seq, 0}};
        });
        EXPECT_NE(err.find("corrupt snapshot: completion sequence number "
                           "out of range"),
                  std::string::npos)
            << seq << ": " << err;
    }
    std::string err = restoreWithCompletions([](Tick now) {
        return std::vector<Pending>{{now + 100, (std::uint64_t{1} << 61) + 1,
                                     0}};
    });
    EXPECT_NE(err.find("corrupt snapshot: completion sequence number was "
                       "never handed out"),
              std::string::npos)
        << err;
}

TEST(MachineSnap, CompletionsOutOfKeyOrderRejected)
{
    for (auto pair : {std::vector<Pending>{{200, 1, 0}, {100, 3, 0}},
                      std::vector<Pending>{{100, 3, 0}, {100, 1, 0}},
                      std::vector<Pending>{{100, 1, 0}, {100, 1, 0}}}) {
        std::string err = restoreWithCompletions([pair](Tick now) {
            auto e = pair;
            for (Pending &p : e)
                p.due += now;
            return e;
        });
        EXPECT_NE(err.find("corrupt snapshot: completions out of order"),
                  std::string::npos)
            << err;
    }
}

TEST(MachineSnap, SaveToFileAndRestore)
{
    std::string path = ::testing::TempDir() + "machine_rt.smtpsnap";
    SnapSim a(MachineModel::Base);
    a.machine->runUntil(50 * tickPerUs);
    std::string err;
    ASSERT_TRUE(a.machine->save(path, &err)) << err;

    SnapSim b(MachineModel::Base);
    ASSERT_TRUE(b.machine->restore(path, &err)) << err;
    EXPECT_EQ(b.machine->eventQueue().curTick(),
              a.machine->eventQueue().curTick());
    EXPECT_EQ(b.machine->committedAppInsts(),
              a.machine->committedAppInsts());
    std::filesystem::remove(path);
}

} // namespace
} // namespace smtp
