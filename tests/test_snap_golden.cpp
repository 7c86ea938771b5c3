/**
 * @file
 * Snapshot-bytes golden gate: the per-section FNV-1a hashes of
 * Machine::saveImage() taken mid-run on a fixed set of machines are
 * pinned in tests/golden/snapshot_sections.txt. The snapshot format is
 * a compatibility contract (images written by one build restore in the
 * next), so any change to the bytes a component writes, in content,
 * width or order, fails here and names the first differing section.
 *
 * Regenerate only for a deliberate format change (which also bumps
 * snap::kFormatVersion):
 *
 *   SMTP_REGOLD=1 ./build/tests/smtp_tests --gtest_filter='SnapGolden*'
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "snap/event_codec.hpp"
#include "snap/snapfile.hpp"
#include "trace/trace.hpp"
#include "workload/app.hpp"

#ifndef SMTP_GOLDEN_DIR
#define SMTP_GOLDEN_DIR "tests/golden"
#endif

namespace smtp
{
namespace
{

struct GoldenCase
{
    const char *name;
    MachineModel model;
    const char *app;
    unsigned ways = 1;
    const char *faults = nullptr; ///< FaultPlan spec, or none.
    bool traced = false;
    Tick stopAt = 20 * tickPerUs; ///< About mid-run for 2-node FFT.
};

/** A machine built exactly as the resume and server tests build it. */
struct GoldenSim
{
    FuncMem mem;
    std::unique_ptr<workload::App> app;
    std::unique_ptr<Machine> machine;

    explicit GoldenSim(const GoldenCase &c)
    {
        MachineParams mp;
        mp.model = c.model;
        mp.nodes = 2;
        mp.appThreadsPerNode = c.ways;
        mp.trace.enabled = c.traced;
        if (c.faults != nullptr) {
            std::string err;
            EXPECT_TRUE(fault::FaultPlan::parse(c.faults, mp.faults, &err))
                << err;
        }
        machine = std::make_unique<Machine>(mp);
        app = workload::makeApp(c.app);
        workload::WorkloadEnv env;
        env.mem = &mem;
        env.map = &machine->addressMap();
        env.nodes = 2;
        env.threadsPerNode = c.ways;
        env.scale = 0.25;
        app->build(env);
        for (unsigned t = 0; t < env.totalThreads(); ++t)
            machine->setGlobalSource(t, app->thread(t));
        machine->setWorkloadState(app.get());
        if (c.traced) {
            trace::TraceManager *tm = machine->traceManager();
            app->attachTrace([tm](NodeId node) {
                return tm->createBuffer("wl", node,
                                        trace::Category::Workload);
            });
        }
    }
};

std::vector<std::uint8_t>
midRunImage(const GoldenCase &c)
{
    GoldenSim sim(c);
    EXPECT_FALSE(sim.machine->runUntil(c.stopAt))
        << c.name << ": the snapshot must be taken mid-run";
    return sim.machine->saveImage();
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** "header" (the 24 bytes before the sections), then one per section. */
std::vector<std::pair<std::string, std::string>>
sectionHashes(const std::vector<std::uint8_t> &image)
{
    snap::SnapReader r;
    EXPECT_TRUE(r.parse(image)) << r.error();
    auto hashOf = [&](std::size_t off, std::size_t len) {
        snap::Hasher h;
        h.mix(std::string_view(
            reinterpret_cast<const char *>(image.data()) + off, len));
        return hex(h.value());
    };
    std::vector<std::pair<std::string, std::string>> out;
    out.emplace_back("header", hashOf(0, 24));
    for (const auto &s : r.sections())
        out.emplace_back(s.name, hashOf(s.offset, s.length));
    return out;
}

const std::string kGoldenPath =
    std::string(SMTP_GOLDEN_DIR) + "/snapshot_sections.txt";

/** case name -> ordered (section, hash) lines. */
std::map<std::string, std::vector<std::pair<std::string, std::string>>>
readGolden()
{
    std::map<std::string, std::vector<std::pair<std::string, std::string>>>
        g;
    std::ifstream f(kGoldenPath);
    std::string line;
    while (std::getline(f, line)) {
        std::istringstream ls(line);
        std::string name, section, hash;
        if (ls >> name >> section >> hash)
            g[name].emplace_back(section, hash);
    }
    return g;
}

const GoldenCase kCases[] = {
    {"Base", MachineModel::Base, "FFT"},
    {"IntPerfect", MachineModel::IntPerfect, "FFT"},
    {"Int512KB", MachineModel::Int512KB, "FFT"},
    {"Int64KB", MachineModel::Int64KB, "FFT"},
    {"SMTp", MachineModel::SMTp, "FFT"},
    {"SMTp_2ways", MachineModel::SMTp, "FFT", 2},
    {"Base_faults", MachineModel::Base, "FFT", 1,
     "seed=7,drop=0.005,dup=0.005,nak=0.01"},
    {"SMTp_traced", MachineModel::SMTp, "FFT", 1, nullptr, true},
    {"SMTp_kv_store_traced", MachineModel::SMTp, "kv-store", 1, nullptr,
     true, 3500 * tickPerNs},
};

TEST(SnapGolden, SectionHashesMatchRecordedImages)
{
    if (std::getenv("SMTP_REGOLD") != nullptr) {
        std::ofstream f(kGoldenPath, std::ios::trunc);
        for (const GoldenCase &c : kCases)
            for (const auto &[section, hash] : sectionHashes(midRunImage(c)))
                f << c.name << ' ' << section << ' ' << hash << '\n';
        GTEST_SKIP() << "regenerated " << kGoldenPath;
    }
    auto golden = readGolden();
    ASSERT_FALSE(golden.empty())
        << kGoldenPath << " missing; run with SMTP_REGOLD=1 to create it";
    for (const GoldenCase &c : kCases) {
        auto want = golden.find(c.name);
        ASSERT_NE(want, golden.end()) << c.name << " has no golden hashes";
        auto got = sectionHashes(midRunImage(c));
        std::size_t n = std::min(got.size(), want->second.size());
        std::size_t i = 0;
        while (i < n && got[i] == want->second[i])
            ++i;
        if (i < n) {
            ADD_FAILURE() << c.name << ": first differing section is '"
                          << got[i].first << "' (golden '"
                          << want->second[i].first << "' "
                          << want->second[i].second << ", now "
                          << got[i].second << ")";
        } else if (got.size() != want->second.size()) {
            ADD_FAILURE() << c.name << ": " << got.size()
                          << " sections, golden has "
                          << want->second.size();
        }
    }
}

/**
 * One instance of every snappable event kind, each field set to a
 * distinct value, owned by node 1 of a 2-node machine with a protocol
 * engine. Node, thread, router and vnet indices are in range for that
 * machine; the transaction ids name no live transaction.
 */
std::vector<std::pair<std::string, InlineCallback>>
everyEventKind(Machine &m)
{
    auto msg = [](unsigned k) {
        proto::Message x;
        x.type = static_cast<proto::MsgType>(k % 8);
        x.addr = 0x10000 + 0x40 * k;
        x.src = 0;
        x.dest = 1;
        x.requester = 1;
        x.mshr = static_cast<std::uint8_t>(k);
        x.ackCount = static_cast<std::uint16_t>(k + 1);
        x.flags = static_cast<std::uint8_t>(k & 1);
        x.traceId = 100 + k;
        x.phase = 200 + k;
        return x;
    };
    Network *net = &m.network();
    Machine::Node &nd = m.node(1);
    CacheHierarchy *cache = nd.cache.get();
    MemController *mc = nd.mc.get();
    SmtCpu *cpu = nd.cpu.get();
    PEngine *pe = nd.pengine.get();
    using MC = MemController;
    return {
        {"evNetLand", Network::LandEv{net, msg(1)}},
        {"evNetHop", Network::HopEv{net, msg(2), 0}},
        {"evNetRetry", Network::RetryEv{net, 1, 3}},
        {"evCacheDrainOutQ", CacheHierarchy::DrainEv{cache}},
        {"evCacheBypassFill",
         CacheHierarchy::BypassFillEv{cache, 0x2040, 0x2048, true, false}},
        {"evMcPoke", MC::PokeEv{mc}},
        {"evMcDispatchPoll", MC::DispatchPollEv{mc}},
        {"evMcCtxMemDone", MC::CtxMemDoneEv{mc, 0x77}},
        {"evMcDeliverLocal", MC::DeliverLocalEv{mc, msg(9)}},
        {"evMcNetDeliver", MC::NetDeliverEv{mc, msg(10)}},
        {"evMcDrainNiOut", MC::DrainNiOutEv{mc}},
        {"evMcPendingSend", MC::PendingSendEv{mc, 2, msg(12), true}},
        {"evMcBypassDone",
         MC::BypassBusEv{mc, 0x3080, true,
                         CacheHierarchy::BypassFillEv{cache, 0x30c0, 0x30c8,
                                                      false, true}}},
        {"evMcMemWrite", MC::MemWriteEv{mc, 0x40c0}},
        {"evCpuTick", SmtCpu::TickEv{cpu}},
        {"evCpuFetchDone", SmtCpu::FetchDoneEv{cpu, 0, 0x5000}},
        {"evCpuTlbRetry", SmtCpu::TlbRetryEv{cpu, nullptr, 0x1002}},
        {"evCpuSbDrain", SmtCpu::SbDrainEv{cpu}},
        {"evCpuProtoSbDrain", SmtCpu::ProtoSbDrainEv{cpu, 0x6000}},
        {"evCpuLoadFill", SmtCpu::LoadFillEv{cpu, nullptr, 0x1003}},
        {"evPeIcacheFill", PEngine::IcacheFillEv{pe, 17}},
        {"evPeDcacheFill", PEngine::DcacheFillEv{pe}},
        {"evPeSendRelease", PEngine::SendReleaseEv{pe, 0x78, 3}},
        {"evPeHandlerDone", PEngine::HandlerDoneEv{pe, 0x79}},
    };
}

std::vector<std::uint8_t>
encodeCallback(const InlineCallback &c)
{
    snap::Ser s;
    s.cb(c);
    return s.take();
}

std::string
hashOf(const std::vector<std::uint8_t> &bytes)
{
    snap::Hasher h;
    h.mix(std::string_view(reinterpret_cast<const char *>(bytes.data()),
                           bytes.size()));
    return hex(h.value());
}

InlineCallback
decodeCallback(const std::vector<std::uint8_t> &bytes,
               const snap::EventCodec &codec, std::string *err)
{
    snap::Des d(bytes);
    d.setCodec(&codec);
    InlineCallback c;
    d.cb(c);
    if (d.ok() && d.remaining() != 0)
        d.fail("decoder left bytes unread");
    *err = d.error();
    return c;
}

/** A transaction with at least one send, live on @p mc mid-run. */
TransactionCtx *
liveCtxWithSends(Machine &m, MemController &mc)
{
    for (Tick t = tickPerUs; t <= 100 * tickPerUs; t += tickPerUs) {
        if (m.runUntil(t))
            break;
        for (std::uint64_t id = 1; id < 100000; ++id) {
            TransactionCtx *ctx = mc.ctxById(id);
            if (ctx != nullptr && !ctx->trace.sends.empty())
                return ctx;
        }
    }
    return nullptr;
}

// Pins every event kind's payload bytes, including the kinds a short
// mid-run image may never hold (back-pressure and TLB retries, bypass
// traffic), and round-trips each kind through the machine's codec.
// SMTP_REGOLD appends these "EventKind" lines after the section hashes.
TEST(SnapGolden, EveryEventKindEncodesAsRecorded)
{
    GoldenSim sim(kCases[0]); // Base: it has protocol engines.
    Machine &m = *sim.machine;
    auto kinds = everyEventKind(m);
    ASSERT_EQ(kinds.size(), 24u);
    if (std::getenv("SMTP_REGOLD") != nullptr) {
        std::ofstream f(kGoldenPath, std::ios::app);
        for (const auto &[name, cb] : kinds)
            f << "EventKind " << name << ' ' << hashOf(encodeCallback(cb))
              << '\n';
        GTEST_SKIP() << "appended event-kind hashes to " << kGoldenPath;
    }
    auto golden = readGolden();
    auto want = golden.find("EventKind");
    ASSERT_NE(want, golden.end()) << "no EventKind lines in " << kGoldenPath;
    ASSERT_EQ(want->second.size(), kinds.size());
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        EXPECT_EQ(want->second[i].first, kinds[i].first);
        EXPECT_EQ(want->second[i].second,
                  hashOf(encodeCallback(kinds[i].second)))
            << kinds[i].first;
    }

    // The recorded transaction ids name no live transaction, so decode
    // must refuse them; the round trip uses a live one instead.
    MemController *mc = m.node(1).mc.get();
    PEngine *pe = m.node(1).pengine.get();
    TransactionCtx *ctx = liveCtxWithSends(m, *mc);
    ASSERT_NE(ctx, nullptr);
    snap::EventCodec codec = m.buildEventCodec();
    std::uint64_t dead = ctx->id + (1ULL << 40);
    for (const InlineCallback &ev :
         {InlineCallback(MemController::CtxMemDoneEv{mc, dead}),
          InlineCallback(PEngine::SendReleaseEv{pe, dead, 0}),
          InlineCallback(PEngine::HandlerDoneEv{pe, dead}),
          InlineCallback(PEngine::SendReleaseEv{
              pe, ctx->id,
              static_cast<std::uint32_t>(ctx->trace.sends.size())})}) {
        std::string err;
        EXPECT_FALSE(decodeCallback(encodeCallback(ev), codec, &err));
        EXPECT_NE(err.find("corrupt snapshot"), std::string::npos) << err;
    }
    for (auto &[name, cb] : kinds) {
        if (name == "evMcCtxMemDone")
            cb = MemController::CtxMemDoneEv{mc, ctx->id};
        else if (name == "evPeSendRelease")
            cb = PEngine::SendReleaseEv{
                pe, ctx->id,
                static_cast<std::uint32_t>(ctx->trace.sends.size() - 1)};
        else if (name == "evPeHandlerDone")
            cb = PEngine::HandlerDoneEv{pe, ctx->id};
        auto bytes = encodeCallback(cb);
        std::string err;
        InlineCallback back = decodeCallback(bytes, codec, &err);
        EXPECT_TRUE(err.empty()) << name << ": " << err;
        EXPECT_EQ(encodeCallback(back), bytes) << name;
    }
}

} // namespace
} // namespace smtp
