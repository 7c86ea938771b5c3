/**
 * @file
 * Telemetry subsystem tests: ring-buffer semantics, payload pack
 * round-trips, the binary container, golden-file byte stability of the
 * text exporters, and the zero-perturbation contract (tracing on/off
 * gives bit-identical simulated time).
 *
 * The golden files live in tests/golden/; regenerate after an
 * intentional format change with
 *
 *   SMTP_REGOLD=1 ./build/tests/smtp_tests --gtest_filter='TraceGolden*'
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "machine/machine.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "workload/app.hpp"

#ifndef SMTP_GOLDEN_DIR
#define SMTP_GOLDEN_DIR "tests/golden"
#endif

namespace smtp
{
namespace
{

using trace::Event;
using trace::EventId;

// ------------------------------------------------------------ TraceBuffer

TEST(TraceBuffer, StoresOldestFirstBeforeWrap)
{
    trace::TraceBuffer buf("t", 0, trace::Category::Cpu, 8);
    for (std::uint64_t i = 0; i < 5; ++i)
        buf.record(100 + i, EventId::FetchSteal, i);
    EXPECT_EQ(buf.recorded(), 5u);
    EXPECT_EQ(buf.stored(), 5u);
    std::vector<Event> out;
    buf.snapshot(out);
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out.front().tick(), 100u);
    EXPECT_EQ(out.back().tick(), 104u);
    EXPECT_EQ(out.back().id(), EventId::FetchSteal);
}

TEST(TraceBuffer, RingWrapKeepsNewest)
{
    trace::TraceBuffer buf("t", 0, trace::Category::Cpu, 4);
    for (std::uint64_t i = 0; i < 11; ++i)
        buf.record(i, EventId::NetHop, i * 7);
    EXPECT_EQ(buf.recorded(), 11u);
    EXPECT_EQ(buf.stored(), 4u);
    std::vector<Event> out;
    buf.snapshot(out);
    ASSERT_EQ(out.size(), 4u);
    // Newest four, oldest first: ticks 7, 8, 9, 10.
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(out[i].tick(), 7 + i);
        EXPECT_EQ(out[i].arg, (7 + i) * 7);
    }
}

TEST(TraceManager, CategoryMaskSuppressesBuffers)
{
    trace::TraceConfig cfg;
    cfg.enabled = true;
    cfg.categories = trace::categoryBit(trace::Category::Mem);
    trace::TraceManager mgr(cfg);
    EXPECT_EQ(mgr.createBuffer("cpu", 0, trace::Category::Cpu), nullptr);
    trace::TraceBuffer *mem = mgr.createBuffer("mc", 0, trace::Category::Mem);
    ASSERT_NE(mem, nullptr);
    EXPECT_EQ(mgr.buffers().size(), 1u);
}

// ------------------------------------------------------- pack round-trips

TEST(TracePack, AllPayloadsRoundTrip)
{
    std::uint64_t s = trace::packStall(3, trace::stallStore);
    EXPECT_EQ(trace::stallTid(s), 3u);
    EXPECT_EQ(trace::stallCause(s), trace::stallStore);

    std::uint64_t m = trace::packMsg(0x12345680, proto::MsgType::ReqGetx,
                                     /*src=*/2, /*requester=*/1, /*aux=*/9);
    EXPECT_EQ(trace::msgLine(m), lineAlign(Addr{0x12345680}));
    EXPECT_EQ(trace::msgType(m), proto::MsgType::ReqGetx);
    EXPECT_EQ(trace::msgSrc(m), 2u);
    EXPECT_EQ(trace::msgReq(m), 1u);
    EXPECT_EQ(trace::msgAux(m), 9u);

    std::uint64_t d = trace::packDone(123456, proto::MsgType::PiGet);
    EXPECT_EQ(trace::doneLatency(d), 123456u);
    EXPECT_EQ(trace::doneType(d), proto::MsgType::PiGet);
    // Latency saturates at 48 bits instead of corrupting the type.
    std::uint64_t dcap = trace::packDone(~Tick{0}, proto::MsgType::PiGet);
    EXPECT_EQ(trace::doneLatency(dcap), (1ull << 48) - 1);
    EXPECT_EQ(trace::doneType(dcap), proto::MsgType::PiGet);

    std::uint64_t h = trace::packMshr(0x1000, 5, 7);
    EXPECT_EQ(trace::msgLine(h), lineAlign(Addr{0x1000}));
    EXPECT_EQ(trace::mshrIdx(h), 5u);
    EXPECT_EQ(trace::mshrInUse(h), 7u);

    std::uint64_t r = trace::packSdram(128, true, 42000);
    EXPECT_EQ(trace::sdramBytes(r), 128u);
    EXPECT_TRUE(trace::sdramWrite(r));
    EXPECT_EQ(trace::sdramQueueDelay(r), 42000u);

    proto::Message msg;
    msg.type = proto::MsgType::RplDataEx;
    msg.src = 3;
    msg.dest = 0;
    msg.traceId = 0xdeadbeef;
    std::uint64_t n = trace::packNet(msg);
    EXPECT_EQ(trace::netTraceId(n), 0xdeadbeefu);
    EXPECT_EQ(trace::netType(n), proto::MsgType::RplDataEx);
    EXPECT_EQ(trace::netSrc(n), 3u);
    EXPECT_EQ(trace::netDest(n), 0u);
    EXPECT_EQ(trace::netVnet(n), proto::vnetOf(proto::MsgType::RplDataEx));

    std::uint64_t b = trace::packBackpressure(2, 17);
    EXPECT_EQ(trace::bpVnet(b), 2u);
    EXPECT_EQ(trace::bpDepth(b), 17u);

    std::uint64_t x = trace::packExec(12, 3, 0xbeef, 6, 2);
    EXPECT_EQ(trace::execInsts(x), 12u);
    EXPECT_EQ(trace::execSends(x), 3u);
    EXPECT_EQ(trace::execAck(x), 0xbeefu);
    EXPECT_EQ(trace::execMshr(x), 6u);
    EXPECT_EQ(trace::execNode(x), 2u);
}

// ----------------------------------------------------- binary round-trip

trace::TraceData
makeSyntheticData()
{
    trace::TraceData d;
    d.nodes = 2;
    d.execTicks = 5 * tickPerUs;
    d.intervalTicks = tickPerUs;
    d.buffers.resize(2);
    d.buffers[0].name = "cpu";
    d.buffers[0].node = 0;
    d.buffers[0].category =
        static_cast<std::uint8_t>(trace::Category::Cpu);
    d.buffers[0].recorded = 3;
    d.buffers[0].events = {
        {trace::makeMeta(100, EventId::ThreadStallBegin),
         trace::packStall(1, trace::stallLoad)},
        {trace::makeMeta(400, EventId::ThreadStallEnd),
         trace::packStall(1, trace::stallLoad)},
        {trace::makeMeta(500, EventId::FetchSteal), trace::packStall(1, 4)},
    };
    d.buffers[1].name = "net";
    d.buffers[1].node = 1;
    d.buffers[1].category =
        static_cast<std::uint8_t>(trace::Category::Network);
    d.buffers[1].recorded = 9; // ring dropped some
    d.buffers[1].events = {
        {trace::makeMeta(800, EventId::NetBackpressure),
         trace::packBackpressure(1, 5)},
    };
    d.seriesNames = {"net.msgs", "n0.l2Misses"};
    d.sampleTicks = {tickPerUs, 2 * tickPerUs};
    d.samples = {1.0, 2.0, 3.5, 4.0};
    return d;
}

TEST(TraceBinary, WriteReadRoundTrip)
{
    trace::TraceData d = makeSyntheticData();
    std::string path = testing::TempDir() + "roundtrip.smtptrace";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_TRUE(trace::writeBinary(d, f));
    std::fclose(f);

    trace::TraceData r;
    std::string err;
    ASSERT_TRUE(trace::readTrace(path, r, err)) << err;
    EXPECT_EQ(r.nodes, d.nodes);
    EXPECT_EQ(r.execTicks, d.execTicks);
    EXPECT_EQ(r.intervalTicks, d.intervalTicks);
    ASSERT_EQ(r.buffers.size(), d.buffers.size());
    for (std::size_t i = 0; i < d.buffers.size(); ++i) {
        EXPECT_EQ(r.buffers[i].name, d.buffers[i].name);
        EXPECT_EQ(r.buffers[i].node, d.buffers[i].node);
        EXPECT_EQ(r.buffers[i].category, d.buffers[i].category);
        EXPECT_EQ(r.buffers[i].recorded, d.buffers[i].recorded);
        EXPECT_EQ(r.buffers[i].events, d.buffers[i].events);
    }
    EXPECT_EQ(r.seriesNames, d.seriesNames);
    EXPECT_EQ(r.sampleTicks, d.sampleTicks);
    EXPECT_EQ(r.samples, d.samples);
    std::remove(path.c_str());
}

TEST(TraceBinary, RejectsGarbage)
{
    std::string path = testing::TempDir() + "garbage.smtptrace";
    std::ofstream(path, std::ios::binary) << "not a trace file at all";
    trace::TraceData r;
    std::string err;
    EXPECT_FALSE(trace::readTrace(path, r, err));
    EXPECT_FALSE(err.empty());
    std::remove(path.c_str());
}

// --------------------------------------------- golden files + no-perturb

/** The scripted 2-node run behind the golden files. */
Tick
goldenRun(bool traced, trace::TraceData *out)
{
    MachineParams mp;
    mp.model = MachineModel::SMTp;
    mp.nodes = 2;
    mp.appThreadsPerNode = 1;
    mp.trace.enabled = traced;
    // Small rings keep the golden JSON reviewable; the newest events
    // win, which is also what the wedge reports show.
    mp.trace.bufferEvents = 64;
    mp.trace.intervalCycles = 20000;
    Machine machine(mp);
    FuncMem mem;
    auto app = workload::makeApp("FFT");
    workload::WorkloadEnv env;
    env.mem = &mem;
    env.map = &machine.addressMap();
    env.nodes = 2;
    env.threadsPerNode = 1;
    env.scale = 0.25;
    app->build(env);
    for (unsigned t = 0; t < env.totalThreads(); ++t)
        machine.setGlobalSource(t, app->thread(t));
    Tick exec = machine.run();
    if (out != nullptr && machine.traceManager() != nullptr)
        machine.traceManager()->snapshot(*out, exec, mp.nodes);
    return exec;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
compareOrRegold(const std::string &got, const char *golden_name)
{
    std::string path = std::string(SMTP_GOLDEN_DIR) + "/" + golden_name;
    if (std::getenv("SMTP_REGOLD") != nullptr) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os.good()) << "cannot regold " << path;
        os << got;
        return;
    }
    std::string want = slurp(path);
    ASSERT_FALSE(want.empty())
        << path << " missing; run with SMTP_REGOLD=1 to create it";
    // One EXPECT for the whole file keeps failures readable; the first
    // divergent offset localizes the change.
    if (got != want) {
        std::size_t at = 0;
        while (at < got.size() && at < want.size() && got[at] == want[at])
            ++at;
        FAIL() << golden_name << " diverges from golden at byte " << at
               << " (got " << got.size() << " bytes, want " << want.size()
               << "); if the format change is intentional, regenerate "
                  "with SMTP_REGOLD=1";
    }
}

TEST(TraceGolden, PerfettoAndCsvAreByteStable)
{
    trace::TraceData data;
    Tick exec = goldenRun(true, &data);
    ASSERT_GT(exec, 0u);
    ASSERT_FALSE(data.buffers.empty());

    // The 2-node run exercises the real fabric: injections must stitch
    // to deliveries via the stamped traceId.
    std::uint64_t injects = 0, delivers = 0;
    for (const auto &b : data.buffers)
        for (const auto &e : b.events) {
            if (e.id() == EventId::NetInject && trace::netTraceId(e.arg) != 0)
                ++injects;
            if (e.id() == EventId::NetDeliver &&
                trace::netTraceId(e.arg) != 0)
                ++delivers;
        }
    EXPECT_GT(injects, 0u);
    EXPECT_GT(delivers, 0u);

    std::ostringstream json;
    trace::writePerfetto(data, json);
    compareOrRegold(json.str(), "trace_2node_fft.json");

    std::ostringstream csv;
    trace::writeIntervalCsv(data, csv);
    compareOrRegold(csv.str(), "trace_2node_fft.csv");
}

TEST(TraceGolden, TracingDoesNotPerturbTiming)
{
    Tick off = goldenRun(false, nullptr);
    Tick on = goldenRun(true, nullptr);
    EXPECT_EQ(off, on)
        << "enabling telemetry changed the simulated execution time";
}

} // namespace
} // namespace smtp
