/**
 * @file
 * Tests for the sweep-service layer (src/serve): the hardened JSON
 * parser, wire framing under hostile input, cell <-> JSON round-trips,
 * and a live in-process smtpd exercised over real UNIX sockets —
 * dedup across concurrent clients, protocol-error handling (truncated
 * frames, oversized length prefixes, unknown fields, disconnect
 * mid-stream), and restart rehydration from the on-disk result cache.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/proto.hpp"
#include "serve/runner.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace smtp::serve
{
namespace
{

// ------------------------------------------------------------- JSON

TEST(ServeJson, ParsesScalarsAndContainers)
{
    JsonValue v;
    ASSERT_TRUE(JsonValue::parse(
        R"({"a":1,"b":-2.5e3,"c":"x","d":[true,false,null],"e":{}})", v));
    EXPECT_EQ(v.getNumber("a"), 1.0);
    EXPECT_EQ(v.getNumber("b"), -2500.0);
    EXPECT_EQ(v.getString("c"), "x");
    ASSERT_NE(v.find("d"), nullptr);
    EXPECT_EQ(v.find("d")->array().size(), 3u);
    EXPECT_TRUE(v.find("e")->isObject());
}

TEST(ServeJson, RoundTripsThroughDump)
{
    const char *text =
        R"({"s":"a\"b\\c\nd","n":0.1,"big":9007199254740992,"neg":-1})";
    JsonValue v;
    ASSERT_TRUE(JsonValue::parse(text, v));
    JsonValue again;
    ASSERT_TRUE(JsonValue::parse(v.dump(), again));
    // %.17g round-trips every double exactly.
    EXPECT_EQ(again.getNumber("n"), v.getNumber("n"));
    EXPECT_EQ(again.getNumber("big"), v.getNumber("big"));
    EXPECT_EQ(again.getString("s"), v.getString("s"));
    EXPECT_EQ(again.dump(), v.dump());
}

TEST(ServeJson, RejectsHostileInput)
{
    const char *bad[] = {
        "",                        // empty
        "{",                       // unterminated object
        "[1,2",                    // unterminated array
        "{\"a\":}",                // missing value
        "{\"a\":1,}",              // trailing comma
        "{'a':1}",                 // single quotes
        "{\"a\":1} extra",         // trailing garbage
        "01",                      // leading zero
        "+1",                      // leading plus
        "1.",                      // bare fraction point
        "1e",                      // bare exponent
        "inf",                     // not JSON
        "nan",                     // not JSON
        "tru",                     // truncated literal
        "\"unterminated",          // unterminated string
        "\"bad \\q escape\"",      // unknown escape
        "\"\\u12\"",               // short \u
        "\"\\ud800\"",             // unpaired high surrogate
        "\"\\udc00\"",             // stray low surrogate
        "\"raw\x01control\"",      // raw control char
        "1e999",                   // overflows to inf
    };
    for (const char *text : bad) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(JsonValue::parse(text, v, &err))
            << "accepted: " << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

TEST(ServeJson, RejectsDeepNesting)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    JsonValue v;
    EXPECT_FALSE(JsonValue::parse(deep, v));
    // ...but reasonable nesting is fine.
    EXPECT_TRUE(JsonValue::parse("[[[[[[[[[[1]]]]]]]]]]", v));
}

TEST(ServeJson, SurrogatePairsDecodeToUtf8)
{
    JsonValue v;
    ASSERT_TRUE(JsonValue::parse("\"\\ud83d\\ude00\"", v)); // U+1F600
    EXPECT_EQ(v.str(), "\xf0\x9f\x98\x80");
}

// ------------------------------------------------------------- wire

/** A connected AF_UNIX socketpair for framing tests. */
struct Pair
{
    int a = -1, b = -1;
    Pair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = fds[0];
        b = fds[1];
    }
    ~Pair()
    {
        if (a >= 0)
            ::close(a);
        if (b >= 0)
            ::close(b);
    }
};

TEST(ServeWire, FrameRoundTrip)
{
    Pair p;
    ASSERT_TRUE(writeFrame(p.a, "hello"));
    ASSERT_TRUE(writeFrame(p.a, "")); // empty frames are legal
    std::string payload;
    EXPECT_EQ(readFrame(p.b, payload), 1);
    EXPECT_EQ(payload, "hello");
    EXPECT_EQ(readFrame(p.b, payload), 1);
    EXPECT_EQ(payload, "");
    ::close(p.a);
    p.a = -1;
    EXPECT_EQ(readFrame(p.b, payload), 0); // clean EOF at boundary
}

TEST(ServeWire, TruncatedFrameIsAnError)
{
    Pair p;
    // Length prefix promises 100 bytes; deliver 3 and hang up.
    unsigned char hdr[4] = {100, 0, 0, 0};
    ASSERT_EQ(::send(p.a, hdr, 4, 0), 4);
    ASSERT_EQ(::send(p.a, "abc", 3, 0), 3);
    ::close(p.a);
    p.a = -1;
    std::string payload, err;
    EXPECT_EQ(readFrame(p.b, payload, &err), -1);
    EXPECT_NE(err.find("mid-frame"), std::string::npos) << err;
}

TEST(ServeWire, OversizedLengthPrefixIsRejectedNotAllocated)
{
    Pair p;
    unsigned char hdr[4] = {0xff, 0xff, 0xff, 0xff}; // ~4 GiB claim
    ASSERT_EQ(::send(p.a, hdr, 4, 0), 4);
    std::string payload, err;
    EXPECT_EQ(readFrame(p.b, payload, &err), -1);
    EXPECT_NE(err.find("cap"), std::string::npos) << err;
    EXPECT_FALSE(writeFrame(p.a, std::string(kMaxFrame + 1, 'x'), &err));
}

TEST(ServeWire, SplitterReassemblesBytewise)
{
    FrameSplitter sp;
    std::string wire;
    {
        Pair p;
        ASSERT_TRUE(writeFrame(p.a, "abc"));
        ASSERT_TRUE(writeFrame(p.a, "defg"));
        char buf[64];
        ssize_t n = ::recv(p.b, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0);
        wire.assign(buf, static_cast<std::size_t>(n));
    }
    std::vector<std::string> frames;
    std::string payload;
    for (char c : wire) { // worst case: one byte at a time
        sp.feed(&c, 1);
        while (sp.next(payload))
            frames.push_back(payload);
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], "abc");
    EXPECT_EQ(frames[1], "defg");
    EXPECT_EQ(sp.pendingBytes(), 0u);
}

TEST(ServeWire, SplitterPoisonsOnOversizedPrefix)
{
    FrameSplitter sp;
    char hdr[4];
    std::memset(hdr, 0xff, 4);
    sp.feed(hdr, 4);
    std::string payload;
    EXPECT_FALSE(sp.next(payload));
    EXPECT_FALSE(sp.error().empty());
    sp.feed("more", 4); // ignored once poisoned
    EXPECT_FALSE(sp.next(payload));
}

// ------------------------------------------------------------ proto

TEST(ServeWire, HalfClosedPeerSendPathReportsEpipe)
{
    // A peer that closed its read side must surface as a wire error on
    // our send path — not a SIGPIPE that kills the process. Fill the
    // socket buffer until the kernel reports the broken pipe.
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    ::close(sp[1]); // Peer is gone entirely: first send may EPIPE...
    std::string err;
    std::string payload(1 << 16, 'x');
    bool ok = true;
    for (int i = 0; ok && i < 64; ++i)
        ok = writeFrame(sp[0], payload, &err);
    EXPECT_FALSE(ok) << "send to a closed peer must fail";
    EXPECT_FALSE(err.empty());
    ::close(sp[0]);

    // ...and a half-closed peer (SHUT_RD on the far side) behaves the
    // same once its receive buffer is full.
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    ::shutdown(sp[1], SHUT_RD);
    ok = true;
    for (int i = 0; ok && i < 64; ++i)
        ok = writeFrame(sp[0], payload, &err);
    EXPECT_FALSE(ok) << "send to a half-closed peer must fail";
    ::close(sp[0]);
    ::close(sp[1]);
}

TEST(ServeProto, CellRoundTripPreservesKey)
{
    // Every field gets a non-default value; the daemon re-parses each
    // cell this way on its way to a worker, so none may be lost.
    RunConfig cfg;
    cfg.model = MachineModel::Int64KB;
    cfg.protocol = proto::ProtocolKind::Migratory;
    cfg.nodes = 4;
    cfg.ways = 2;
    cfg.app = "radix";
    cfg.scale = 0.3;
    cfg.cpuFreqMHz = 3000;
    cfg.lookAheadScheduling = false;
    cfg.bitAssistOps = false;
    cfg.perfectProtocolCaches = true;
    cfg.dirCacheDivisor = 4;
    ASSERT_TRUE(ExecParams::parse("parallel:3", cfg.exec));
    ASSERT_TRUE(parseCheckLevel("asserts", cfg.checkLevel));
    ASSERT_TRUE(SampleSpec::parse("1000:500:8", cfg.sample));
    ASSERT_TRUE(fault::FaultPlan::parse("seed=7,drop=0.01", cfg.faults));
    ASSERT_TRUE(fault::parseRetryPolicy("exp:50:3200", cfg.retryPolicy));
    cfg.traceStem = "?";
    cfg.traceExec = true;

    const JsonValue wire = cellToJson(cfg);
    const JsonValue dflt = cellToJson(RunConfig{});
    // The default keeps the pre-variant wire shape: no "protocol".
    EXPECT_EQ(dflt.find("protocol"), nullptr);

    RunConfig back;
    std::string err;
    ASSERT_TRUE(cellFromJson(wire, back, &err)) << err;
    EXPECT_EQ(cellKey(back), cellKey(cfg));
    EXPECT_EQ(cellToJson(back).dump(), wire.dump());
    EXPECT_EQ(back.traceStem, "?");

    std::set<std::string> flags;
    auto check = [&](const char *key, auto &, const char *flag,
                     RunConfig::Wire w) {
        if (w == RunConfig::Wire::InOnly)
            return;
        const JsonValue *v = wire.find(key);
        ASSERT_NE(v, nullptr) << key;
        const JsonValue *d = dflt.find(key);
        EXPECT_TRUE(d == nullptr || d->dump() != v->dump())
            << key << " was left at its default";
        if (flag == nullptr)
            return;
        // The CLI spelling of the wire value parses to the same field.
        flags.insert(flag);
        std::string text = v->isString() ? v->str() : v->dump();
        RunConfig cli;
        std::string ferr;
        ASSERT_TRUE(parseCellFlag(std::string(flag) + "=" + text, cli,
                                  &ferr))
            << flag << ": " << ferr;
        EXPECT_EQ(cellToJson(cli).find(key)->dump(), v->dump()) << flag;
    };
    cfg.fields(check);
    EXPECT_EQ(flags, (std::set<std::string>{
                         "--scale", "--dcache-div", "--exec", "--check",
                         "--protocol", "--sample", "--faults", "--retry"}));

    // A client's ckpt_dir is accepted and dropped.
    JsonValue withCkpt = wire;
    withCkpt.set("ckpt_dir", JsonValue::makeString("/elsewhere"));
    ASSERT_TRUE(cellFromJson(withCkpt, back, &err)) << err;
    EXPECT_TRUE(back.ckptDir.empty());

    // Words that are not cell flags are left to the caller.
    err.clear();
    EXPECT_FALSE(parseCellFlag("--nodes=4", back, &err));
    EXPECT_FALSE(parseCellFlag("--scale", back, &err));
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_FALSE(parseCellFlag("--scale=abc", back, &err));
    EXPECT_NE(err.find("--scale"), std::string::npos) << err;
}

TEST(ServeProto, ProtocolVariantsNeverShareACellKey)
{
    // The daemon's result cache and in-flight dedup key off cellKey;
    // the same workload under different directory protocols must
    // never collide. The default keeps the pre-variant wire shape:
    // no "protocol" member at all.
    RunConfig cfg;
    JsonValue defaultCell = cellToJson(cfg);
    EXPECT_EQ(defaultCell.find("protocol"), nullptr);

    std::uint64_t bitvectorKey = cellKey(cfg);
    cfg.protocol = proto::ProtocolKind::Migratory;
    std::uint64_t migratoryKey = cellKey(cfg);
    cfg.protocol = proto::ProtocolKind::PhasePriority;
    std::uint64_t phaseKey = cellKey(cfg);
    EXPECT_NE(bitvectorKey, migratoryKey);
    EXPECT_NE(bitvectorKey, phaseKey);
    EXPECT_NE(migratoryKey, phaseKey);

    RunConfig out;
    std::string err;
    EXPECT_FALSE(cellFromJson(
        [] {
            JsonValue cell = cellToJson(RunConfig{});
            cell.set("protocol", JsonValue::makeString("mesi"));
            return cell;
        }(),
        out, &err));
    EXPECT_NE(err.find("mesi"), std::string::npos) << err;
}

TEST(ServeProto, UnknownCellFieldIsRejected)
{
    JsonValue cell = cellToJson(RunConfig{});
    cell.set("scael", JsonValue::makeNumber(0.5)); // typo'd "scale"
    RunConfig out;
    std::string err;
    EXPECT_FALSE(cellFromJson(cell, out, &err));
    EXPECT_NE(err.find("scael"), std::string::npos) << err;
}

TEST(ServeProto, MalformedCellValuesAreRejected)
{
    auto reject = [](const char *mutate_key, JsonValue v) {
        JsonValue cell = cellToJson(RunConfig{});
        cell.set(mutate_key, std::move(v));
        RunConfig out;
        std::string err;
        EXPECT_FALSE(cellFromJson(cell, out, &err))
            << mutate_key << " accepted";
    };
    reject("nodes", JsonValue::makeNumber(-1));
    reject("nodes", JsonValue::makeNumber(2.5));
    reject("nodes", JsonValue::makeNumber(1e18));
    reject("nodes", JsonValue::makeString("8"));
    reject("scale", JsonValue::makeNumber(0));
    reject("exec", JsonValue::makeString("hyperthreaded"));
    reject("check", JsonValue::makeString("paranoid"));
    reject("sample", JsonValue::makeString("1:2"));
    reject("sample", JsonValue::makeString("-1:5:5"));
    reject("sample", JsonValue::makeString("1: 5:+5"));
    reject("las", JsonValue::makeNumber(1));
    // The machine's own size checks run at the wire.
    reject("dir_cache_divisor", JsonValue::makeNumber(3));
    reject("nodes", JsonValue::makeNumber(3));
    reject("nodes", JsonValue::makeNumber(6));
    reject("nodes", JsonValue::makeNumber(64));
    reject("dir_cache_divisor", JsonValue::makeNumber(0));
}

/** Every RunResult field as (key, value), in list order. */
std::vector<std::pair<std::string, double>>
fieldValues(RunResult r)
{
    std::vector<std::pair<std::string, double>> out;
    auto get = [&out](const char *key, auto &v, RunResult::Group,
                      RunResult::Fmt) {
        out.emplace_back(key, static_cast<double>(v));
    };
    r.fields(get);
    return out;
}

/** fieldValues() less the host-side wall_ms and checkpoint outcome. */
std::vector<std::pair<std::string, double>>
simulatedValues(const RunResult &r)
{
    auto out = fieldValues(r);
    std::erase_if(out, [](const auto &kv) {
        return kv.first == "wall_ms" || kv.first == "ckpt";
    });
    return out;
}

TEST(ServeProto, ResultRoundTrip)
{
    // Every field on the list gets a distinct non-default value.
    RunResult r;
    double next = 1.0;
    auto fill = [&next](const char *, auto &v, RunResult::Group,
                        RunResult::Fmt) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>)
            v = true;
        else if constexpr (std::is_floating_point_v<T>)
            v = next + 0.125;
        else
            v = static_cast<T>(next);
        next += 1.0;
    };
    r.fields(fill);
    auto want = fieldValues(r);
    auto dflt = fieldValues(RunResult{});
    ASSERT_EQ(want.size(), dflt.size());
    std::set<std::string> keys;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(keys.insert(want[i].first).second)
            << "duplicate key " << want[i].first;
        EXPECT_NE(want[i].second, dflt[i].second) << want[i].first;
    }

    // Every field survives the wire, as a value and as text.
    bool complete = false;
    EXPECT_EQ(fieldValues(resultFromJson(resultToJson(r), &complete)),
              want);
    EXPECT_TRUE(complete);
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(resultToJson(r).dump(), parsed));
    EXPECT_EQ(fieldValues(resultFromJson(parsed)), want);

    // A payload from a peer that predates a field is read tolerantly
    // but reported incomplete.
    JsonValue old = JsonValue::makeObject();
    old.set("exec_ticks", JsonValue::makeNumber(42));
    RunResult back = resultFromJson(old, &complete);
    EXPECT_FALSE(complete);
    EXPECT_EQ(back.execTime, 42u);
    EXPECT_EQ(back.requests, 0u);
}

TEST(ServeProto, LongFaultPlanRecordIsWhole)
{
    RunConfig cfg;
    cfg.faults.seed = 18446744073709551615ull;
    for (double *rate :
         {&cfg.faults.netDrop, &cfg.faults.netDup, &cfg.faults.netDelay,
          &cfg.faults.netReorder, &cfg.faults.memFlipSingle,
          &cfg.faults.memFlipDouble, &cfg.faults.forceNak})
        *rate = 0.1234567;
    cfg.faults.netDelayMax = 9999999 * tickPerNs;
    cfg.faults.retransmitTimeout = 9999999 * tickPerNs;
    cfg.faults.maxRetransmits = 9999999;
    cfg.faults.injectDropWithoutRetransmit = true;
    ASSERT_TRUE(fault::parseRetryPolicy("exp:9999999:9999999",
                                        cfg.retryPolicy));
    RunResult r;
    r.faultsInjected = 18446744073709551615ull;
    r.faultsRecovered = 18446744073709551614ull;
    std::string rec = jsonRecord(cfg, r);
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(rec, v, &err)) << err << "\n" << rec;
    EXPECT_EQ(v.getString("faults"), cfg.faults.toString());
    EXPECT_NE(rec.find(",\"faults_recovered\":18446744073709551614,"),
              std::string::npos)
        << rec;
}

TEST(ServeProto, Hex64RoundTrip)
{
    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0},
          std::uint64_t{0xdeadbeefcafe1234}}) {
        std::uint64_t back = 1;
        EXPECT_TRUE(parseHex64(hex64(v), back));
        EXPECT_EQ(back, v);
    }
    std::uint64_t out;
    EXPECT_FALSE(parseHex64("", out));
    EXPECT_FALSE(parseHex64("xyz", out));
    EXPECT_FALSE(parseHex64("00000000000000000", out)); // 17 digits
}

// ----------------------------------------------------------- daemon

/** An in-process smtpd on its own thread, torn down per test. */
struct DaemonFixture
{
    std::string dir;
    std::string sock;
    Server *server = nullptr;
    std::thread thread;

    explicit DaemonFixture(const char *tag, unsigned jobs = 2)
    {
        dir = std::string("serve_test_") + tag;
        sock = dir + "/smtpd.sock";
        start(jobs);
    }

    /** Full-options variant for deadline/retry/admission tests. */
    DaemonFixture(const char *tag, const ServerOptions &opt)
    {
        dir = std::string("serve_test_") + tag;
        sock = dir + "/smtpd.sock";
        start(opt);
    }

    void
    start(unsigned jobs = 2)
    {
        ServerOptions opt;
        opt.jobs = jobs;
        start(opt);
    }

    void
    start(ServerOptions opt)
    {
        opt.socketPath = sock;
        opt.stateDir = dir;
        server = new Server(opt);
        thread = std::thread([this] { server->run(); });
        // The listener may not be up yet; spin until a ping succeeds.
        Client probe;
        for (int i = 0; i < 200; ++i) {
            if (probe.connect(sock) && probe.ping())
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        FAIL() << "daemon did not come up at " << sock;
    }

    void
    stop()
    {
        if (server == nullptr)
            return;
        server->requestStop();
        thread.join();
        delete server;
        server = nullptr;
    }

    ~DaemonFixture()
    {
        stop();
        std::string cmd = "rm -rf '" + dir + "'";
        [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
};

RunConfig
quickCell(const char *app = "fft", unsigned nodes = 2)
{
    RunConfig cfg;
    cfg.model = MachineModel::SMTp;
    cfg.app = app;
    cfg.nodes = nodes;
    cfg.scale = 0.05;
    return cfg;
}

TEST(ServeDaemon, ServesCellsAndDedupsAcrossConcurrentClients)
{
    DaemonFixture d("dedup");
    // Two clients, overlapping sweeps, submitted concurrently: the
    // shared cell must simulate once and both clients must receive
    // byte-identical records for it.
    std::vector<RunConfig> sweepA{quickCell("fft"), quickCell("lu")};
    std::vector<RunConfig> sweepB{quickCell("fft"), quickCell("radix")};
    std::vector<std::string> recA(sweepA.size()), recB(sweepB.size());
    bool okA = false, okB = false;
    std::thread ta([&] {
        Client c;
        ASSERT_TRUE(c.connect(d.sock));
        okA = c.submit(sweepA, 0, [&](const CellReply &cr) {
            recA[cr.index] = cr.record;
        });
    });
    std::thread tb([&] {
        Client c;
        ASSERT_TRUE(c.connect(d.sock));
        okB = c.submit(sweepB, 0, [&](const CellReply &cr) {
            recB[cr.index] = cr.record;
        });
    });
    ta.join();
    tb.join();
    ASSERT_TRUE(okA);
    ASSERT_TRUE(okB);
    for (const std::string &r : recA)
        EXPECT_FALSE(r.empty());
    for (const std::string &r : recB)
        EXPECT_FALSE(r.empty());
    // Byte-identity for the shared fft cell, mod wall_ms.
    auto strip = [](std::string s) {
        auto pos = s.find(",\"wall_ms\"");
        return s.substr(0, pos);
    };
    EXPECT_EQ(strip(recA[0]), strip(recB[0]));
    // The identical cell simulated exactly once.
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    JsonValue stats;
    ASSERT_TRUE(c.stats(stats));
    EXPECT_EQ(stats.getNumber("cells_submitted"), 4.0);
    EXPECT_EQ(stats.getNumber("cells_simulated"), 3.0);
    EXPECT_EQ(stats.getNumber("dedup_hits"), 1.0);
}

TEST(ServeDaemon, ServedRecordMatchesLocalRunByteForByte)
{
    DaemonFixture d("vslocal");
    RunConfig cfg = quickCell();
    std::string served;
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    ASSERT_TRUE(c.submit({cfg}, 0, [&](const CellReply &cr) {
        served = cr.record;
    })) << c.error();
    RunResult local = runOnce(cfg);
    std::string localRec = jsonRecord(cfg, local);
    auto strip = [](const std::string &s) {
        return s.substr(0, s.find(",\"wall_ms\""));
    };
    ASSERT_FALSE(served.empty());
    EXPECT_EQ(strip(served), strip(localRec));
}

TEST(ServeDaemon, ServedResultCarriesEveryField)
{
    DaemonFixture d("fields");
    RunConfig cfg = quickCell("kv-store");
    RunResult served;
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    ASSERT_TRUE(c.submit({cfg}, 0, [&](const CellReply &cr) {
        served = cr.result;
    })) << c.error();
    RunResult local = runOnce(cfg);
    EXPECT_GT(local.requests, 0u);
    EXPECT_EQ(simulatedValues(served), simulatedValues(local));
}

TEST(ServeDaemon, RestartRehydratesFromResultCache)
{
    DaemonFixture d("restart");
    RunConfig cfg = quickCell();
    std::string first;
    {
        Client c;
        ASSERT_TRUE(c.connect(d.sock));
        ASSERT_TRUE(c.submit({cfg}, 0, [&](const CellReply &cr) {
            first = cr.record;
            EXPECT_FALSE(cr.cached);
        }));
    }
    d.stop();
    d.start();
    std::string second;
    bool cached = false;
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    ASSERT_TRUE(c.submit({cfg}, 0, [&](const CellReply &cr) {
        second = cr.record;
        cached = cr.cached;
    }));
    EXPECT_TRUE(cached);
    EXPECT_EQ(first, second); // verbatim replay, wall_ms included
    JsonValue stats;
    ASSERT_TRUE(c.stats(stats));
    EXPECT_EQ(stats.getNumber("cells_simulated"), 0.0);
    EXPECT_EQ(stats.getNumber("disk_hits"), 1.0);
}

TEST(ServeDaemon, UnknownJobFieldsAreRejected)
{
    DaemonFixture d("unknown");
    int fd = connectSocket(d.sock);
    ASSERT_GE(fd, 0);
    // Top-level unknown field.
    ASSERT_TRUE(writeFrame(
        fd, R"({"op":"submit","cells":[{}],"turbo":true})"));
    std::string payload, err;
    ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
    JsonValue reply;
    ASSERT_TRUE(JsonValue::parse(payload, reply));
    EXPECT_EQ(reply.getString("type"), "error");
    EXPECT_NE(reply.getString("message").find("turbo"),
              std::string::npos);
    ::close(fd);
    // Unknown per-cell field.
    fd = connectSocket(d.sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(writeFrame(
        fd, R"({"op":"submit","cells":[{"app":"fft","warpdrive":9}]})"));
    ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
    ASSERT_TRUE(JsonValue::parse(payload, reply));
    EXPECT_EQ(reply.getString("type"), "error");
    EXPECT_NE(reply.getString("message").find("warpdrive"),
              std::string::npos);
    ::close(fd);
}

TEST(ServeDaemon, RetiredKernelFieldGetsErrorFrames)
{
    DaemonFixture d("retired");
    auto expect_error = [&](const char *frame, const char *needle) {
        int fd = connectSocket(d.sock);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeFrame(fd, frame));
        std::string payload, err;
        ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
        JsonValue reply;
        ASSERT_TRUE(JsonValue::parse(payload, reply));
        EXPECT_EQ(reply.getString("type"), "error");
        EXPECT_NE(reply.getString("message").find(needle),
                  std::string::npos)
            << reply.getString("message");
        ::close(fd);
    };
    // A version-1 client still sends the event-kernel switch.
    expect_error(R"({"op":"submit","proto":1,)"
                 R"("cells":[{"app":"fft","heap_kernel":false}]})",
                 "protocol version");
    // The field alone is unknown under the current version too.
    expect_error(R"({"op":"submit","proto":2,)"
                 R"("cells":[{"app":"fft","heap_kernel":true}]})",
                 "heap_kernel");
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    EXPECT_TRUE(c.ping()) << c.error();
}

TEST(ServeDaemon, HostileFramesGetErrorsNotCrashes)
{
    DaemonFixture d("hostile");
    // Oversized length prefix: daemon must answer with an error frame
    // (or hang up), and must still serve the next client.
    {
        int fd = connectSocket(d.sock);
        ASSERT_GE(fd, 0);
        unsigned char hdr[4] = {0xff, 0xff, 0xff, 0x7f};
        ASSERT_EQ(::send(fd, hdr, 4, MSG_NOSIGNAL), 4);
        std::string payload;
        readFrame(fd, payload); // error frame or EOF; either is fine
        ::close(fd);
    }
    // Bad JSON payload.
    {
        int fd = connectSocket(d.sock);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeFrame(fd, "{not json"));
        std::string payload, err;
        ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
        JsonValue reply;
        ASSERT_TRUE(JsonValue::parse(payload, reply));
        EXPECT_EQ(reply.getString("type"), "error");
        ::close(fd);
    }
    // Truncated frame then disconnect: promise 50 bytes, send 5, hang
    // up. The daemon must just drop the connection.
    {
        int fd = connectSocket(d.sock);
        ASSERT_GE(fd, 0);
        unsigned char hdr[4] = {50, 0, 0, 0};
        ASSERT_EQ(::send(fd, hdr, 4, MSG_NOSIGNAL), 4);
        ASSERT_EQ(::send(fd, "hello", 5, MSG_NOSIGNAL), 5);
        ::close(fd);
    }
    // Unsupported protocol version.
    {
        int fd = connectSocket(d.sock);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeFrame(fd, R"({"op":"ping","proto":99})"));
        std::string payload, err;
        ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
        JsonValue reply;
        ASSERT_TRUE(JsonValue::parse(payload, reply));
        EXPECT_EQ(reply.getString("type"), "error");
        ::close(fd);
    }
    // After all of that, an honest client still gets served.
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    EXPECT_TRUE(c.ping()) << c.error();
}

TEST(ServeDaemon, ClientDisconnectMidStreamAbandonsItsJob)
{
    DaemonFixture d("disco", /*jobs=*/1);
    // Submit a multi-cell job and hang up immediately: the daemon must
    // drop the waiters and keep serving others. (With jobs=1 the later
    // cells are still queued when the disconnect lands, exercising the
    // abandon path; completed cells stay cached either way.)
    {
        int fd = connectSocket(d.sock);
        ASSERT_GE(fd, 0);
        JsonValue req;
        std::string err;
        RunConfig a = quickCell("fft"), b = quickCell("lu"),
                  e = quickCell("radix");
        req = JsonValue::makeObject();
        req.set("op", JsonValue::makeString("submit"));
        JsonValue arr = JsonValue::makeArray();
        arr.append(cellToJson(a));
        arr.append(cellToJson(b));
        arr.append(cellToJson(e));
        req.set("cells", std::move(arr));
        ASSERT_TRUE(writeFrame(fd, req.dump(), &err)) << err;
        std::string payload;
        ASSERT_EQ(readFrame(fd, payload, &err), 1) << err; // accepted
        ::close(fd); // gone before any cell completes
    }
    // A different client's work proceeds normally.
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    std::string rec;
    ASSERT_TRUE(c.submit({quickCell("water")}, 5,
                         [&](const CellReply &cr) { rec = cr.record; }))
        << c.error();
    EXPECT_FALSE(rec.empty());
    JsonValue stats;
    ASSERT_TRUE(c.stats(stats));
    EXPECT_EQ(stats.getNumber("jobs_active"), 0.0);
}

/** Raw-socket submit; returns the fd with the "accepted" frame consumed. */
int
rawSubmit(const std::string &sock, const std::vector<RunConfig> &cells)
{
    int fd = connectSocket(sock);
    EXPECT_GE(fd, 0);
    JsonValue req = JsonValue::makeObject();
    req.set("op", JsonValue::makeString("submit"));
    JsonValue arr = JsonValue::makeArray();
    for (const RunConfig &c : cells)
        arr.append(cellToJson(c));
    req.set("cells", std::move(arr));
    std::string err;
    EXPECT_TRUE(writeFrame(fd, req.dump(), &err)) << err;
    std::string payload;
    EXPECT_EQ(readFrame(fd, payload, &err), 1) << err;
    JsonValue reply;
    EXPECT_TRUE(JsonValue::parse(payload, reply));
    EXPECT_EQ(reply.getString("type"), "accepted");
    return fd;
}

TEST(ServeDaemon, CancelRemovesQueuedCells)
{
    DaemonFixture d("cancel", /*jobs=*/1);
    // Job 1 occupies the single worker with a bigger cell; job 2's
    // four quick cells queue behind it (same priority, FIFO), so the
    // cancel deterministically catches all four still queued.
    RunConfig big = quickCell("fft");
    big.scale = 0.2;
    int fd1 = rawSubmit(d.sock, {big});
    int fd2 = rawSubmit(d.sock, {quickCell("fft"), quickCell("lu"),
                                 quickCell("radix"), quickCell("water")});
    Client killer;
    ASSERT_TRUE(killer.connect(d.sock));
    std::size_t removed = 0;
    ASSERT_TRUE(killer.cancel(2, &removed)) << killer.error();
    EXPECT_EQ(removed, 4u);
    // Job 2's owner gets "done" with everything skipped, no cells.
    std::string payload, err;
    ASSERT_EQ(readFrame(fd2, payload, &err), 1) << err;
    JsonValue done;
    ASSERT_TRUE(JsonValue::parse(payload, done));
    EXPECT_EQ(done.getString("type"), "done");
    EXPECT_EQ(done.getNumber("skipped"), 4.0);
    ::close(fd2);
    // Job 1 is untouched: its cell completes and streams normally.
    ASSERT_EQ(readFrame(fd1, payload, &err), 1) << err;
    JsonValue cellFrame;
    ASSERT_TRUE(JsonValue::parse(payload, cellFrame));
    EXPECT_EQ(cellFrame.getString("type"), "cell");
    ASSERT_EQ(readFrame(fd1, payload, &err), 1) << err;
    ASSERT_TRUE(JsonValue::parse(payload, done));
    EXPECT_EQ(done.getString("type"), "done");
    EXPECT_EQ(done.getNumber("skipped"), 0.0);
    ::close(fd1);
    JsonValue stats;
    ASSERT_TRUE(killer.stats(stats));
    EXPECT_EQ(stats.getNumber("jobs_cancelled"), 1.0);
    EXPECT_EQ(stats.getNumber("jobs_active"), 0.0);
}

TEST(ServeDaemon, ConcurrentCheckpointLibraryAccessSimulatesWarmupOnce)
{
    DaemonFixture d("ckptfarm");
    // Two clients submit the same cold sampled cell concurrently: the
    // daemon dedups them into one simulation, which populates the warm
    // checkpoint farm. A third submission of a *different* sample
    // count with the same warmup then restores the shared warmup
    // snapshot instead of re-simulating it.
    RunConfig sampled = quickCell();
    ASSERT_TRUE(SampleSpec::parse("20000:5000:4", sampled.sample));
    std::vector<std::string> recs(2);
    std::thread ta([&] {
        Client c;
        ASSERT_TRUE(c.connect(d.sock));
        c.submit({sampled}, 0,
                 [&](const CellReply &cr) { recs[0] = cr.record; });
    });
    std::thread tb([&] {
        Client c;
        ASSERT_TRUE(c.connect(d.sock));
        c.submit({sampled}, 0,
                 [&](const CellReply &cr) { recs[1] = cr.record; });
    });
    ta.join();
    tb.join();
    ASSERT_FALSE(recs[0].empty());
    EXPECT_EQ(recs[0], recs[1]); // one simulation, one record
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    JsonValue stats;
    ASSERT_TRUE(c.stats(stats));
    EXPECT_EQ(stats.getNumber("cells_simulated"), 1.0);
    EXPECT_EQ(stats.getNumber("dedup_hits"), 1.0);

    // Same warmup, different K: distinct cellKey (no dedup), but the
    // warmup snapshot is shared through the farm — the record reports
    // a checkpoint hit.
    RunConfig other = sampled;
    other.sample.count = 2;
    RunResult got;
    ASSERT_TRUE(c.submit({other}, 0, [&](const CellReply &cr) {
        got = cr.result;
    })) << c.error();
    EXPECT_EQ(got.ckpt, 1) << "warmup snapshot was not shared";
}

TEST(ServeDaemon, CheckedCellRunsUnderDaemonAndReportsCheckLevel)
{
    DaemonFixture d("checked");
    RunConfig cfg = quickCell();
    ASSERT_TRUE(ExecParams::parse("parallel:2", cfg.exec));
    ASSERT_TRUE(parseCheckLevel("asserts", cfg.checkLevel));
    std::string rec;
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    ASSERT_TRUE(c.submit({cfg}, 0, [&](const CellReply &cr) {
        rec = cr.record;
    })) << c.error();
    EXPECT_NE(rec.find("\"check\":\"asserts\""), std::string::npos)
        << rec;
    EXPECT_NE(rec.find("\"exec\":\"parallel:2\""), std::string::npos)
        << rec;
    // Unchecked twin must agree on simulated fields.
    RunConfig plain = quickCell();
    std::string plainRec;
    ASSERT_TRUE(c.submit({plain}, 0, [&](const CellReply &cr) {
        plainRec = cr.record;
    }));
    auto ticks = [](const std::string &s) {
        auto pos = s.find("\"exec_ticks\":");
        return s.substr(pos, s.find(',', pos) - pos);
    };
    EXPECT_EQ(ticks(rec), ticks(plainRec));
}

// ------------------------------------------- crash isolation + chaos

/** Unset every chaos hook; guards against leakage between tests. */
struct ChaosEnvGuard
{
    ChaosEnvGuard(const char *app, const char *var)
    {
        ::setenv(var, app, 1);
        var_ = var;
    }
    ~ChaosEnvGuard() { ::unsetenv(var_); }
    const char *var_;
};

TEST(ServeDaemon, CrashedWorkerIsRetriedAndRecordByteIdentical)
{
    ChaosEnvGuard chaos("fft", "SMTPD_CHAOS_ABORT_APP");
    ServerOptions opt;
    opt.jobs = 2;
    DaemonFixture d("crashretry", opt);
    RunConfig cfg = quickCell("fft");
    std::string served;
    std::size_t failed = 0;
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    ASSERT_TRUE(c.submit(
        {cfg}, 0,
        [&](const CellReply &cr) {
            served = cr.record;
            EXPECT_FALSE(cr.failed);
        },
        nullptr, &failed))
        << c.error();
    EXPECT_EQ(failed, 0u);
    JsonValue stats;
    ASSERT_TRUE(c.stats(stats));
    EXPECT_GE(stats.getNumber("workers_crashed"), 1.0);
    EXPECT_GE(stats.getNumber("cells_retried"), 1.0);
    EXPECT_EQ(stats.getNumber("cells_quarantined"), 0.0);
    // The post-crash record is the same record a clean local run makes.
    ::unsetenv("SMTPD_CHAOS_ABORT_APP");
    RunResult local = runOnce(cfg);
    auto strip = [](const std::string &s) {
        return s.substr(0, s.find(",\"wall_ms\""));
    };
    EXPECT_EQ(strip(served), strip(jsonRecord(cfg, local)));
}

TEST(ServeDaemon, WedgedWorkerIsDeadlineKilledThenQuarantined)
{
    ChaosEnvGuard chaos("fft", "SMTPD_CHAOS_WEDGE_APP");
    // No daemon-wide deadline: the wedged job requests its own via
    // deadline_ms. A wedged worker never computes, so the deadline is
    // pure kill latency — immune to sanitizer/load slowdowns — and
    // healthy cells (incl. the post-restart rerun below) stay unbounded.
    ServerOptions opt;
    opt.jobs = 2;
    opt.maxAttempts = 2;
    opt.retry.kind = fault::RetryKind::Immediate;
    DaemonFixture d("wedge", opt);
    RunConfig cfg = quickCell("fft");
    std::string served;
    bool sawFailed = false;
    unsigned attempts = 0;
    std::string reason;
    std::size_t failed = 0;
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    EXPECT_FALSE(c.submit(
        {cfg}, 0,
        [&](const CellReply &cr) {
            served = cr.record;
            sawFailed = cr.failed;
            attempts = cr.attempts;
            reason = cr.errReason;
        },
        nullptr, &failed, /*deadlineMs=*/500));
    EXPECT_EQ(failed, 1u);
    EXPECT_TRUE(sawFailed);
    EXPECT_EQ(reason, "deadline");
    EXPECT_EQ(attempts, 2u);
    // The failure record is structured, parseable, and self-describing.
    JsonValue rec;
    ASSERT_TRUE(JsonValue::parse(served, rec)) << served;
    EXPECT_TRUE(rec.getBool("failed"));
    EXPECT_EQ(rec.getString("error"), "deadline");
    EXPECT_EQ(rec.getNumber("attempts"), 2.0);
    EXPECT_EQ(rec.getString("app"), "fft");
    JsonValue stats;
    ASSERT_TRUE(c.stats(stats));
    EXPECT_EQ(stats.getNumber("workers_deadline_killed"), 2.0);
    EXPECT_EQ(stats.getNumber("cells_quarantined"), 1.0);
    // Quarantine is not cached: nothing poisonous lands on disk, so a
    // restart (or just the hook clearing) gives the cell a fresh shot.
    ::unsetenv("SMTPD_CHAOS_WEDGE_APP");
    d.stop();
    d.start(opt);
    Client c2;
    ASSERT_TRUE(c2.connect(d.sock));
    std::string reason2, detail2;
    EXPECT_TRUE(c2.submit({cfg}, 0,
                          [&](const CellReply &cr) {
                              reason2 = cr.errReason;
                              detail2 = cr.errDetail;
                          }))
        << c2.error() << " reason=" << reason2
        << " detail=" << detail2;
}

TEST(ServeDaemon, ResultCacheFsckQuarantinesCorruptFiles)
{
    DaemonFixture d("fsck");
    std::vector<RunConfig> cells{quickCell("fft"), quickCell("lu"),
                                 quickCell("radix")};
    std::vector<std::string> before(cells.size());
    {
        Client c;
        ASSERT_TRUE(c.connect(d.sock));
        ASSERT_TRUE(c.submit(cells, 0, [&](const CellReply &cr) {
            before[cr.index] = cr.record;
        })) << c.error();
    }
    d.stop();

    // Vandalize all three cached results differently: truncation,
    // a single flipped bit (checksum territory), and zero length.
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const auto &e : fs::directory_iterator(d.dir + "/results"))
        files.push_back(e.path().string());
    ASSERT_EQ(files.size(), 3u);
    fs::resize_file(files[0], fs::file_size(files[0]) / 2);
    {
        std::FILE *f = std::fopen(files[1].c_str(), "r+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, static_cast<long>(fs::file_size(files[1]) / 2),
                   SEEK_SET);
        int ch = std::fgetc(f);
        std::fseek(f, -1, SEEK_CUR);
        std::fputc(ch ^ 0x01, f);
        std::fclose(f);
    }
    fs::resize_file(files[2], 0);

    d.start();
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    JsonValue stats;
    ASSERT_TRUE(c.stats(stats));
    EXPECT_EQ(stats.getNumber("fsck_quarantined"), 3.0);
    // The rejects moved to quarantine/ rather than vanishing.
    std::size_t quarantined = 0;
    for ([[maybe_unused]] const auto &e :
         fs::directory_iterator(d.dir + "/quarantine"))
        ++quarantined;
    EXPECT_EQ(quarantined, 3u);
    // Recomputation must not trust any vandalized bytes...
    std::vector<std::string> after(cells.size());
    ASSERT_TRUE(c.submit(cells, 0, [&](const CellReply &cr) {
        after[cr.index] = cr.record;
        EXPECT_FALSE(cr.cached);
        EXPECT_FALSE(cr.failed);
    })) << c.error();
    ASSERT_TRUE(c.stats(stats));
    EXPECT_EQ(stats.getNumber("disk_hits"), 0.0);
    // ...and must reproduce the originals byte-for-byte mod wall_ms.
    auto strip = [](const std::string &s) {
        return s.substr(0, s.find(",\"wall_ms\""));
    };
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(strip(before[i]), strip(after[i])) << i;
}

/** The result cache's content checksum: FNV-1a over record\nresult. */
std::uint64_t
cacheSum(const std::string &record, const std::string &result)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (char ch : record + "\n" + result) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(ServeDaemon, ResultCacheFileMissingAFieldIsResimulated)
{
    DaemonFixture d("oldcache");
    RunConfig cfg = quickCell("kv-store");
    CellReply first;
    {
        Client c;
        ASSERT_TRUE(c.connect(d.sock));
        ASSERT_TRUE(c.submit({cfg}, 0, [&](const CellReply &cr) {
            first = cr;
        })) << c.error();
    }
    d.stop();

    // Rewrite the cache file the way a daemon from before "requests"
    // travelled would have: checksum valid, the member absent.
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const auto &e : fs::directory_iterator(d.dir + "/results"))
        files.push_back(e.path().string());
    ASSERT_EQ(files.size(), 1u);
    std::string text;
    {
        std::FILE *f = std::fopen(files[0].c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    JsonValue file;
    ASSERT_TRUE(JsonValue::parse(text, file));
    JsonValue old = JsonValue::makeObject();
    for (const auto &[key, value] : file.find("result")->members()) {
        if (key != "requests")
            old.set(key, value);
    }
    std::string record = file.getString("record");
    JsonValue forged = JsonValue::makeObject();
    forged.set("key", *file.find("key"));
    forged.set("record", JsonValue::makeString(record));
    forged.set("sum", JsonValue::makeString(
                          hex64(cacheSum(record, old.dump()))));
    forged.set("result", old);
    {
        std::FILE *f = std::fopen(files[0].c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::string out = forged.dump();
        std::fwrite(out.data(), 1, out.size(), f);
        std::fclose(f);
    }

    d.start();
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    JsonValue stats;
    ASSERT_TRUE(c.stats(stats));
    EXPECT_EQ(stats.getNumber("fsck_quarantined"), 1.0);
    CellReply again;
    ASSERT_TRUE(c.submit({cfg}, 0, [&](const CellReply &cr) {
        again = cr;
    })) << c.error();
    EXPECT_FALSE(again.cached);
    EXPECT_GT(again.result.requests, 0u);
    EXPECT_EQ(simulatedValues(again.result), simulatedValues(first.result));
}

TEST(ServeDaemon, OverloadedSubmitIsRejectedWithBackpressure)
{
    ServerOptions opt;
    opt.jobs = 1;
    opt.maxQueuedCells = 1;
    DaemonFixture d("overload", opt);
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    // Three distinct new cells against a backlog limit of one: the
    // daemon must refuse outright with an explicit overloaded reply.
    std::vector<RunConfig> big{quickCell("fft", 2), quickCell("fft", 4),
                               quickCell("lu", 2)};
    EXPECT_FALSE(c.submit(big, 0, nullptr));
    EXPECT_TRUE(c.overloaded()) << c.error();
    EXPECT_NE(c.error().find("overloaded"), std::string::npos);
    // The refusal is backpressure, not a dropped connection: the same
    // client retries smaller and is served.
    EXPECT_TRUE(c.ping()) << c.error();
    std::vector<RunConfig> small{quickCell("fft", 2)};
    EXPECT_TRUE(c.submit(small, 0, nullptr)) << c.error();
    JsonValue stats;
    ASSERT_TRUE(c.stats(stats));
    EXPECT_EQ(stats.getNumber("jobs_rejected"), 1.0);
    EXPECT_EQ(stats.getNumber("jobs_accepted"), 1.0);
}

TEST(ServeDaemon, CancellingRunningJobKillsWorkerPromptly)
{
    ChaosEnvGuard chaos("fft", "SMTPD_CHAOS_WEDGE_APP");
    // One worker, no deadline: without the cancel-kill the wedged
    // worker would hold the only slot until daemon shutdown.
    ServerOptions opt;
    opt.jobs = 1;
    DaemonFixture d("cancelkill", opt);
    std::thread wedged([&d] {
        Client c;
        if (!c.connect(d.sock))
            return;
        RunConfig cfg = quickCell("fft");
        c.submit({cfg}, 0, nullptr); // Returns after the cancel below.
    });
    // Wait for the cell to be dispatched into the worker.
    Client c;
    ASSERT_TRUE(c.connect(d.sock));
    JsonValue stats;
    bool running = false;
    for (int i = 0; i < 500 && !running; ++i) {
        ASSERT_TRUE(c.stats(stats));
        running = stats.getNumber("cells_running") >= 1.0;
        if (!running)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(running) << "wedged cell never dispatched";
    std::size_t removed = 0;
    ASSERT_TRUE(c.cancel(1, &removed)) << c.error();
    EXPECT_EQ(removed, 1u);
    wedged.join();
    ASSERT_TRUE(c.stats(stats));
    EXPECT_EQ(stats.getNumber("workers_cancel_killed"), 1.0);
    EXPECT_EQ(stats.getNumber("cells_running"), 0.0);
    // The slot is genuinely free: a healthy job completes promptly.
    ::unsetenv("SMTPD_CHAOS_WEDGE_APP");
    RunConfig lu = quickCell("lu");
    EXPECT_TRUE(c.submit({lu}, 0, nullptr)) << c.error();
}

// ------------------------------------------------------ smtpctl CLI

/** Run the real smtpctl binary; returns its exit status (or -1). */
int
runSmtpctl(const std::string &args)
{
    std::string cmd = std::string(SMTPCTL_BIN) + " " + args +
                      " > /dev/null 2> /dev/null";
    int rc = std::system(cmd.c_str());
    return rc < 0 ? -1 : WEXITSTATUS(rc);
}

TEST(SmtpctlCli, ConnectionRefusedExitsOne)
{
    EXPECT_EQ(runSmtpctl("--socket=/nonexistent/no.sock ping"), 1);
    EXPECT_EQ(runSmtpctl("--socket=/nonexistent/no.sock run"), 1);
}

TEST(SmtpctlCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(runSmtpctl(""), 2);
    EXPECT_EQ(runSmtpctl("--socket=x bogus-command"), 2);
    EXPECT_EQ(runSmtpctl("--socket=x --bogus-flag ping"), 2);
    EXPECT_EQ(runSmtpctl("--socket=x run --nodes=0"), 2);
    EXPECT_EQ(runSmtpctl("--socket=x run --deadline=-1"), 2);
    // Bad cell values are usage errors before any connection.
    EXPECT_EQ(runSmtpctl("--socket=x run --nodes=6"), 2);
    EXPECT_EQ(runSmtpctl("--socket=x run --nodes=64"), 2);
    EXPECT_EQ(runSmtpctl("--socket=x run --scale=0"), 2);
    EXPECT_EQ(runSmtpctl("--socket=x run --scale=abc"), 2);
    EXPECT_EQ(runSmtpctl("--socket=x run --ways=abc"), 2);
    EXPECT_EQ(runSmtpctl("--socket=x run --priority=abc"), 2);
}

TEST(SmtpctlCli, MalformedDaemonReplyExitsOne)
{
    // A fake daemon that answers every frame with garbage: smtpctl must
    // diagnose and exit 1, not crash or hang.
    std::string dir = "serve_test_fakectl";
    std::string cmd = "rm -rf '" + dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string sock = dir + "/fake.sock";
    int lfd = listenSocket(sock);
    ASSERT_GE(lfd, 0);
    std::thread fake([lfd] {
        int cfd = ::accept(lfd, nullptr, nullptr);
        if (cfd < 0)
            return;
        std::string payload;
        readFrame(cfd, payload);
        writeFrame(cfd, "this is not json");
        ::close(cfd);
    });
    EXPECT_EQ(runSmtpctl("--socket=" + sock + " ping"), 1);
    fake.join();
    ::close(lfd);
    ASSERT_EQ(std::system(cmd.c_str()), 0);
}

TEST(SmtpctlCli, FailedCellsExitThree)
{
    ChaosEnvGuard chaos("fft", "SMTPD_CHAOS_WEDGE_APP");
    ServerOptions opt;
    opt.jobs = 1;
    opt.deadlineMs = 300;
    opt.maxAttempts = 1;
    DaemonFixture d("ctlfail", opt);
    // The wedge hook deadline-kills the cell's only attempt; the CLI
    // must report the quarantine as exit 3 (ran, but cells failed),
    // distinct from connection/daemon errors (1).
    EXPECT_EQ(runSmtpctl("--socket=" + d.sock +
                         " run --apps=fft --nodes=2 --scale=0.05"),
              3);
}

} // namespace
} // namespace smtp::serve
