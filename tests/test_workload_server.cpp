/**
 * @file
 * The server workload family's contract: queue-server, kv-store and
 * spec-txn run to completion on all five machine models, produce
 * bit-identical simulated results under --exec=serial vs parallel:T,
 * survive a mid-run checkpoint round trip (including the barrier-clock
 * epochs that request latencies are stamped from), stay clean under
 * the FullMirror checker while real speculative aborts fire, and —
 * via a deliberate lost-wakeup bug hook — prove the watchdog's
 * progress probes catch a wedge that produces zero coherence traffic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "check/checker.hpp"
#include "machine/machine.hpp"
#include "trace/trace.hpp"
#include "workload/app.hpp"

namespace smtp
{
namespace
{

/**
 * One machine + one server app, parameterized like ExecSim but with
 * the app name, checker knobs and the lost-wakeup hook exposed. The
 * progress probe and workload trace buffers are wired exactly as
 * serve/runner.cpp wires them, so these tests exercise the production
 * plumbing, not a test-only variant.
 */
struct SimOpt
{
    MachineModel model = MachineModel::SMTp;
    ExecParams exec{};
    unsigned nodes = 4;
    unsigned ways = 1;
    double scale = 0.25;
    check::CheckLevel check = check::CheckLevel::Off;
    bool abortOnViolation = true;
    Tick watchdogMaxAge = 0; ///< 0 = the machine default.
    bool injectLostWakeup = false;
    bool traced = false;
    const fault::FaultPlan *faults = nullptr;
};

struct ServerSim
{
    using Opt = SimOpt;

    std::unique_ptr<Machine> machine;
    std::unique_ptr<workload::App> app;
    std::unique_ptr<FuncMem> mem;

    explicit ServerSim(const std::string &name, const Opt &o = {})
    {
        MachineParams mp;
        mp.model = o.model;
        mp.nodes = o.nodes;
        mp.appThreadsPerNode = o.ways;
        mp.exec = o.exec;
        mp.checkLevel = o.check;
        mp.checkAbortOnViolation = o.abortOnViolation;
        if (o.watchdogMaxAge != 0)
            mp.checkWatchdogMaxAge = o.watchdogMaxAge;
        if (o.faults != nullptr)
            mp.faults = *o.faults;
        mp.trace.enabled = o.traced;
        machine = std::make_unique<Machine>(mp);
        mem = std::make_unique<FuncMem>();
        app = workload::makeApp(name);
        workload::WorkloadEnv env;
        env.mem = mem.get();
        env.map = &machine->addressMap();
        env.nodes = o.nodes;
        env.threadsPerNode = o.ways;
        env.scale = o.scale;
        env.injectLostWakeup = o.injectLostWakeup;
        app->build(env);
        for (unsigned t = 0; t < env.totalThreads(); ++t)
            machine->setGlobalSource(t, app->thread(t));
        machine->setWorkloadState(app.get());
        if (o.traced && machine->traceManager() != nullptr) {
            trace::TraceManager *tm = machine->traceManager();
            app->attachTrace([tm](NodeId node) {
                return tm->createBuffer("wl", node,
                                        trace::Category::Workload);
            });
        }
        const workload::ServerStats *stats = app->serverStats();
        if (machine->checker() != nullptr && stats != nullptr) {
            machine->checker()->addProgressProbe(
                std::string(app->name()),
                [stats] {
                    return stats->requests + stats->txnCommits +
                           stats->txnAborts;
                },
                [stats] { return stats->done(); });
        }
    }

    const workload::ServerStats &stats() const
    {
        return *app->serverStats();
    }
};

std::string
statsOf(Machine &m)
{
    std::ostringstream os;
    m.dumpStats(os);
    return os.str();
}

ExecParams
par(unsigned threads)
{
    ExecParams p;
    p.mode = ExecParams::Mode::Parallel;
    p.threads = threads;
    return p;
}

/** Everything a run exposes, flattened for exact comparison. */
std::string
fingerprint(ServerSim &sim, Tick t_end)
{
    const workload::ServerStats &st = sim.stats();
    std::ostringstream os;
    os << "tick=" << t_end
       << " insts=" << sim.machine->committedAppInsts()
       << " requests=" << st.requests << " commits=" << st.txnCommits
       << " aborts=" << st.txnAborts << " fallbacks=" << st.txnFallbacks
       << " lat_n=" << st.reqLatency.samples()
       << " lat_mean=" << st.reqLatency.mean()
       << " lat_p50=" << st.reqLatency.percentile(50)
       << " lat_p95=" << st.reqLatency.percentile(95)
       << " lat_p99=" << st.reqLatency.percentile(99) << "\n"
       << statsOf(*sim.machine);
    return os.str();
}

TEST(ServerFactory, ResolvesFamilyAndKeepsPaperListIntact)
{
    EXPECT_EQ(workload::serverAppNames().size(), 3u);
    // The paper's Table 1 list must not grow: sweep scripts iterate it.
    EXPECT_EQ(workload::appNames().size(), 6u);
    for (const std::string &name : workload::serverAppNames()) {
        auto app = workload::makeApp(name);
        ASSERT_NE(app, nullptr) << name;
        EXPECT_EQ(app->name(), name);
        // Server stats exist from construction; scientific apps say no.
        EXPECT_NE(app->serverStats(), nullptr) << name;
    }
    EXPECT_EQ(workload::makeApp("FFT")->serverStats(), nullptr);
}

struct SmokeCase
{
    MachineModel model;
    const char *modelName;
    const char *app;
};

// Print by name, not as raw bytes (pointers and padding), so the
// discovered ctest names are the same in every build.
void
PrintTo(const SmokeCase &c, std::ostream *os)
{
    *os << c.modelName << '/' << c.app;
}

class ServerSmoke : public ::testing::TestWithParam<SmokeCase>
{
};

TEST_P(ServerSmoke, RunsToCompletionWithLiveStats)
{
    const SmokeCase &c = GetParam();
    ServerSim::Opt o;
    o.model = c.model;
    ServerSim sim(c.app, o);
    Tick t_end = sim.machine->run();
    ASSERT_GT(t_end, 0u);

    const workload::ServerStats &st = sim.stats();
    EXPECT_EQ(st.threadsTotal, 4u);
    EXPECT_TRUE(st.done());
    if (std::string(c.app) == "spec-txn") {
        EXPECT_GT(st.txnCommits, 0u);
        // Forced-abort txns guarantee the conflict path executes at
        // every scale and seed, so "aborts observed" is deterministic.
        EXPECT_GT(st.txnAborts, 0u);
        EXPECT_EQ(st.requests, st.txnCommits);
    } else {
        EXPECT_GT(st.requests, 0u);
        EXPECT_EQ(st.txnCommits + st.txnAborts, 0u);
    }
    EXPECT_EQ(st.reqLatency.samples(), st.requests);
    EXPECT_GT(st.reqLatency.max(), 0.0);
}

std::vector<SmokeCase>
smokeCases()
{
    const std::pair<MachineModel, const char *> models[] = {
        {MachineModel::Base, "Base"},
        {MachineModel::IntPerfect, "IntPerfect"},
        {MachineModel::Int512KB, "Int512KB"},
        {MachineModel::Int64KB, "Int64KB"},
        {MachineModel::SMTp, "SMTp"},
    };
    std::vector<SmokeCase> cases;
    for (const auto &[model, mname] : models)
        for (const char *app : {"queue-server", "kv-store", "spec-txn"})
            cases.push_back({model, mname, app});
    return cases;
}

std::string
smokeName(const ::testing::TestParamInfo<SmokeCase> &info)
{
    std::string app = info.param.app;
    std::replace(app.begin(), app.end(), '-', '_');
    return std::string(info.param.modelName) + "_" + app;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ServerSmoke,
                         ::testing::ValuesIn(smokeCases()), smokeName);

class ServerApps : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ServerApps, ParallelMatchesSerialBitForBit)
{
    const char *name = GetParam();
    ServerSim ref(name);
    Tick t_ref = ref.machine->run();
    ASSERT_GT(t_ref, 0u);
    EXPECT_EQ(ref.machine->hostThreads(), 1u);
    std::string golden = fingerprint(ref, t_ref);

    ServerSim::Opt o;
    o.exec = par(4);
    ServerSim sim(name, o);
    EXPECT_EQ(sim.machine->hostThreads(), 4u);
    Tick t_par = sim.machine->run();
    EXPECT_EQ(fingerprint(sim, t_par), golden);
}

TEST_P(ServerApps, MultiWayContextsMatchToo)
{
    // Two app threads per node halves the thread count per generator
    // role; contention goes through the same hot lines either way, and
    // the exec contract must hold at ways > 1 as well.
    const char *name = GetParam();
    ServerSim::Opt o;
    o.ways = 2;
    ServerSim ref(name, o);
    Tick t_ref = ref.machine->run();
    ASSERT_GT(t_ref, 0u);
    std::string golden = fingerprint(ref, t_ref);

    o.exec = par(4);
    ServerSim sim(name, o);
    Tick t_par = sim.machine->run();
    EXPECT_EQ(fingerprint(sim, t_par), golden);
}

TEST_P(ServerApps, CheckpointRoundTripMidRun)
{
    // Save from the middle of the run — consumers mid-request,
    // transactions mid-speculation — restore into a fresh machine, and
    // finish. The resume-log replay must regenerate every birth stamp
    // and latency sample exactly, which is what the barrier-clock
    // epochs in the snapshot exist for.
    const char *name = GetParam();
    ServerSim twin(name);
    Tick t_end = twin.machine->run();
    ASSERT_GT(t_end, 0u);
    std::string golden = fingerprint(twin, t_end);

    ServerSim part(name);
    part.machine->runUntil(t_end / 2);
    ASSERT_GT(part.machine->eventQueue().curTick(), 0u);
    // The interesting snapshot is one with live latency state: some
    // requests retired, some still in flight.
    auto img = part.machine->saveImage();

    ServerSim res(name);
    std::string err;
    ASSERT_TRUE(res.machine->restoreImage(std::move(img), &err)) << err;
    Tick t_res = res.machine->run();
    EXPECT_EQ(fingerprint(res, t_res), golden);
}

TEST_P(ServerApps, SurvivesChaosFaultPlan)
{
    // The chaos harness contract: an active drop/dup/NAK plan recovers
    // transparently and the workload still completes with consistent
    // stats (fault recovery may legitimately change timing, so only
    // completion and workload-level invariants are asserted here).
    const char *name = GetParam();
    fault::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse(
        "seed=7,drop=0.005,dup=0.005,nak=0.01", plan, &err))
        << err;
    ServerSim::Opt o;
    o.faults = &plan;
    ServerSim sim(name, o);
    Tick t_end = sim.machine->run();
    ASSERT_GT(t_end, 0u);
    EXPECT_TRUE(sim.stats().done());

    // And the plan must not break exec-mode invariance either.
    o.exec = par(4);
    ServerSim sim2(name, o);
    EXPECT_EQ(fingerprint(sim2, sim2.machine->run()),
              fingerprint(sim, t_end));
}

INSTANTIATE_TEST_SUITE_P(Family, ServerApps,
                         ::testing::Values("queue-server", "kv-store",
                                           "spec-txn"),
                         [](const auto &info) {
                             std::string n = info.param;
                             std::replace(n.begin(), n.end(), '-', '_');
                             return n;
                         });

TEST(ServerChecker, FullMirrorCleanWhileAbortsFire)
{
    // The strongest correctness statement in the acceptance list: the
    // speculative critical sections — including their deterministic
    // forced aborts, rollbacks and lock fallbacks — violate no
    // coherence invariant under the full-mirror checker.
    ServerSim::Opt o;
    o.check = check::CheckLevel::FullMirror;
    ServerSim sim("spec-txn", o);
    Tick t_end = sim.machine->run();
    ASSERT_GT(t_end, 0u);
    sim.machine->quiesce();
    EXPECT_EQ(sim.machine->checker()->violationCount(), 0u);
    EXPECT_GT(sim.stats().txnAborts, 0u);
    EXPECT_GT(sim.stats().txnCommits, 0u);
}

TEST(ServerChecker, FullMirrorCleanOnQueueAndKv)
{
    for (const char *name : {"queue-server", "kv-store"}) {
        ServerSim::Opt o;
        o.check = check::CheckLevel::FullMirror;
        ServerSim sim(name, o);
        ASSERT_GT(sim.machine->run(), 0u) << name;
        sim.machine->quiesce();
        EXPECT_EQ(sim.machine->checker()->violationCount(), 0u) << name;
        EXPECT_GT(sim.stats().requests, 0u) << name;
    }
}

TEST(ServerChecker, ProgressProbeCatchesLostWakeup)
{
    // The deliberate bug: one producer skips its slot publish, so the
    // consumer that claimed that ticket spins forever on its locally
    // cached line. No MSHR ever ages — the transaction watchdog is
    // structurally blind to this wedge — so only the workload progress
    // probe can flag it.
    ServerSim::Opt o;
    o.check = check::CheckLevel::Asserts;
    o.abortOnViolation = false; // report, don't panic
    o.watchdogMaxAge = 200 * tickPerUs;
    o.injectLostWakeup = true;
    ServerSim sim("queue-server", o);

    // The wedged workload never finishes, so advance in bounded
    // slices until the watchdog fires (the chaos-harness idiom).
    auto &eq = sim.machine->eventQueue();
    const Tick deadline = 20 * tickPerMs;
    const Tick slice = tickPerMs / 10;
    while (eq.curTick() < deadline &&
           sim.machine->checker()->violationCount() == 0) {
        Tick target = std::min(deadline, eq.curTick() + slice);
        if (sim.machine->runUntil(target))
            break;
        if (eq.curTick() < target)
            break; // wedged with idle queues; nothing left to run
    }

    ASSERT_GT(sim.machine->checker()->violationCount(), 0u);
    bool probe_flagged = false;
    for (const std::string &v : sim.machine->checker()->violations())
        if (v.find("progress probe") != std::string::npos)
            probe_flagged = true;
    EXPECT_TRUE(probe_flagged);
    EXPECT_FALSE(sim.stats().done());
}

TEST(ServerChecker, ProbeStaysQuietOnHealthyRun)
{
    // Same tight watchdog, no bug: the probe must never fire on a
    // healthy run, including across the done() transition at the end.
    ServerSim::Opt o;
    o.check = check::CheckLevel::Asserts;
    o.watchdogMaxAge = 200 * tickPerUs;
    ServerSim sim("queue-server", o);
    ASSERT_GT(sim.machine->run(), 0u);
    sim.machine->quiesce();
    EXPECT_EQ(sim.machine->checker()->violationCount(), 0u);
}

TEST(ServerTrace, WorkloadEventsRecorded)
{
    // attachTrace wires per-node "wl" buffers; retires and txn
    // outcomes must land in them. Scientific-app runs never call
    // attachTrace, so this is also the proof the category is opt-in.
    for (const char *name : {"queue-server", "spec-txn"}) {
        ServerSim::Opt o;
        o.traced = true;
        ServerSim sim(name, o);
        ASSERT_GT(sim.machine->run(), 0u) << name;
        std::uint64_t wl_events = 0;
        for (const auto &buf : sim.machine->traceManager()->buffers())
            if (buf->category() == trace::Category::Workload)
                wl_events += buf->recorded();
        EXPECT_GT(wl_events, 0u) << name;
    }
}

TEST(ServerTrace, TracedExportsAreExecModeInvariant)
{
    // Workload telemetry rides the same simulated-event rules as every
    // other category: a traced parallel run exports byte-identical
    // buffers to the serial reference.
    ServerSim::Opt o;
    o.traced = true;
    ServerSim ref("queue-server", o);
    Tick t_ref = ref.machine->run();
    o.exec = par(4);
    ServerSim sim("queue-server", o);
    EXPECT_EQ(sim.machine->run(), t_ref);
    EXPECT_EQ(fingerprint(sim, t_ref), fingerprint(ref, t_ref));
}

} // namespace
} // namespace smtp
