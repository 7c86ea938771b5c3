/**
 * @file
 * The parallel kernel's headline contract: --exec=serial and
 * --exec=parallel[:T] run the *same* windowed shard engine and must
 * produce bit-identical simulated results — execution time, committed
 * instructions, the full stats dump, and exported telemetry — for
 * every machine model, under an active fault plan, and across
 * checkpoint save/restore. Host-thread count may only
 * change wall-clock time, never simulated state.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "machine/machine.hpp"
#include "workload/app.hpp"

namespace smtp
{
namespace
{

TEST(ExecParams, ParseAcceptsValidSpecs)
{
    ExecParams p;
    EXPECT_TRUE(ExecParams::parse("serial", p));
    EXPECT_FALSE(p.parallel());
    EXPECT_EQ(p.toString(), "serial");

    EXPECT_TRUE(ExecParams::parse("parallel", p));
    EXPECT_TRUE(p.parallel());
    EXPECT_EQ(p.threads, 0u);
    EXPECT_EQ(p.toString(), "parallel");

    EXPECT_TRUE(ExecParams::parse("parallel:4", p));
    EXPECT_TRUE(p.parallel());
    EXPECT_EQ(p.threads, 4u);
    EXPECT_EQ(p.toString(), "parallel:4");

    EXPECT_TRUE(ExecParams::parse("parallel:1", p));
    EXPECT_EQ(p.threads, 1u);
}

TEST(ExecParams, ParseRejectsMalformedSpecs)
{
    ExecParams p;
    std::string err;
    for (const char *bad : {"", "Serial", "par", "parallel:", "parallel:0",
                            "parallel:x", "parallel:4x", "parallel:2000",
                            "serial:2"}) {
        err.clear();
        EXPECT_FALSE(ExecParams::parse(bad, p, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

/** One machine + FFT workload, parameterized on exec mode. */
struct ExecSim
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<workload::App> app;
    std::unique_ptr<FuncMem> mem;

    ExecSim(MachineModel model, const ExecParams &exec,
            const fault::FaultPlan *faults = nullptr, bool traced = false,
            unsigned nodes = 4, double scale = 0.25,
            check::CheckLevel check = check::CheckLevel::Off)
    {
        MachineParams mp;
        mp.model = model;
        mp.nodes = nodes;
        mp.appThreadsPerNode = 1;
        mp.exec = exec;
        if (faults != nullptr)
            mp.faults = *faults;
        mp.trace.enabled = traced;
        mp.checkLevel = check;
        machine = std::make_unique<Machine>(mp);
        mem = std::make_unique<FuncMem>();
        app = workload::makeApp("FFT");
        workload::WorkloadEnv env;
        env.mem = mem.get();
        env.map = &machine->addressMap();
        env.nodes = nodes;
        env.threadsPerNode = 1;
        env.scale = scale;
        app->build(env);
        for (unsigned t = 0; t < env.totalThreads(); ++t)
            machine->setGlobalSource(t, app->thread(t));
        machine->setWorkloadState(app.get());
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

/**
 * The twin experiment: a serial-reference run vs. the same cell under
 * parallel:T for several T. Everything observable must match exactly.
 */
void
expectExecIdentical(MachineModel model,
                    const fault::FaultPlan *faults = nullptr)
{
    ExecSim ref(model, ExecParams{}, faults);
    Tick t_ref = ref.machine->run();
    ASSERT_GT(t_ref, 0u);
    EXPECT_EQ(ref.machine->hostThreads(), 1u);
    std::string golden = statsOf(*ref.machine);

    for (unsigned threads : {2u, 4u, 8u}) {
        ExecSim sim(model, par(threads), faults);
        // Thread count clamps to the shard count (4 nodes here).
        EXPECT_EQ(sim.machine->hostThreads(), std::min(threads, 4u));
        EXPECT_EQ(sim.machine->run(), t_ref) << "threads=" << threads;
        EXPECT_EQ(sim.machine->committedAppInsts(),
                  ref.machine->committedAppInsts())
            << "threads=" << threads;
        EXPECT_EQ(statsOf(*sim.machine), golden) << "threads=" << threads;
    }
}

struct ModelCase
{
    MachineModel model;
    const char *name;
};

// Without this, gtest prints the case as raw bytes: uninitialised
// padding and the name's pointer, so the discovered ctest names would
// differ between builds.
void
PrintTo(const ModelCase &c, std::ostream *os)
{
    *os << c.name;
}

class ExecAllModels : public ::testing::TestWithParam<ModelCase>
{
};

TEST_P(ExecAllModels, ParallelMatchesSerialBitForBit)
{
    expectExecIdentical(GetParam().model);
}

INSTANTIATE_TEST_SUITE_P(
    Models, ExecAllModels,
    ::testing::Values(ModelCase{MachineModel::Base, "Base"},
                      ModelCase{MachineModel::IntPerfect, "IntPerfect"},
                      ModelCase{MachineModel::Int512KB, "Int512KB"},
                      ModelCase{MachineModel::Int64KB, "Int64KB"},
                      ModelCase{MachineModel::SMTp, "SMTp"}),
    [](const auto &info) { return info.param.name; });

TEST(Exec, UnderActiveFaultPlan)
{
    // Fault decisions draw from per-node RNG streams owned by the
    // executing shard, so an active plan must stay bit-identical under
    // any host-thread count.
    fault::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse(
        "seed=7,drop=0.005,dup=0.005,nak=0.01", plan, &err))
        << err;
    expectExecIdentical(MachineModel::Base, &plan);
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

TEST(Exec, TracedTelemetryIsHostThreadInvariant)
{
    // Exported telemetry (json/csv/smtptrace) byte-compares across exec
    // modes: simulated-event buffers are identical, and the host-time
    // Exec category is excluded from default exports precisely so this
    // comparison stays meaningful.
    ExecSim ref(MachineModel::SMTp, ExecParams{}, nullptr,
                /*traced=*/true);
    Tick t_ref = ref.machine->run();
    std::string tdir = ::testing::TempDir();
    std::string err;
    ASSERT_TRUE(ref.machine->writeTraceFiles(tdir + "ser", &err)) << err;

    ExecSim sim(MachineModel::SMTp, par(4), nullptr, true);
    EXPECT_EQ(sim.machine->run(), t_ref);
    ASSERT_TRUE(sim.machine->writeTraceFiles(tdir + "par", &err)) << err;

    for (const char *ext : {".json", ".csv", ".smtptrace"}) {
        std::string a = slurp(tdir + "ser" + ext);
        std::string b = slurp(tdir + "par" + ext);
        ASSERT_FALSE(a.empty()) << ext;
        EXPECT_EQ(a, b) << "telemetry export differs: " << ext;
        std::filesystem::remove(tdir + "ser" + ext);
        std::filesystem::remove(tdir + "par" + ext);
    }
}

TEST(Exec, CheckpointFromParallelRestoresUnderEitherMode)
{
    // Save mid-run from a parallel machine (mid-window stops carry the
    // undelivered mailbox events in the snapshot), then restore into a
    // serial machine AND another parallel machine: both must finish
    // bit-identically to the uninterrupted serial twin.
    ExecSim twin(MachineModel::SMTp, ExecParams{});
    Tick t_end = twin.machine->run();
    std::string golden = statsOf(*twin.machine);

    ExecSim part(MachineModel::SMTp, par(4));
    part.machine->runUntil(t_end / 2);
    ASSERT_GT(part.machine->eventQueue().curTick(), 0u);
    auto img = part.machine->saveImage();

    for (bool restore_parallel : {false, true}) {
        ExecSim res(MachineModel::SMTp,
                    restore_parallel ? par(4) : ExecParams{});
        std::string err;
        auto copy = img;
        ASSERT_TRUE(res.machine->restoreImage(std::move(copy), &err))
            << err;
        EXPECT_EQ(res.machine->run(), t_end)
            << "restore_parallel=" << restore_parallel;
        EXPECT_EQ(statsOf(*res.machine), golden)
            << "restore_parallel=" << restore_parallel;
    }
}

TEST(ExecChecker, AssertsLevelRunsParallelBitIdentical)
{
    // Regression: the machine used to force one host thread whenever
    // ANY checker was active. Asserts-level checking is internally
    // serialized per hook, so --check=asserts --exec=parallel:4 must
    // actually run 4 host threads and still be bit-identical to the
    // serial-reference run of the same checked cell.
    ExecSim ref(MachineModel::SMTp, ExecParams{}, nullptr, false,
                4, 0.25, check::CheckLevel::Asserts);
    Tick t_ref = ref.machine->run();
    ASSERT_GT(t_ref, 0u);
    EXPECT_EQ(ref.machine->hostThreads(), 1u);
    EXPECT_FALSE(ref.machine->execSerializedByChecker());
    ref.machine->quiesce();
    EXPECT_EQ(ref.machine->checker()->violationCount(), 0u);
    std::string golden = statsOf(*ref.machine);

    ExecSim sim(MachineModel::SMTp, par(4), nullptr, false, 4,
                0.25, check::CheckLevel::Asserts);
    EXPECT_EQ(sim.machine->hostThreads(), 4u);
    EXPECT_FALSE(sim.machine->execSerializedByChecker());
    EXPECT_EQ(sim.machine->run(), t_ref);
    EXPECT_EQ(sim.machine->committedAppInsts(),
              ref.machine->committedAppInsts());
    sim.machine->quiesce();
    EXPECT_EQ(sim.machine->checker()->violationCount(), 0u);
    EXPECT_EQ(statsOf(*sim.machine), golden);
}

TEST(ExecChecker, AssertsParallelMatchesUncheckedResults)
{
    // The checker is observation-only: a checked parallel run must
    // reproduce the unchecked cell's simulated results exactly.
    ExecSim plain(MachineModel::Base, ExecParams{});
    Tick t_ref = plain.machine->run();
    std::string golden = statsOf(*plain.machine);

    ExecSim checked(MachineModel::Base, par(4), nullptr, false, 4,
                    0.25, check::CheckLevel::Asserts);
    EXPECT_EQ(checked.machine->run(), t_ref);
    EXPECT_EQ(statsOf(*checked.machine), golden);
}

TEST(ExecChecker, FullMirrorFallbackIsLoudNotSilent)
{
    // FullMirror still needs a globally serialized schedule; the
    // fallback must be visible in-band via execSerializedByChecker(),
    // not a silent host_threads change.
    ExecSim sim(MachineModel::Base, par(4), nullptr, false, 4,
                0.25, check::CheckLevel::FullMirror);
    EXPECT_EQ(sim.machine->hostThreads(), 1u);
    EXPECT_TRUE(sim.machine->execSerializedByChecker());

    ExecSim ser(MachineModel::Base, ExecParams{}, nullptr, false,
                4, 0.25, check::CheckLevel::FullMirror);
    EXPECT_EQ(ser.machine->hostThreads(), 1u);
    EXPECT_FALSE(ser.machine->execSerializedByChecker());
}

TEST(Exec, RunUntilSliceBoundariesAreInvariant)
{
    // Chopping a parallel run into arbitrary runUntil() slices must not
    // perturb results: barrier-phase work (refill, sampling) only
    // happens at true window boundaries, never at partial stops.
    ExecSim ref(MachineModel::Base, ExecParams{});
    Tick t_end = ref.machine->run();
    std::string golden = statsOf(*ref.machine);

    ExecSim sliced(MachineModel::Base, par(2));
    Tick step = t_end / 7 + 13; // deliberately window-misaligned
    bool done = false;
    for (Tick at = step; !done && at < 4 * t_end; at += step)
        done = sliced.machine->runUntil(at);
    ASSERT_TRUE(done);
    EXPECT_EQ(sliced.machine->execTime(), t_end);
    EXPECT_EQ(statsOf(*sliced.machine), golden);
}

} // namespace
} // namespace smtp
