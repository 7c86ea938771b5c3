/**
 * @file
 * The snapshot subsystem's core contract, end to end: run N ticks,
 * save, restore into a fresh machine, run to completion — the final
 * execution time, committed instruction counts, the full stats dump,
 * and exported telemetry must be byte-identical to an uninterrupted
 * twin. Checked on all five machine models, with multiple app threads
 * per node, and under an active fault plan.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "machine/machine.hpp"
#include "workload/app.hpp"

namespace smtp
{
namespace
{

struct ResumeSim
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<workload::App> app;
    std::unique_ptr<FuncMem> mem;

    explicit ResumeSim(MachineModel model, unsigned ways = 1,
                       const fault::FaultPlan *faults = nullptr,
                       bool traced = false, double scale = 0.25,
                       unsigned nodes = 2)
    {
        MachineParams mp;
        mp.model = model;
        mp.nodes = nodes;
        mp.appThreadsPerNode = ways;
        if (faults != nullptr)
            mp.faults = *faults;
        mp.trace.enabled = traced;
        machine = std::make_unique<Machine>(mp);
        mem = std::make_unique<FuncMem>();
        app = workload::makeApp("FFT");
        workload::WorkloadEnv env;
        env.mem = mem.get();
        env.map = &machine->addressMap();
        env.nodes = nodes;
        env.threadsPerNode = ways;
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

/**
 * The twin experiment: an uninterrupted run vs. run-to-N / save /
 * restore-into-fresh-machine / run-to-completion. Everything
 * observable must match exactly.
 */
void
expectResumeIdentical(MachineModel model, unsigned ways = 1,
                      const fault::FaultPlan *faults = nullptr)
{
    ResumeSim twin(model, ways, faults);
    Tick t_end = twin.machine->run();
    ASSERT_GT(t_end, 0u);
    std::string golden = statsOf(*twin.machine);

    ResumeSim part(model, ways, faults);
    part.machine->runUntil(t_end / 2);
    ASSERT_GT(part.machine->eventQueue().curTick(), 0u);
    auto img = part.machine->saveImage();

    ResumeSim res(model, ways, faults);
    std::string err;
    ASSERT_TRUE(res.machine->restoreImage(std::move(img), &err)) << err;
    Tick t_res = res.machine->run();

    EXPECT_EQ(t_res, t_end);
    EXPECT_EQ(res.machine->committedAppInsts(),
              twin.machine->committedAppInsts());
    EXPECT_EQ(statsOf(*res.machine), golden);
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

class ResumeAllModels : public ::testing::TestWithParam<ModelCase>
{
};

TEST_P(ResumeAllModels, BitIdenticalResume)
{
    expectResumeIdentical(GetParam().model);
}

INSTANTIATE_TEST_SUITE_P(
    Models, ResumeAllModels,
    ::testing::Values(ModelCase{MachineModel::Base, "Base"},
                      ModelCase{MachineModel::IntPerfect, "IntPerfect"},
                      ModelCase{MachineModel::Int512KB, "Int512KB"},
                      ModelCase{MachineModel::Int64KB, "Int64KB"},
                      ModelCase{MachineModel::SMTp, "SMTp"}),
    [](const auto &info) { return info.param.name; });

TEST(Resume, MultipleAppThreadsPerNode)
{
    expectResumeIdentical(MachineModel::SMTp, /*ways=*/2);
}

TEST(Resume, SavedWhileDispatchParked)
{
    // A controller parked on a busy protocol agent (a due deferred
    // intervention and no poll queued) must resume parked and wake on
    // the same tick, at the same queue position, as its twin.
    constexpr unsigned kNodes = 4;
    ResumeSim twin(MachineModel::Base, 1, nullptr, false, 0.25, kNodes);
    Tick t_end = twin.machine->run();
    std::string golden = statsOf(*twin.machine);

    ResumeSim part(MachineModel::Base, 1, nullptr, false, 0.25, kNodes);
    auto parked = [&part] {
        for (unsigned n = 0; n < kNodes; ++n) {
            if (part.machine->node(n).mc->dispatchParked())
                return true;
        }
        return false;
    };
    Tick t = 0;
    while (!parked() && t < t_end) {
        t += tickPerNs;
        part.machine->runUntil(t);
    }
    ASSERT_TRUE(parked()) << "no controller parked before " << t_end;
    auto img = part.machine->saveImage();

    ResumeSim res(MachineModel::Base, 1, nullptr, false, 0.25, kNodes);
    std::string err;
    ASSERT_TRUE(res.machine->restoreImage(std::move(img), &err)) << err;
    EXPECT_EQ(res.machine->run(), t_end);
    EXPECT_EQ(res.machine->committedAppInsts(),
              twin.machine->committedAppInsts());
    EXPECT_EQ(statsOf(*res.machine), golden);
}

TEST(Resume, UnderActiveFaultPlan)
{
    // RNG streams and retransmit machinery must resume mid-plan.
    fault::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse(
        "seed=7,drop=0.005,dup=0.005,nak=0.01", plan, &err))
        << err;
    expectResumeIdentical(MachineModel::Base, 1, &plan);
}

TEST(Resume, SaveAtManyPointsConverges)
{
    // Saving very early (before warmup effects) and very late (almost
    // done) must both resume exactly; guards the restore ordering
    // against point-in-time assumptions.
    ResumeSim twin(MachineModel::Int64KB);
    Tick t_end = twin.machine->run();
    std::string golden = statsOf(*twin.machine);

    for (double frac : {0.05, 0.95}) {
        ResumeSim part(MachineModel::Int64KB);
        part.machine->runUntil(
            static_cast<Tick>(static_cast<double>(t_end) * frac));
        auto img = part.machine->saveImage();
        ResumeSim res(MachineModel::Int64KB);
        std::string err;
        ASSERT_TRUE(res.machine->restoreImage(std::move(img), &err))
            << err << " at frac " << frac;
        EXPECT_EQ(res.machine->run(), t_end) << frac;
        EXPECT_EQ(statsOf(*res.machine), golden) << frac;
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

TEST(Resume, TelemetryRidesAlong)
{
    // A traced machine snapshots its rings and interval series too:
    // the exported telemetry after resume equals the uninterrupted
    // twin's export, byte for byte.
    ResumeSim twin(MachineModel::SMTp, 1, nullptr, /*traced=*/true);
    Tick t_end = twin.machine->run();
    std::string tdir = ::testing::TempDir();
    std::string err;
    ASSERT_TRUE(twin.machine->writeTraceFiles(tdir + "twin", &err)) << err;

    ResumeSim part(MachineModel::SMTp, 1, nullptr, true);
    part.machine->runUntil(t_end / 2);
    auto img = part.machine->saveImage();
    ResumeSim res(MachineModel::SMTp, 1, nullptr, true);
    ASSERT_TRUE(res.machine->restoreImage(std::move(img), &err)) << err;
    EXPECT_EQ(res.machine->run(), t_end);
    ASSERT_TRUE(res.machine->writeTraceFiles(tdir + "res", &err)) << err;

    for (const char *ext : {".json", ".csv", ".smtptrace"}) {
        std::string a = slurp(tdir + "twin" + ext);
        std::string b = slurp(tdir + "res" + ext);
        ASSERT_FALSE(a.empty()) << ext;
        EXPECT_EQ(a, b) << "telemetry export differs: " << ext;
        std::filesystem::remove(tdir + "twin" + ext);
        std::filesystem::remove(tdir + "res" + ext);
    }
}

TEST(Resume, UntracedMachineRejectsTracedSnapshotMismatch)
{
    // Trace config is outside the config hash (telemetry never perturbs
    // timing), so the section-presence guard is what catches a traced
    // machine handed an untraced snapshot.
    ResumeSim part(MachineModel::Base, 1, nullptr, /*traced=*/false);
    part.machine->runUntil(20 * tickPerUs);
    auto img = part.machine->saveImage();

    ResumeSim res(MachineModel::Base, 1, nullptr, /*traced=*/true);
    std::string err;
    EXPECT_FALSE(res.machine->restoreImage(std::move(img), &err));
    EXPECT_FALSE(err.empty());
}

} // namespace
} // namespace smtp
