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

/** Builds the machine exactly as the resume and server tests do. */
std::vector<std::uint8_t>
midRunImage(const GoldenCase &c)
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
    Machine machine(mp);
    FuncMem mem;
    auto app = workload::makeApp(c.app);
    workload::WorkloadEnv env;
    env.mem = &mem;
    env.map = &machine.addressMap();
    env.nodes = 2;
    env.threadsPerNode = c.ways;
    env.scale = 0.25;
    app->build(env);
    for (unsigned t = 0; t < env.totalThreads(); ++t)
        machine.setGlobalSource(t, app->thread(t));
    machine.setWorkloadState(app.get());
    if (c.traced) {
        trace::TraceManager *tm = machine.traceManager();
        app->attachTrace([tm](NodeId node) {
            return tm->createBuffer("wl", node, trace::Category::Workload);
        });
    }
    EXPECT_FALSE(machine.runUntil(c.stopAt))
        << c.name << ": the snapshot must be taken mid-run";
    return machine.saveImage();
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

} // namespace
} // namespace smtp
