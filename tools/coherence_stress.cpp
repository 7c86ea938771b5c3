/**
 * @file
 * Randomized multi-node coherence stress driver.
 *
 * Builds a whole machine per model (all five by default) with the
 * coherence checker at full strength, runs seeded random memory-op
 * streams from every hardware thread against a small pool of hot lines
 * (deliberately contended, with conflict-heavy small L2s), and fails if
 * the checker flags a single invariant violation or the machine wedges.
 *
 *   coherence_stress [--models=base,smtp,...] [--nodes=N] [--threads=W]
 *                    [--seed=S] [--ops=K] [--check=off|asserts|full]
 *                    [--protocol=NAME] [--quick] [--shrink] [--abort-off]
 *
 * Every run prints its own repro command line; --shrink bisects a
 * failing op count down to the smallest stream that still fails (see
 * docs/debugging.md).
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "stress_common.hpp"

namespace smtp
{
namespace
{

struct StressOptions : stress::StreamOptions
{
    check::CheckLevel level = check::CheckLevel::FullMirror;
    /** Minimum protocol-handler dispatches a model must exercise. */
    std::uint64_t minDispatches = 10000;
};

struct ModelResult
{
    MachineModel model{};
    std::uint64_t dispatches = 0;
    std::uint64_t lineEvents = 0;
    std::size_t violations = 0;
    bool enoughWork = true;
};

ModelResult
runModel(MachineModel model, const StressOptions &o)
{
    MachineParams mp;
    mp.model = model;
    mp.nodes = o.nodes;
    mp.appThreadsPerNode = o.threads;
    mp.l2Bytes = 32 * 1024; ///< Small: conflict evictions race freely.
    mp.protocol = o.protocol;
    mp.checkLevel = o.level;
    mp.checkAbortOnViolation = o.abortOnViolation;
    Machine m(mp);
    stress::Stream stream(m, o);

    m.run();
    m.quiesce();

    ModelResult r;
    r.model = model;
    if (auto *chk = m.checker()) {
        r.dispatches = chk->dispatches.value();
        r.lineEvents = chk->lineEvents.value();
        r.violations = chk->violationCount();
        for (const auto &v : chk->violations())
            std::fprintf(stderr, "  violation: %s\n", v.c_str());
    }
    r.enoughWork = o.level == check::CheckLevel::Off ||
                   r.dispatches >= o.minDispatches;
    return r;
}

void
printRepro(const StressOptions &o, MachineModel model, std::FILE *out)
{
    std::fprintf(out,
                 "  repro: coherence_stress --models=%s --nodes=%u "
                 "--threads=%u --seed=%llu --ops=%u --check=%s "
                 "--protocol=%s%s\n",
                 stress::flagName(model).c_str(), o.nodes, o.threads,
                 static_cast<unsigned long long>(o.seed), o.ops,
                 check::checkLevelName(o.level),
                 std::string(proto::protocolName(o.protocol)).c_str(),
                 o.abortOnViolation ? "" : " --abort-off");
}

/** Bisect the op count down to the smallest stream that still fails. */
void
shrinkFailure(MachineModel model, const StressOptions &base)
{
    StressOptions o = base;
    o.abortOnViolation = false; // latch so we can observe and continue
    o.minDispatches = 0;
    o.ops = stress::shrinkOps(o, [model](const StressOptions &t) {
        return runModel(model, t).violations > 0;
    });
    printRepro(o, model, stderr);
}

int
stressMain(int argc, char **argv)
{
    StressOptions o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string err;
        if (stress::parseStreamFlag(arg, o, &err))
            continue;
        if (err.empty() && arg.rfind("--check=", 0) == 0 &&
            check::parseCheckLevel(arg.substr(8), o.level, &err))
            continue;
        if (err.empty())
            err = "unknown argument '" + arg + "'";
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }
    if (std::string why; !stress::checkSizes(o, &why)) {
        std::fprintf(stderr, "%s\n", why.c_str());
        return 2;
    }
    if (o.quick) {
        // CI mode: fewer ops, two models covering both protocol agents
        // (off-chip pengine and the SMTp protocol thread), still past
        // the 10k-dispatch floor.
        o.ops = std::min(o.ops, 3000u);
        if (o.models.size() == 5) {
            o.models = {MachineModel::Base, MachineModel::SMTp};
        }
    }

    int rc = 0;
    for (auto model : o.models) {
        std::fprintf(stderr, "=== %s: nodes=%u threads=%u seed=%llu "
                             "ops=%u check=%s\n",
                     std::string(modelName(model)).c_str(), o.nodes,
                     o.threads, static_cast<unsigned long long>(o.seed),
                     o.ops, check::checkLevelName(o.level));
        auto r = runModel(model, o);
        std::fprintf(stderr,
                     "    %llu handler dispatches, %llu line events, "
                     "%zu violation(s)\n",
                     static_cast<unsigned long long>(r.dispatches),
                     static_cast<unsigned long long>(r.lineEvents),
                     r.violations);
        bool failed = r.violations > 0 || !r.enoughWork;
        if (!r.enoughWork) {
            std::fprintf(stderr,
                         "    FAIL: under the %llu-dispatch floor — the "
                         "stream is not stressing the protocol\n",
                         static_cast<unsigned long long>(
                             o.minDispatches));
        }
        if (failed) {
            rc = 1;
            printRepro(o, model, stderr);
            if (r.violations > 0 && o.shrink)
                shrinkFailure(model, o);
        }
    }
    std::fprintf(stderr, rc == 0 ? "stress: all models clean\n"
                                 : "stress: FAILURES\n");
    return rc;
}

} // namespace
} // namespace smtp

int
main(int argc, char **argv)
{
    return smtp::stressMain(argc, argv);
}
