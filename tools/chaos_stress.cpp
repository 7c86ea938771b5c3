/**
 * @file
 * Chaos stress driver: the coherence_stress workload run under an
 * active fault plan.
 *
 * Builds a whole machine per model (all five by default) with the
 * full-mirror coherence checker on AND a seeded fault plan injecting
 * link drops (recovered by retransmit), duplicates (filtered by link
 * sequence), delay jitter, bounded reordering, SDRAM ECC bit flips and
 * forced protocol NAKs — then demands a completely clean run: no
 * checker violation, full quiescence, zero starvation flags, and a
 * nonzero injected/recovered fault count (proof the plan actually
 * fired).
 *
 *   chaos_stress [--models=base,smtp,...] [--nodes=N] [--threads=W]
 *                [--seed=S] [--ops=K] [--faults=PLAN] [--retry=SPEC]
 *                [--trace=DIR] [--report=PATH] [--wedge-snap=PATH]
 *                [--protocol=NAME] [--quick] [--shrink] [--abort-off]
 *                [--bug=droploss]
 *
 * --bug=droploss flips the deliberate drop-without-retransmit bug hook
 * on and inverts the pass criterion: the run must NOT survive — the
 * watchdog has to catch the lost messages and latch a violation, and
 * the wedge report is written to --report (default
 * chaos_wedge_report.txt). Every run prints its own repro command
 * line; --shrink bisects a failing op count down (docs/debugging.md).
 *
 * When the deadlock watchdog trips, the wedged machine is additionally
 * snapshotted to --wedge-snap (default chaos_wedge.smtpsnap, empty
 * disables) for post-mortem with snap_tool inspect/diff.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "fault/fault.hpp"
#include "stress_common.hpp"

namespace smtp
{
namespace
{

struct ChaosOptions : stress::StreamOptions
{
    ChaosOptions() { ops = 4000; } ///< Shorter streams: faults slow them.

    std::string faultSpec; ///< Empty = the default moderate plan.
    fault::RetryPolicyConfig retry{fault::RetryKind::ExpBackoff,
                                   100 * tickPerNs, 6400 * tickPerNs, 32};
    std::string traceDir;  ///< Per-model trace files (empty = off).
    std::string reportPath = "chaos_wedge_report.txt";
    /**
     * Where the watchdog auto-saves a machine snapshot when it trips
     * (--wedge-snap=PATH, empty disables). The snapshot captures the
     * wedged machine exactly; inspect it with snap_tool, or diff it
     * against a healthy run's snapshot to localize the divergent
     * component (docs/debugging.md).
     */
    std::string wedgeSnapPath = "chaos_wedge.smtpsnap";
    bool bugDroploss = false;
    /** Minimum injected faults a model must see (plan sanity floor). */
    std::uint64_t minInjected = 10;
};

/**
 * The default chaos plan: every fault class on at a rate that fires
 * hundreds of times per run yet leaves the workload able to finish.
 */
fault::FaultPlan
defaultPlan(std::uint64_t seed)
{
    fault::FaultPlan p;
    p.seed = seed;
    p.netDrop = 0.02;
    p.netDup = 0.02;
    p.netDelay = 0.05;
    p.netReorder = 0.05;
    p.memFlipSingle = 0.002;
    p.memFlipDouble = 0.0005;
    p.forceNak = 0.02;
    return p;
}

fault::FaultPlan
resolvePlan(const ChaosOptions &o)
{
    if (o.faultSpec.empty()) {
        fault::FaultPlan p = defaultPlan(o.seed);
        p.injectDropWithoutRetransmit = o.bugDroploss;
        return p;
    }
    fault::FaultPlan p;
    std::string err;
    if (!fault::FaultPlan::parse(o.faultSpec, p, &err)) {
        std::fprintf(stderr, "--faults: %s\n", err.c_str());
        std::exit(2);
    }
    // --seed names the run; an explicit seed= inside the spec wins.
    if (o.faultSpec.find("seed=") == std::string::npos)
        p.seed = o.seed;
    if (o.bugDroploss)
        p.injectDropWithoutRetransmit = true;
    return p;
}

struct ModelResult
{
    MachineModel model{};
    std::uint64_t dispatches = 0;
    std::uint64_t injected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t lost = 0;
    std::uint64_t starvationFlags = 0;
    std::size_t violations = 0;
};

ModelResult
runModel(MachineModel model, const ChaosOptions &o)
{
    fault::FaultPlan plan = resolvePlan(o);

    MachineParams mp;
    mp.model = model;
    mp.nodes = o.nodes;
    mp.appThreadsPerNode = o.threads;
    mp.l2Bytes = 32 * 1024; ///< Small: conflict evictions race freely.
    mp.checkLevel = check::CheckLevel::FullMirror;
    mp.checkAbortOnViolation = o.abortOnViolation && !o.bugDroploss;
    mp.protocol = o.protocol;
    mp.faults = plan;
    mp.retryPolicy = o.retry;
    mp.trace.enabled = !o.traceDir.empty();
    mp.wedgeSnapshotPath = o.wedgeSnapPath;
    if (o.bugDroploss) {
        // Lost messages must be caught quickly, not after the default
        // 2 ms bound.
        mp.checkWatchdogMaxAge = 200 * tickPerUs;
    }
    Machine m(mp);
    stress::Stream stream(m, o);

    if (o.bugDroploss) {
        // The lost messages wedge the workload, so Machine::run()'s
        // all-threads-finished contract cannot hold. Advance in
        // bounded runUntil() slices (which never assert on an
        // unfinished workload) and let the watchdog catch the wedge.
        auto &eq = m.eventQueue();
        const Tick deadline = eq.curTick() + 20 * tickPerMs;
        const Tick slice = tickPerMs / 10;
        while (eq.curTick() < deadline &&
               m.checker()->violationCount() == 0) {
            Tick target = std::min(deadline, eq.curTick() + slice);
            if (m.runUntil(target))
                break;
            if (eq.curTick() < target)
                break; // wedged with idle queues; nothing left to run
        }
    } else {
        m.run();
        m.quiesce(); // Panics if recovery left residual traffic.
    }

    ModelResult r;
    r.model = model;
    auto *chk = m.checker();
    r.dispatches = chk->dispatches.value();
    r.violations = chk->violationCount();
    for (const auto &v : chk->violations())
        std::fprintf(stderr, "  violation: %s\n", v.c_str());
    if (const auto *fi = m.faultInjector()) {
        r.injected = fi->injectedTotal();
        r.recovered = fi->recoveredTotal();
        r.lost = fi->netLost();
    }
    for (unsigned n = 0; n < o.nodes; ++n)
        r.starvationFlags += m.node(n).mc->starvationFlags.value();

    if (r.violations > 0 && !o.reportPath.empty()) {
        if (std::FILE *f = std::fopen(o.reportPath.c_str(), "w")) {
            std::fprintf(f, "==== chaos wedge report: %s ====\n",
                         std::string(modelName(model)).c_str());
            chk->dumpReport(f);
            std::fclose(f);
            std::fprintf(stderr, "  wedge report written to %s\n",
                         o.reportPath.c_str());
        }
    }
    if (!o.traceDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(o.traceDir, ec);
        std::string stem = o.traceDir + "/chaos_" +
                           std::string(modelName(model));
        std::string err;
        if (!m.writeTraceFiles(stem, &err))
            std::fprintf(stderr, "  trace export failed: %s\n",
                         err.c_str());
    }
    return r;
}

void
printRepro(const ChaosOptions &o, MachineModel model, std::FILE *out)
{
    std::string protoFlag;
    if (o.protocol != proto::ProtocolKind::Bitvector)
        protoFlag = " --protocol=" +
                    std::string(proto::protocolName(o.protocol));
    std::fprintf(out,
                 "  repro: chaos_stress --models=%s --nodes=%u "
                 "--threads=%u --seed=%llu --ops=%u --faults=%s "
                 "--retry=%s%s%s%s\n",
                 stress::flagName(model).c_str(), o.nodes, o.threads,
                 static_cast<unsigned long long>(o.seed), o.ops,
                 resolvePlan(o).toString().c_str(),
                 fault::retryPolicyToString(o.retry).c_str(),
                 o.abortOnViolation ? "" : " --abort-off",
                 o.bugDroploss ? " --bug=droploss" : "",
                 protoFlag.c_str());
}

/** Bisect the op count down to the smallest stream that still fails. */
void
shrinkFailure(MachineModel model, const ChaosOptions &base)
{
    ChaosOptions o = base;
    o.abortOnViolation = false; // latch so we can observe and continue
    o.minInjected = 0;
    o.ops = stress::shrinkOps(o, [model](const ChaosOptions &t) {
        return runModel(model, t).violations > 0;
    });
    printRepro(o, model, stderr);
}

int
chaosMain(int argc, char **argv)
{
    ChaosOptions o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        std::string err;
        if (stress::parseStreamFlag(arg, o, &err))
            continue;
        if (!err.empty()) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 2;
        }
        if (arg.rfind("--faults=", 0) == 0) {
            o.faultSpec = value();
        } else if (arg.rfind("--retry=", 0) == 0) {
            if (!fault::parseRetryPolicy(value(), o.retry, &err)) {
                std::fprintf(stderr, "--retry: %s\n", err.c_str());
                return 2;
            }
        } else if (arg.rfind("--trace=", 0) == 0) {
            o.traceDir = value();
        } else if (arg.rfind("--report=", 0) == 0) {
            o.reportPath = value();
        } else if (arg.rfind("--wedge-snap=", 0) == 0) {
            o.wedgeSnapPath = value();
        } else if (arg == "--bug=droploss") {
            o.bugDroploss = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (std::string why; !stress::checkSizes(o, &why)) {
        std::fprintf(stderr, "%s\n", why.c_str());
        return 2;
    }
    if (o.quick) {
        // CI mode: fewer ops but still every machine model — chaos
        // coverage is about the protocol agents' recovery paths, and
        // each model has its own.
        o.ops = std::min(o.ops, 1500u);
    }

    int rc = 0;
    for (auto model : o.models) {
        std::fprintf(stderr,
                     "=== %s: nodes=%u threads=%u seed=%llu ops=%u "
                     "faults=%s retry=%s%s\n",
                     std::string(modelName(model)).c_str(), o.nodes,
                     o.threads, static_cast<unsigned long long>(o.seed),
                     o.ops, resolvePlan(o).toString().c_str(),
                     fault::retryPolicyToString(o.retry).c_str(),
                     o.bugDroploss ? " bug=droploss" : "");
        auto r = runModel(model, o);
        std::fprintf(stderr,
                     "    %llu dispatches, %llu fault(s) injected, "
                     "%llu recovered, %llu lost, %llu starvation "
                     "flag(s), %zu violation(s)\n",
                     static_cast<unsigned long long>(r.dispatches),
                     static_cast<unsigned long long>(r.injected),
                     static_cast<unsigned long long>(r.recovered),
                     static_cast<unsigned long long>(r.lost),
                     static_cast<unsigned long long>(r.starvationFlags),
                     r.violations);
        bool failed;
        if (o.bugDroploss) {
            // Inverted criterion: the deliberate bug must be CAUGHT.
            failed = r.violations == 0 || r.lost == 0;
            if (failed)
                std::fprintf(stderr,
                             "    FAIL: drop-without-retransmit bug was "
                             "not detected (lost=%llu violations=%zu)\n",
                             static_cast<unsigned long long>(r.lost),
                             r.violations);
        } else {
            failed = r.violations > 0 || r.starvationFlags > 0 ||
                     r.injected < o.minInjected ||
                     r.recovered == 0;
            if (r.injected < o.minInjected)
                std::fprintf(stderr,
                             "    FAIL: only %llu fault(s) injected — "
                             "the plan is not exercising the machine\n",
                             static_cast<unsigned long long>(r.injected));
            if (r.starvationFlags > 0)
                std::fprintf(stderr,
                             "    FAIL: %llu transaction(s) crossed the "
                             "starvation retry threshold\n",
                             static_cast<unsigned long long>(
                                 r.starvationFlags));
        }
        if (failed) {
            rc = 1;
            printRepro(o, model, stderr);
            if (r.violations > 0 && o.shrink && !o.bugDroploss)
                shrinkFailure(model, o);
        }
    }
    if (rc != 0)
        std::fprintf(stderr, "chaos: FAILURES\n");
    else if (o.bugDroploss)
        std::fprintf(stderr, "chaos: bug caught on every model\n");
    else
        std::fprintf(stderr, "chaos: all models clean\n");
    return rc;
}

} // namespace
} // namespace smtp

int
main(int argc, char **argv)
{
    return smtp::chaosMain(argc, argv);
}
