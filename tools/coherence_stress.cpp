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

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "machine/machine.hpp"
#include "workload/app.hpp"
#include "workload/gen.hpp"

namespace smtp
{
namespace
{

struct StressOptions
{
    std::vector<MachineModel> models{
        MachineModel::Base, MachineModel::IntPerfect,
        MachineModel::Int512KB, MachineModel::Int64KB,
        MachineModel::SMTp};
    unsigned nodes = 4;
    unsigned threads = 1; ///< App threads per node.
    std::uint64_t seed = 1;
    unsigned ops = 6000; ///< Memory-op iterations per thread.
    check::CheckLevel level = check::CheckLevel::FullMirror;
    proto::ProtocolKind protocol = proto::ProtocolKind::Bitvector;
    bool quick = false;
    bool shrink = false;
    bool abortOnViolation = true;
    /** Minimum protocol-handler dispatches a model must exercise. */
    std::uint64_t minDispatches = 10000;
};

const char *
levelName(check::CheckLevel l)
{
    switch (l) {
      case check::CheckLevel::Off: return "off";
      case check::CheckLevel::Asserts: return "asserts";
      default: return "full";
    }
}

/**
 * One thread's random op stream over the shared hot-line pool. The
 * loopBegin/loopEnd pair replays the same virtual PCs each iteration so
 * the front-end sees a faithful static code image.
 */
Task
stressTask(ThreadCtx &c, std::uint64_t seed, unsigned ops,
           const std::vector<Addr> *pool)
{
    Rng rng(seed);
    auto loop = c.loopBegin();
    for (unsigned i = 0; i < ops; ++i) {
        Addr line = (*pool)[rng.below(pool->size())];
        Addr addr = line + rng.below(16) * 8;
        std::uint64_t pick = rng.below(100);
        if (pick < 40) {
            (void)co_await c.load(addr);
        } else if (pick < 72) {
            co_await c.store(addr, (seed << 20) ^ i);
        } else if (pick < 80) {
            (void)co_await c.swap(addr, i);
        } else if (pick < 90) {
            co_await c.prefetch(addr, rng.chance(0.5));
        } else {
            co_await c.intOps(4);
        }
        co_await c.loopEnd(loop, i + 1 < ops);
    }
}

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

    // A hot pool of lines spread over every home node: small enough to
    // stay contended, large enough to mix 3-hop, shared, and writeback
    // races.
    FuncMem mem;
    workload::Alloc alloc(m.addressMap());
    std::vector<Addr> pool;
    for (unsigned n = 0; n < o.nodes; ++n) {
        for (unsigned i = 0; i < 6; ++i)
            pool.push_back(alloc.allocLine(static_cast<NodeId>(n)));
    }

    std::vector<std::unique_ptr<ThreadCtx>> ctxs;
    unsigned total = o.nodes * o.threads;
    for (unsigned t = 0; t < total; ++t) {
        NodeId node = static_cast<NodeId>(t / o.threads);
        std::uint64_t pc_base =
            0x4000'0000ULL +
            static_cast<std::uint64_t>(node) * 0x0100'0000ULL;
        auto ctx = std::make_unique<ThreadCtx>(mem, node, pc_base);
        ctx->run(stressTask(*ctx,
                            o.seed ^ (t + 1) * 0x9e3779b97f4a7c15ULL,
                            o.ops, &pool));
        m.setGlobalSource(t, ctx.get());
        ctxs.push_back(std::move(ctx));
    }
    // Per-node text pages so instruction fetch hits local memory.
    for (unsigned n = 0; n < o.nodes; ++n) {
        Addr text = 0x4000'0000ULL +
                    static_cast<std::uint64_t>(n) * 0x0100'0000ULL;
        for (unsigned p = 0; p < 16; ++p) {
            m.addressMap().place(text + static_cast<Addr>(p) * pageBytes,
                                 static_cast<NodeId>(n));
        }
    }

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
    std::string name(modelName(model));
    for (auto &ch : name)
        ch = static_cast<char>(std::tolower(ch));
    std::fprintf(out,
                 "  repro: coherence_stress --models=%s --nodes=%u "
                 "--threads=%u --seed=%llu --ops=%u --check=%s "
                 "--protocol=%s%s\n",
                 name.c_str(), o.nodes, o.threads,
                 static_cast<unsigned long long>(o.seed), o.ops,
                 levelName(o.level),
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
    unsigned failing = o.ops;
    unsigned lo = 1, hi = o.ops;
    while (lo < hi) {
        unsigned mid = lo + (hi - lo) / 2;
        o.ops = mid;
        std::fprintf(stderr, "shrink: trying ops=%u ...\n", mid);
        if (runModel(model, o).violations > 0) {
            failing = mid;
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    o.ops = failing;
    std::fprintf(stderr, "shrink: minimal failing op count is %u\n",
                 failing);
    printRepro(o, model, stderr);
}

int
stressMain(int argc, char **argv)
{
    StressOptions o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        if (arg.rfind("--models=", 0) == 0) {
            o.models.clear();
            std::string csv = value();
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                std::size_t comma = csv.find(',', pos);
                std::string tok = csv.substr(
                    pos, comma == std::string::npos ? comma : comma - pos);
                MachineModel model;
                if (!modelFromName(tok, model)) {
                    std::fprintf(stderr, "unknown model '%s'\n",
                                 tok.c_str());
                    return 2;
                }
                o.models.push_back(model);
                pos = comma == std::string::npos ? comma : comma + 1;
            }
        } else if (arg.rfind("--nodes=", 0) == 0) {
            o.nodes = static_cast<unsigned>(std::stoul(value()));
        } else if (arg.rfind("--threads=", 0) == 0) {
            o.threads = static_cast<unsigned>(std::stoul(value()));
        } else if (arg.rfind("--seed=", 0) == 0) {
            o.seed = std::stoull(value());
        } else if (arg.rfind("--ops=", 0) == 0) {
            o.ops = static_cast<unsigned>(std::stoul(value()));
        } else if (arg.rfind("--check=", 0) == 0) {
            std::string l = value();
            if (l == "off") o.level = check::CheckLevel::Off;
            else if (l == "asserts") o.level = check::CheckLevel::Asserts;
            else if (l == "full") o.level = check::CheckLevel::FullMirror;
            else {
                std::fprintf(stderr, "unknown check level '%s'\n",
                             l.c_str());
                return 2;
            }
        } else if (arg.rfind("--protocol=", 0) == 0) {
            if (!proto::protocolFromName(value(), o.protocol)) {
                std::fprintf(
                    stderr, "unknown protocol '%s' (expected %s)\n",
                    value().c_str(),
                    std::string(proto::protocolNameList()).c_str());
                return 2;
            }
        } else if (arg == "--quick") {
            o.quick = true;
        } else if (arg == "--shrink") {
            o.shrink = true;
        } else if (arg == "--abort-off") {
            o.abortOnViolation = false;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return 2;
        }
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
                     o.ops, levelName(o.level));
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
