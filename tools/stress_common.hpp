/**
 * @file
 * What coherence_stress and chaos_stress share: the randomized op
 * stream (seeded loads, stores, swaps and prefetches from every
 * hardware thread over a small pool of hot lines), the flags that
 * shape it, and the op-count bisection behind --shrink.
 */

#ifndef SMTP_TOOLS_STRESS_COMMON_HPP
#define SMTP_TOOLS_STRESS_COMMON_HPP

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "machine/machine.hpp"
#include "workload/app.hpp"
#include "workload/gen.hpp"

namespace smtp::stress
{

/** The stream flags both tools take. */
struct StreamOptions
{
    std::vector<MachineModel> models{
        MachineModel::Base, MachineModel::IntPerfect,
        MachineModel::Int512KB, MachineModel::Int64KB,
        MachineModel::SMTp};
    unsigned nodes = 4;
    unsigned threads = 1; ///< App threads per node.
    std::uint64_t seed = 1;
    unsigned ops = 6000; ///< Memory-op iterations per thread.
    proto::ProtocolKind protocol = proto::ProtocolKind::Bitvector;
    bool quick = false;
    bool shrink = false;
    bool abortOnViolation = true;
};

/**
 * Offer one argv word to the stream flags (--models, --nodes,
 * --threads, --seed, --ops, --protocol, --quick, --shrink,
 * --abort-off). True when it set one; false with *err set on a bad
 * value, or with *err untouched when @p arg names none of them.
 */
inline bool
parseStreamFlag(const std::string &arg, StreamOptions &o, std::string *err)
{
    std::string v = arg.substr(arg.find('=') + 1);
    auto is = [&arg](const char *prefix) {
        return arg.rfind(prefix, 0) == 0;
    };
    auto digits = [&](auto &n) {
        bool ok = parseDigits(v, n);
        if (!ok)
            *err = "bad " + arg;
        return ok;
    };
    if (is("--models=")) {
        o.models.clear();
        for (const std::string &tok : splitList(v)) {
            MachineModel model;
            if (!modelFromName(tok, model)) {
                *err = "unknown model '" + tok + "'";
                return false;
            }
            o.models.push_back(model);
        }
    } else if (is("--nodes=")) {
        return digits(o.nodes);
    } else if (is("--threads=")) {
        return digits(o.threads);
    } else if (is("--seed=")) {
        return digits(o.seed);
    } else if (is("--ops=")) {
        return digits(o.ops);
    } else if (is("--protocol=")) {
        if (!proto::protocolFromName(v, o.protocol)) {
            *err = "unknown protocol '" + v + "' (expected " +
                   std::string(proto::protocolNameList()) + ")";
            return false;
        }
    } else if (arg == "--quick") {
        o.quick = true;
    } else if (arg == "--shrink") {
        o.shrink = true;
    } else if (arg == "--abort-off") {
        o.abortOnViolation = false;
    } else {
        return false;
    }
    return true;
}

/** The machine's own size check, before any machine is built. */
inline bool
checkSizes(const StreamOptions &o, std::string *why)
{
    MachineParams p;
    p.nodes = o.nodes;
    p.appThreadsPerNode = o.threads;
    return checkMachineParams(p, why);
}

/** The --models= spelling of @p m, for repro lines. */
inline std::string
flagName(MachineModel m)
{
    std::string name(modelName(m));
    for (auto &ch : name)
        ch = static_cast<char>(std::tolower(ch));
    return name;
}

/**
 * The op stream wired into a machine: one seeded task per hardware
 * thread. Holds the memory the tasks run against, so it must outlive
 * the run (declare it after the Machine).
 */
class Stream
{
  public:
    Stream(Machine &m, const StreamOptions &o)
    {
        // A hot pool of lines spread over every home node: small
        // enough to stay contended, large enough to mix 3-hop, shared,
        // and writeback races.
        workload::Alloc alloc(m.addressMap());
        for (unsigned n = 0; n < o.nodes; ++n) {
            for (unsigned i = 0; i < 6; ++i)
                pool_.push_back(alloc.allocLine(NodeId(n)));
        }
        unsigned total = o.nodes * o.threads;
        for (unsigned t = 0; t < total; ++t) {
            NodeId node = static_cast<NodeId>(t / o.threads);
            auto ctx =
                std::make_unique<ThreadCtx>(mem_, node, text(node));
            ctx->run(task(*ctx,
                          o.seed ^ (t + 1) * 0x9e3779b97f4a7c15ULL,
                          o.ops, &pool_));
            m.setGlobalSource(t, ctx.get());
            ctxs_.push_back(std::move(ctx));
        }
        // Per-node text pages so instruction fetch hits local memory.
        for (unsigned n = 0; n < o.nodes; ++n) {
            for (unsigned p = 0; p < 16; ++p) {
                m.addressMap().place(
                    text(n) + static_cast<Addr>(p) * pageBytes,
                    static_cast<NodeId>(n));
            }
        }
    }

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

  private:
    static Addr
    text(unsigned node)
    {
        return 0x4000'0000ULL +
               static_cast<std::uint64_t>(node) * 0x0100'0000ULL;
    }

    /**
     * One thread's random op stream over the shared hot-line pool. The
     * loopBegin/loopEnd pair replays the same virtual PCs each
     * iteration so the front-end sees a faithful static code image.
     */
    static Task
    task(ThreadCtx &c, std::uint64_t seed, unsigned ops,
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

    FuncMem mem_;
    std::vector<Addr> pool_;
    std::vector<std::unique_ptr<ThreadCtx>> ctxs_;
};

/**
 * Bisect @p o's op count down to the smallest stream for which
 * fails(o) still holds, and return it.
 */
template <class O, class Fails>
unsigned
shrinkOps(O o, Fails fails)
{
    unsigned failing = o.ops;
    unsigned lo = 1, hi = o.ops;
    while (lo < hi) {
        unsigned mid = lo + (hi - lo) / 2;
        o.ops = mid;
        std::fprintf(stderr, "shrink: trying ops=%u ...\n", mid);
        if (fails(o)) {
            failing = mid;
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    std::fprintf(stderr, "shrink: minimal failing op count is %u\n",
                 failing);
    return failing;
}

} // namespace smtp::stress

#endif // SMTP_TOOLS_STRESS_COMMON_HPP
