/**
 * @file
 * Application scaffolding: the allocator with explicit page placement,
 * the workload environment, and the App interface the machine layer
 * drives. The six applications of the paper's Table 1 are produced by
 * makeApp().
 */

#ifndef SMTP_WORKLOAD_APP_HPP
#define SMTP_WORKLOAD_APP_HPP

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "mem/address_map.hpp"
#include "sim/stats.hpp"
#include "workload/func_mem.hpp"
#include "workload/gen.hpp"
#include "workload/sync.hpp"

namespace smtp::trace
{
class TraceBuffer;
}

namespace smtp::workload
{

/**
 * Bump allocator over per-node 1 GB regions with explicit page
 * placement — the mechanism behind the paper's "proper page placement
 * to minimize remote memory accesses".
 */
class Alloc
{
  public:
    explicit Alloc(PagePlacementMap &map) : map_(&map)
    {
        cursor_.assign(map.numNodes(), 0);
    }

    static constexpr Addr dataBase = 0x0010'0000'0000ULL;
    static constexpr Addr nodeStride = 0x4000'0000ULL; ///< 1 GB.

    /** Allocate @p bytes homed at @p node, aligned to @p align. */
    Addr
    alloc(std::size_t bytes, NodeId home, std::size_t align = l2LineBytes)
    {
        Addr base = dataBase + static_cast<Addr>(home) * nodeStride;
        Addr a = roundUp(base + cursor_[home], align);
        cursor_[home] = a + bytes - base;
        for (Addr p = pageAlign(a); p < a + bytes; p += pageBytes)
            map_->place(p, home);
        return a;
    }

    /** Allocate one coherence line (sync variables etc.). */
    Addr
    allocLine(NodeId home)
    {
        return alloc(l2LineBytes, home, l2LineBytes);
    }

  private:
    PagePlacementMap *map_;
    std::vector<Addr> cursor_;
};

struct WorkloadEnv
{
    FuncMem *mem;
    PagePlacementMap *map;
    unsigned nodes;
    unsigned threadsPerNode;
    /** Problem-size scale: 1.0 = the repo's fast defaults. */
    double scale = 1.0;
    std::uint64_t seed = 1;

    /**
     * Fault-injection hook for the watchdog test: when set, the
     * queue-server producer drops exactly one slot publish (a classic
     * lost wakeup), wedging the consumer that claimed that ticket on a
     * locally cached spin with no coherence traffic. Off by default.
     */
    bool injectLostWakeup = false;

    unsigned totalThreads() const { return nodes * threadsPerNode; }

    NodeId
    nodeOf(unsigned gtid) const
    {
        return static_cast<NodeId>(gtid / threadsPerNode);
    }
};

/**
 * First-class statistics of the server workload family (queue-server,
 * kv-store, spec-txn). Recomputed for free on checkpoint restore: the
 * resume-log replay re-executes every generator, so counters and the
 * latency histogram land exactly where the snapshot left them.
 */
struct ServerStats
{
    std::uint64_t requests = 0;    ///< Retired requests.
    std::uint64_t txnCommits = 0;  ///< Committed speculative sections.
    std::uint64_t txnAborts = 0;   ///< Conflict-induced aborts.
    std::uint64_t txnFallbacks = 0; ///< Starvation fallbacks to the lock.
    /** Birth-to-retire request latency in ticks (window granularity). */
    Distribution reqLatency;
    unsigned threadsFinished = 0;
    unsigned threadsTotal = 0;

    bool done() const { return threadsFinished == threadsTotal; }
};

class App : public snap::Snapshottable
{
  public:
    virtual ~App() = default;

    virtual std::string_view name() const = 0;

    /** Allocate data, place pages, and spawn one Task per thread. */
    virtual void build(const WorkloadEnv &env) = 0;

    ThreadCtx *thread(unsigned gtid) { return threads_[gtid].get(); }
    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Server workload statistics; nullptr for the scientific apps. The
     * pointer stays valid for the app's lifetime and its fields mutate
     * only during barrier-phase generation, so watchdog progress probes
     * may read it from the scan path without racing.
     */
    virtual const ServerStats *serverStats() const { return nullptr; }

    /**
     * Offer per-node trace buffers for the Workload telemetry category
     * (request retires, txn commits/aborts). Harnesses that want the
     * events call this after build() with a factory that creates one
     * buffer per node; apps without workload telemetry ignore it, so
     * plain runs allocate nothing and existing trace exports are
     * byte-identical.
     */
    virtual void
    attachTrace(const std::function<trace::TraceBuffer *(NodeId)> &)
    {
    }

    // ---- Snapshot support (see ThreadCtx) -----------------------------
    //
    // Serializes the global coroutine resume log plus per-thread
    // consumption cursors. Restore must run on a *freshly built* app
    // (same name/env, build() just called, nothing fetched yet): it
    // replays the log — re-executing every generator in the original
    // global order against the shared functional memory — then pops each
    // thread's consumed prefix and validates convergence.

    void
    saveState(snap::Ser &out) const override
    {
        const_cast<App *>(this)->io(out);
    }

    void restoreState(snap::Des &in) override { io(in); }

    template <class Ar>
    void
    io(Ar &ar)
    {
        std::string app(name());
        ar.str(app);
        if constexpr (Ar::loading) {
            if (app != name()) {
                ar.fail("snapshot was taken with a different application");
                return;
            }
        }
        const std::size_t nthreads = threads_.size();
        ar.seq(log_.resumes, 4, [nthreads](Ar &a, std::uint32_t &g) {
            a.u32(g);
            if constexpr (Ar::loading) {
                if (g >= nthreads)
                    a.fail("corrupt snapshot: resume log references an "
                           "out-of-range thread");
            }
        });
        const std::uint64_t n = log_.resumes.size();
        std::uint64_t prev = 0;
        ar.seq(log_.epochs, 16,
               [n, &prev](Ar &a, std::pair<std::uint64_t, Tick> &e) {
                   a.u64(e.first);
                   a.u64(e.second);
                   if constexpr (Ar::loading) {
                       if (e.first > n || e.first < prev)
                           a.fail("corrupt snapshot: resume-log tick "
                                  "epochs out of order");
                       prev = e.first;
                   }
               });
        if constexpr (Ar::loading) {
            if (!ar.ok() || !replay(ar))
                return;
        }
        ar.fixed(threads_,
                 "corrupt snapshot: workload thread count mismatch",
                 [](Ar &a, std::unique_ptr<ThreadCtx> &t) {
                     if (a.ok())
                         t->io(a);
                 });
    }

  protected:
    /** Create the per-thread contexts with per-node text segments. */
    void
    makeThreads(const WorkloadEnv &env)
    {
        env_ = env;
        alloc_ = std::make_unique<Alloc>(*env.map);
        rng_.reseed(env.seed);
        for (unsigned t = 0; t < env.totalThreads(); ++t) {
            NodeId node = env.nodeOf(t);
            std::uint64_t pc_base =
                0x4000'0000ULL + static_cast<std::uint64_t>(node) *
                                     0x0100'0000ULL;
            threads_.push_back(
                std::make_unique<ThreadCtx>(*env.mem, node, pc_base));
            threads_.back()->attachResumeLog(&log_, t);
        }
        // Place per-node text pages (read mostly through the L1I).
        for (unsigned n = 0; n < env.nodes; ++n) {
            Addr text = 0x4000'0000ULL +
                        static_cast<std::uint64_t>(n) * 0x0100'0000ULL;
            for (unsigned p = 0; p < 16; ++p) {
                env.map->place(text + static_cast<Addr>(p) * pageBytes,
                               static_cast<NodeId>(n));
            }
        }
    }

    /**
     * Re-run the just-restored resume log, re-advancing the barrier
     * clock at the recorded epoch boundaries so every tick-stamped work
     * item (request birth, latency sample) regenerates with its
     * original timestamp. The replay rebuilds log_ as it goes.
     */
    bool
    replay(snap::Des &in)
    {
        std::vector<std::uint32_t> resumes = std::move(log_.resumes);
        std::vector<std::pair<std::uint64_t, Tick>> epochs =
            std::move(log_.epochs);
        log_.resumes.clear();
        log_.epochs.clear();
        log_.now = 0;
        std::size_t ei = 0;
        for (std::size_t i = 0; i < resumes.size(); ++i) {
            while (ei < epochs.size() && epochs[ei].first <= i) {
                log_.setNow(epochs[ei].second);
                ++ei;
            }
            std::uint32_t g = resumes[i];
            log_.resumes.push_back(g);
            if (!threads_[g]->replayResume()) {
                in.fail("corrupt snapshot: resume log runs past the "
                        "end of a generator");
                return false;
            }
        }
        while (ei < epochs.size()) {
            log_.setNow(epochs[ei].second);
            ++ei;
        }
        return true;
    }

    WorkloadEnv env_{};
    std::unique_ptr<Alloc> alloc_;
    Rng rng_;
    std::vector<std::unique_ptr<ThreadCtx>> threads_;
    ThreadCtx::ResumeLog log_;
};

/**
 * Factory for all applications: the paper's six ("fft", "fftw", "lu",
 * "radix", "ocean", "water") plus the server family ("queue-server",
 * "kv-store", "spec-txn"). Fatal on unknown names.
 */
std::unique_ptr<App> makeApp(std::string_view name);

/** The six paper application names in the paper's presentation order. */
const std::vector<std::string> &appNames();

/** The server-class workload family (see src/workload/server/). */
const std::vector<std::string> &serverAppNames();

} // namespace smtp::workload

#endif // SMTP_WORKLOAD_APP_HPP
