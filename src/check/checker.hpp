/**
 * @file
 * Runtime coherence invariant checker and deadlock watchdog.
 *
 * The checker mirrors every cache line's global state from two
 * independent streams of evidence and cross-checks them:
 *
 *  - cache-side: the L2 hierarchies report every line-state transition
 *    (fill install, eviction, probe downgrade, upgrade grant), from
 *    which the checker maintains per-line sharer/writer bitmasks and
 *    asserts the SWMR invariant on every transition;
 *
 *  - home-side: the memory controllers report every directory-entry
 *    store a protocol handler makes, which the checker validates for
 *    well-formedness (legal state encoding, vector within the node
 *    count, Exclusive/busy states carrying exactly one owner bit) and,
 *    at FullMirror level, records for quiescence-time cross-checks
 *    against the cache-side masks.
 *
 * Because probes apply architecturally at handler dispatch (the
 * serialization point) and exclusive fills are delivered only after
 * all invalidation acks, the install-time SWMR assertions hold exactly
 * — no grace windows are needed.  The directory vector is only
 * checked as a *superset* of the actual sharers (silent Shared drops
 * are part of the protocol).
 *
 * The watchdog tracks the age of every in-flight transaction (MSHRs on
 * the cache side, busy or stale directory entries on the home side).
 * When any exceeds a configurable bound it prints all tracked
 * transactions, component queue occupancies (via registered dump
 * hooks) and the last N protocol-handler dispatches from a ring
 * buffer, then flags a violation — turning a silent simulator hang
 * into a readable report.
 *
 * Thread safety (Asserts level under --exec=parallel:T): every hook is
 * internally serialized by one mutex, and ticks are read through a
 * per-node tick source (each shard's own queue) so no hook ever reads
 * another shard's clock. The SWMR assertions stay exact under parallel
 * shards because causally related transitions on one line are at least
 * one barrier window apart (an exclusive fill is delivered only after
 * the invalidation acks, each a network hop of one lookahead), and
 * same-window unrelated transitions commute on the per-node bitmask.
 * Only the FullMirror quiescence sweeps need a globally serialized
 * schedule; the machine forces one host thread for that level alone —
 * loudly (machine/machine.cpp).
 *
 * Watchdog determinism: under a Machine the scan event is armed at the
 * single-threaded barrier phase (onBarrier) the first time any shard
 * tracks a transaction, and re-arms itself unconditionally from then
 * on — the scan schedule is a pure function of simulated time, so it
 * perturbs window placement identically at every host-thread count.
 * Standalone single-queue harnesses keep the lazy arm-on-track /
 * stop-when-idle behavior so their event loops still drain.
 */

#pragma once

#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache_array.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "protocol/directory.hpp"
#include "protocol/executor.hpp"
#include "protocol/message.hpp"
#include "sim/eventq.hpp"
#include "sim/stats.hpp"
#include "snap/event_codec.hpp"
#include "trace/trace.hpp"

namespace smtp::check
{

/** How much checking a machine pays for. */
enum class CheckLevel : std::uint8_t {
    Off,        ///< no checker constructed; zero overhead
    Asserts,    ///< per-transition SWMR + directory-write validation + watchdog
    FullMirror, ///< Asserts plus dir/pend mirrors and quiescence sweeps
};

/** "off" / "asserts" / "full" (the --check= vocabulary). */
const char *checkLevelName(CheckLevel lv);

/** Parse the --check= vocabulary. False (with *err) on junk. */
bool parseCheckLevel(const std::string &s, CheckLevel &out,
                     std::string *err = nullptr);

struct CheckerParams
{
    CheckLevel level = CheckLevel::Asserts;
    unsigned nodes = 1;
    /** Panic on the first violation (tests may latch instead). */
    bool abortOnViolation = true;
    /** Depth of the handler-dispatch ring buffer in the wedge report. */
    unsigned ringEntries = 128;
    /** A transaction older than this is considered wedged. */
    Tick watchdogMaxAge = 2 * tickPerMs;
    /** How often the watchdog sweeps its tracked-transaction table. */
    Tick watchdogScanInterval = 50 * tickPerUs;
};

class Checker
{
  public:
    Checker(EventQueue &eq, const proto::DirFormat &fmt,
        const CheckerParams &params);

    CheckLevel level() const { return params_.level; }
    bool fullMirror() const { return params_.level == CheckLevel::FullMirror; }

    // ------------------------------------------------- cache-side hooks

    /** An L2 line changed state (Inv on eviction/invalidation). */
    void onLineState(NodeId node, Addr line, LineState st, const char *why);

    /** An MSHR was allocated for @p line (watchdog tracking begins). */
    void onMshrAlloc(NodeId node, unsigned idx, Addr line);

    /** The MSHR's transaction completed (watchdog tracking ends). */
    void onMshrFree(NodeId node, unsigned idx);

    // -------------------------------------------------- home-side hooks

    /** A protocol handler is about to run for @p m at @p node. */
    void onDispatch(NodeId node, const proto::Message &m);

    /** The handler dispatched last finished; annotate the ring entry. */
    void onHandlerExecuted(NodeId node, const proto::HandlerTrace &tr);

    /** A handler stored @p entry to the directory entry of @p line. */
    void onDirWrite(NodeId home, Addr line, std::uint64_t entry);

    /** A handler stored word0 of pending-table entry (@p node, @p mshr). */
    void onPendWrite(NodeId node, unsigned mshr, std::uint64_t word0);

    /**
     * A requester crossed the NAK-retry starvation threshold for
     * @p line. Not a violation by itself (the transaction may yet
     * complete) — recorded for the wedge report so a livelocked run
     * names the starving lines.
     */
    void onStarvation(NodeId node, Addr line, unsigned retries);

    // ---------------------------------------------------------- lifecycle

    /** Register a component state dumper for the wedge report. */
    void
    addDumpHook(std::string name, std::function<void(std::FILE *)> fn)
    {
        dumpHooks_.emplace_back(std::move(name), std::move(fn));
    }

    /**
     * Register a forward-progress probe for the watchdog: @p counter
     * must increase while the workload is live; once @p done returns
     * true (or if it is empty, never) the probe stops aging. Catches
     * wedges that produce *no* coherence traffic at all — a consumer
     * spinning on its locally cached line after a lost wakeup — which
     * the transaction-age watchdog is structurally blind to.
     *
     * The counter is read from the watchdog scan (constructor queue,
     * during window execution); probe state must only mutate in the
     * single-threaded barrier phase (workload generation does), so
     * reads never race.
     */
    void addProgressProbe(std::string name,
                          std::function<std::uint64_t()> counter,
                          std::function<bool()> done = {});

    /**
     * Let wedge reports dump the tails of the machine's telemetry
     * buffers next to the dispatch ring (nullptr => ring only).
     */
    void setTraceManager(const trace::TraceManager *tm) { traceMgr_ = tm; }

    /**
     * Per-node clock for hook timestamps. Under the sharded engine a
     * hook runs on the shard owning @p node, so the source must read
     * that shard's queue — never queue 0's — or parallel runs would
     * race on another shard's clock. Unset = the constructor queue.
     */
    void setTickSource(std::function<Tick(NodeId)> fn)
    {
        tickSrc_ = std::move(fn);
    }

    /**
     * Switch the watchdog to barrier-phase arming (see the file
     * comment): track() only requests a scan; onBarrier() — called by
     * the machine from the single-threaded barrier phase — performs
     * the actual scheduling onto the constructor queue, and the scan
     * re-arms itself unconditionally thereafter.
     */
    void enableBarrierArming() { barrierArm_ = true; }

    /** Barrier-phase service point (Machine::runWindow). */
    void onBarrier();

    /**
     * Auto-snapshot on watchdog trip: the hook attempts a machine
     * snapshot and returns the written path ("" on failure). Runs once,
     * before the violation is flagged (which may abort), so a wedged
     * run leaves a restorable machine state next to its report —
     * docs/debugging.md describes the snap_tool diff workflow.
     */
    void
    setWedgeSnapshotHook(std::function<std::string()> fn)
    {
        wedgeSnap_ = std::move(fn);
    }

    /**
     * Cross-check the mirrors at a global quiescent point (no MSHRs,
     * no in-flight messages): SWMR on the cache masks, directory state
     * consistent with the actual holders, no busy/stale entries, no
     * valid pending-table entries, no tracked transactions.
     */
    void verifyQuiescent();

    /**
     * Dump the full wedge report (tracked transactions, component
     * queues, dispatch ring) and flag a violation.  Idempotent: only
     * the first call reports.
     */
    void reportWedge(const char *why);

    /** Write the diagnostic report (no violation flagged). */
    void dumpReport(std::FILE *out);

    /** Record a violation; panics unless abortOnViolation is false. */
    template <typename... Args>
    void
    flag(const char *fmt, Args &&...args)
    {
        char buf[512];
        std::snprintf(buf, sizeof(buf), fmt, std::forward<Args>(args)...);
        violation(buf);
    }

    std::size_t violationCount() const { return violations_.size(); }
    const std::vector<std::string> &violations() const { return violations_; }

    // ------------------------------------------------------------- stats

    Counter lineEvents;  ///< cache line-state transitions observed
    Counter dirWrites;   ///< directory-entry stores audited
    Counter pendWrites;  ///< pending-table word0 stores audited
    Counter dispatches;  ///< handler dispatches ring-buffered
    Counter starvations; ///< retry-threshold crossings reported

  private:
    /** Cache-side + home-side mirror of one line's global state. */
    struct LineMirror
    {
        std::uint64_t sharers = 0;  ///< nodes holding the line Shared
        std::uint64_t writers = 0;  ///< nodes holding it Ex/Mod
        std::uint64_t dirEntry = 0; ///< last directory store (FullMirror)
        bool dirSeen = false;
    };

    /** An in-flight transaction the watchdog is aging. */
    struct Live
    {
        Tick since = 0;
        NodeId node = 0;
        Addr addr = 0;
        const char *kind = "";
    };

    /** A registered forward-progress probe and its aging state. */
    struct Probe
    {
        std::string name;
        std::function<std::uint64_t()> counter;
        std::function<bool()> done;
        std::uint64_t last = 0;
        Tick lastChange = 0;
        /** First scan initializes lastChange lazily (restored runs
         *  begin mid-simulation; tick 0 would flag instantly). */
        bool seen = false;
    };

    /** A starvation-threshold crossing kept for the wedge report. */
    struct Starved
    {
        Tick when = 0;
        NodeId node = 0;
        Addr addr = 0;
        unsigned retries = 0;
    };

    /** Oldest crossings kept verbatim; the counter keeps the total. */
    static constexpr std::size_t maxStarvedRecords = 64;

    static std::uint64_t
    mshrKey(NodeId node, unsigned idx)
    {
        return (1ULL << 62) | (static_cast<std::uint64_t>(node) << 16) | idx;
    }

    static std::uint64_t
    dirKey(Addr line)
    {
        return (1ULL << 63) | line;
    }

    /** Newest events shown per telemetry buffer in a wedge report. */
    static constexpr std::size_t wedgeTraceTail = 32;

    void violation(const std::string &msg);
    void track(std::uint64_t key, NodeId node, Addr addr, const char *kind);
    void untrack(std::uint64_t key);
    void scheduleScan();
    void scan();

    /**
     * The watchdog sweep event. Carries the evWatchdog snap id so the
     * snapshot layer can recognise and *skip* it (mirror state is not
     * serialized; a restored machine re-arms its own watchdog), but it
     * is never encoded or decoded.
     */
    struct ScanEv
    {
        static constexpr std::uint32_t kSnapId = snap::evWatchdog;
        Checker *ck;
        void operator()() const { ck->scan(); }
        template <class Ar> void io(Ar &) {}
    };

    EventQueue *eq_;
    proto::DirFormat fmt_;
    CheckerParams params_;
    std::uint64_t nodeMask_;

    std::unordered_map<Addr, LineMirror> lines_;
    /** (node << 8 | mshr) -> last word0 written (FullMirror only). */
    std::unordered_map<std::uint32_t, std::uint64_t> pend_;

    /**
     * Cross-node handler-dispatch history as trace events: each
     * dispatch records an McDispatch (aux byte = dispatching node)
     * paired with a HandlerExec annotation, decoded by the shared
     * trace::printEvent in wedge reports. Sized 2x ringEntries so the
     * configured depth still covers that many dispatch *pairs*.
     */
    trace::TraceBuffer ring_;
    /** Last dispatch per node: onHandlerExecuted pairs with its own
     *  node's dispatch, so under parallel shards the pairing state
     *  must not be a single scalar shared across nodes. */
    struct LastDispatch
    {
        bool valid = false;
        std::uint8_t mshr = 0;
        std::uint16_t ack = 0;
    };
    std::vector<LastDispatch> lastDispatch_;
    const trace::TraceManager *traceMgr_ = nullptr;

    std::unordered_map<std::uint64_t, Live> live_;
    std::vector<Probe> probes_;
    std::vector<Starved> starved_;
    bool scanScheduled_ = false;
    bool wedgeReported_ = false;

    /** Serializes every hook (parallel shards call in concurrently). */
    mutable std::recursive_mutex mtx_;
    /** Per-node clock (setTickSource); empty => constructor queue. */
    std::function<Tick(NodeId)> tickSrc_;
    /** Barrier-phase watchdog arming enabled (enableBarrierArming). */
    bool barrierArm_ = false;
    /** A track() ran since the last barrier; onBarrier() arms the scan. */
    bool scanArmRequest_ = false;

    Tick
    tickAt(NodeId node) const
    {
        return tickSrc_ ? tickSrc_(node) : eq_->curTick();
    }

    std::vector<std::string> violations_;
    std::vector<std::pair<std::string, std::function<void(std::FILE *)>>>
        dumpHooks_;
    std::function<std::string()> wedgeSnap_;
};

} // namespace smtp::check
