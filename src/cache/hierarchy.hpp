/**
 * @file
 * Per-node coherent cache hierarchy (paper Table 2):
 *
 *   L1I 32 KB / 64 B / 2-way          shared by application + protocol
 *   L1D 32 KB / 32 B / 2-way          threads (SMTp), LRU
 *   L2  2 MB / 128 B / 8-way, unified, inclusive; coherence unit = 128 B
 *   16 MSHRs + 1 reserved for retiring stores (+1 protocol, SMTp)
 *   16-line fully-associative I/D/L2 bypass buffers (SMTp)
 *
 * The timing plane: hits complete after 1 (L1) or 9 (L2 round-trip)
 * processor cycles; L2 misses allocate an MSHR and emit a Pi* request
 * through a FIFO towards the memory controller's Local Miss Interface —
 * the same FIFO carries evictions, which keeps the Put-before-reGet
 * ordering the directory protocol relies on.
 *
 * The architectural plane: line states here are the authoritative cache
 * states the coherence protocol probes (interventions and invalidations
 * take effect synchronously via applyProbe, so an acknowledgement is
 * never sent for a line that is still readable).
 *
 * Caches carry no data payloads: application values live in the global
 * functional memory and protocol values in the per-node protocol RAM
 * (see DESIGN.md, substitution 2).
 */

#ifndef SMTP_CACHE_HIERARCHY_HPP
#define SMTP_CACHE_HIERARCHY_HPP

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/cache_array.hpp"
#include "common/fixed_queue.hpp"
#include "common/types.hpp"
#include "protocol/message.hpp"
#include "sim/clock.hpp"
#include "sim/eventq.hpp"
#include "sim/stats.hpp"
#include "snap/event_codec.hpp"
#include "trace/trace.hpp"

namespace smtp::check
{
class Checker;
}

namespace smtp
{

enum class MemCmd : std::uint8_t
{
    IFetch,
    Load,
    Store,        ///< Retiring store draining from the store buffer.
    Prefetch,     ///< Non-binding shared prefetch.
    PrefetchEx,   ///< Prefetch-exclusive.
    ProtoIFetch,  ///< Protocol thread instruction fetch (SMTp).
    ProtoLoad,    ///< Protocol thread data access (SMTp).
    ProtoStore,
};

constexpr bool
isProtoCmd(MemCmd c)
{
    return c == MemCmd::ProtoIFetch || c == MemCmd::ProtoLoad ||
           c == MemCmd::ProtoStore;
}

struct MemReq
{
    MemCmd cmd;
    Addr addr;
    ThreadId tid = 0;
    EventQueue::Callback done; ///< Completion callback (may be empty).
};

struct CacheParams
{
    std::size_t l1iBytes = 32 * 1024;
    unsigned l1iWays = 2;
    std::size_t l1dBytes = 32 * 1024;
    unsigned l1dWays = 2;
    std::size_t l2Bytes = 2 * 1024 * 1024;
    unsigned l2Ways = 8;
    unsigned mshrs = 16;            ///< Plus one reserved for stores.
    Cycles l1HitCycles = 1;
    Cycles l2HitCycles = 9;         ///< Round trip.
    Cycles fillToUseCycles = 2;
    unsigned outQueueDepth = 16;    ///< Cache -> LMI FIFO.
    unsigned bypassLines = 16;      ///< Per bypass buffer (SMTp).
    bool enableBypass = false;      ///< SMTp machines turn this on.
    /**
     * Section 2.3 ablation: separate, perfect protocol instruction and
     * data caches. Protocol accesses hit in one cycle and never touch
     * (pollute) the shared arrays.
     */
    bool perfectProtocolCaches = false;
};

/**
 * Identifier of the reserved store MSHR (paper: "MSHR 16 + 1 for
 * retiring stores").
 */
constexpr unsigned storeMshrOffset = 0; // reserved entry index = mshrs.

class CacheHierarchy
{
  public:
    /** Push a Pi* message towards the LMI; false when the queue is full. */
    using LmiEnqueueFn = std::function<bool(const proto::Message &)>;
    /**
     * Protocol-space SDRAM access over the dedicated 64-bit bus
     * (Section 2.1); callback fires when the line is available.
     */
    using BypassFn =
        std::function<void(Addr, bool write, EventQueue::Callback)>;
    /** Invoked when a coherence probe invalidates a line (SC replay). */
    using InvalHookFn = std::function<void(Addr)>;

    CacheHierarchy(EventQueue &eq, const ClockDomain &clock, NodeId self,
                   const CacheParams &params);

    void
    connect(LmiEnqueueFn lmi, BypassFn bypass)
    {
        lmiEnqueue_ = std::move(lmi);
        bypassAccess_ = std::move(bypass);
    }

    void setInvalHook(InvalHookFn fn) { invalHook_ = std::move(fn); }

    /** Attach the coherence checker (nullptr => no checking overhead). */
    void setChecker(check::Checker *c) { check_ = c; }

    /** Attach the node's memory telemetry buffer (MSHR alloc/free). */
    void setTrace(trace::TraceBuffer *buf) { trace_ = buf; }

    enum class Outcome
    {
        Done,     ///< Completion callback scheduled.
        Pending,  ///< Miss outstanding; callback fires on fill.
        Retry,    ///< Resources exhausted; retry next cycle.
    };

    /** CPU-side access entry point. */
    Outcome access(const MemReq &req);

    // ---- Memory-controller-facing interface -------------------------

    /**
     * Deliver CcFillSh / CcFillEx / CcUpgradeGrant for MSHR m.mshr.
     * @return false when the eviction path is backed up; retry later.
     */
    bool deliverFill(const proto::Message &m);

    struct ProbeOutcome
    {
        bool hit = false;    ///< Line was present with ownership.
        bool dirty = false;
    };

    /**
     * Apply an invalidation or intervention architecturally (state
     * changes happen now; the controller charges the latency).
     */
    ProbeOutcome applyProbe(proto::MsgType kind, Addr line_addr);

    /**
     * True when an intervention must be replayed later: the line is in
     * flight to this node (pending MSHR) and this is not a writeback
     * race.
     */
    bool probeWouldDefer(Addr line_addr) const;

    /** Writeback acknowledged by the home; release the race tracker. */
    void clearWbPending(Addr line_addr) { wbPending_.erase(line_addr); }

    bool wbPending(Addr line_addr) const
    {
        return wbPending_.count(lineAlign(line_addr)) != 0;
    }

    // ---- Introspection (tests, invariant checkers) ------------------

    LineState l2State(Addr a) const;
    bool inL1d(Addr a) const;
    bool inL1i(Addr a) const;
    bool mshrPendingOn(Addr line_addr) const;
    unsigned mshrsInUse() const;
    bool
    quiescent() const
    {
        return mshrsInUse() == 0 && outQ_.empty();
    }

    // ---- Snapshot support --------------------------------------------

    /** Delayed cache->LMI FIFO drain retry. */
    struct DrainEv
    {
        static constexpr std::uint32_t kSnapId = snap::evCacheDrainOutQ;
        CacheHierarchy *c;

        void
        operator()() const
        {
            c->drainScheduled_ = false;
            c->drainOutQ();
        }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(c, "cache drain event for unknown node");
        }
    };

    /** Protocol-space line arrival over the dedicated bypass bus. */
    struct BypassFillEv
    {
        static constexpr std::uint32_t kSnapId = snap::evCacheBypassFill;
        CacheHierarchy *c;
        Addr line;
        Addr demand;
        bool isStore;
        bool isIfetch;

        void
        operator()() const
        {
            c->protoFillArrived(line, demand, isStore, isIfetch);
        }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(c, "bypass fill event for unknown node");
            ar.u64(line);
            ar.u64(demand);
            ar.b(isStore);
            ar.b(isIfetch);
        }
    };

    template <class Ar> void io(Ar &ar);
    NodeId nodeId() const { return self_; }

    // ---- Stats -------------------------------------------------------

    Counter l1iHits, l1iMisses;
    Counter l1dHits, l1dMisses;
    Counter l2Hits, l2Misses;
    Counter protoL1dHits, protoL1dMisses;
    Counter protoL2Hits, protoL2Misses;
    Counter upgradesIssued, writebacksDirty, writebacksClean;
    Counter prefetchesIssued, prefetchesDropped, prefetchesUseful;
    Counter bypassAllocs, probesDeferred, fillsPoisoned;
    Counter replayInvals;

  private:
    struct Mshr
    {
        bool valid = false;
        Addr lineAddr = invalidAddr;
        bool wantExcl = false;
        bool isUpgrade = false;      ///< Current outstanding request type.
        bool prefetch = false;
        bool invalPoison = false;    ///< Shared fill must install invalid.
        bool storeWaiting = false;   ///< Store arrived on a shared request.
        bool wantsL1i = false;       ///< First demand was an ifetch.
        Addr demandAddr = invalidAddr; ///< Sub-line to fill into the L1.
        std::vector<EventQueue::Callback> loadWaiters;
        std::vector<EventQueue::Callback> storeWaiters;
    };

    Tick cyc(Cycles c) const { return clock_.cyclesToTicks(c); }
    void completeAfter(EventQueue::Callback fn, Cycles c);

    Mshr *findMshr(Addr line_addr);
    const Mshr *findMshr(Addr line_addr) const;
    int allocMshr(bool store_reserved);

    /** Queue a Pi* message (requests and writebacks share the FIFO). */
    bool queueOut(proto::Message msg);
    void drainOutQ();

    /** Send the Pi* request for MSHR @p idx. */
    proto::Message requestFor(unsigned idx) const;

    /** Fill path helpers. */
    void installL2(Addr line_addr, LineState st, bool protocol_line);
    void evictL2Line(CacheLine &victim);
    void backInvalidateL1(Addr l2_line_addr);
    void fillL1(CacheArray &l1, CacheArray &byp, Addr addr,
                bool protocol_line);

    bool l1Lookup(CacheArray &l1, CacheArray &byp, Addr addr,
                  bool protocol_line);

    /** Checker notification helpers (no-ops when no checker attached). */
    void noteLine(Addr line_addr, LineState st, const char *why);
    void noteMshrAlloc(unsigned idx);
    void freeMshr(Mshr &ms, unsigned idx);

    /** Protocol access slow path below the L1s. */
    Outcome protoBelowL1(const MemReq &req);

    /** Bypass-bus fetch completed: install and release waiters. */
    void protoFillArrived(Addr line, Addr demand, bool is_store,
                          bool is_ifetch);

    EventQueue *eq_;
    ClockDomain clock_; ///< Copied: cheap and immutable after build.
    NodeId self_;
    CacheParams params_;

    CacheArray l1i_, l1d_, l2_;
    CacheArray bypI_, bypD_, byp2_;

    std::vector<Mshr> mshrs_; ///< params.mshrs + 1 reserved store entry.
    /**
     * Cache -> LMI FIFO. Requests and writebacks share it so a
     * writeback always reaches the directory before a re-request of the
     * same line. Unbounded on the cache side (the 16-entry bound is the
     * LMI queue itself); demand requests stop allocating once
     * outQueueDepth is exceeded.
     */
    std::deque<proto::Message> outQ_;
    bool drainScheduled_ = false;
    std::unordered_set<Addr> wbPending_;
    /** In-flight protocol-space line fetches over the bypass bus. */
    std::unordered_map<Addr, std::vector<EventQueue::Callback>>
        protoPending_;

    LmiEnqueueFn lmiEnqueue_;
    BypassFn bypassAccess_;
    InvalHookFn invalHook_;
    check::Checker *check_ = nullptr;
    trace::TraceBuffer *trace_ = nullptr;
};

} // namespace smtp

#endif // SMTP_CACHE_HIERARCHY_HPP
