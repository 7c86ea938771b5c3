/**
 * @file
 * The per-node memory controller.
 *
 * Owns the Local Miss Interface queue, the network-interface input
 * (2-entry per vnet) and output (16-entry per vnet) queues, the SDRAM,
 * and the handler dispatch unit of Figure 1. Dispatch:
 *
 *   1. selects a waiting message round-robin across the LMI and the
 *      three coherence virtual networks;
 *   2. performs the hardware pre-actions — sets the home-local flag,
 *      launches the speculative SDRAM line read for request types that
 *      expect data, applies (or defers) the L2 probe for forwarded
 *      interventions, releases the writeback-race tracker on WbAck;
 *   3. runs the handler functionally against the node's protocol RAM
 *      and directory state, obtaining the dynamic trace; and
 *   4. hands the trace to the protocol agent (embedded PP or SMTp
 *      protocol thread) for timing. Sends recorded in the trace leave
 *      the node only when the agent replays the corresponding SendG.
 *
 * For SMTp, a standard controller: identical hardware minus the agent
 * being on-die logic — which is exactly the paper's point.
 */

#ifndef SMTP_MEM_CONTROLLER_HPP
#define SMTP_MEM_CONTROLLER_HPP

#include <array>
#include <cstdio>
#include <deque>
#include <memory>
#include <unordered_map>

#include "cache/hierarchy.hpp"
#include "common/fixed_queue.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "mem/agent.hpp"
#include "mem/protocol_ram.hpp"
#include "mem/sdram.hpp"
#include "network/network.hpp"
#include "protocol/executor.hpp"
#include "protocol/handlers.hpp"
#include "sim/clock.hpp"
#include "sim/eventq.hpp"
#include "sim/stats.hpp"

namespace smtp
{

struct McParams
{
    std::uint64_t freqMHz = 1000;       ///< Half of a 2 GHz core.
    SdramParams sdram;
    unsigned lmiQueueDepth = 16;
    unsigned niInQueueDepth = 2;
    unsigned niOutQueueDepth = 16;
    /** CPU <-> controller crossing (large for the off-chip Base model). */
    Tick busLatency = 1 * tickPerNs;
    /** L2 probe round trip as seen from the controller. */
    Tick probeLatency = 5 * tickPerNs;
    /** Deferred-intervention replay interval. */
    Tick deferRetry = 50 * tickPerNs;
    /**
     * NAK retry policy (backoff shape + starvation threshold). The
     * default Fixed policy reproduces the historical fixed-base-plus-
     * jitter delay bit for bit.
     */
    fault::RetryPolicyConfig retry;
    std::uint64_t rngSeed = 1;

    /**
     * Phase-priority protocol variant: service the request queues in
     * barrier-phase priority order (lowest epoch first) instead of
     * round-robin FIFO, so a straggler's old requests overtake queued
     * work from nodes that already advanced. Replies and forwards keep
     * strict priority (deadlock avoidance is unchanged — the vnet
     * ordering still drains dependencies first). Off by default; the
     * bitvector/migratory protocols keep the historical round-robin.
     */
    bool phasePriority = false;
    /** Epoch granularity for request phase stamps. */
    Tick phaseEpochTicks = 25 * tickPerNs;
    /**
     * Starvation floor: after this many consecutive bypasses of one
     * request source's head message, that source is force-served
     * regardless of phase.
     */
    unsigned phaseStarvationFloor = 64;
    /**
     * Deliberate bug (validation only): when the starvation floor
     * trips, discard the head message instead of force-serving it —
     * the transaction wedges and the watchdog must flag it.
     */
    bool injectDropOnFloor = false;
};

class MemController : public proto::ExecEnv
{
  public:
    MemController(EventQueue &eq, NodeId self, const McParams &params,
                  const AddressMap &map, const proto::HandlerImage &image,
                  CacheHierarchy &cache, Network &net);

    void setAgent(ProtocolAgent *agent) { agent_ = agent; }

    // ---- Inbound interfaces ------------------------------------------

    /** From the cache hierarchy (hook this as its LmiEnqueueFn). */
    bool lmiEnqueue(const proto::Message &msg);

    /** From the network (hook this as its DeliverFn). */
    bool niDeliver(const proto::Message &msg);

    /** Protocol-space SDRAM access (cache bypass bus). */
    void bypassAccess(Addr addr, bool write, EventQueue::Callback done);

    // ---- Agent callbacks ---------------------------------------------

    /** The agent executed send @p idx of @p ctx's trace. */
    void releaseSend(TransactionCtx *ctx, unsigned idx);

    /** When the probe result for @p ctx becomes available (ldprobe). */
    Tick probeReadyTick(const TransactionCtx *ctx) const
    {
        return ctx->probeReady;
    }

    /**
     * The agent finished the handler (its ldctxt completed). Every agent
     * calls this right after freeing itself, which wakes a parked
     * dispatch.
     */
    void handlerDone(TransactionCtx *ctx);

    /** The agent's acceptance state changed (e.g. an LAS slot opened). */
    void
    agentPoke()
    {
        wakeDispatch();
        tryDispatch();
    }

    /** Look up a live transaction (agent state restore). */
    TransactionCtx *
    ctxById(std::uint64_t id)
    {
        auto it = ctxs_.find(id);
        return it == ctxs_.end() ? nullptr : it->second.get();
    }

    // ---- Snapshot support --------------------------------------------

    static constexpr const char *badNodeEvent =
        "controller event for unknown node";

    /**
     * Restore-time lookup of the live transaction an event names; fails
     * @p in when there is none (such an event would fire on a dead
     * context).
     */
    TransactionCtx *
    eventCtx(snap::Des &in, std::uint64_t id)
    {
        TransactionCtx *ctx = ctxById(id);
        if (ctx == nullptr)
            in.fail("corrupt snapshot: event for an unknown transaction");
        return ctx;
    }

    /** Dispatch poke after a bus/clock crossing. */
    struct PokeEv
    {
        static constexpr std::uint32_t kSnapId = snap::evMcPoke;
        MemController *mc;

        void operator()() const { mc->tryDispatch(); }

        template <class Ar> void io(Ar &ar) { ar.owner(mc, badNodeEvent); }
    };

    /**
     * Deferred-intervention replay poll: at a deferred message's retry
     * time, or where a parked dispatch wakes.
     */
    struct DispatchPollEv
    {
        static constexpr std::uint32_t kSnapId = snap::evMcDispatchPoll;
        MemController *mc;

        void
        operator()() const
        {
            mc->dispatchPollScheduled_ = false;
            mc->tryDispatch();
        }

        template <class Ar> void io(Ar &ar) { ar.owner(mc, badNodeEvent); }
    };

    /** Speculative/lazy SDRAM line read completed for a transaction. */
    struct CtxMemDoneEv
    {
        static constexpr std::uint32_t kSnapId = snap::evMcCtxMemDone;
        MemController *mc;
        std::uint64_t ctxId;

        void operator()() const { mc->ctxMemDone(ctxId); }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(mc, badNodeEvent);
            ar.u64(ctxId);
            if constexpr (Ar::loading) {
                if (ar.ok())
                    mc->eventCtx(ar, ctxId);
            }
        }
    };

    /** Local fill delivery (retries when the eviction path pushes back). */
    struct DeliverLocalEv
    {
        static constexpr std::uint32_t kSnapId = snap::evMcDeliverLocal;
        MemController *mc;
        proto::Message msg;

        void operator()() const { mc->deliverLocalNow(msg); }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(mc, badNodeEvent);
            ar.obj(msg);
        }
    };

    /** Delayed network send entering the NI output queues. */
    struct NetDeliverEv
    {
        static constexpr std::uint32_t kSnapId = snap::evMcNetDeliver;
        MemController *mc;
        proto::Message msg;

        void operator()() const { mc->netDeliverNow(msg); }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(mc, badNodeEvent);
            ar.obj(msg);
        }
    };

    /** One message per controller cycle leaves through the NI. */
    struct DrainNiOutEv
    {
        static constexpr std::uint32_t kSnapId = snap::evMcDrainNiOut;
        MemController *mc;

        void operator()() const { mc->drainNiOutNow(); }

        template <class Ar> void io(Ar &ar) { ar.owner(mc, badNodeEvent); }
    };

    /** Commit a carried data line to local SDRAM. */
    struct MemWriteEv
    {
        static constexpr std::uint32_t kSnapId = snap::evMcMemWrite;
        MemController *mc;
        Addr addr;

        void
        operator()() const
        {
            mc->sdram_.access(lineAlign(addr), l2LineBytes, true);
        }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(mc, badNodeEvent);
            ar.u64(addr);
        }
    };

    /**
     * Data-availability continuation parked in a transaction's
     * memWaiters list. Kinds: 0 = SDRAM write commit (addr in msg.addr),
     * 1 = local delivery, 2 = network send, 3 = stage the per-MSHR data
     * buffer (id in msg.mshr).
     */
    struct PendingSendEv
    {
        static constexpr std::uint32_t kSnapId = snap::evMcPendingSend;
        MemController *mc;
        std::uint8_t kind;
        proto::Message msg;
        bool delayed;

        void operator()() const { mc->runPendingSend(kind, msg, delayed); }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(mc, badNodeEvent);
            ar.u8(kind);
            ar.obj(msg);
            ar.b(delayed);
            if constexpr (Ar::loading) {
                if (kind > 3)
                    ar.fail("corrupt snapshot: pending-send kind");
            }
        }
    };

    /** Bypass-bus crossing towards the SDRAM (protocol space). */
    struct BypassBusEv
    {
        static constexpr std::uint32_t kSnapId = snap::evMcBypassDone;
        MemController *mc;
        Addr addr;
        bool write;
        EventQueue::Callback done;

        void
        operator()() const
        {
            mc->sdram_.access(addr, l2LineBytes, write, done);
        }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(mc, badNodeEvent);
            ar.u64(addr);
            ar.b(write);
            ar.cb(done);
        }
    };

    template <class Ar> void io(Ar &ar);

    // ---- proto::ExecEnv ----------------------------------------------

    std::uint64_t protoLoad(Addr a, unsigned bytes) override;
    void protoStore(Addr a, std::uint64_t v, unsigned bytes) override;
    Addr dirAddrOf(Addr line_addr) override;
    NodeId homeOf(Addr line_addr) override;
    std::uint64_t probeResult() override;

    // ---- Introspection -----------------------------------------------

    /** Attach the coherence checker (nullptr => no checking overhead). */
    void setChecker(check::Checker *c) { checker_ = c; }

    /**
     * Attach the fault injector (nullptr = fault-free). The controller
     * consults it for forced NAKs at dispatch and forwards it to the
     * SDRAM for the ECC bit-flip model.
     */
    void
    setFaultInjector(fault::FaultInjector *fi)
    {
        faults_ = fi;
        sdram_.setFaultInjector(fi, self_);
    }

    /** Attach the node's memory telemetry buffer (also fed to SDRAM). */
    void
    setTrace(trace::TraceBuffer *buf)
    {
        trace_ = buf;
        sdram_.setTrace(buf);
    }

    /** A due deferred message waits, unpolled, for the agent to free. */
    bool dispatchParked() const { return parked_; }

    ProtocolRam &ram() { return ram_; }
    Sdram &sdram() { return sdram_; }
    const ClockDomain &clock() const { return clock_; }
    NodeId nodeId() const { return self_; }

    bool
    quiescent() const
    {
        if (inFlight_ != 0 || !lmiQ_.empty() || !deferQ_.empty())
            return false;
        for (const auto &q : niInQ_)
            if (!q.empty())
                return false;
        for (const auto &q : niOutQ_)
            if (!q.empty())
                return false;
        return niOutOverflow_.empty() && pendingDelayedSends_ == 0 &&
               pendingLocalDeliveries_ == 0;
    }

    /** Dump queue/transaction state (wedge diagnosis). */
    void
    debugState(std::FILE *out) const
    {
        std::fprintf(out,
                     "    mc: lmi=%zu niIn=[%zu,%zu,%zu,%zu] "
                     "niOut=[%zu,%zu,%zu,%zu] ovf=%zu defer=%zu "
                     "inflight=%u delayed=%u local=%u\n",
                     lmiQ_.size(), niInQ_[0].size(), niInQ_[1].size(),
                     niInQ_[2].size(), niInQ_[3].size(), niOutQ_[0].size(),
                     niOutQ_[1].size(), niOutQ_[2].size(),
                     niOutQ_[3].size(), niOutOverflow_.size(),
                     deferQ_.size(), inFlight_, pendingDelayedSends_,
                     pendingLocalDeliveries_);
        std::fprintf(out,
                     "    mc: tryDispatch calls=%llu last=%llu lastLmi=%llu "
                     "agentAccept=%d parked=%d parkTick=%llu\n",
                     static_cast<unsigned long long>(tryDispatchCalls),
                     static_cast<unsigned long long>(lastTryDispatch),
                     static_cast<unsigned long long>(lastLmiEnqueue),
                     agent_ ? static_cast<int>(agent_->canAccept()) : -1,
                     static_cast<int>(parked_),
                     static_cast<unsigned long long>(parkTick_));
        for (const auto &[id, ctx] : ctxs_) {
            std::fprintf(out, "    ctx %llu: %s addr=%llx memDone=%d\n",
                         static_cast<unsigned long long>(id),
                         std::string(msgTypeName(ctx->msg.type)).c_str(),
                         static_cast<unsigned long long>(ctx->msg.addr),
                         ctx->memDone);
        }
    }

    /** Directory entry value for a line homed here (tests/checkers). */
    std::uint64_t
    dirEntry(Addr line_addr)
    {
        return ram_.read(dirAddrOf(line_addr), dirEntryBytes_);
    }

    // Stats.
    Counter handlersDispatched;
    Counter msgsFromLmi, msgsFromNet;
    Counter probesDeferred;
    Counter naksSent;  // (observed at release time)
    /** Transactions that crossed the starvation retry threshold. */
    Counter starvationFlags;
    /** Invalidations forwarded to sharers (released FwdInval sends). */
    Counter invalsSent;
    /**
     * Head-of-queue bypasses forgiven by the phase-priority starvation
     * floor (each force-serve after `phaseStarvationFloor` bypasses).
     */
    Counter phaseFloorTrips;
    Distribution lmiOccupancy;
    Distribution handlerLatency;
    /**
     * Request-class directory queueing delay, in ticks of epoch
     * granularity (pop epoch minus stamp epoch, scaled): the metric the
     * phase-priority variant exists to shrink. Sampled under every
     * protocol so the comparison harness can diff disciplines.
     */
    Distribution reqQueueDelay;
    std::uint64_t tryDispatchCalls = 0;
    Tick lastTryDispatch = 0;
    Tick lastLmiEnqueue = 0;

  private:
    void tryDispatch();
    void scheduleDispatchPoll();
    void wakeDispatch();
    void dispatch(const proto::Message &msg);
    bool popNextMessage(proto::Message &out);
    bool popRequestPhasePriority(proto::Message &out);
    std::uint32_t curEpoch() const;
    void sampleReqQueueDelay(const proto::Message &msg);

    /** Stage SDRAM line data for requester-side completion sends. */
    void stageMshrData(std::uint8_t mshr, Tick ready);
    Tick mshrDataReady(std::uint8_t mshr) const;

    void deliverLocal(proto::Message msg, Tick data_ready);
    void pushToNetwork(proto::Message msg, Tick data_ready, bool delayed);
    void drainNiOut();

    /** Event bodies (shared by the lambda-free snapshot functors). */
    void ctxMemDone(std::uint64_t id);
    void deliverLocalNow(const proto::Message &msg);
    void netDeliverNow(const proto::Message &msg);
    void drainNiOutNow();
    void runPendingSend(std::uint8_t kind, const proto::Message &msg,
                        bool delayed);
    void startSend(const proto::SendRec &send, Addr ctx_addr, Tick ready);

    /** Classify a handler store into the checker's dir/pend audits. */
    void auditProtoStore(Addr a, std::uint64_t v);

    EventQueue *eq_;
    NodeId self_;
    McParams params_;
    ClockDomain clock_;
    const AddressMap *map_;
    const proto::HandlerImage *image_;
    CacheHierarchy *cache_;
    Network *net_;
    ProtocolAgent *agent_ = nullptr;

    ProtocolRam ram_;
    Sdram sdram_;
    proto::Executor executor_;
    unsigned dirEntryBytes_;
    Rng rng_;

    FixedQueue<proto::Message> lmiQ_;
    std::array<FixedQueue<proto::Message>, proto::numVnets> niInQ_;
    std::array<FixedQueue<proto::Message>, proto::numVnets> niOutQ_;
    std::deque<proto::Message> niOutOverflow_;
    std::deque<std::pair<Tick, proto::Message>> deferQ_;
    unsigned rrSource_ = 0;

    check::Checker *checker_ = nullptr;
    fault::FaultInjector *faults_ = nullptr;
    trace::TraceBuffer *trace_ = nullptr;
    TransactionCtx *dispatching_ = nullptr; ///< Valid during executor run.
    /** Live transactions; send closures keep them alive via shared_ptr. */
    std::unordered_map<std::uint64_t, std::shared_ptr<TransactionCtx>> ctxs_;
    std::uint64_t nextCtxId_ = 1;
    unsigned inFlight_ = 0;
    unsigned pendingDelayedSends_ = 0;
    unsigned pendingLocalDeliveries_ = 0;
    bool dispatchPollScheduled_ = false;
    /**
     * A due deferred message waits on a busy agent and no poll is
     * queued: the agent's free notification (handlerDone or agentPoke)
     * schedules the poll where a once-per-tick poll chain started at
     * parkTick_ would first have seen the agent free.
     */
    bool parked_ = false;
    Tick parkTick_ = 0;
    bool niOutDrainScheduled_ = false;

    /** Per-MSHR staged-data availability (requester side). */
    std::array<Tick, 40> mshrReady_;

    /**
     * Per-MSHR phase stamp of the original request (requester side):
     * outgoing requests — including NAK retries — carry the epoch of
     * first issue, so a retried request keeps its age under the
     * phase-priority discipline.
     */
    std::array<std::uint32_t, 40> mshrPhase_;
    /** Consecutive head bypasses per request source (0 = LMI, 1 = NI). */
    std::array<std::uint32_t, 2> phaseBypass_;
};

} // namespace smtp

#endif // SMTP_MEM_CONTROLLER_HPP
