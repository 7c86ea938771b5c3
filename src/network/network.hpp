/**
 * @file
 * Interconnection network: 2-way bristled hypercube of 6-port SGI
 * Spider-style routers (paper Table 3).
 *
 * Two nodes attach to each router; routers form a hypercube routed
 * e-cube (dimension order), which is deterministic and deadlock-free.
 * Four virtual networks share each physical link; the coherence protocol
 * uses three (request < forward < reply) so protocol-level dependences
 * never cycle through a single buffer class.
 *
 * Modelling level: message-granularity virtual cut-through. Each
 * unidirectional link serialises a message for size/bandwidth (1 GB/s)
 * and adds the 25 ns hop time; link contention is modelled with
 * busy-until reservations arbitrated FIFO in injection order. Endpoint
 * back-pressure is real: the destination's NI input queue (2 entries per
 * vnet) must accept a message before it leaves the network's landing
 * buffer, and landing buffers drain per (destination, vnet) in FIFO
 * order — which also guarantees the per-(src, dst, vnet) ordering the
 * protocol's writeback races rely on.
 *
 * Sharding: the network is the *only* cross-shard channel of the
 * machine (sim/shard.hpp). Every piece of link/landing state has one
 * owning shard — a node's outbound link belongs to the node, a router
 * (and the inbound links of its attached nodes) to the shard of its
 * first node, landing buffers to the destination — and each scheduling
 * step routes its continuation to the owner of the state it touches
 * next. Since every such step adds at least hopLatency of delay,
 * hopLatency is the machine's conservative PDES lookahead.
 */

#ifndef SMTP_NETWORK_NETWORK_HPP
#define SMTP_NETWORK_NETWORK_HPP

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "fault/fault.hpp"
#include "protocol/message.hpp"
#include "sim/eventq.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "snap/event_codec.hpp"
#include "trace/trace.hpp"

namespace smtp
{

struct NetworkParams
{
    unsigned numNodes = 1;
    Tick hopLatency = 25 * tickPerNs;     ///< Per-router hop time.
    double linkBytesPerTick = 0.001;      ///< 1 GB/s = 1 byte/ns.
    unsigned nodesPerRouter = 2;          ///< 2-way bristling.
};

class Network
{
  public:
    /**
     * Destination delivery hook: return true if the node's NI input
     * queue accepted the message, false to leave it in the landing
     * buffer (the network retries when poked or after a poll interval).
     */
    using DeliverFn = std::function<bool(const proto::Message &)>;

    /**
     * Sharded machine wiring: one shard per node (or a single shard
     * wrapping everything — the serial degenerate case works through
     * the identical code path).
     */
    Network(ShardSet &shards, const NetworkParams &params);

    /**
     * Standalone-harness wiring: wraps @p eq in a private single-shard
     * ShardSet so component tests keep constructing `Network(eq, p)`
     * and driving `eq.run()` unchanged.
     */
    Network(EventQueue &eq, const NetworkParams &params);

    void attach(NodeId node, DeliverFn fn);

    /**
     * Attach @p node's telemetry buffer. Injection stamps a fresh
     * Message::traceId (src-node buffer); land/deliver/back-pressure
     * record on the destination's buffer; intermediate hops record on
     * the buffer of the shard executing the hop (the router owner), so
     * no buffer is ever written from two shards.
     */
    void
    setTrace(NodeId node, trace::TraceBuffer *buf)
    {
        trace_[node] = buf;
    }

    /**
     * Attach a fault injector (nullptr = fault-free; the default).
     * Faults are applied per link traversal: drops become link-level
     * retransmissions (latency + repeated occupancy, never loss),
     * duplicates are filtered by link sequence at the landing buffer,
     * jitter and bounded reordering respect the per-(src, dst, vnet)
     * FIFO order the protocol relies on. Decisions draw from the
     * executing shard's stream, so they are deterministic under any
     * host-thread count.
     */
    void setFaultInjector(fault::FaultInjector *fi) { faults_ = fi; }

    /** Inject a message; source MC has already applied its own queuing. */
    void inject(const proto::Message &msg);

    /** Destination drained an NI queue; try the landing buffer again. */
    void poke(NodeId node, std::uint8_t vnet);

    /** Hop count between two nodes (0 for self). */
    unsigned hopCount(NodeId a, NodeId b) const;

    /**
     * Conservative PDES lookahead: the minimum latency any single
     * cross-shard scheduling step adds (one hop). Every cross-shard
     * event posted inside a window of this length is due no earlier
     * than the next window, which is what makes barrier-synchronized
     * windows safe.
     */
    Tick lookahead() const { return params_.hopLatency; }

    /**
     * Minimum end-to-end latency of any cross-node message: the
     * cheapest (src, dst) pair's hop count times hopLatency, plus the
     * final-hop serialisation of the smallest (header-only) message.
     * Always >= lookahead(); with the documented parameters a
     * same-router pair costs 2 hops x 25 ns + 16 ns = 66 ns.
     */
    Tick minCrossNodeLatency() const;

    /** All landing buffers empty and no messages in flight? */
    bool
    quiescent() const
    {
        std::int64_t flight = 0;
        for (const Slice &s : slices_)
            flight += s.flightDelta;
        return flight == 0;
    }

    /** Dump in-flight count and landing-buffer occupancy (wedge report). */
    void debugState(std::FILE *out) const;

    // ---- Snapshot support --------------------------------------------

    /** Final-hop / loopback arrival into the landing buffer. */
    struct LandEv
    {
        static constexpr std::uint32_t kSnapId = snap::evNetLand;
        Network *net;
        proto::Message m;

        void operator()() const { net->land(m); }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(net);
            ar.obj(m);
            if constexpr (Ar::loading)
                net->checkDest(ar, m);
        }
    };

    /** Head arrival at an intermediate router. */
    struct HopEv
    {
        static constexpr std::uint32_t kSnapId = snap::evNetHop;
        Network *net;
        proto::Message m;
        unsigned router;

        void operator()() const { net->hop(m, router); }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(net);
            ar.obj(m);
            ar.u32(router);
            if constexpr (Ar::loading) {
                net->checkDest(ar, m);
                if (ar.ok() && router >= net->numRouters_)
                    ar.fail("corrupt snapshot: network hop router out of "
                            "range");
            }
        }
    };

    /** Landing-buffer delivery retry after NI back-pressure. */
    struct RetryEv
    {
        static constexpr std::uint32_t kSnapId = snap::evNetRetry;
        Network *net;
        NodeId node;
        std::uint8_t vnet;

        void
        operator()() const
        {
            net->retryScheduled_[static_cast<std::size_t>(node) *
                                     proto::numVnets +
                                 vnet] = 0;
            net->tryDeliver(node, vnet);
        }

        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(net);
            ar.u16(node);
            ar.u8(vnet);
            if constexpr (Ar::loading) {
                if (ar.ok() && (node >= net->params_.numNodes ||
                                vnet >= proto::numVnets))
                    ar.fail("corrupt snapshot: network retry for an "
                            "unknown landing buffer");
            }
        }
    };

    template <class Ar> void io(Ar &ar);

    // ---- Stats (per-shard slices, merged on read) ---------------------

    std::uint64_t msgsInjected() const;
    std::uint64_t bytesInjected() const;
    Distribution hopDist() const;

  private:
    struct Link
    {
        Tick busyUntil = 0;
        /**
         * Latest scheduled arrival over this link. A wire is a FIFO,
         * so fault recovery/jitter clamps later arrivals to at least
         * this — without faults arrivals are already monotone and the
         * clamp never fires (disabled runs stay bit-identical).
         */
        Tick lastArrival = 0;
        Counter msgs;
    };

    /**
     * Per-shard mutable state: injection stats and the traceId
     * allocator, touched only by the owning shard's thread (aligned so
     * neighbouring slices never false-share).
     */
    struct alignas(64) Slice
    {
        Counter msgsInjected;
        Counter bytesInjected;
        Distribution hopDist;
        std::int64_t flightDelta = 0; ///< Injections minus deliveries.
        std::uint32_t nextTraceId = 0;
        std::uint64_t lost = 0; ///< droploss-bug casualties.
    };

    unsigned routerOf(NodeId n) const { return n / params_.nodesPerRouter; }

    /**
     * Restore-time check that an in-flight message has a destination:
     * Message::io admits an idle message, which names no node.
     */
    void
    checkDest(snap::Des &in, const proto::Message &m) const
    {
        if (in.ok() && m.dest >= params_.numNodes)
            in.fail("corrupt snapshot: network message for an unknown "
                    "node");
    }

    /** Shard owning node @p n (identity when sharded, else 0). */
    unsigned
    shardOf(NodeId n) const
    {
        return shards_->count() == 1 ? 0u : static_cast<unsigned>(n);
    }

    /** Shard owning router @p r: the shard of its first attached node. */
    unsigned
    routerOwner(unsigned r) const
    {
        return shardOf(static_cast<NodeId>(
            std::min<unsigned>(r * params_.nodesPerRouter,
                               params_.numNodes - 1)));
    }

    /** The calling thread's shard (0 in the barrier phase / wrapper). */
    unsigned
    execShard() const
    {
        unsigned s = shards_->current();
        return s == ShardSet::noShard ? 0u : s;
    }

    Tick now() const { return shards_->queue(execShard()).curTick(); }

    /** Next router on the e-cube path from @p cur towards @p dst. */
    unsigned nextRouter(unsigned cur, unsigned dst) const;

    Link &linkBetween(unsigned r_from, unsigned r_to);

    void hop(proto::Message msg, unsigned cur_router);
    void land(const proto::Message &msg);
    void tryDeliver(NodeId node, std::uint8_t vnet);

    /**
     * Traverse @p link with @p msg: reserve bandwidth, apply link
     * faults (drop/retransmit, jitter), schedule @p fn at arrival on
     * shard @p dst_shard.
     */
    void traverse(Link &link, const proto::Message &msg,
                  EventQueue::Callback fn, unsigned dst_shard,
                  bool final_hop = false);

    std::unique_ptr<ShardSet> ownedShards_; ///< Wrapper-ctor only.
    ShardSet *shards_;
    NetworkParams params_;
    unsigned numRouters_;
    unsigned dims_;
    std::vector<DeliverFn> deliver_;
    // links_[from * numRouters_ + to] for router-router links.
    std::vector<Link> links_;
    // Per-node attach links (to router and from router).
    std::vector<Link> nodeLinksIn_;   // router -> node
    std::vector<Link> nodeLinksOut_;  // node -> router
    // Landing buffers: per (node, vnet) FIFO awaiting NI acceptance.
    std::vector<std::deque<proto::Message>> landing_;
    // One byte per (node, vnet), NOT vector<bool>: a packed bit-vector
    // would make flags of different destination shards share a word,
    // which is a data race even though each flag has a single owner.
    std::vector<std::uint8_t> retryScheduled_;
    std::vector<Slice> slices_; ///< One per shard.
    std::vector<trace::TraceBuffer *> trace_; ///< Per node; null = off.
    fault::FaultInjector *faults_ = nullptr;  ///< Null = fault-free.

    static constexpr Tick retryInterval = 5 * tickPerNs;
};

} // namespace smtp

#endif // SMTP_NETWORK_NETWORK_HPP
