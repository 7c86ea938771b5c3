#include "network.hpp"

#include <algorithm>
#include <type_traits>

#include "common/bits.hpp"
#include "common/log.hpp"

namespace smtp
{

Network::Network(ShardSet &shards, const NetworkParams &params)
    : shards_(&shards), params_(params)
{
    SMTP_ASSERT(params.numNodes >= 1, "network needs at least one node");
    SMTP_ASSERT(shards.count() == 1 || shards.count() == params.numNodes,
                "shard set must be single or one shard per node");
    numRouters_ =
        std::max(1u, params.numNodes / std::max(1u, params.nodesPerRouter));
    SMTP_ASSERT(isPow2(numRouters_), "router count must be a power of two");
    dims_ = floorLog2(numRouters_);

    deliver_.resize(params.numNodes);
    links_.resize(static_cast<std::size_t>(numRouters_) * numRouters_);
    nodeLinksIn_.resize(params.numNodes);
    nodeLinksOut_.resize(params.numNodes);
    landing_.resize(static_cast<std::size_t>(params.numNodes) *
                    proto::numVnets);
    retryScheduled_.assign(landing_.size(), 0);
    slices_.resize(shards.count());
    trace_.assign(params.numNodes, nullptr);
}

Network::Network(EventQueue &eq, const NetworkParams &params)
    : Network(*new ShardSet(eq), params)
{
    // Adopt the wrapper set allocated by the delegated ctor argument.
    ownedShards_.reset(shards_);
}

void
Network::attach(NodeId node, DeliverFn fn)
{
    SMTP_ASSERT(node < deliver_.size(), "attach beyond node count");
    deliver_[node] = std::move(fn);
}

unsigned
Network::hopCount(NodeId a, NodeId b) const
{
    if (a == b)
        return 0;
    unsigned ra = routerOf(a);
    unsigned rb = routerOf(b);
    // node->router + router hops + router->node; same-router pairs still
    // make one router traversal.
    return 2 + popCount(ra ^ rb);
}

Tick
Network::minCrossNodeLatency() const
{
    // Header-only messages are the smallest thing on the wire; their
    // tail trails the head by one serialisation on the final hop.
    auto min_ser = static_cast<Tick>(
        static_cast<double>(proto::msgHeaderBytes) / params_.linkBytesPerTick);
    if (params_.numNodes < 2)
        return params_.hopLatency + min_ser; // loopback turnaround
    unsigned min_hops = ~0u;
    for (NodeId a = 0; a < params_.numNodes; ++a) {
        for (NodeId b = 0; b < params_.numNodes; ++b) {
            if (a != b)
                min_hops = std::min(min_hops, hopCount(a, b));
        }
    }
    return static_cast<Tick>(min_hops) * params_.hopLatency + min_ser;
}

unsigned
Network::nextRouter(unsigned cur, unsigned dst) const
{
    unsigned diff = cur ^ dst;
    SMTP_ASSERT(diff != 0, "nextRouter at destination");
    unsigned dim = countTrailingZeros(diff);
    return cur ^ (1u << dim);
}

Network::Link &
Network::linkBetween(unsigned r_from, unsigned r_to)
{
    return links_[static_cast<std::size_t>(r_from) * numRouters_ + r_to];
}

void
Network::traverse(Link &link, const proto::Message &msg,
                  EventQueue::Callback fn, unsigned dst_shard,
                  bool final_hop)
{
    unsigned bytes = proto::msgBytes(msg.type);
    Tick t = now();
    Tick start = std::max(t, link.busyUntil);
    auto ser = static_cast<Tick>(static_cast<double>(bytes) /
                                 params_.linkBytesPerTick);
    link.busyUntil = start + ser;
    ++link.msgs;
    // Virtual cut-through: the head advances after each hop's latency
    // while the body streams behind it (each link stays busy for the
    // serialisation time); the tail — and thus delivery — trails the
    // head by one serialisation time, charged on the final hop only.
    Tick arrive = start + params_.hopLatency + (final_hop ? ser : 0);
    if (faults_ != nullptr) {
        unsigned sh = execShard();
        unsigned retx = faults_->linkRetransmits(sh);
        if (retx > 0) {
            if (faults_->plan().injectDropWithoutRetransmit) {
                // Deliberate bug hook: the corrupted transmission is
                // never retried. The message is gone, the in-flight
                // count stays elevated, and the watchdog must notice.
                ++faults_->slice(sh).netLost;
                ++slices_[sh].lost;
                SMTP_TRACE_EVENT(faults_->trace(sh), t,
                                 trace::EventId::FaultNetLost,
                                 trace::packNet(msg));
                return;
            }
            // Link-level retransmit-on-timeout: each corrupted
            // transmission occupies the wire once more and costs one
            // LLP timeout before the retry goes out.
            link.busyUntil += static_cast<Tick>(retx) * ser;
            arrive +=
                static_cast<Tick>(retx) * faults_->plan().retransmitTimeout;
            for (unsigned i = 0; i < retx; ++i) {
                SMTP_TRACE_EVENT(faults_->trace(sh), t,
                                 trace::EventId::FaultNetDrop,
                                 trace::packNet(msg));
            }
        }
        Tick extra = faults_->linkExtraDelay(sh);
        if (extra > 0) {
            arrive += extra;
            SMTP_TRACE_EVENT(faults_->trace(sh), t,
                             trace::EventId::FaultNetDelay,
                             trace::packNet(msg));
        }
        // The wire is a FIFO: recovery and jitter delay later traffic
        // behind the affected message instead of reordering the link.
        arrive = std::max(arrive, link.lastArrival);
        link.lastArrival = arrive;
    }
    shards_->schedule(dst_shard, arrive, std::move(fn));
}

void
Network::inject(const proto::Message &msg)
{
    SMTP_ASSERT(msg.dest < params_.numNodes, "message to unknown node %u",
                msg.dest);
    unsigned sh = execShard();
    Slice &sl = slices_[sh];
    ++sl.msgsInjected;
    sl.bytesInjected += proto::msgBytes(msg.type);
    sl.hopDist.sample(hopCount(msg.src, msg.dest));
    ++sl.flightDelta;

    proto::Message m = msg;
    if (trace_[m.src] != nullptr) {
        if (m.traceId == 0) {
            // Shard-partitioned id space: unique machine-wide with no
            // cross-shard coordination, stable across host thread
            // counts.
            m.traceId = ((sh + 1u) << 24) | ++sl.nextTraceId;
        }
        trace_[m.src]->record(now(), trace::EventId::NetInject,
                              trace::packNet(m));
    }

    if (m.src == m.dest) {
        // Loopback through the NI without touching the fabric; charge a
        // single hop of latency for the controller-internal turnaround.
        static_assert(EventQueue::Callback::storesInline<LandEv>,
                      "message delivery must stay on the inline fast path");
        shards_->schedule(shardOf(m.dest), now() + params_.hopLatency,
                          LandEv{this, m});
        return;
    }

    unsigned src_router = routerOf(m.src);
    static_assert(EventQueue::Callback::storesInline<HopEv>,
                  "hop continuations must stay on the inline fast path");
    traverse(nodeLinksOut_[m.src], m, HopEv{this, m, src_router},
             routerOwner(src_router));
}

void
Network::hop(proto::Message msg, unsigned cur_router)
{
    // Recorded on the executing shard's (router owner's) buffer: the
    // destination's buffer may belong to another shard mid-window.
    SMTP_TRACE_EVENT(trace_[execShard()], now(), trace::EventId::NetHop,
                     trace::packNet(msg));
    unsigned dst_router = routerOf(msg.dest);
    if (cur_router == dst_router) {
        traverse(nodeLinksIn_[msg.dest], msg, LandEv{this, msg},
                 shardOf(msg.dest), true);
        return;
    }
    unsigned next = nextRouter(cur_router, dst_router);
    traverse(linkBetween(cur_router, next), msg, HopEv{this, msg, next},
             routerOwner(next));
}

void
Network::land(const proto::Message &msg)
{
    SMTP_TRACE_EVENT(trace_[msg.dest], now(),
                     trace::EventId::NetLand, trace::packNet(msg));
    auto vnet = proto::vnetOf(msg.type);
    auto &q = landing_[static_cast<std::size_t>(msg.dest) *
                           proto::numVnets + vnet];
    q.push_back(msg);
    if (faults_ != nullptr && msg.src != msg.dest) {
        unsigned sh = execShard();
        // Message is trivially copyable, so a duplicated (or requeued)
        // copy aliases no live state — the mshr/traceId it carries are
        // plain values echoed back by the protocol, never pointers.
        static_assert(std::is_trivially_copyable_v<proto::Message>,
                      "fault duplication requires value-semantics "
                      "messages");
        if (faults_->linkDuplicate(sh)) {
            proto::Message dup = msg;
            dup.flags |= proto::flagLinkDup;
            ++slices_[sh].flightDelta;
            q.push_back(dup);
            SMTP_TRACE_EVENT(faults_->trace(sh), now(),
                             trace::EventId::FaultNetDup,
                             trace::packNet(msg));
        }
        if (q.size() >= 2 && faults_->landingReorder(sh)) {
            // Bounded reordering: swap adjacent landings only when they
            // come from different sources, preserving the
            // per-(src, dst, vnet) FIFO the protocol depends on.
            auto &a = q[q.size() - 2];
            auto &b = q.back();
            if (a.src != b.src) {
                std::swap(a, b);
                ++faults_->slice(sh).netReorders;
                SMTP_TRACE_EVENT(faults_->trace(sh), now(),
                                 trace::EventId::FaultNetReorder,
                                 trace::packNet(msg));
            }
        }
    }
    tryDeliver(msg.dest, vnet);
}

void
Network::poke(NodeId node, std::uint8_t vnet)
{
    tryDeliver(node, vnet);
}

void
Network::tryDeliver(NodeId node, std::uint8_t vnet)
{
    auto idx = static_cast<std::size_t>(node) * proto::numVnets + vnet;
    auto &q = landing_[idx];
    unsigned sh = execShard();
    while (!q.empty()) {
        SMTP_ASSERT(deliver_[node], "no NI attached to node %u", node);
        if (q.front().flags & proto::flagLinkDup) {
            // Link sequence numbers identify the duplicate; it is
            // discarded before the NI (and before any NetDeliver
            // event, keeping traceId stitching one-to-one).
            if (faults_ != nullptr)
                ++faults_->slice(sh).netDupsFiltered;
            q.pop_front();
            --slices_[sh].flightDelta;
            continue;
        }
        if (!deliver_[node](q.front())) {
            SMTP_TRACE_EVENT(trace_[node], now(),
                             trace::EventId::NetBackpressure,
                             trace::packBackpressure(vnet, q.size()));
            break;
        }
        SMTP_TRACE_EVENT(trace_[node], now(),
                         trace::EventId::NetDeliver,
                         trace::packNet(q.front()));
        q.pop_front();
        --slices_[sh].flightDelta;
    }
    if (!q.empty() && !retryScheduled_[idx]) {
        retryScheduled_[idx] = 1;
        static_assert(EventQueue::Callback::storesInline<RetryEv>,
                      "delivery retries must stay on the inline fast path");
        shards_->schedule(shardOf(node), now() + retryInterval,
                          RetryEv{this, node, vnet});
    }
}

std::uint64_t
Network::msgsInjected() const
{
    std::uint64_t n = 0;
    for (const Slice &s : slices_)
        n += s.msgsInjected.value();
    return n;
}

std::uint64_t
Network::bytesInjected() const
{
    std::uint64_t n = 0;
    for (const Slice &s : slices_)
        n += s.bytesInjected.value();
    return n;
}

Distribution
Network::hopDist() const
{
    Distribution d;
    for (const Slice &s : slices_)
        d.merge(s.hopDist);
    return d;
}

template <class Ar>
void
Network::io(Ar &ar)
{
    auto links = [&](std::vector<Link> &v) {
        ar.fixed(v, "snapshot link count does not match topology",
                 [](Ar &a, Link &l) {
                     a.u64(l.busyUntil);
                     a.u64(l.lastArrival);
                     a.obj(l.msgs);
                 });
    };
    links(links_);
    links(nodeLinksIn_);
    links(nodeLinksOut_);
    ar.fixed(landing_,
             "snapshot landing-buffer count does not match topology",
             [](Ar &a, std::deque<proto::Message> &q) {
                 a.seq(q, 22, [](Ar &a2, proto::Message &m) { a2.obj(m); });
             });
    ar.fixed(retryScheduled_,
             "snapshot retry-flag count does not match topology",
             [](Ar &a, std::uint8_t &v) { a.b(v); });
    ar.fixed(slices_, "snapshot network shard count does not match machine",
             [](Ar &a, Slice &s) {
                 a.u64(s.flightDelta);
                 a.u32(s.nextTraceId);
                 a.u64(s.lost);
                 a.obj(s.msgsInjected, s.bytesInjected, s.hopDist);
             });
}

template void Network::io(snap::Ser &);
template void Network::io(snap::Des &);

void
Network::debugState(std::FILE *out) const
{
    std::int64_t flight = 0;
    std::uint64_t lost = 0;
    for (const Slice &s : slices_) {
        flight += s.flightDelta;
        lost += s.lost;
    }
    std::fprintf(out, "  net: inFlight=%lld\n",
                 static_cast<long long>(flight));
    if (lost != 0) {
        std::fprintf(out,
                     "  net: %llu message(s) LOST by the "
                     "drop-without-retransmit bug hook\n",
                     static_cast<unsigned long long>(lost));
    }
    for (std::size_t n = 0; n < deliver_.size(); ++n) {
        for (unsigned v = 0; v < proto::numVnets; ++v) {
            const auto &q = landing_[n * proto::numVnets + v];
            if (q.empty())
                continue;
            const auto &head = q.front();
            std::fprintf(out,
                         "  net: landing n%zu vnet%u: %zu queued "
                         "(head %s addr=%llx src=%u)\n",
                         n, v, q.size(),
                         std::string(proto::msgTypeName(head.type)).c_str(),
                         static_cast<unsigned long long>(head.addr),
                         unsigned(head.src));
        }
    }
}

} // namespace smtp
