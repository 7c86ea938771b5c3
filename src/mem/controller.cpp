#include "controller.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "check/checker.hpp"
#include "common/log.hpp"
#include "protocol/directory.hpp"

namespace smtp
{

using proto::DataSrc;
using proto::Message;
using proto::MsgType;
using proto::SendTarget;

namespace
{

/** Map a forwarded intervention to the cache probe it launches. */
MsgType
probeKindFor(MsgType t)
{
    switch (t) {
      case MsgType::FwdIntervSh: return MsgType::CcIntervSh;
      case MsgType::FwdIntervEx: return MsgType::CcIntervEx;
      case MsgType::FwdInval: return MsgType::CcInval;
      default: SMTP_PANIC("no probe for this message type");
    }
}

} // namespace

MemController::MemController(EventQueue &eq, NodeId self,
                             const McParams &params, const AddressMap &map,
                             const proto::HandlerImage &image,
                             CacheHierarchy &cache, Network &net)
    : eq_(&eq), self_(self), params_(params), clock_(params.freqMHz),
      map_(&map), image_(&image), cache_(&cache), net_(&net),
      sdram_(eq, params.sdram), executor_(image, *this),
      dirEntryBytes_(4), rng_(params.rngSeed + self * 7919),
      lmiQ_(params.lmiQueueDepth)
{
    for (auto &q : niInQ_)
        q.setCapacity(params.niInQueueDepth);
    for (auto &q : niOutQ_)
        q.setCapacity(params.niOutQueueDepth);
    mshrReady_.fill(0);
    mshrPhase_.fill(0);
    phaseBypass_.fill(0);
    // Queueing delay is quantized to phase epochs; 64 buckets of one
    // epoch each give protocol_compare its percentile columns without
    // slowing the no-histogram sample() fast path elsewhere.
    reqQueueDelay.enableHistogram(
        0.0,
        64.0 * static_cast<double>(params.phaseEpochTicks), 64);
    executor_.boot(self);
    // The directory entry width comes from the handler image itself:
    // the load that follows a Dira always uses the format's width.
    dirEntryBytes_ = 0;
    for (std::size_t i = 0; i + 1 < image.code.size() && !dirEntryBytes_;
         ++i) {
        if (image.code[i].op == proto::POp::Dira &&
            image.code[i + 1].op == proto::POp::Ld) {
            dirEntryBytes_ = image.code[i + 1].memBytes;
        }
    }
    if (dirEntryBytes_ == 0)
        dirEntryBytes_ = 4;
}

bool
MemController::lmiEnqueue(const Message &msg)
{
    if (lmiQ_.full())
        return false;
    ++msgsFromLmi;
    lmiOccupancy.sample(static_cast<double>(lmiQ_.size()));
    // The bus crossing (large for the off-chip Base controller) is
    // charged by delaying visibility to the dispatch unit.
    Message m = msg;
    // Stamp the request's phase epoch at first issue (under every
    // protocol: the stamp is free and keeps the queueing-delay stat
    // comparable across disciplines). The per-MSHR copy lets the NAK
    // retry path re-stamp an old request with its original age.
    m.phase = curEpoch();
    if (m.mshr < mshrPhase_.size() &&
        (m.type == MsgType::PiGet || m.type == MsgType::PiGetx ||
         m.type == MsgType::PiUpgrade)) {
        mshrPhase_[m.mshr] = m.phase;
    }
    lmiQ_.push(m);
    lastLmiEnqueue = eq_->curTick();
    eq_->scheduleIn(params_.busLatency, PokeEv{this});
    return true;
}

bool
MemController::niDeliver(const Message &msg)
{
    auto vnet = proto::vnetOf(msg.type);
    if (niInQ_[vnet].full())
        return false;
    ++msgsFromNet;
    niInQ_[vnet].push(msg);
    eq_->scheduleIn(clock_.period(), PokeEv{this});
    return true;
}

void
MemController::bypassAccess(Addr addr, bool write, EventQueue::Callback done)
{
    eq_->scheduleIn(params_.busLatency,
                    BypassBusEv{this, addr, write, std::move(done)});
}

std::uint32_t
MemController::curEpoch() const
{
    return static_cast<std::uint32_t>(eq_->curTick() /
                                      params_.phaseEpochTicks);
}

void
MemController::sampleReqQueueDelay(const Message &msg)
{
    std::uint32_t now = curEpoch();
    std::uint32_t age = now > msg.phase ? now - msg.phase : 0;
    reqQueueDelay.sample(static_cast<double>(age) *
                         static_cast<double>(params_.phaseEpochTicks));
}

bool
MemController::popNextMessage(Message &out)
{
    // Deferred interventions whose retry time has come take precedence.
    if (!deferQ_.empty() && deferQ_.front().first <= eq_->curTick()) {
        out = deferQ_.front().second;
        deferQ_.pop_front();
        return true;
    }
    if (params_.phasePriority) {
        // Replies, then forwards, strictly first: the vnet dependency
        // order that keeps the protocol deadlock-free is unchanged —
        // only the request class is re-ordered by phase.
        for (auto vnet : {proto::vnetReply, proto::vnetForward}) {
            if (!niInQ_[vnet].empty()) {
                out = niInQ_[vnet].pop();
                net_->poke(self_, static_cast<std::uint8_t>(vnet));
                return true;
            }
        }
        return popRequestPhasePriority(out);
    }
    // Round-robin across LMI and the three coherence vnets.
    struct Source
    {
        FixedQueue<Message> *q;
        int vnet; // -1 for LMI
    };
    Source sources[4] = {
        {&lmiQ_, -1},
        {&niInQ_[proto::vnetReply], proto::vnetReply},
        {&niInQ_[proto::vnetForward], proto::vnetForward},
        {&niInQ_[proto::vnetRequest], proto::vnetRequest},
    };
    for (unsigned i = 0; i < 4; ++i) {
        auto &src = sources[(rrSource_ + i) % 4];
        if (!src.q->empty()) {
            rrSource_ = (rrSource_ + i + 1) % 4;
            out = src.q->pop();
            if (src.vnet < 0 || src.vnet == proto::vnetRequest)
                sampleReqQueueDelay(out);
            if (src.vnet >= 0)
                net_->poke(self_, static_cast<std::uint8_t>(src.vnet));
            return true;
        }
    }
    return false;
}

bool
MemController::popRequestPhasePriority(Message &out)
{
    bool have_lmi = !lmiQ_.empty();
    bool have_net = !niInQ_[proto::vnetRequest].empty();
    if (!have_lmi && !have_net)
        return false;
    // 0 = LMI, 1 = network request vnet.
    unsigned pick;
    if (have_lmi != have_net) {
        pick = have_lmi ? 0 : 1;
    } else {
        // Both heads waiting: the lower (older) epoch wins; ties go to
        // the LMI, matching the round-robin order's LMI-first seed.
        pick = niInQ_[proto::vnetRequest].front().phase <
                       lmiQ_.front().phase
                   ? 1u
                   : 0u;
        unsigned bypassed = 1 - pick;
        if (++phaseBypass_[bypassed] >= params_.phaseStarvationFloor) {
            // Starvation floor: the bypassed head waited through too
            // many grants; serve it now regardless of phase.
            ++phaseFloorTrips;
            const Message &head = bypassed == 0
                                      ? lmiQ_.front()
                                      : niInQ_[proto::vnetRequest].front();
            if (checker_ != nullptr)
                checker_->onStarvation(self_, head.addr,
                                       phaseBypass_[bypassed]);
            if (params_.injectDropOnFloor) {
                // Deliberate bug: discard the starved head instead of
                // serving it. Its transaction wedges and the watchdog
                // must flag the lost message.
                phaseBypass_[bypassed] = 0;
                if (bypassed == 0) {
                    lmiQ_.pop();
                } else {
                    niInQ_[proto::vnetRequest].pop();
                    net_->poke(self_, proto::vnetRequest);
                }
            } else {
                pick = bypassed;
            }
        }
    }
    phaseBypass_[pick] = 0;
    if (pick == 0) {
        out = lmiQ_.pop();
    } else {
        out = niInQ_[proto::vnetRequest].pop();
        net_->poke(self_, proto::vnetRequest);
    }
    sampleReqQueueDelay(out);
    return true;
}

/**
 * Poll at the deferred head's retry time. A re-deferral inside the
 * dispatch loop may find the head already due; its poll is the next
 * tick's, since the loop goes on dispatching now.
 */
void
MemController::scheduleDispatchPoll()
{
    if (dispatchPollScheduled_ || deferQ_.empty())
        return;
    dispatchPollScheduled_ = true;
    Tick when = std::max(deferQ_.front().first, eq_->curTick() + 1);
    eq_->schedule(when, DispatchPollEv{this});
}

void
MemController::wakeDispatch()
{
    if (!parked_)
        return;
    parked_ = false;
    dispatchPollScheduled_ = true;
    // A poll chain started at parkTick_ polls once per tick, each poll
    // queued during the tick before: the one that sees a free in the
    // parking tick is the next tick's; later, it is this tick's, which
    // runs after every event queued before the tick began (the mark).
    if (eq_->curTick() == parkTick_)
        eq_->schedule(parkTick_ + 1, DispatchPollEv{this});
    else
        eq_->scheduleAtMark(DispatchPollEv{this});
}

void
MemController::tryDispatch()
{
    ++tryDispatchCalls;
    lastTryDispatch = eq_->curTick();
    SMTP_ASSERT(!parked_ || agent_ == nullptr || !agent_->canAccept(),
                "protocol agent freed without waking the parked dispatch");
    while (agent_ != nullptr && agent_->canAccept()) {
        Message msg;
        if (!popNextMessage(msg))
            break;
        dispatch(msg);
    }
    if (!deferQ_.empty() && deferQ_.front().first <= eq_->curTick()) {
        // Due but undispatched: the agent is busy. Park until it frees.
        if (!dispatchPollScheduled_ && !parked_) {
            parked_ = true;
            parkTick_ = eq_->curTick();
        }
        return;
    }
    scheduleDispatchPoll();
}

void
MemController::dispatch(const Message &msg_in)
{
    Message msg = msg_in;
    Tick now = eq_->curTick();
    bool home_local = map_->homeOf(msg.addr) == self_;
    if (home_local) {
        msg.flags |= proto::flagHomeLocal;
        // FLASH-style dispatch: locally-homed processor requests index
        // their own handlers (no home-test branch in protocol code).
        msg.type = proto::localPiVariant(msg.type);
    }

    // Forwarded interventions chasing a grant still in flight to us are
    // replayed once the fill lands (Section 2 of DESIGN.md's race notes).
    if ((msg.type == MsgType::FwdIntervSh ||
         msg.type == MsgType::FwdIntervEx) &&
        cache_->probeWouldDefer(msg.addr)) {
        ++probesDeferred;
        SMTP_TRACE_EVENT(trace_, now, trace::EventId::McProbeDefer,
                         trace::packMsg(msg, msg.mshr));
        deferQ_.emplace_back(now + params_.deferRetry, msg);
        scheduleDispatchPoll();
        return;
    }

    // Forced-NAK injection: the dispatch unit pretends the pending
    // table was busy and bounces the request without running a handler,
    // exercising the requester's retry/backoff path. Only the NAKable
    // request types are eligible — the same set a real busy home NAKs.
    if (faults_ != nullptr &&
        (msg.type == MsgType::ReqGet || msg.type == MsgType::ReqGetx ||
         msg.type == MsgType::ReqUpgrade) &&
        faults_->forceNak(self_)) {
        Message nak;
        nak.type = MsgType::RplNak;
        nak.addr = msg.addr;
        nak.src = self_;
        nak.dest = msg.src;
        nak.requester = msg.requester;
        nak.mshr = msg.mshr;
        ++naksSent;
        SMTP_TRACE_EVENT(trace_, now, trace::EventId::McNak,
                         trace::packMsg(nak, nak.mshr));
        SMTP_TRACE_EVENT(faults_->trace(self_), now,
                         trace::EventId::FaultForcedNak,
                         trace::packMsg(nak, nak.mshr));
        ++pendingDelayedSends_;
        pushToNetwork(nak, now, false);
        return;
    }

    SMTP_TRACE_EVENT(trace_, now, trace::EventId::McDispatch,
                     trace::packMsg(msg, msg.mshr));
    auto ctx = std::make_shared<TransactionCtx>();
    ctx->id = nextCtxId_++;
    ctx->msg = msg;
    ctx->dispatchTick = now;
    ctxs_[ctx->id] = ctx;
    ++inFlight_;

    // Hardware pre-actions.
    switch (msg.type) {
      case MsgType::FwdIntervSh:
      case MsgType::FwdIntervEx:
      case MsgType::FwdInval: {
        auto out = cache_->applyProbe(probeKindFor(msg.type), msg.addr);
        ctx->probeBits = (out.hit ? 1u : 0u) | (out.dirty ? 2u : 0u);
        ctx->probeReady = now + params_.probeLatency;
        break;
      }
      case MsgType::RplWbAck:
        // The race-free flavour; RplWbBusyAck leaves the tracker armed
        // for the stale intervention still chasing this node.
        cache_->clearWbPending(msg.addr);
        break;
      default:
        break;
    }

    if (proto::expectsMemoryData(msg.type) && home_local) {
        ctx->memReadStarted = true;
        sdram_.access(lineAlign(msg.addr), l2LineBytes, false,
                      CtxMemDoneEv{this, ctx->id});
        if (msg.requester == self_) {
            // Keep the staged line available for a later CcFill issued
            // by the ack-collection handler (DataSrc::Buffer).
            Message stage;
            stage.mshr = msg.mshr;
            ctx->memWaiters.push_back(PendingSendEv{this, 3, stage, false});
        }
    }
    if (msg.type == MsgType::RplDataEx && msg.requester == self_) {
        // Carried exclusive data parks in the per-MSHR buffer until the
        // invalidation acks finish.
        stageMshrData(msg.mshr, now);
    }

    // Functional execution: directory and pending-table updates happen
    // now, in dispatch order — the architectural serialization point.
    if (checker_ != nullptr)
        checker_->onDispatch(self_, msg);
    dispatching_ = ctx.get();
    ctx->trace = executor_.run(msg);
    dispatching_ = nullptr;
    if (checker_ != nullptr)
        checker_->onHandlerExecuted(self_, ctx->trace);

    // Handlers record impossible protocol states in scratch word 0.
    Addr err_addr = proto::protoScratchBase +
                    static_cast<Addr>(self_) * proto::protoNodeStride +
                    proto::protoErrorOffset;
    std::uint64_t err = ram_.read(err_addr, 8);
    SMTP_ASSERT(err == 0,
                "protocol handler hit an impossible state (hdr %llx) "
                "at node %u for %s",
                static_cast<unsigned long long>(err), self_,
                std::string(msgTypeName(msg.type)).c_str());

    ++handlersDispatched;
    agent_->start(ctx.get());
}

void
MemController::stageMshrData(std::uint8_t mshr, Tick ready)
{
    SMTP_ASSERT(mshr < mshrReady_.size(), "mshr id out of range");
    mshrReady_[mshr] = ready;
}

Tick
MemController::mshrDataReady(std::uint8_t mshr) const
{
    SMTP_ASSERT(mshr < mshrReady_.size(), "mshr id out of range");
    return mshrReady_[mshr];
}

void
MemController::releaseSend(TransactionCtx *ctx_raw, unsigned idx)
{
    auto it = ctxs_.find(ctx_raw->id);
    SMTP_ASSERT(it != ctxs_.end(), "send for a dead transaction");
    auto ctx = it->second;
    SMTP_ASSERT(idx < ctx->trace.sends.size(), "send index out of range");
    const proto::SendRec &send = ctx->trace.sends[idx];
    // Bookkeeping happens at release time even when the data payload is
    // still in flight (the continuation is parked in memWaiters).
    switch (send.target) {
      case SendTarget::MemWrite:
        break;
      case SendTarget::Local:
        ++pendingLocalDeliveries_;
        break;
      case SendTarget::Network:
        if (send.msg.type == MsgType::RplNak) {
            ++naksSent;
            SMTP_TRACE_EVENT(trace_, eq_->curTick(), trace::EventId::McNak,
                             trace::packMsg(send.msg, send.msg.mshr));
        }
        if (send.msg.type == MsgType::FwdInval)
            ++invalsSent;
        ++pendingDelayedSends_;
        break;
    }

    // Resolve when the data payload is available, or park a
    // serializable continuation until the SDRAM read lands.
    Tick ready = eq_->curTick();
    switch (send.dataSrc) {
      case DataSrc::None:
      case DataSrc::Carried:
        break;
      case DataSrc::Probe:
        ready = std::max(ready, ctx->probeReady);
        break;
      case DataSrc::Buffer:
        ready = std::max(ready, mshrDataReady(send.msg.mshr));
        break;
      case DataSrc::Memory:
        if (!ctx->memReadStarted) {
            // Lazy read (e.g. the PutClean writeback-race path).
            ctx->memReadStarted = true;
            sdram_.access(lineAlign(ctx->msg.addr), l2LineBytes, false,
                          CtxMemDoneEv{this, ctx->id});
        }
        if (!ctx->memDone) {
            std::uint8_t kind = 0;
            Message m = send.msg;
            switch (send.target) {
              case SendTarget::MemWrite:
                kind = 0;
                m = Message{};
                m.addr = ctx->msg.addr;
                break;
              case SendTarget::Local:
                kind = 1;
                break;
              case SendTarget::Network:
                kind = 2;
                break;
            }
            ctx->memWaiters.push_back(
                PendingSendEv{this, kind, m, send.delayed});
            return;
        }
        break;
    }
    startSend(send, ctx->msg.addr, ready);
}

void
MemController::startSend(const proto::SendRec &send, Addr ctx_addr,
                         Tick ready)
{
    switch (send.target) {
      case SendTarget::MemWrite:
        eq_->schedule(std::max(ready, eq_->curTick()),
                      MemWriteEv{this, ctx_addr});
        break;
      case SendTarget::Local:
        deliverLocal(send.msg, ready);
        break;
      case SendTarget::Network:
        pushToNetwork(send.msg, ready, send.delayed);
        break;
    }
}

void
MemController::runPendingSend(std::uint8_t kind, const Message &msg,
                              bool delayed)
{
    switch (kind) {
      case 0:
        eq_->schedule(eq_->curTick(), MemWriteEv{this, msg.addr});
        break;
      case 1:
        deliverLocal(msg, eq_->curTick());
        break;
      case 2:
        pushToNetwork(msg, eq_->curTick(), delayed);
        break;
      case 3:
        stageMshrData(msg.mshr, eq_->curTick());
        break;
      default:
        SMTP_PANIC("bad pending-send kind %u", kind);
    }
}

void
MemController::ctxMemDone(std::uint64_t id)
{
    auto it = ctxs_.find(id);
    SMTP_ASSERT(it != ctxs_.end(), "memory completion for a dead ctx");
    auto ctx = it->second;
    ctx->memDone = true;
    auto waiters = std::move(ctx->memWaiters);
    ctx->memWaiters.clear();
    for (auto &fn : waiters)
        fn();
    if (ctx->finished)
        ctxs_.erase(id);
}

void
MemController::deliverLocal(Message msg, Tick data_ready)
{
    Tick when = std::max(data_ready, eq_->curTick()) + params_.busLatency;
    static_assert(EventQueue::Callback::storesInline<DeliverLocalEv>,
                  "local fill delivery must stay on the inline fast path");
    eq_->schedule(when, DeliverLocalEv{this, msg});
}

void
MemController::deliverLocalNow(const Message &msg)
{
    if (cache_->deliverFill(msg)) {
        --pendingLocalDeliveries_;
        return;
    }
    // Eviction path backed up; retry.
    --pendingLocalDeliveries_;
    deliverLocal(msg, eq_->curTick() + clock_.period());
    ++pendingLocalDeliveries_;
}

void
MemController::pushToNetwork(Message msg, Tick data_ready, bool delayed)
{
    Tick when = std::max(data_ready, eq_->curTick());
    // Outgoing request-class messages carry a phase epoch. Demand
    // requests and NAK retries take the original issue stamp (so a
    // retried request keeps its age); writebacks are stamped fresh.
    switch (msg.type) {
      case MsgType::ReqGet:
      case MsgType::ReqGetx:
      case MsgType::ReqUpgrade:
        if (msg.mshr < mshrPhase_.size())
            msg.phase = mshrPhase_[msg.mshr];
        break;
      case MsgType::ReqPut:
      case MsgType::ReqPutClean:
        msg.phase = curEpoch();
        break;
      default:
        break;
    }
    if (delayed) {
        // NAKed request being retried: the pending entry's retry count
        // (word2, maintained by the RplNak handler) selects the backoff
        // step, and crossing the starvation threshold is flagged once.
        auto retries = static_cast<unsigned>(
            ram_.read(proto::pendEntryAddr(self_, msg.mshr) + 16, 8));
        when += fault::retryBackoff(params_.retry, retries, rng_);
        if (faults_ != nullptr) {
            SMTP_TRACE_EVENT(faults_->trace(self_), eq_->curTick(),
                             trace::EventId::FaultRetryBackoff,
                             trace::packRetry(msg.addr, retries, msg.mshr,
                                              self_));
        }
        if (retries == params_.retry.starvationRetries) {
            ++starvationFlags;
            if (faults_ != nullptr) {
                SMTP_TRACE_EVENT(faults_->trace(self_), eq_->curTick(),
                                 trace::EventId::FaultStarvation,
                                 trace::packRetry(msg.addr, retries,
                                                  msg.mshr, self_));
            }
            if (checker_ != nullptr)
                checker_->onStarvation(self_, msg.addr, retries);
        }
    }
    eq_->schedule(when, NetDeliverEv{this, msg});
}

void
MemController::netDeliverNow(const Message &msg)
{
    --pendingDelayedSends_;
    auto vnet = proto::vnetOf(msg.type);
    if (!niOutQ_[vnet].tryPush(msg))
        niOutOverflow_.push_back(msg);
    drainNiOut();
}

void
MemController::drainNiOut()
{
    // One message per controller cycle leaves through the NI.
    if (niOutDrainScheduled_)
        return;
    bool any = false;
    for (auto &q : niOutQ_)
        any = any || !q.empty();
    if (!any)
        return;
    niOutDrainScheduled_ = true;
    eq_->schedule(clock_.edgeAfter(eq_->curTick()), DrainNiOutEv{this});
}

void
MemController::drainNiOutNow()
{
    niOutDrainScheduled_ = false;
    for (auto &q : niOutQ_) {
        if (!q.empty()) {
            net_->inject(q.pop());
            break;
        }
    }
    // Refill bounded queues from the overflow staging.
    while (!niOutOverflow_.empty()) {
        auto vnet = proto::vnetOf(niOutOverflow_.front().type);
        if (!niOutQ_[vnet].tryPush(niOutOverflow_.front()))
            break;
        niOutOverflow_.pop_front();
    }
    drainNiOut();
}

void
MemController::handlerDone(TransactionCtx *ctx_raw)
{
    auto it = ctxs_.find(ctx_raw->id);
    SMTP_ASSERT(it != ctxs_.end(), "completion of a dead transaction");
    handlerLatency.sample(
        static_cast<double>(eq_->curTick() - it->second->dispatchTick));
    SMTP_TRACE_EVENT(trace_, eq_->curTick(), trace::EventId::McHandlerDone,
                     trace::packDone(eq_->curTick() -
                                         it->second->dispatchTick,
                                     it->second->msg.type));
    // A pending SDRAM read completion still references the context by
    // id; let it reap the entry when it lands.
    it->second->finished = true;
    if (!it->second->memReadStarted || it->second->memDone)
        ctxs_.erase(it);
    --inFlight_;
    eq_->scheduleIn(clock_.period(), PokeEv{this});
    wakeDispatch();
}

std::uint64_t
MemController::protoLoad(Addr a, unsigned bytes)
{
    return ram_.read(a, bytes);
}

void
MemController::protoStore(Addr a, std::uint64_t v, unsigned bytes)
{
    if (checker_ != nullptr)
        auditProtoStore(a, v);
    ram_.write(a, v, bytes);
}

void
MemController::auditProtoStore(Addr a, std::uint64_t v)
{
    using namespace proto;
    if (a >= protoDirBase && a < protoPendBase) {
        // A handler may only write the directory entry of the line it
        // was dispatched on.
        Addr line = dispatching_ != nullptr
                        ? lineAlign(dispatching_->msg.addr)
                        : invalidAddr;
        if (line == invalidAddr || a != map_->dirAddrOf(line)) {
            checker_->flag("node %u: stray directory write to %llx "
                           "(dispatched line %llx)",
                unsigned(self_), static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(line));
            return;
        }
        checker_->onDirWrite(self_, line, v);
    } else if (a >= protoPendBase && a < protoScratchBase) {
        Addr off = a - protoPendBase;
        auto node = static_cast<NodeId>(off / protoNodeStride);
        Addr within = off % protoNodeStride;
        if (node != self_) {
            checker_->flag("node %u wrote node %u's pending table (%llx)",
                unsigned(self_), unsigned(node),
                static_cast<unsigned long long>(a));
            return;
        }
        // Only word0 (the valid/type/ack word) carries checkable state.
        if (within % pend::entryBytes == 0)
            checker_->onPendWrite(self_,
                static_cast<unsigned>(within / pend::entryBytes), v);
    }
}

Addr
MemController::dirAddrOf(Addr line_addr)
{
    return map_->dirAddrOf(line_addr);
}

NodeId
MemController::homeOf(Addr line_addr)
{
    return map_->homeOf(line_addr);
}

std::uint64_t
MemController::probeResult()
{
    SMTP_ASSERT(dispatching_ != nullptr, "ldprobe outside dispatch");
    return dispatching_->probeBits;
}

// ---- Snapshot support --------------------------------------------------

template <class Ar>
void
MemController::io(Ar &ar)
{
    ar.obj(ram_, sdram_, executor_, rng_);

    auto msg = [](Ar &a, Message &m) { a.obj(m); };
    auto queue = [&](FixedQueue<Message> &q) {
        ar.seq(q, 8, msg, q.capacity(),
               "corrupt snapshot: queue occupancy exceeds capacity");
    };
    queue(lmiQ_);
    for (auto &q : niInQ_)
        queue(q);
    for (auto &q : niOutQ_)
        queue(q);
    ar.seq(niOutOverflow_, 8, msg);
    ar.seq(deferQ_, 16, [](Ar &a, std::pair<Tick, Message> &e) {
        a.u64(e.first);
        a.obj(e.second);
    });
    ar.u32(rrSource_);

    ar.sortedMap(ctxs_, 32,
                 [](Ar &a, std::uint64_t id,
                    std::shared_ptr<TransactionCtx> &c) {
                     if constexpr (Ar::loading) {
                         c = std::make_shared<TransactionCtx>();
                         c->id = id;
                     }
                     a.obj(c->msg, c->trace);
                     a.u64(c->dispatchTick);
                     a.u64(c->probeReady);
                     a.u64(c->probeBits);
                     a.b(c->memReadStarted);
                     a.b(c->memDone);
                     a.seq(c->memWaiters, 4,
                           [](Ar &a2, InlineCallback &cb) { a2.cb(cb); });
                     a.b(c->finished);
                 });
    ar.u64(nextCtxId_);
    ar.u32(inFlight_);
    ar.u32(pendingDelayedSends_);
    ar.u32(pendingLocalDeliveries_);
    ar.b(dispatchPollScheduled_);
    ar.b(parked_);
    ar.u64(parkTick_);
    if constexpr (Ar::loading) {
        if (parked_ && dispatchPollScheduled_)
            ar.fail("corrupt snapshot: dispatch both parked and polled");
    }
    ar.b(niOutDrainScheduled_);

    for (Tick &t : mshrReady_)
        ar.u64(t);
    for (std::uint32_t &p : mshrPhase_)
        ar.u32(p);
    for (std::uint32_t &b : phaseBypass_)
        ar.u32(b);

    ar.obj(handlersDispatched, msgsFromLmi, msgsFromNet, probesDeferred,
           naksSent, starvationFlags, invalsSent, phaseFloorTrips,
           lmiOccupancy, handlerLatency, reqQueueDelay);
    ar.u64(tryDispatchCalls);
    ar.u64(lastTryDispatch);
    ar.u64(lastLmiEnqueue);
}

template void MemController::io(snap::Ser &);
template void MemController::io(snap::Des &);

} // namespace smtp
