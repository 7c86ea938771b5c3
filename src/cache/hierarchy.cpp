#include "hierarchy.hpp"

#include <algorithm>

#include "check/checker.hpp"
#include "common/log.hpp"
#include "protocol/directory.hpp"

namespace smtp
{

using proto::Message;
using proto::MsgType;

CacheHierarchy::CacheHierarchy(EventQueue &eq, const ClockDomain &clock,
                               NodeId self, const CacheParams &params)
    : eq_(&eq), clock_(clock), self_(self), params_(params),
      l1i_(params.l1iBytes, l1iLineBytes, params.l1iWays),
      l1d_(params.l1dBytes, l1dLineBytes, params.l1dWays),
      l2_(params.l2Bytes, l2LineBytes, params.l2Ways),
      bypI_(static_cast<std::size_t>(params.bypassLines) * l1iLineBytes,
            l1iLineBytes, params.bypassLines),
      bypD_(static_cast<std::size_t>(params.bypassLines) * l1dLineBytes,
            l1dLineBytes, params.bypassLines),
      byp2_(static_cast<std::size_t>(params.bypassLines) * l2LineBytes,
            l2LineBytes, params.bypassLines),
      mshrs_(params.mshrs + 1)
{
}

void
CacheHierarchy::completeAfter(EventQueue::Callback fn, Cycles c)
{
    if (!fn)
        return;
    eq_->scheduleIn(cyc(c), std::move(fn));
}

CacheHierarchy::Mshr *
CacheHierarchy::findMshr(Addr line_addr)
{
    for (auto &m : mshrs_) {
        if (m.valid && m.lineAddr == line_addr)
            return &m;
    }
    return nullptr;
}

const CacheHierarchy::Mshr *
CacheHierarchy::findMshr(Addr line_addr) const
{
    return const_cast<CacheHierarchy *>(this)->findMshr(line_addr);
}

int
CacheHierarchy::allocMshr(bool store_reserved)
{
    for (unsigned i = 0; i < params_.mshrs; ++i) {
        if (!mshrs_[i].valid)
            return static_cast<int>(i);
    }
    if (store_reserved && !mshrs_[params_.mshrs].valid)
        return static_cast<int>(params_.mshrs);
    return -1;
}

bool
CacheHierarchy::queueOut(Message msg)
{
    outQ_.push_back(msg);
    drainOutQ();
    return true;
}

void
CacheHierarchy::drainOutQ()
{
    while (!outQ_.empty() && lmiEnqueue_ && lmiEnqueue_(outQ_.front()))
        outQ_.pop_front();
    if (!outQ_.empty() && !drainScheduled_) {
        drainScheduled_ = true;
        eq_->scheduleIn(cyc(1), DrainEv{this});
    }
}

Message
CacheHierarchy::requestFor(unsigned idx) const
{
    const Mshr &m = mshrs_[idx];
    Message msg;
    msg.type = m.isUpgrade ? MsgType::PiUpgrade
               : m.wantExcl ? MsgType::PiGetx
                            : MsgType::PiGet;
    msg.addr = m.lineAddr;
    msg.src = self_;
    msg.dest = self_;
    msg.requester = self_;
    msg.mshr = static_cast<std::uint8_t>(idx);
    if (m.prefetch)
        msg.flags |= proto::flagPrefetch;
    return msg;
}

bool
CacheHierarchy::l1Lookup(CacheArray &l1, CacheArray &byp, Addr addr,
                         bool protocol_line)
{
    if (CacheLine *line = l1.find(addr)) {
        l1.touch(line);
        return true;
    }
    if (protocol_line && params_.enableBypass) {
        if (CacheLine *line = byp.find(addr)) {
            byp.touch(line);
            return true;
        }
    }
    return false;
}

void
CacheHierarchy::fillL1(CacheArray &l1, CacheArray &byp, Addr addr,
                       bool protocol_line)
{
    if (l1.find(addr) != nullptr)
        return;
    CacheArray *arr = &l1;
    if (protocol_line && params_.enableBypass &&
        l1.validAppLinesInSet(addr) == l1.numWays()) {
        arr = &byp;
        ++bypassAllocs;
    }
    CacheLine *victim = arr->victimFor(addr);
    // L1 evictions are silent: the inclusive L2 retains state and
    // (architecturally) the data.
    victim->addr = arr->align(addr);
    victim->state = LineState::Sh;
    victim->protocolLine = protocol_line;
    arr->touch(victim);
}

void
CacheHierarchy::backInvalidateL1(Addr l2_line_addr)
{
    for (Addr a = l2_line_addr; a < l2_line_addr + l2LineBytes;
         a += l1dLineBytes) {
        if (CacheLine *line = l1d_.find(a))
            line->state = LineState::Inv;
        if (params_.enableBypass) {
            if (CacheLine *line = bypD_.find(a))
                line->state = LineState::Inv;
        }
    }
    for (Addr a = l2_line_addr; a < l2_line_addr + l2LineBytes;
         a += l1iLineBytes) {
        if (CacheLine *line = l1i_.find(a))
            line->state = LineState::Inv;
        if (params_.enableBypass) {
            if (CacheLine *line = bypI_.find(a))
                line->state = LineState::Inv;
        }
    }
}

void
CacheHierarchy::evictL2Line(CacheLine &victim)
{
    backInvalidateL1(victim.addr);
    if (victim.protocolLine) {
        if (victim.state == LineState::Mod && bypassAccess_)
            bypassAccess_(victim.addr, true, {});
    } else if (victim.state == LineState::Mod) {
        Message msg;
        msg.type = MsgType::PiPut;
        msg.addr = victim.addr;
        msg.src = self_;
        msg.dest = self_;
        msg.requester = self_;
        msg.flags |= proto::flagDataCarried;
        wbPending_.insert(victim.addr);
        queueOut(msg);
        ++writebacksDirty;
    } else if (victim.state == LineState::Ex) {
        Message msg;
        msg.type = MsgType::PiPutClean;
        msg.addr = victim.addr;
        msg.src = self_;
        msg.dest = self_;
        msg.requester = self_;
        wbPending_.insert(victim.addr);
        queueOut(msg);
        ++writebacksClean;
    }
    // Shared lines are dropped silently; the directory's sharer bit goes
    // stale and is cleaned up by a future (harmless) invalidation.
    if (!victim.protocolLine)
        noteLine(victim.addr, LineState::Inv, "evict");
    victim.state = LineState::Inv;
    victim.protocolLine = false;
}

void
CacheHierarchy::installL2(Addr line_addr, LineState st, bool protocol_line)
{
    // Upgrade in place when the line is already resident (e.g. a
    // NAK-converted upgrade whose Shared copy survived until the
    // exclusive grant arrived).
    if (CacheLine *existing = l2_.find(line_addr)) {
        existing->state = st;
        existing->protocolLine = protocol_line;
        l2_.touch(existing);
        if (!protocol_line)
            noteLine(line_addr, st, "install");
        return;
    }
    if (params_.enableBypass) {
        if (CacheLine *existing = byp2_.find(line_addr)) {
            existing->state = st;
            existing->protocolLine = protocol_line;
            byp2_.touch(existing);
            if (!protocol_line)
                noteLine(line_addr, st, "install");
            return;
        }
    }
    CacheArray *arr = &l2_;
    if (protocol_line && params_.enableBypass &&
        l2_.validAppLinesInSet(line_addr) == l2_.numWays()) {
        // Section 2.2: a protocol miss conflicting with in-flight
        // application misses allocates a bypass-buffer line instead of a
        // cache frame, breaking the cache-conflict deadlock cycle.
        bool conflict = false;
        unsigned set = l2_.setIndexOf(line_addr);
        for (const auto &m : mshrs_) {
            if (m.valid && l2_.setIndexOf(m.lineAddr) == set) {
                conflict = true;
                break;
            }
        }
        if (conflict) {
            arr = &byp2_;
            ++bypassAllocs;
        }
    }
    CacheLine *victim = arr->victimFor(line_addr);
    if (victim->valid())
        evictL2Line(*victim);
    victim->addr = arr->align(line_addr);
    victim->state = st;
    victim->protocolLine = protocol_line;
    arr->touch(victim);
    if (!protocol_line)
        noteLine(victim->addr, st, "install");
}

void
CacheHierarchy::noteLine(Addr line_addr, LineState st, const char *why)
{
    if (check_ != nullptr)
        check_->onLineState(self_, lineAlign(line_addr), st, why);
}

void
CacheHierarchy::noteMshrAlloc(unsigned idx)
{
    if (check_ != nullptr)
        check_->onMshrAlloc(self_, idx, mshrs_[idx].lineAddr);
    SMTP_TRACE_EVENT(trace_, eq_->curTick(), trace::EventId::MshrAlloc,
                     trace::packMshr(mshrs_[idx].lineAddr, idx,
                                     mshrsInUse()));
}

void
CacheHierarchy::freeMshr(Mshr &ms, unsigned idx)
{
    if (check_ != nullptr)
        check_->onMshrFree(self_, idx);
    SMTP_TRACE_EVENT(trace_, eq_->curTick(), trace::EventId::MshrFree,
                     trace::packMshr(ms.lineAddr, idx, mshrsInUse() - 1));
    ms = Mshr{};
}

CacheHierarchy::Outcome
CacheHierarchy::protoBelowL1(const MemReq &req)
{
    Addr line = lineAlign(req.addr);
    bool is_store = req.cmd == MemCmd::ProtoStore;
    bool is_ifetch = req.cmd == MemCmd::ProtoIFetch;
    CacheArray &l1 = is_ifetch ? l1i_ : l1d_;
    CacheArray &byp = is_ifetch ? bypI_ : bypD_;

    CacheLine *l2line = l2_.find(line);
    CacheArray *l2arr = &l2_;
    if (l2line == nullptr && params_.enableBypass) {
        l2line = byp2_.find(line);
        l2arr = &byp2_;
    }
    if (l2line != nullptr) {
        ++protoL2Hits;
        l2arr->touch(l2line);
        if (is_store)
            l2line->state = LineState::Mod;
        fillL1(l1, byp, req.addr, true);
        completeAfter(req.done, params_.l2HitCycles);
        return Outcome::Pending;
    }

    ++protoL2Misses;
    auto it = protoPending_.find(line);
    if (it != protoPending_.end()) {
        it->second.push_back(req.done);
        return Outcome::Pending;
    }
    protoPending_[line] = {req.done};
    SMTP_ASSERT(bypassAccess_, "protocol bypass bus not connected");
    bypassAccess_(line, false,
                  BypassFillEv{this, line, req.addr, is_store, is_ifetch});
    return Outcome::Pending;
}

void
CacheHierarchy::protoFillArrived(Addr line, Addr demand, bool is_store,
                                 bool is_ifetch)
{
    installL2(line, is_store ? LineState::Mod : LineState::Ex, true);
    CacheArray &fl1 = is_ifetch ? l1i_ : l1d_;
    CacheArray &fbyp = is_ifetch ? bypI_ : bypD_;
    fillL1(fl1, fbyp, demand, true);
    auto node = protoPending_.extract(line);
    for (auto &fn : node.mapped()) {
        completeAfter(std::move(fn), params_.fillToUseCycles);
    }
}

CacheHierarchy::Outcome
CacheHierarchy::access(const MemReq &req)
{
    Addr line = lineAlign(req.addr);
    switch (req.cmd) {
      case MemCmd::ProtoIFetch:
      case MemCmd::ProtoLoad:
      case MemCmd::ProtoStore: {
        if (params_.perfectProtocolCaches) {
            completeAfter(req.done, params_.l1HitCycles);
            return Outcome::Done;
        }
        bool is_ifetch = req.cmd == MemCmd::ProtoIFetch;
        CacheArray &l1 = is_ifetch ? l1i_ : l1d_;
        CacheArray &byp = is_ifetch ? bypI_ : bypD_;
        if (l1Lookup(l1, byp, req.addr, true)) {
            if (!is_ifetch)
                ++protoL1dHits;
            if (req.cmd == MemCmd::ProtoStore) {
                CacheLine *l2line = l2_.find(line);
                if (l2line == nullptr && params_.enableBypass)
                    l2line = byp2_.find(line);
                SMTP_ASSERT(l2line != nullptr,
                            "L1 protocol line not backed by L2");
                l2line->state = LineState::Mod;
            }
            completeAfter(req.done, params_.l1HitCycles);
            return Outcome::Done;
        }
        if (!is_ifetch)
            ++protoL1dMisses;
        return protoBelowL1(req);
      }

      case MemCmd::IFetch: {
        if (l1Lookup(l1i_, bypI_, req.addr, false)) {
            ++l1iHits;
            completeAfter(req.done, params_.l1HitCycles);
            return Outcome::Done;
        }
        if (CacheLine *l2line = l2_.find(line)) {
            ++l1iMisses;
            ++l2Hits;
            l2_.touch(l2line);
            fillL1(l1i_, bypI_, req.addr, false);
            completeAfter(req.done, params_.l2HitCycles);
            return Outcome::Pending;
        }
        if (Mshr *m = findMshr(line)) {
            ++l1iMisses;
            ++l2Misses;
            if (m->prefetch) {
                m->prefetch = false;
                ++prefetchesUseful;
            }
            if (m->demandAddr == invalidAddr) {
                m->demandAddr = req.addr;
                m->wantsL1i = true;
            }
            m->loadWaiters.push_back(req.done);
            return Outcome::Pending;
        }
        if (outQ_.size() >= params_.outQueueDepth)
            return Outcome::Retry;
        int idx = allocMshr(false);
        if (idx < 0)
            return Outcome::Retry;
        ++l1iMisses;
        ++l2Misses;
        Mshr &m = mshrs_[idx];
        m = Mshr{};
        m.valid = true;
        m.lineAddr = line;
        m.wantsL1i = true;
        m.demandAddr = req.addr;
        m.loadWaiters.push_back(req.done);
        noteMshrAlloc(idx);
        queueOut(requestFor(idx));
        return Outcome::Pending;
      }

      case MemCmd::Load: {
        if (l1Lookup(l1d_, bypD_, req.addr, false)) {
            ++l1dHits;
            completeAfter(req.done, params_.l1HitCycles);
            return Outcome::Done;
        }
        if (CacheLine *l2line = l2_.find(line)) {
            ++l1dMisses;
            ++l2Hits;
            l2_.touch(l2line);
            fillL1(l1d_, bypD_, req.addr, false);
            completeAfter(req.done, params_.l2HitCycles);
            return Outcome::Pending;
        }
        if (Mshr *m = findMshr(line)) {
            ++l1dMisses;
            ++l2Misses;
            if (m->prefetch) {
                m->prefetch = false;
                ++prefetchesUseful;
            }
            if (m->demandAddr == invalidAddr)
                m->demandAddr = req.addr;
            m->loadWaiters.push_back(req.done);
            return Outcome::Pending;
        }
        if (outQ_.size() >= params_.outQueueDepth)
            return Outcome::Retry;
        int idx = allocMshr(false);
        if (idx < 0)
            return Outcome::Retry;
        ++l1dMisses;
        ++l2Misses;
        Mshr &m = mshrs_[idx];
        m = Mshr{};
        m.valid = true;
        m.lineAddr = line;
        m.demandAddr = req.addr;
        m.loadWaiters.push_back(req.done);
        noteMshrAlloc(idx);
        queueOut(requestFor(idx));
        return Outcome::Pending;
      }

      case MemCmd::Store: {
        CacheLine *l2line = l2_.find(line);
        if (l2line != nullptr && writable(l2line->state)) {
            bool l1hit = l1Lookup(l1d_, bypD_, req.addr, false);
            if (l1hit)
                ++l1dHits;
            else {
                ++l1dMisses;
                fillL1(l1d_, bypD_, req.addr, false);
            }
            l2line->state = LineState::Mod;
            l2_.touch(l2line);
            completeAfter(req.done, l1hit ? params_.l1HitCycles
                                          : params_.l2HitCycles);
            return Outcome::Done;
        }
        // Needs an exclusive grant.
        if (Mshr *m = findMshr(line)) {
            if (m->prefetch) {
                m->prefetch = false;
                ++prefetchesUseful;
            }
            if (!m->wantExcl)
                m->storeWaiting = true;
            m->storeWaiters.push_back(req.done);
            return Outcome::Pending;
        }
        if (outQ_.size() >= params_.outQueueDepth)
            return Outcome::Retry;
        int idx = allocMshr(true);
        if (idx < 0)
            return Outcome::Retry;
        Mshr &m = mshrs_[idx];
        m = Mshr{};
        m.valid = true;
        m.lineAddr = line;
        m.wantExcl = true;
        m.isUpgrade = l2line != nullptr; // Present Shared: upgrade in place.
        m.demandAddr = req.addr;
        m.storeWaiters.push_back(req.done);
        if (m.isUpgrade)
            ++upgradesIssued;
        noteMshrAlloc(idx);
        queueOut(requestFor(idx));
        return Outcome::Pending;
      }

      case MemCmd::Prefetch:
      case MemCmd::PrefetchEx: {
        bool want_excl = req.cmd == MemCmd::PrefetchEx;
        CacheLine *l2line = l2_.find(line);
        if (l2line != nullptr && (writable(l2line->state) || !want_excl)) {
            completeAfter(req.done, params_.l1HitCycles);
            return Outcome::Done;
        }
        if (findMshr(line) != nullptr ||
            outQ_.size() >= params_.outQueueDepth) {
            completeAfter(req.done, params_.l1HitCycles);
            return Outcome::Done;
        }
        int idx = allocMshr(false);
        if (idx < 0) {
            ++prefetchesDropped;
            completeAfter(req.done, params_.l1HitCycles);
            return Outcome::Done;
        }
        Mshr &m = mshrs_[idx];
        m = Mshr{};
        m.valid = true;
        m.lineAddr = line;
        m.wantExcl = want_excl;
        m.isUpgrade = want_excl && l2line != nullptr;
        m.prefetch = true;
        noteMshrAlloc(idx);
        queueOut(requestFor(idx));
        ++prefetchesIssued;
        completeAfter(req.done, params_.l1HitCycles);
        return Outcome::Done;
      }
    }
    SMTP_PANIC("unhandled MemCmd");
}

bool
CacheHierarchy::deliverFill(const Message &m)
{
    unsigned idx = m.mshr;
    SMTP_ASSERT(idx < mshrs_.size(), "fill for bogus MSHR %u", idx);
    Mshr &ms = mshrs_[idx];
    SMTP_ASSERT(ms.valid && ms.lineAddr == lineAlign(m.addr),
                "fill/MSHR mismatch: mshr %u", idx);

    auto complete_list = [this](std::vector<EventQueue::Callback> &fns) {
        for (auto &fn : fns)
            completeAfter(std::move(fn), params_.fillToUseCycles);
        fns.clear();
    };

    if (m.type == MsgType::CcUpgradeGrant) {
        CacheLine *line = l2_.find(ms.lineAddr);
        if (line == nullptr) {
            // A conflict eviction dropped our Shared copy after the
            // home granted the upgrade — which also recorded us as the
            // exclusive owner. Re-requesting as a plain GETX would
            // livelock (the home NAKs requests from the listed owner
            // forever), so first release the unusable ownership with a
            // clean writeback; the shared cache->LMI FIFO keeps it
            // ahead of the re-request.
            Message put;
            put.type = MsgType::PiPutClean;
            put.addr = ms.lineAddr;
            put.src = self_;
            put.dest = self_;
            put.requester = self_;
            wbPending_.insert(ms.lineAddr);
            queueOut(put);
            ++writebacksClean;
            ms.isUpgrade = false;
            ms.wantExcl = true;
            queueOut(requestFor(idx));
            return true;
        }
        SMTP_ASSERT(line->state == LineState::Sh,
                    "upgrade grant on non-shared line");
        line->state = LineState::Mod;
        l2_.touch(line);
        noteLine(ms.lineAddr, LineState::Mod, "upgrade-grant");
        complete_list(ms.loadWaiters);
        complete_list(ms.storeWaiters);
        freeMshr(ms, idx);
        return true;
    }

    if (m.type == MsgType::CcFillSh) {
        if (ms.invalPoison) {
            // The fill was chased by an invalidation: deliver the data
            // to the waiting loads exactly once, install nothing.
            ++fillsPoisoned;
            complete_list(ms.loadWaiters);
            if (ms.storeWaiting) {
                ms.invalPoison = false;
                ms.storeWaiting = false;
                ms.isUpgrade = false;
                ms.wantExcl = true;
                queueOut(requestFor(idx));
            } else {
                freeMshr(ms, idx);
            }
            return true;
        }
        installL2(ms.lineAddr, LineState::Sh, false);
        if (ms.demandAddr != invalidAddr) {
            fillL1(ms.wantsL1i ? l1i_ : l1d_, ms.wantsL1i ? bypI_ : bypD_,
                   ms.demandAddr, false);
        }
        complete_list(ms.loadWaiters);
        if (ms.storeWaiting) {
            // A store arrived while the shared request was in flight;
            // upgrade in place now that the line is here.
            ms.storeWaiting = false;
            ms.isUpgrade = true;
            ms.wantExcl = true;
            ms.prefetch = false;
            ++upgradesIssued;
            queueOut(requestFor(idx));
        } else {
            freeMshr(ms, idx);
        }
        return true;
    }

    SMTP_ASSERT(m.type == MsgType::CcFillEx, "unexpected fill type");
    // An eager-exclusive grant cannot be chased by an invalidation (the
    // home would intervene instead), so any poison flag refers to the
    // older shared epoch and is ignored.
    bool make_dirty = !ms.storeWaiters.empty();
    installL2(ms.lineAddr, make_dirty ? LineState::Mod : LineState::Ex,
              false);
    if (ms.demandAddr != invalidAddr) {
        fillL1(ms.wantsL1i ? l1i_ : l1d_, ms.wantsL1i ? bypI_ : bypD_,
               ms.demandAddr, false);
    }
    complete_list(ms.loadWaiters);
    complete_list(ms.storeWaiters);
    freeMshr(ms, idx);
    return true;
}

CacheHierarchy::ProbeOutcome
CacheHierarchy::applyProbe(MsgType kind, Addr line_addr)
{
    Addr line = lineAlign(line_addr);
    SMTP_ASSERT(!proto::isProtocolAddr(line), "probe of protocol space");
    CacheLine *l2line = l2_.find(line);

    if (kind == MsgType::CcInval) {
        bool hit = false;
        if (l2line != nullptr) {
            SMTP_ASSERT(l2line->state == LineState::Sh,
                        "invalidation hit a writable line");
            backInvalidateL1(line);
            l2line->state = LineState::Inv;
            noteLine(line, LineState::Inv, "inval");
            hit = true;
            if (invalHook_) {
                ++replayInvals;
                invalHook_(line);
            }
        }
        if (Mshr *m = findMshr(line)) {
            if (!m->wantExcl)
                m->invalPoison = true;
        }
        return {hit, false};
    }

    SMTP_ASSERT(kind == MsgType::CcIntervSh || kind == MsgType::CcIntervEx,
                "unknown probe kind");
    if (l2line != nullptr && writable(l2line->state)) {
        bool dirty = l2line->state == LineState::Mod;
        backInvalidateL1(line);
        if (kind == MsgType::CcIntervSh) {
            l2line->state = LineState::Sh;
            noteLine(line, LineState::Sh, "interv-sh");
        } else {
            l2line->state = LineState::Inv;
            noteLine(line, LineState::Inv, "interv-ex");
            if (invalHook_) {
                ++replayInvals;
                invalHook_(line);
            }
        }
        return {true, dirty};
    }
    if (wbPending_.count(line)) {
        // Writeback race: answer IntervMiss. This was the one stale
        // intervention the race could produce, so release the tracker
        // (its WbBusyAck does not).
        wbPending_.erase(line);
        return {false, false};
    }
    SMTP_PANIC("intervention found neither ownership nor a writeback race "
               "(line %llx)", static_cast<unsigned long long>(line));
}

bool
CacheHierarchy::probeWouldDefer(Addr line_addr) const
{
    Addr line = lineAlign(line_addr);
    const CacheLine *l2line = l2_.find(line);
    if (l2line != nullptr && writable(l2line->state))
        return false; // Will hit.
    if (wbPending_.count(line))
        return false; // Writeback race: reply IntervMiss.
    // The intervention chases an exclusive grant still in flight to us
    // (or a pending upgrade); replay it once the fill lands.
    return findMshr(line) != nullptr;
}

LineState
CacheHierarchy::l2State(Addr a) const
{
    const CacheLine *line = l2_.find(lineAlign(a));
    if (line == nullptr && params_.enableBypass)
        line = byp2_.find(lineAlign(a));
    return line ? line->state : LineState::Inv;
}

bool
CacheHierarchy::inL1d(Addr a) const
{
    return l1d_.find(a) != nullptr ||
           (params_.enableBypass && bypD_.find(a) != nullptr);
}

bool
CacheHierarchy::inL1i(Addr a) const
{
    return l1i_.find(a) != nullptr ||
           (params_.enableBypass && bypI_.find(a) != nullptr);
}

bool
CacheHierarchy::mshrPendingOn(Addr line_addr) const
{
    return findMshr(lineAlign(line_addr)) != nullptr;
}

unsigned
CacheHierarchy::mshrsInUse() const
{
    unsigned n = 0;
    for (const auto &m : mshrs_)
        n += m.valid;
    return n;
}

// ---- Snapshot support --------------------------------------------------

template <class Ar>
void
CacheHierarchy::io(Ar &ar)
{
    ar.obj(l1i_, l1d_, l2_, bypI_, bypD_, byp2_);

    auto callbacks = [](Ar &a, std::vector<EventQueue::Callback> &v) {
        a.seq(v, 4, [](Ar &a2, EventQueue::Callback &cb) { a2.cb(cb); });
    };
    ar.fixed(mshrs_, "MSHR count mismatch", [&](Ar &a, Mshr &m) {
        a.b(m.valid);
        a.u64(m.lineAddr);
        a.b(m.wantExcl);
        a.b(m.isUpgrade);
        a.b(m.prefetch);
        a.b(m.invalPoison);
        a.b(m.storeWaiting);
        a.b(m.wantsL1i);
        a.u64(m.demandAddr);
        callbacks(a, m.loadWaiters);
        callbacks(a, m.storeWaiters);
    });

    ar.seq(outQ_, 8, [](Ar &a, proto::Message &m) { a.obj(m); });
    ar.b(drainScheduled_);

    std::vector<Addr> wb(wbPending_.begin(), wbPending_.end());
    std::sort(wb.begin(), wb.end());
    ar.seq(wb, 8, [](Ar &a, Addr &addr) { a.u64(addr); });
    if constexpr (Ar::loading) {
        wbPending_.clear();
        wbPending_.insert(wb.begin(), wb.end());
    }

    ar.sortedMap(protoPending_, 8,
                 [&](Ar &a, Addr, std::vector<EventQueue::Callback> &v) {
                     callbacks(a, v);
                 });

    ar.obj(l1iHits, l1iMisses, l1dHits, l1dMisses, l2Hits, l2Misses,
           protoL1dHits, protoL1dMisses, protoL2Hits, protoL2Misses,
           upgradesIssued, writebacksDirty, writebacksClean,
           prefetchesIssued, prefetchesDropped, prefetchesUseful,
           bypassAllocs, probesDeferred, fillsPoisoned, replayInvals);
}

template void CacheHierarchy::io(snap::Ser &);
template void CacheHierarchy::io(snap::Des &);

} // namespace smtp
