/**
 * @file
 * CoherenceChecker + Watchdog implementation.  See checker.hpp for the
 * model; the short version is: cache-side transitions maintain
 * sharer/writer bitmasks checked for SWMR on every update, home-side
 * directory stores are validated for well-formedness on every write,
 * and the two views are cross-checked only at quiescence (mid-flight
 * they legitimately disagree — a directory write precedes the
 * invalidations and fills it orders).
 */

#include "check/checker.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace smtp::check
{

const char *
checkLevelName(CheckLevel lv)
{
    switch (lv) {
      case CheckLevel::Off: return "off";
      case CheckLevel::Asserts: return "asserts";
      case CheckLevel::FullMirror: return "full";
    }
    return "?";
}

bool
parseCheckLevel(const std::string &s, CheckLevel &out, std::string *err)
{
    if (s == "off")
        out = CheckLevel::Off;
    else if (s == "asserts")
        out = CheckLevel::Asserts;
    else if (s == "full")
        out = CheckLevel::FullMirror;
    else {
        if (err != nullptr)
            *err = "expected off|asserts|full, got '" + s + "'";
        return false;
    }
    return true;
}

using namespace proto;

Checker::Checker(EventQueue &eq, const DirFormat &fmt,
    const CheckerParams &params)
    : eq_(&eq), fmt_(fmt), params_(params),
      ring_("dispatch", 0, trace::Category::Check,
          std::size_t{2} * std::max(1u, params.ringEntries))
{
    SMTP_ASSERT(params_.nodes >= 1 && params_.nodes <= 64,
        "checker: unsupported node count %u", params_.nodes);
    nodeMask_ = params_.nodes == 64 ? ~0ULL : (1ULL << params_.nodes) - 1;
    lastDispatch_.resize(params_.nodes);
}

// ---------------------------------------------------------------- cache

void
Checker::onLineState(NodeId node, Addr line, LineState st, const char *why)
{
    if (isProtocolAddr(line))
        return;
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    ++lineEvents;
    auto &m = lines_[line];
    const std::uint64_t bit = 1ULL << node;
    switch (st) {
    case LineState::Inv:
        m.sharers &= ~bit;
        m.writers &= ~bit;
        break;
    case LineState::Sh:
        if (m.writers & ~bit)
            flag("SWMR violation: node %u takes line %llx Shared (%s) "
                 "while node %u holds it writable",
                unsigned(node), (unsigned long long)line, why,
                unsigned(countTrailingZeros(m.writers & ~bit)));
        m.sharers |= bit;
        m.writers &= ~bit;
        break;
    case LineState::Ex:
    case LineState::Mod:
        if (m.writers & ~bit)
            flag("SWMR violation: node %u takes line %llx writable (%s) "
                 "while node %u already holds it writable",
                unsigned(node), (unsigned long long)line, why,
                unsigned(countTrailingZeros(m.writers & ~bit)));
        if (m.sharers & ~bit)
            flag("SWMR violation: node %u takes line %llx writable (%s) "
                 "while sharer(s) %llx still hold it",
                unsigned(node), (unsigned long long)line, why,
                (unsigned long long)(m.sharers & ~bit));
        m.writers |= bit;
        m.sharers &= ~bit;
        break;
    }
}

void
Checker::onMshrAlloc(NodeId node, unsigned idx, Addr line)
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    track(mshrKey(node, idx), node, line, "mshr");
}

void
Checker::onMshrFree(NodeId node, unsigned idx)
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    untrack(mshrKey(node, idx));
}

// ----------------------------------------------------------------- home

void
Checker::onDispatch(NodeId node, const Message &m)
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    ++dispatches;
    ring_.record(tickAt(node), trace::EventId::McDispatch,
        trace::packMsg(m.addr, m.type, m.src, m.requester,
            static_cast<std::uint8_t>(node)));
    auto &ld = lastDispatch_[node];
    ld.valid = true;
    ld.mshr = m.mshr;
    ld.ack = m.ackCount;
}

void
Checker::onHandlerExecuted(NodeId node, const HandlerTrace &tr)
{
    // Annotate the dispatch just recorded at this node (handler
    // execution is synchronous inside MemController::dispatch).
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    const auto &ld = lastDispatch_[node];
    if (!ld.valid)
        return; // dispatch/executed pairing broke; leave the ring alone
    ring_.record(tickAt(node), trace::EventId::HandlerExec,
        trace::packExec(tr.insts.size(), tr.sends.size(),
            ld.ack, ld.mshr, node));
}

void
Checker::onDirWrite(NodeId home, Addr line, std::uint64_t entry)
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    ++dirWrites;
    const unsigned st = fmt_.state(entry);
    const std::uint64_t vec = fmt_.vector(entry);

    if (st > dirBusyExWaitPut)
        flag("directory write: illegal state %u for line %llx at node %u "
             "(entry %llx)",
            st, (unsigned long long)line, unsigned(home),
            (unsigned long long)entry);
    if (vec & ~nodeMask_)
        flag("directory write: vector %llx for line %llx has bits beyond "
             "the %u-node machine",
            (unsigned long long)vec, (unsigned long long)line,
            params_.nodes);

    const bool busy = st >= dirBusySh && st <= dirBusyExWaitPut;
    switch (st) {
    case dirUnowned:
        if (entry != 0)
            flag("directory write: Unowned entry for line %llx is not "
                 "all-zero (entry %llx)",
                (unsigned long long)line, (unsigned long long)entry);
        break;
    case dirShared:
        if (vec == 0)
            flag("directory write: Shared entry for line %llx has an "
                 "empty sharer vector",
                (unsigned long long)line);
        break;
    default: // Exclusive and all busy states carry exactly one owner bit
        if (popCount(vec) != 1)
            flag("directory write: state %u for line %llx must carry "
                 "exactly one vector bit, got %llx",
                st, (unsigned long long)line, (unsigned long long)vec);
        break;
    }
    if (busy && fmt_.pendingReq(entry) >= params_.nodes)
        flag("directory write: busy entry for line %llx names "
             "out-of-range pending requester %u",
            (unsigned long long)line, unsigned(fmt_.pendingReq(entry)));

    // Watchdog: a busy or stale entry is an in-flight home-side
    // transaction; it must resolve within the age bound.
    const std::uint64_t key = dirKey(line);
    if (busy || fmt_.stale(entry)) {
        if (live_.find(key) == live_.end())
            track(key, home, line, busy ? "dirBusy" : "dirStale");
    } else {
        untrack(key);
    }

    if (fullMirror()) {
        auto &m = lines_[line];
        m.dirEntry = entry;
        m.dirSeen = true;
    }
}

void
Checker::onPendWrite(NodeId node, unsigned mshr, std::uint64_t word0)
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    ++pendWrites;
    if (mshr >= 64)
        flag("pending-table write: node %u mshr %u out of range",
            unsigned(node), mshr);
    if (word0 & (1ULL << pend::validShift)) {
        const auto exp = (word0 >> pend::acksExpShift) & 0xffff;
        const auto rcv = (word0 >> pend::acksRcvShift) & 0xffff;
        // Before the data reply arrives acksExp is still zero while
        // early acks may already have bumped acksRcv, so the ordering
        // check only applies once the expectation has been recorded.
        if ((word0 & (1ULL << pend::dataShift)) != 0) {
            if (exp >= params_.nodes)
                flag("pending-table write: node %u mshr %u expects %llu "
                     "acks on a %u-node machine",
                    unsigned(node), mshr, (unsigned long long)exp,
                    params_.nodes);
            if (rcv > exp)
                flag("pending-table write: node %u mshr %u received %llu "
                     "acks but expects only %llu",
                    unsigned(node), mshr, (unsigned long long)rcv,
                    (unsigned long long)exp);
        }
    }
    if (fullMirror())
        pend_[(std::uint32_t(node) << 8) | mshr] = word0;
}

void
Checker::onStarvation(NodeId node, Addr line, unsigned retries)
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    ++starvations;
    if (starved_.size() < maxStarvedRecords)
        starved_.push_back(Starved{tickAt(node), node, line, retries});
}

// ------------------------------------------------------------ lifecycle

void
Checker::verifyQuiescent()
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    for (const auto &[line, m] : lines_) {
        if (popCount(m.writers) > 1)
            flag("quiescence: line %llx has %u writers (mask %llx)",
                (unsigned long long)line, popCount(m.writers),
                (unsigned long long)m.writers);
        if (m.writers != 0 && m.sharers != 0)
            flag("quiescence: line %llx has writer %llx and sharers %llx",
                (unsigned long long)line, (unsigned long long)m.writers,
                (unsigned long long)m.sharers);
        if (!m.dirSeen)
            continue;
        const unsigned st = fmt_.state(m.dirEntry);
        const std::uint64_t vec = fmt_.vector(m.dirEntry);
        if (fmt_.stale(m.dirEntry))
            flag("quiescence: line %llx left with stale flag set",
                (unsigned long long)line);
        if (st > dirExclusive)
            flag("quiescence: line %llx left in busy state %u",
                (unsigned long long)line, st);
        if (m.writers != 0) {
            if (st != dirExclusive)
                flag("quiescence: line %llx cached writable but directory "
                     "state is %u",
                    (unsigned long long)line, st);
            else if (vec != m.writers)
                flag("quiescence: line %llx directory owner %llx != "
                     "actual writer %llx",
                    (unsigned long long)line, (unsigned long long)vec,
                    (unsigned long long)m.writers);
        } else if (m.sharers != 0) {
            if (st != dirShared)
                flag("quiescence: line %llx cached Shared but directory "
                     "state is %u",
                    (unsigned long long)line, st);
            else if (m.sharers & ~vec)
                flag("quiescence: line %llx cached sharers %llx missing "
                     "from vector %llx",
                    (unsigned long long)line,
                    (unsigned long long)m.sharers,
                    (unsigned long long)vec);
        } else if (st == dirExclusive) {
            // An owner never drops its copy silently, so Exclusive with
            // no cached writer means the line was lost.
            flag("quiescence: line %llx directory Exclusive (vector %llx) "
                 "but no cache holds it writable",
                (unsigned long long)line, (unsigned long long)vec);
        }
    }
    for (const auto &[key, word0] : pend_) {
        if (word0 & (1ULL << pend::validShift))
            flag("quiescence: pending-table entry node %u mshr %u still "
                 "valid (word0 %llx)",
                unsigned(key >> 8), unsigned(key & 0xff),
                (unsigned long long)word0);
    }
    if (!live_.empty())
        flag("quiescence: %zu transaction(s) still tracked by the "
             "watchdog",
            live_.size());
}

void
Checker::reportWedge(const char *why)
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    if (wedgeReported_)
        return;
    wedgeReported_ = true;
    std::fprintf(stderr, "==== coherence watchdog: %s ====\n", why);
    dumpReport(stderr);
    if (wedgeSnap_) {
        std::string path = wedgeSnap_();
        if (!path.empty())
            std::fprintf(stderr, "machine snapshot saved to %s\n",
                         path.c_str());
    }
    flag("watchdog: %s (%zu in-flight transaction(s))", why, live_.size());
}

void
Checker::dumpReport(std::FILE *out)
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    const Tick now = eq_->curTick();
    std::fprintf(out, "tick %llu, %zu tracked transaction(s):\n",
        (unsigned long long)now, live_.size());

    std::vector<const Live *> sorted;
    sorted.reserve(live_.size());
    for (const auto &[key, t] : live_)
        sorted.push_back(&t);
    std::sort(sorted.begin(), sorted.end(),
        [](const Live *a, const Live *b) { return a->since < b->since; });
    for (const Live *t : sorted)
        std::fprintf(out, "  [age %llu ticks] node %u line %llx (%s)\n",
            (unsigned long long)(now - t->since), unsigned(t->node),
            (unsigned long long)t->addr, t->kind);

    for (const Probe &p : probes_) {
        std::fprintf(out,
            "  progress probe '%s': counter %llu, %s, idle %llu ticks\n",
            p.name.c_str(), (unsigned long long)p.last,
            p.done && p.done() ? "done" : "live",
            (unsigned long long)(p.seen ? now - p.lastChange : 0));
    }

    if (starvations.value() != 0) {
        std::fprintf(out,
            "-- %llu starvation flag(s) (first %zu shown) --\n",
            (unsigned long long)starvations.value(), starved_.size());
        for (const auto &s : starved_)
            std::fprintf(out,
                "  [tick %llu] node %u line %llx: %u NAK retries\n",
                (unsigned long long)s.when, unsigned(s.node),
                (unsigned long long)s.addr, s.retries);
    }

    for (const auto &[name, fn] : dumpHooks_) {
        std::fprintf(out, "-- %s --\n", name.c_str());
        fn(out);
    }

    std::fprintf(out,
        "-- last %zu handler dispatch event(s), oldest first --\n",
        ring_.stored());
    ring_.dumpTail(out, ring_.capacity());

    if (traceMgr_ != nullptr)
        traceMgr_->dumpTails(out, wedgeTraceTail);
}

void
Checker::violation(const std::string &msg)
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    violations_.push_back(msg);
    if (params_.abortOnViolation)
        SMTP_PANIC("coherence checker: %s", msg.c_str());
    std::fprintf(stderr, "coherence checker (latched): %s\n", msg.c_str());
}

// ------------------------------------------------------------- watchdog

void
Checker::track(std::uint64_t key, NodeId node, Addr addr, const char *kind)
{
    // Callers hold mtx_ (every hook locks before reaching here).
    live_[key] = Live{tickAt(node), node, addr, kind};
    if (barrierArm_) {
        // Shard threads must not touch the constructor queue; request
        // the arm and let onBarrier() (single-threaded) schedule it.
        scanArmRequest_ = true;
        return;
    }
    scheduleScan();
}

void
Checker::untrack(std::uint64_t key)
{
    live_.erase(key);
}

void
Checker::addProgressProbe(std::string name,
                          std::function<std::uint64_t()> counter,
                          std::function<bool()> done)
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    Probe p;
    p.name = std::move(name);
    p.counter = std::move(counter);
    p.done = std::move(done);
    probes_.push_back(std::move(p));
    // Probes age from registration on, independent of tracked
    // transactions: arm the scan now (or at the next barrier).
    if (barrierArm_) {
        scanArmRequest_ = true;
        return;
    }
    scheduleScan();
}

void
Checker::scheduleScan()
{
    if (scanScheduled_ || (live_.empty() && probes_.empty()))
        return;
    scanScheduled_ = true;
    eq_->scheduleIn(params_.watchdogScanInterval, ScanEv{this});
}

void
Checker::onBarrier()
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    if (!scanArmRequest_ || scanScheduled_)
        return;
    scanArmRequest_ = false;
    scanScheduled_ = true;
    eq_->scheduleIn(params_.watchdogScanInterval, ScanEv{this});
}

void
Checker::scan()
{
    std::lock_guard<std::recursive_mutex> lk(mtx_);
    scanScheduled_ = false;
    if (barrierArm_) {
        // Re-arm unconditionally: once started, the scan schedule is a
        // pure function of simulated time, so it perturbs window
        // placement identically at every host-thread count. (The scan
        // event runs on the constructor queue's own shard thread, so
        // scheduling here is race-free.)
        scanScheduled_ = true;
        eq_->scheduleIn(params_.watchdogScanInterval, ScanEv{this});
    }
    if ((live_.empty() && probes_.empty()) || wedgeReported_)
        return;
    const Tick now = eq_->curTick();
    for (const auto &[key, t] : live_) {
        if (now - t.since > params_.watchdogMaxAge) {
            reportWedge("transaction exceeded the watchdog age bound");
            return;
        }
    }
    for (Probe &p : probes_) {
        const std::uint64_t v = p.counter();
        const bool finished = p.done && p.done();
        if (!p.seen || v != p.last || finished) {
            p.seen = true;
            p.last = v;
            p.lastChange = now;
            continue;
        }
        if (now - p.lastChange > params_.watchdogMaxAge) {
            char why[160];
            std::snprintf(why, sizeof(why),
                          "progress probe '%s' stalled at %llu",
                          p.name.c_str(),
                          static_cast<unsigned long long>(v));
            reportWedge(why);
            return;
        }
    }
    if (!barrierArm_)
        scheduleScan();
}

} // namespace smtp::check
