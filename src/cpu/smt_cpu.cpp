#include "smt_cpu.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "protocol/directory.hpp"

namespace smtp
{

/** One in-flight micro-op. */
struct SmtCpu::DynInst
{
    MicroOp op;
    ThreadId tid = 0;
    std::uint64_t seq = 0;
    std::uint64_t uid = 0;
    bool wrongPath = false;

    // Rename state.
    bool renamed = false;
    std::uint16_t psrc1 = 0xffff, psrc2 = 0xffff;
    bool psrc1Fp = false, psrc2Fp = false;
    std::uint16_t pdst = 0xffff, oldPdst = 0xffff;
    bool pdstFp = false;
    int chkpt = -1;

    // Execution state.
    bool icounted = true;
    bool issued = false;
    bool memAccessed = false;
    bool completed = false;
    bool squashed = false;
    bool mispredicted = false;
    bool predTaken = false;
    bool nonSpecStarted = false;
    bool replayTrap = false;

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u64(uid);
        ar.obj(op);
        ar.u8(tid);
        ar.u64(seq);
        ar.b(wrongPath);
        ar.b(renamed);
        ar.u16(psrc1);
        ar.u16(psrc2);
        ar.b(psrc1Fp);
        ar.b(psrc2Fp);
        ar.u16(pdst);
        ar.u16(oldPdst);
        ar.b(pdstFp);
        ar.u32(chkpt);
        ar.b(icounted);
        ar.b(issued);
        ar.b(memAccessed);
        ar.b(completed);
        ar.b(squashed);
        ar.b(mispredicted);
        ar.b(predTaken);
        ar.b(nonSpecStarted);
        ar.b(replayTrap);
    }
};

struct SmtCpu::Checkpoint
{
    bool valid = false;
    ThreadId tid = 0;
    std::uint64_t seq = 0;
    std::array<std::uint16_t, numLogicalRegs> map{};
    TournamentBpred::RasCheckpoint ras;
};

struct SmtCpu::ThreadState
{
    ThreadId tid = 0;
    bool isProtocol = false;
    InstSource *source = nullptr;

    std::deque<DynInst *> rob;        ///< Active list, oldest first.
    std::array<std::uint16_t, numLogicalRegs> map{};
    std::deque<DynInst *> lsqOrder;   ///< Memory ops in program order.

    bool fetchStalled = false;        ///< I-cache miss outstanding.
    Tick fetchResumeTick = 0;         ///< Squash/TLB fetch hold-off.
    Addr lastFetchLine = invalidAddr;
    bool wrongPathMode = false;
    std::uint64_t wrongPathPc = 0;
    unsigned wrongPathCnt = 0;
    unsigned icount = 0;
    std::uint8_t stallCause = trace::stallNone; ///< Open stall window.

    ThreadStats stats;
};

/**
 * Slab pool of DynInst records with generation-tagged liveness. Pending
 * completions and fill events capture (DynInst*, uid); the instruction
 * is still live iff the slot's uid matches, since free() zeroes it and
 * alloc() stamps a fresh one. This replaces a uid -> DynInst* hash map
 * (and a malloc/free per micro-op) that dominated the simulator's hot
 * path.
 * The full definition lives here to keep the header free of DynInst
 * details; SmtCpu owns one through the opaque live_ member.
 */
struct LiveRegistry
{
    std::vector<std::unique_ptr<SmtCpu::DynInst[]>> chunks;
    std::vector<SmtCpu::DynInst *> freeList;
    std::uint64_t next = 1;

    /**
     * uid -> slot map built while restoring a snapshot; consulted by
     * the event decoders resolving deferred-completion handles.
     */
    std::unordered_map<std::uint64_t, SmtCpu::DynInst *> restoreMap;

    static constexpr std::size_t chunkSize = 256;

    SmtCpu::DynInst *
    alloc()
    {
        if (freeList.empty()) {
            chunks.push_back(
                std::make_unique<SmtCpu::DynInst[]>(chunkSize));
            SmtCpu::DynInst *base = chunks.back().get();
            for (std::size_t i = chunkSize; i-- > 0;)
                freeList.push_back(base + i);
        }
        SmtCpu::DynInst *d = freeList.back();
        freeList.pop_back();
        *d = SmtCpu::DynInst{};
        d->uid = next++;
        return d;
    }

    void
    free(SmtCpu::DynInst *d)
    {
        d->uid = 0; // Invalidate outstanding (ptr, uid) handles.
        freeList.push_back(d);
    }
};

SmtCpu::SmtCpu(EventQueue &eq, const CpuParams &params,
               CacheHierarchy &cache, NodeId self)
    : eq_(&eq), params_(params), clock_(params.freqMHz), cache_(&cache),
      self_(self),
      bpred_([&] {
          BpredParams bp;
          bp.threads = params.appThreads + (params.protocolThread ? 1 : 0);
          bp.rasEntries = params.rasEntries;
          return bp;
      }()),
      itlb_(params.tlbEntries), dtlb_(params.tlbEntries)
{
    live_ = std::make_unique<LiveRegistry>();

    unsigned nthreads = params.appThreads + (params.protocolThread ? 1 : 0);
    SMTP_ASSERT(params.intRegs >= 32 * nthreads + 32,
                "too few integer registers for the architected maps");
    intReady_.assign(params.intRegs, true);
    fpReady_.assign(params.fpRegs, true);
    intOwner_.assign(params.intRegs, invalidThread);
    for (unsigned r = params.intRegs; r-- > 0;)
        intFree_.push_back(static_cast<std::uint16_t>(r));
    for (unsigned r = params.fpRegs; r-- > 0;)
        fpFree_.push_back(static_cast<std::uint16_t>(r));

    chkpts_.resize(params.branchStack);
    intQ_.reserve(params.intQueue);
    fpQ_.reserve(params.fpQueue);

    for (unsigned t = 0; t < nthreads; ++t) {
        auto ts = std::make_unique<ThreadState>();
        ts->tid = static_cast<ThreadId>(t);
        ts->isProtocol = params.protocolThread && t == params.appThreads;
        // Architected register maps stay allocated for the thread's
        // lifetime (the paper's protocol boot sequence does the same
        // for the protocol context).
        for (unsigned l = 0; l < numLogicalRegs; ++l) {
            bool fp = l >= fpRegBase;
            auto &free_list = fp ? fpFree_ : intFree_;
            SMTP_ASSERT(!free_list.empty(), "register file too small");
            std::uint16_t p = free_list.back();
            free_list.pop_back();
            ts->map[l] = p;
            (fp ? fpReady_ : intReady_)[p] = true;
            if (!fp)
                intOwner_[p] = ts->tid;
        }
        threads_.push_back(std::move(ts));
    }
    fetchOrder_.resize(nthreads);

    cache_->setInvalHook([this](Addr line) { onLineInvalidated(line); });
}

SmtCpu::~SmtCpu()
{
    // In-flight DynInsts (ROB, front-end queues) live in the live_ pool
    // and are reclaimed wholesale with it.
}

void
SmtCpu::setSource(ThreadId tid, InstSource *source)
{
    threads_[tid]->source = source;
}

const SmtCpu::ThreadStats &
SmtCpu::threadStats(ThreadId tid) const
{
    return threads_[tid]->stats;
}

void
SmtCpu::debugDump(std::FILE *out) const
{
    std::fprintf(out, "cpu: cycles=%llu intFree=%zu fpFree=%zu lsq=%u "
                 "sb=%zu sbBusy=%d dq=%zu/%zu rq=%zu/%zu iq=%zu fq=%zu\n",
                 static_cast<unsigned long long>(cycles.value()),
                 intFree_.size(), fpFree_.size(), lsqCount_,
                 storeBuffer_.size(), sbDrainBusy_, decodeQApp_.size(),
                 decodeQProto_.size(), renameQApp_.size(),
                 renameQProto_.size(), intQ_.size(), fpQ_.size());
    for (const auto &t : threads_) {
        std::fprintf(out,
                     "  t%u%s rob=%zu icount=%u stalled=%d wp=%d "
                     "resume=%llu lsqOrd=%zu",
                     t->tid, t->isProtocol ? "(proto)" : "",
                     t->rob.size(), t->icount, t->fetchStalled,
                     t->wrongPathMode,
                     static_cast<unsigned long long>(t->fetchResumeTick),
                     t->lsqOrder.size());
        if (!t->rob.empty()) {
            const DynInst *h = t->rob.front();
            std::fprintf(out,
                         " head{cls=%u pc=%llx seq=%llu renamed=%d "
                         "issued=%d memAcc=%d comp=%d nonspec=%d "
                         "squash=%d}",
                         static_cast<unsigned>(h->op.cls),
                         static_cast<unsigned long long>(h->op.pc),
                         static_cast<unsigned long long>(h->seq),
                         h->renamed, h->issued, h->memAccessed,
                         h->completed, h->nonSpecStarted, h->squashed);
        }
        std::fprintf(out, "\n");
    }
}

void
SmtCpu::start()
{
    // Idempotent: a restored pipeline is already started and its
    // pending tick (if any) lives in the restored event queue.
    if (started_)
        return;
    started_ = true;
    scheduleTick();
}

void
SmtCpu::poke()
{
    catchUp();
    ++activity_;
    if (started_)
        scheduleTick();
}

bool
SmtCpu::appThreadsDone() const
{
    for (unsigned t = 0; t < params_.appThreads; ++t) {
        const auto &ts = *threads_[t];
        if (ts.source == nullptr)
            continue;
        if (!ts.source->finished() || !ts.rob.empty())
            return false;
    }
    return true;
}

bool
SmtCpu::idle() const
{
    for (const auto &t : threads_) {
        if (!t->rob.empty() || t->wrongPathMode)
            return false;
        if (t->source != nullptr && !t->source->finished() &&
            t->source->hasNext())
            return false;
        if (t->fetchStalled)
            return false;
    }
    return decodeQApp_.empty() && decodeQProto_.empty() &&
           renameQApp_.empty() && renameQProto_.empty() &&
           storeBuffer_.empty() && !sbDrainBusy_;
}

void
SmtCpu::scheduleTick()
{
    if (tickScheduled_ || !started_)
        return;
    tickScheduled_ = true;
    static_assert(EventQueue::Callback::storesInline<TickEv>,
                  "the per-cycle pipeline event must not heap-allocate");
    eq_->schedule(clock_.edgeAfter(eq_->curTick()), TickEv{this});
}

void
SmtCpu::tick()
{
    // After an idle tick nothing can move until the pipeline is touched
    // or a fetch hold-off expires: the stages would redo the same failed
    // checks in either service order.
    bool quiet = activity_ == quietActivity_ && now() < quietUntil_;
    if (quiet && !idleShadowCheck_) {
        idleTick();
        return;
    }
    std::uint64_t before = activity_;
    ++cycles;
    commitStage();
    drainStoreBuffer();
    issueStage();
    lsuIssue();
    renameStage();
    decodeStage();
    fetchStage();
    if (params_.protocolThread)
        sampleProtoOccupancy();
    frontPriorityApp_ = !frontPriorityApp_;
    bool was_idle = activity_ == before;
    bool sleeps = idle();
    SMTP_ASSERT(!quiet || (was_idle && !sleeps),
                "node %u: the idle-cycle path would skip pipeline work at "
                "tick %llu", unsigned(self_),
                static_cast<unsigned long long>(now()));
    quietActivity_ = activity_;
    quietUntil_ = was_idle ? nextFetchResume() : 0;
    if (!sleeps)
        scheduleTick();
}

void
SmtCpu::idleTick()
{
    // The per-cycle effects of a tick in which no stage moves.
    ++cycles;
    for (auto &tp : threads_) {
        if (memStallHead(*tp) != nullptr)
            ++tp->stats.memStallCycles;
    }
    rrCommit_ = (rrCommit_ + 1) % static_cast<unsigned>(threads_.size());
    frontPriorityApp_ = !frontPriorityApp_;
    scheduleTick();
}

/** The ROB head when it stalls graduation on memory, else nullptr. */
SmtCpu::DynInst *
SmtCpu::memStallHead(const ThreadState &t)
{
    DynInst *head = t.rob.empty() ? nullptr : t.rob.front();
    if (head == nullptr || !isMemOp(head->op.cls) || head->completed)
        return nullptr;
    return head;
}

Tick
SmtCpu::nextFetchResume() const
{
    Tick until = maxTick;
    for (const auto &t : threads_) {
        if (t->fetchResumeTick > now())
            until = std::min(until, t->fetchResumeTick);
    }
    return until;
}

// --------------------------------------------------------------- fetch

bool
SmtCpu::Tlb::access(Addr page)
{
    for (auto &e : entries) {
        if (e.first == page) {
            e.second = ++stamp;
            return true;
        }
    }
    ++misses;
    if (entries.size() < cap) {
        entries.emplace_back(page, ++stamp);
    } else {
        auto lru = std::min_element(
            entries.begin(), entries.end(),
            [](const auto &a, const auto &b) { return a.second < b.second; });
        *lru = {page, ++stamp};
    }
    return false;
}

MicroOp
SmtCpu::synthWrongPath(ThreadState &t)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.pc = t.wrongPathPc;
    t.wrongPathPc += 4;
    unsigned k = t.wrongPathCnt++;
    op.dest = static_cast<std::uint8_t>(1 + (k % 20));
    op.src1 = static_cast<std::uint8_t>(1 + ((k + 7) % 20));
    op.src2 = static_cast<std::uint8_t>(1 + ((k + 13) % 20));
    return op;
}

void
SmtCpu::fetchStage()
{
    // ICOUNT: order runnable threads by in-flight count, ties by tid.
    // Threads arrive in tid order, so an insertion sort that never moves
    // past an equal count keeps the tie order.
    unsigned runnable = 0;
    for (auto &t : threads_) {
        if (t->source == nullptr)
            continue;
        if (t->fetchStalled || eq_->curTick() < t->fetchResumeTick)
            continue;
        if (!t->wrongPathMode &&
            (t->source->finished() || !t->source->hasNext()))
            continue;
        unsigned i = runnable++;
        for (; i > 0 && fetchOrder_[i - 1]->icount > t->icount; --i)
            fetchOrder_[i] = fetchOrder_[i - 1];
        fetchOrder_[i] = t.get();
    }

    unsigned slots = params_.fetchWidth;
    unsigned threads_used = 0;
    for (unsigned k = 0; k < runnable; ++k) {
        ThreadState *t = fetchOrder_[k];
        if (threads_used >= params_.fetchThreads || slots == 0)
            break;
        unsigned n = fetchFromThread(*t, slots);
        if (n > 0 && t->isProtocol) {
            SMTP_TRACE_EVENT(trace_, eq_->curTick(),
                             trace::EventId::FetchSteal,
                             trace::packStall(
                                 t->tid, static_cast<std::uint8_t>(n)));
        }
        slots -= n;
        threads_used += n > 0;
    }
}

unsigned
SmtCpu::fetchFromThread(ThreadState &t, unsigned max_slots)
{
    unsigned fetched = 0;
    while (fetched < max_slots) {
        // Front-end queue space (one slot reserved for the protocol).
        unsigned dq_total = static_cast<unsigned>(decodeQApp_.size() +
                                                  decodeQProto_.size());
        unsigned cap = params_.decodeQueue;
        if (t.isProtocol) {
            if (dq_total >= cap)
                break;
        } else {
            unsigned res = params_.protocolThread ? params_.resDecode : 0;
            if (decodeQApp_.size() + res >= cap || dq_total >= cap)
                break;
        }

        MicroOp op;
        if (t.wrongPathMode) {
            op = synthWrongPath(t);
        } else {
            if (t.source->finished() || !t.source->hasNext())
                break;
            op = t.source->peek();
        }

        // I-cache (and ITLB) for the line being fetched. Wrong-path
        // fetch is synthesized and skips the memory system.
        if (!t.wrongPathMode) {
            Addr line = op.pc & ~static_cast<Addr>(l1iLineBytes - 1);
            if (line != t.lastFetchLine) {
                ++activity_;
                if (!t.isProtocol && !itlb_.access(pageAlign(op.pc))) {
                    ++t.stats.itlbMisses;
                    t.fetchResumeTick =
                        eq_->curTick() + cyc(params_.tlbMissPenalty);
                    break;
                }
                MemReq req;
                req.cmd = t.isProtocol ? MemCmd::ProtoIFetch
                                       : MemCmd::IFetch;
                req.addr = op.pc;
                req.done = FetchDoneEv{this, t.tid, line};
                auto outcome = cache_->access(req);
                if (outcome == CacheHierarchy::Outcome::Retry)
                    break;
                if (outcome == CacheHierarchy::Outcome::Pending) {
                    t.fetchStalled = true;
                    break;
                }
                t.lastFetchLine = line;
            }
        }

        // Build the dynamic instruction.
        ++activity_;
        auto *dyn = live_->alloc();
        dyn->op = op;
        dyn->tid = t.tid;
        dyn->seq = ++seqCounter_;
        dyn->wrongPath = t.wrongPathMode;
        ++t.icount;
        ++fetchedInsts;
        if (t.wrongPathMode)
            ++t.stats.wrongPathFetched;

        bool end_run = false;
        if (op.cls == OpClass::Branch && !t.wrongPathMode) {
            auto pred = bpred_.predict(t.tid, op.pc, op.isCondBranch,
                                       op.isCall, op.isReturn, op.pc + 4);
            dyn->predTaken = pred.taken;
            // A BTB miss on a correctly predicted-taken branch is a
            // redirect bubble, not a misprediction: decode computes the
            // target of direct branches.
            bool wrong = pred.taken != op.taken ||
                         (pred.taken && op.taken && pred.btbHit &&
                          pred.target != op.target);
            dyn->mispredicted = wrong;
            ++t.stats.branches;
            if (op.isCondBranch)
                ++t.stats.condBranches;
            if (wrong) {
                t.wrongPathMode = true;
                t.wrongPathPc = (pred.taken && pred.btbHit)
                                    ? pred.target
                                    : op.pc + 4;
                end_run = true;
            } else if (pred.taken) {
                // A predicted-taken branch ends the fetch run; a BTB
                // miss additionally costs a redirect bubble.
                end_run = true;
                if (!pred.btbHit) {
                    t.fetchResumeTick = eq_->curTick() + cyc(1);
                }
                t.lastFetchLine = invalidAddr;
            }
        }

        if (!dyn->wrongPath)
            t.source->consume();

        if (t.isProtocol)
            decodeQProto_.push_back(dyn);
        else
            decodeQApp_.push_back(dyn);
        ++fetched;
        if (end_run)
            break;
    }
    return fetched;
}

// ------------------------------------------------------ decode / rename

void
SmtCpu::decodeStage()
{
    unsigned budget = params_.fetchWidth;
    auto service = [&](std::deque<DynInst *> &src,
                       std::deque<DynInst *> &dst, bool proto) {
        while (budget > 0 && !src.empty()) {
            DynInst *dyn = src.front();
            if (dyn->squashed) {
                ++activity_;
                src.pop_front();
                continue;
            }
            unsigned total = static_cast<unsigned>(renameQApp_.size() +
                                                   renameQProto_.size());
            unsigned cap = params_.renameQueue;
            if (proto) {
                if (total >= cap)
                    break;
            } else {
                unsigned res =
                    params_.protocolThread ? params_.resRename : 0;
                if (renameQApp_.size() + res >= cap || total >= cap)
                    break;
            }
            ++activity_;
            src.pop_front();
            dst.push_back(dyn);
            --budget;
        }
    };
    if (frontPriorityApp_) {
        service(decodeQApp_, renameQApp_, false);
        service(decodeQProto_, renameQProto_, true);
    } else {
        service(decodeQProto_, renameQProto_, true);
        service(decodeQApp_, renameQApp_, false);
    }
}

std::uint16_t
SmtCpu::lookupMap(ThreadState &t, std::uint8_t logical) const
{
    return t.map[logical];
}

unsigned &
SmtCpu::intQCount(const DynInst *dyn)
{
    return intQKind_[threads_[dyn->tid]->isProtocol];
}

bool
SmtCpu::renameOne(DynInst *dyn)
{
    ThreadState &t = *threads_[dyn->tid];
    const MicroOp &op = dyn->op;
    bool proto = t.isProtocol;
    bool reserve = params_.protocolThread && !proto;

    if (t.rob.size() >= params_.activeList)
        return false;

    bool needs_int_dest =
        op.dest != regNone && !isFpReg(op.dest) && op.dest != 0;
    bool needs_fp_dest = op.dest != regNone && isFpReg(op.dest);
    if (needs_int_dest &&
        intFree_.size() <= (reserve ? params_.resIntRegs : 0))
        return false;
    if (needs_fp_dest && fpFree_.empty())
        return false;

    bool is_branch = op.cls == OpClass::Branch;
    if (is_branch) {
        unsigned free_chk = 0, app_used = 0;
        for (const auto &c : chkpts_) {
            if (!c.valid)
                ++free_chk;
            else if (!threads_[c.tid]->isProtocol)
                ++app_used;
        }
        if (free_chk == 0)
            return false;
        if (reserve && app_used + params_.resBranchStack >=
                           params_.branchStack)
            return false;
    }

    bool mem = isMemOp(op.cls);
    if (mem) {
        unsigned res = reserve ? params_.resLsq : 0;
        if (lsqCount_ >= params_.lsq - res && !proto)
            return false;
        if (lsqCount_ >= params_.lsq)
            return false;
    }

    bool int_q = op.cls == OpClass::IntAlu || op.cls == OpClass::IntMul ||
                 op.cls == OpClass::IntDiv || is_branch;
    bool fp_q = isFpOp(op.cls);
    if (int_q) {
        if (!proto && reserve &&
            intQKind_[0] + params_.resIntQueue >= params_.intQueue)
            return false;
        if (intQ_.size() >= params_.intQueue)
            return false;
    }
    if (fp_q && fpQ_.size() >= params_.fpQueue)
        return false;

    // All resources available: allocate.
    auto map_src = [&](std::uint8_t logical, std::uint16_t &psrc,
                       bool &is_fp) {
        if (logical == regNone) {
            psrc = 0xffff;
            return;
        }
        is_fp = isFpReg(logical);
        psrc = t.map[logical];
    };
    map_src(op.src1, dyn->psrc1, dyn->psrc1Fp);
    map_src(op.src2, dyn->psrc2, dyn->psrc2Fp);

    if (needs_int_dest || needs_fp_dest) {
        auto &free_list = needs_fp_dest ? fpFree_ : intFree_;
        std::uint16_t p = free_list.back();
        free_list.pop_back();
        dyn->pdst = p;
        dyn->pdstFp = needs_fp_dest;
        dyn->oldPdst = t.map[op.dest];
        t.map[op.dest] = p;
        (needs_fp_dest ? fpReady_ : intReady_)[p] = false;
        if (!needs_fp_dest)
            intOwner_[p] = dyn->tid;
    }

    if (is_branch) {
        for (unsigned i = 0; i < chkpts_.size(); ++i) {
            if (!chkpts_[i].valid) {
                chkpts_[i].valid = true;
                chkpts_[i].tid = dyn->tid;
                chkpts_[i].seq = dyn->seq;
                chkpts_[i].map = t.map;
                chkpts_[i].ras = bpred_.rasCheckpoint(dyn->tid);
                dyn->chkpt = static_cast<int>(i);
                break;
            }
        }
        SMTP_ASSERT(dyn->chkpt >= 0, "branch stack bookkeeping broken");
    }

    dyn->renamed = true;
    t.rob.push_back(dyn);

    if (mem) {
        ++lsqCount_;
        t.lsqOrder.push_back(dyn);
    } else if (int_q) {
        intQ_.push_back(dyn);
        ++intQCount(dyn);
    } else if (fp_q) {
        fpQ_.push_back(dyn);
    } else {
        // Nop and non-speculative protocol ops wait in the active list.
        if (dyn->icounted) {
            dyn->icounted = false;
            --t.icount;
        }
        if (op.cls == OpClass::Nop)
            dyn->completed = true;
    }
    return true;
}

void
SmtCpu::renameStage()
{
    unsigned budget = params_.fetchWidth;
    auto service = [&](std::deque<DynInst *> &q) {
        while (budget > 0 && !q.empty()) {
            DynInst *dyn = q.front();
            if (dyn->squashed) {
                ++activity_;
                q.pop_front();
                continue;
            }
            if (!renameOne(dyn))
                break; // In-order within the section.
            ++activity_;
            q.pop_front();
            --budget;
        }
    };
    if (frontPriorityApp_) {
        service(renameQApp_);
        service(renameQProto_);
    } else {
        service(renameQProto_);
        service(renameQApp_);
    }
}

// ---------------------------------------------------------------- issue

bool
SmtCpu::operandsReady(const DynInst *dyn) const
{
    auto ready = [&](std::uint16_t p, bool fp) {
        if (p == 0xffff)
            return true;
        return fp ? static_cast<bool>(fpReady_[p])
                  : static_cast<bool>(intReady_[p]);
    };
    return ready(dyn->psrc1, dyn->psrc1Fp) &&
           ready(dyn->psrc2, dyn->psrc2Fp);
}

void
SmtCpu::issueStage()
{
    // One pass per queue: issue the oldest `width` ready entries and
    // slide the rest down, keeping their age order.
    auto issue_from = [&](std::vector<DynInst *> &q, unsigned width) {
        bool counted = &q == &intQ_;
        unsigned issued = 0;
        auto keep = q.begin();
        for (auto it = q.begin(); it != q.end(); ++it) {
            DynInst *dyn = *it;
            // squashAfter() purges squashed entries from the queues.
            SMTP_ASSERT(!dyn->squashed, "squashed entry in an issue queue");
            if (issued == width) {
                keep = std::move(it, q.end(), keep);
                break;
            }
            if (!operandsReady(dyn)) {
                *keep++ = dyn;
                continue;
            }
            ++activity_;
            Cycles lat = 1;
            switch (dyn->op.cls) {
              case OpClass::IntMul: lat = params_.intMulLat; break;
              case OpClass::IntDiv: lat = params_.intDivLat; break;
              case OpClass::FpAdd: lat = params_.fpAddLat; break;
              case OpClass::FpMul: lat = params_.fpMulLat; break;
              case OpClass::FpDiv: lat = params_.fpDivLat; break;
              default: break;
            }
            dyn->issued = true;
            if (dyn->icounted) {
                dyn->icounted = false;
                --threads_[dyn->tid]->icount;
            }
            completeAt(now() + cyc(params_.readStages + lat), dyn,
                       dyn->uid);
            if (counted)
                --intQCount(dyn);
            ++issued;
        }
        q.erase(keep, q.end());
    };
    issue_from(intQ_, params_.intAlus);
    issue_from(fpQ_, params_.fpus);
}

bool
SmtCpu::tryMemAccess(DynInst *dyn)
{
    ++activity_;
    ThreadState &t = *threads_[dyn->tid];
    const MicroOp &op = dyn->op;
    std::uint64_t uid = dyn->uid;

    auto complete_in = [&](Cycles c) {
        completeAt(now() + cyc(c), dyn, uid);
    };

    // DTLB (application data space only).
    if (!t.isProtocol && !proto::isProtocolAddr(op.effAddr)) {
        if (!dtlb_.access(pageAlign(op.effAddr))) {
            ++t.stats.dtlbMisses;
            dyn->memAccessed = true;
            if (dyn->icounted) {
                dyn->icounted = false;
                --t.icount;
            }
            // Refill, then perform the access.
            eq_->scheduleIn(cyc(params_.tlbMissPenalty),
                            TlbRetryEv{this, dyn, uid});
            return true;
        }
    }

    switch (op.cls) {
      case OpClass::Store:
      case OpClass::PStore:
        // Stores "execute" once address and data are ready; the memory
        // system is touched when the store buffer drains after commit.
        dyn->memAccessed = true;
        complete_in(params_.readStages + 1);
        break;
      case OpClass::Prefetch:
      case OpClass::PrefetchEx: {
        MemReq req;
        req.cmd = op.cls == OpClass::Prefetch ? MemCmd::Prefetch
                                              : MemCmd::PrefetchEx;
        req.addr = op.effAddr;
        req.tid = dyn->tid;
        auto outcome = cache_->access(req);
        if (outcome == CacheHierarchy::Outcome::Retry)
            return false;
        dyn->memAccessed = true;
        complete_in(params_.readStages + 1);
        break;
      }
      case OpClass::Load:
      case OpClass::PLoad: {
        // Store-to-load forwarding: same thread older stores and the
        // store buffer, 8-byte granularity.
        Addr a8 = op.effAddr & ~7ULL;
        bool forwarded = false;
        for (auto *older : t.lsqOrder) {
            if (older == dyn)
                break;
            if ((older->op.cls == OpClass::Store ||
                 older->op.cls == OpClass::PStore) &&
                (older->op.effAddr & ~7ULL) == a8) {
                forwarded = true;
            }
        }
        if (!forwarded) {
            for (const auto &sb : storeBuffer_) {
                if (sb.tid == dyn->tid && (sb.addr & ~7ULL) == a8)
                    forwarded = true;
            }
        }
        if (forwarded) {
            dyn->memAccessed = true;
            complete_in(params_.readStages + 1);
            break;
        }
        MemReq req;
        req.cmd = t.isProtocol || proto::isProtocolAddr(op.effAddr)
                      ? MemCmd::ProtoLoad
                      : MemCmd::Load;
        req.addr = op.effAddr;
        req.tid = dyn->tid;
        req.done = LoadFillEv{this, dyn, uid};
        auto outcome = cache_->access(req);
        if (outcome == CacheHierarchy::Outcome::Retry)
            return false;
        dyn->memAccessed = true;
        break;
      }
      default:
        SMTP_PANIC("non-memory op in the LSU");
    }
    if (dyn->icounted) {
        dyn->icounted = false;
        --t.icount;
    }
    return true;
}

void
SmtCpu::lsuIssue()
{
    // One memory operation per cycle (one address-calculation ALU).
    for (unsigned i = 0; i < threads_.size(); ++i) {
        unsigned idx = (rrCommit_ + i) % threads_.size();
        ThreadState &t = *threads_[idx];
        // Program order among a thread's memory operations: only the
        // oldest not-yet-issued one may access the cache.
        DynInst *cand = nullptr;
        for (auto *d : t.lsqOrder) {
            if (!d->memAccessed) {
                cand = d;
                break;
            }
        }
        if (cand == nullptr || !operandsReady(cand))
            continue;
        if (tryMemAccess(cand))
            return; // LSU busy for this cycle.
    }
}

// ------------------------------------------------------------ complete

bool
SmtCpu::later(const Completion &a, const Completion &b)
{
    return a.due != b.due ? a.due > b.due : a.ord > b.ord;
}

void
SmtCpu::Calendar::insert(const Completion &c)
{
    if (count == ring.size()) {
        std::vector<Completion> bigger(2 * ring.size());
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = at(i);
        ring.swap(bigger);
        head = 0;
    }
    std::size_t i = count++;
    for (; i > 0 && later(at(i - 1), c); --i)
        at(i) = at(i - 1);
    at(i) = c;
}

/** Reserve the completion of (@p dyn, @p uid) at @p due. */
void
SmtCpu::completeAt(Tick due, DynInst *dyn, std::uint64_t uid)
{
    calendar_.insert({due, eq_->reserveOrd(), dyn, uid});
}

/** catchUp()'s loop, once the earliest entry is known to be passed. */
void
SmtCpu::applyPassed()
{
    do {
        Completion c = calendar_.front();
        calendar_.pop();
        if (c.dyn != nullptr && c.dyn->uid == c.uid)
            completeInst(c.dyn, c.due);
    } while (!calendar_.empty() &&
             eq_->passed(calendar_.front().due, calendar_.front().ord));
}

/**
 * Complete @p dyn as of tick @p now, its due tick. No tick needs
 * scheduling: an instruction in flight keeps its thread's active list
 * non-empty, so the pipeline ticks until the completion is applied.
 */
void
SmtCpu::completeInst(DynInst *dyn, Tick now)
{
    // squashAfter() frees every squashed instruction, so the uid check
    // in catchUp() already turned its completion into a no-op.
    SMTP_ASSERT(!dyn->squashed, "a squashed instruction completed");
    ++activity_;
    dyn->completed = true;
    if (dyn->pdst != 0xffff) {
        (dyn->pdstFp ? fpReady_ : intReady_)[dyn->pdst] = true;
    }
    if (dyn->op.cls == OpClass::Branch)
        resolveBranch(dyn, now);
}

void
SmtCpu::resolveBranch(DynInst *dyn, Tick now)
{
    ThreadState &t = *threads_[dyn->tid];
    if (!dyn->wrongPath) {
        bpred_.update(dyn->tid, dyn->op.pc, dyn->op.taken, dyn->op.target,
                      dyn->op.isCondBranch);
    }
    if (dyn->mispredicted) {
        ++t.stats.mispredicts;
        squashAfter(t, dyn->seq, dyn->chkpt, now);
        t.wrongPathMode = false;
    }
    if (dyn->chkpt >= 0) {
        chkpts_[dyn->chkpt].valid = false;
        dyn->chkpt = -1;
    }
}

void
SmtCpu::squashAfter(ThreadState &t, std::uint64_t seq, int chkpt_idx,
                    Tick now)
{
    auto purge = [](auto &q, const DynInst *needle) {
        for (auto it = q.begin(); it != q.end(); ++it) {
            if (*it == needle) {
                q.erase(it);
                return true;
            }
        }
        return false;
    };

    unsigned squashed = 0;
    while (!t.rob.empty() && t.rob.back()->seq > seq) {
        DynInst *dyn = t.rob.back();
        t.rob.pop_back();
        dyn->squashed = true;
        ++squashed;
        ++t.stats.squashedInsts;
        if (dyn->icounted) {
            dyn->icounted = false;
            --t.icount;
        }
        if (dyn->pdst != 0xffff) {
            auto &free_list = dyn->pdstFp ? fpFree_ : intFree_;
            free_list.push_back(dyn->pdst);
            if (!dyn->pdstFp)
                intOwner_[dyn->pdst] = invalidThread;
        }
        if (dyn->chkpt >= 0)
            chkpts_[dyn->chkpt].valid = false;
        if (isMemOp(dyn->op.cls)) {
            purge(t.lsqOrder, dyn);
            --lsqCount_;
        }
        if (purge(intQ_, dyn))
            --intQCount(dyn);
        purge(fpQ_, dyn);
        live_->free(dyn);
    }

    // Un-renamed instructions still in the front-end queues.
    auto flush_front = [&](std::deque<DynInst *> &q) {
        for (auto it = q.begin(); it != q.end();) {
            DynInst *dyn = *it;
            if (dyn->tid == t.tid && dyn->seq > seq) {
                if (dyn->icounted)
                    --t.icount;
                ++squashed;
                ++t.stats.squashedInsts;
                live_->free(dyn);
                it = q.erase(it);
            } else {
                ++it;
            }
        }
    };
    flush_front(t.isProtocol ? decodeQProto_ : decodeQApp_);
    flush_front(t.isProtocol ? renameQProto_ : renameQApp_);

    if (chkpt_idx >= 0) {
        SMTP_ASSERT(chkpts_[chkpt_idx].valid &&
                        chkpts_[chkpt_idx].tid == t.tid,
                    "checkpoint mix-up during recovery");
        t.map = chkpts_[chkpt_idx].map;
        bpred_.rasRestore(t.tid, chkpts_[chkpt_idx].ras);
    }

    // Unmapping proceeds eight instructions per cycle (Section 3), then
    // the front end refetches.
    Cycles penalty = 1 + divCeil(squashed, 8);
    t.fetchResumeTick = std::max(t.fetchResumeTick, now + cyc(penalty));
    t.lastFetchLine = invalidAddr;
    if (squashed > 0)
        ++t.stats.squashCycles;
}

// --------------------------------------------------------------- commit

void
SmtCpu::execNonSpec(DynInst *dyn)
{
    ++activity_;
    dyn->nonSpecStarted = true;
    auto complete_at = [&](Tick when) {
        completeAt(std::max(when, now() + cyc(1)), dyn, dyn->uid);
    };
    switch (dyn->op.cls) {
      case OpClass::PSendH:
      case OpClass::PSwitch:
      case OpClass::PLdctxt:
        complete_at(eq_->curTick() + cyc(1));
        break;
      case OpClass::PSendG:
        if (protoHooks_.onSendG)
            protoHooks_.onSendG(dyn->op);
        complete_at(eq_->curTick() + cyc(1));
        break;
      case OpClass::PLdprobe: {
        Tick ready = protoHooks_.probeReadyAt
                         ? protoHooks_.probeReadyAt(dyn->op)
                         : eq_->curTick();
        complete_at(ready + cyc(1));
        break;
      }
      default:
        SMTP_PANIC("unexpected non-speculative op");
    }
}

void
SmtCpu::commitStage()
{
    // Memory-stall accounting (paper Section 4): a cycle counts as a
    // memory stall for a thread when its graduation is blocked with a
    // memory operation at the top of the active list.
    for (auto &tp : threads_) {
        ThreadState &t = *tp;
        DynInst *head = memStallHead(t);
        bool blocked = head != nullptr;
        if (blocked)
            ++t.stats.memStallCycles;
        if (trace_ != nullptr) {
            std::uint8_t cause =
                !blocked ? trace::stallNone
                : (head->op.cls == OpClass::Store ||
                   head->op.cls == OpClass::PStore)
                    ? trace::stallStore
                    : trace::stallLoad;
            if (cause != t.stallCause) {
                if (t.stallCause != trace::stallNone)
                    trace_->record(eq_->curTick(),
                                   trace::EventId::ThreadStallEnd,
                                   trace::packStall(t.tid, t.stallCause));
                if (cause != trace::stallNone)
                    trace_->record(eq_->curTick(),
                                   trace::EventId::ThreadStallBegin,
                                   trace::packStall(t.tid, cause));
                t.stallCause = cause;
            }
        }
    }

    unsigned budget = params_.commitWidth;
    unsigned nthreads = static_cast<unsigned>(threads_.size());
    for (unsigned i = 0; i < nthreads && budget > 0; ++i) {
        ThreadState &t = *threads_[(rrCommit_ + i) % nthreads];
        while (budget > 0 && !t.rob.empty()) {
            DynInst *head = t.rob.front();

            if (isNonSpeculative(head->op.cls) && !head->nonSpecStarted &&
                operandsReady(head)) {
                execNonSpec(head);
                break;
            }
            if (!head->completed)
                break;

            if (head->replayTrap) {
                // SC replay: the line was invalidated under a completed
                // load; re-execute it and charge the refetch.
                ++activity_;
                head->replayTrap = false;
                head->completed = false;
                head->memAccessed = false;
                ++t.stats.replays;
                Cycles penalty =
                    1 + divCeil(static_cast<unsigned>(t.rob.size()), 8);
                t.fetchResumeTick = std::max(
                    t.fetchResumeTick, eq_->curTick() + cyc(penalty));
                break;
            }

            if (head->op.cls == OpClass::Store ||
                head->op.cls == OpClass::PStore) {
                bool proto_op = threads_[head->tid]->isProtocol;
                unsigned app_in_sb = 0;
                for (const auto &e : storeBuffer_)
                    app_in_sb += !threads_[e.tid]->isProtocol;
                unsigned res = params_.protocolThread && !proto_op
                                   ? params_.resStoreBuffer
                                   : 0;
                if (storeBuffer_.size() >= params_.storeBuffer ||
                    (!proto_op &&
                     app_in_sb + res >= params_.storeBuffer)) {
                    break; // Store buffer full; stall graduation.
                }
                storeBuffer_.push_back({head->op.effAddr, head->tid,
                                        proto::isProtocolAddr(
                                            head->op.effAddr)});
            }

            // Retire.
            ++activity_;
            if (isMemOp(head->op.cls)) {
                SMTP_ASSERT(!t.lsqOrder.empty() &&
                                t.lsqOrder.front() == head,
                            "LSQ order corrupted");
                t.lsqOrder.pop_front();
                --lsqCount_;
                ++t.stats.committedMem;
            }
            if (head->pdst != 0xffff && head->oldPdst != 0xffff) {
                auto &free_list = head->pdstFp ? fpFree_ : intFree_;
                free_list.push_back(head->oldPdst);
                if (!head->pdstFp)
                    intOwner_[head->oldPdst] = invalidThread;
            }
            ++t.stats.committed;
            if (head->op.cls == OpClass::PLdctxt &&
                protoHooks_.onLdctxtRetired) {
                protoHooks_.onLdctxtRetired(head->op);
            }
            t.rob.pop_front();
            live_->free(head);
            --budget;
        }
    }
    rrCommit_ = (rrCommit_ + 1) % nthreads;
}

void
SmtCpu::drainStoreBuffer()
{
    // Application stores drain in order through the head.
    if (!sbDrainBusy_ && !storeBuffer_.empty() &&
        !storeBuffer_.front().protocolSpace) {
        const SbEntry &e = storeBuffer_.front();
        MemReq req;
        req.cmd = MemCmd::Store;
        req.addr = e.addr;
        req.tid = e.tid;
        req.done = SbDrainEv{this};
        ++activity_;
        if (cache_->access(req) != CacheHierarchy::Outcome::Retry)
            sbDrainBusy_ = true;
    }
    // Protocol stores drain independently over the dedicated protocol
    // path — they may overtake a blocked application store. This is
    // what makes the reserved store-buffer entry (Section 2.2)
    // sufficient to break the deadlock cycle: an application store
    // whose exclusive grant needs the protocol thread cannot block the
    // protocol thread's own stores.
    if (!sbProtoDrainBusy_) {
        auto it = std::find_if(storeBuffer_.begin(), storeBuffer_.end(),
                               [](const SbEntry &e) {
                                   return e.protocolSpace;
                               });
        if (it == storeBuffer_.end())
            return;
        // Skip if the ordered head drain already covers it.
        if (it == storeBuffer_.begin() && sbDrainBusy_)
            return;
        MemReq req;
        req.cmd = MemCmd::ProtoStore;
        req.addr = it->addr;
        req.tid = it->tid;
        req.done = ProtoSbDrainEv{this, it->addr};
        ++activity_;
        if (cache_->access(req) != CacheHierarchy::Outcome::Retry)
            sbProtoDrainBusy_ = true;
    }
}

// ------------------------------------------------------------- hooks

void
SmtCpu::onLineInvalidated(Addr line)
{
    catchUp();
    ++activity_;
    for (auto &tp : threads_) {
        ThreadState &t = *tp;
        if (t.isProtocol)
            continue;
        for (auto *d : t.lsqOrder) {
            if ((d->op.cls == OpClass::Load) && d->completed &&
                lineAlign(d->op.effAddr) == line) {
                d->replayTrap = true;
            }
        }
    }
}

// ---------------------------------------------------------- snapshots

void
SmtCpu::FetchDoneEv::operator()() const
{
    c->catchUp();
    ThreadState &t = *c->threads_[tid];
    t.fetchStalled = false;
    t.lastFetchLine = line;
    ++c->activity_;
    c->scheduleTick();
}

void
SmtCpu::TlbRetryEv::operator()() const
{
    c->catchUp();
    if (dyn == nullptr || dyn->uid != uid)
        return;
    dyn->memAccessed = false;
    c->tryMemAccess(dyn);
}

void
SmtCpu::LoadFillEv::operator()() const
{
    c->catchUp();
    // A dead instruction's fill still reserves a key, so every later
    // event keeps its sequence number; the entry applies as a no-op.
    c->completeAt(c->now() + c->cyc(c->params_.readStages), dyn, uid);
}

void
SmtCpu::SbDrainEv::operator()() const
{
    c->catchUp();
    c->sbDrainBusy_ = false;
    ++c->activity_;
    SMTP_ASSERT(!c->storeBuffer_.empty() &&
                    !c->storeBuffer_.front().protocolSpace,
                "store buffer head changed under drain");
    c->storeBuffer_.pop_front();
    c->scheduleTick();
}

void
SmtCpu::ProtoSbDrainEv::operator()() const
{
    c->catchUp();
    c->sbProtoDrainBusy_ = false;
    ++c->activity_;
    for (auto it = c->storeBuffer_.begin(); it != c->storeBuffer_.end();
         ++it) {
        if (it->protocolSpace && it->addr == key) {
            c->storeBuffer_.erase(it);
            break;
        }
    }
    c->scheduleTick();
}

template <class Ar>
void
SmtCpu::io(Ar &ar)
{
    // Live instruction pool, in chunk order (deterministic: chunks are
    // append-only and slots never move). Restore rebuilds the pool from
    // scratch; every queue below re-resolves its members by uid.
    if constexpr (Ar::loading) {
        quietUntil_ = 0;
        live_ = std::make_unique<LiveRegistry>();
        std::uint64_t live_count = ar.count(64);
        for (std::uint64_t i = 0; ar.ok() && i < live_count; ++i) {
            DynInst *d = live_->alloc();
            d->io(ar);
            if (d->uid == 0 || d->tid >= threads_.size() || d->chkpt < -1 ||
                d->chkpt >= static_cast<int>(params_.branchStack)) {
                ar.fail("corrupt snapshot: dynamic instruction out of "
                        "range");
            }
            if (!ar.ok())
                return;
            if (!live_->restoreMap.emplace(d->uid, d).second) {
                ar.fail("corrupt snapshot: duplicate instruction uid");
                return;
            }
        }
    } else {
        std::uint64_t live_count = 0;
        for (const auto &chunk : live_->chunks) {
            for (std::size_t i = 0; i < LiveRegistry::chunkSize; ++i)
                live_count += chunk[i].uid != 0;
        }
        ar.u64(live_count);
        for (const auto &chunk : live_->chunks) {
            for (std::size_t i = 0; i < LiveRegistry::chunkSize; ++i) {
                if (chunk[i].uid != 0)
                    chunk[i].io(ar);
            }
        }
    }
    ar.u64(live_->next);

    auto uid = [this](Ar &a, DynInst *&d) {
        std::uint64_t id = d != nullptr ? d->uid : 0;
        a.u64(id);
        if constexpr (Ar::loading) {
            d = resolveUid(id);
            if (d == nullptr)
                a.fail("corrupt snapshot: queue references a dead "
                       "instruction");
        }
    };
    auto uids = [&ar, &uid](std::deque<DynInst *> &q) { ar.seq(q, 8, uid); };

    ar.u64(seqCounter_);
    ar.u32(rrCommit_);
    ar.b(tickScheduled_);
    ar.b(started_);
    ar.b(frontPriorityApp_);
    ar.u32(lsqCount_);

    ar.fixed(threads_, "corrupt snapshot: thread count mismatch",
             [&](Ar &a, std::unique_ptr<ThreadState> &tp) {
                 ThreadState &t = *tp;
                 uids(t.rob);
                 for (std::uint16_t &m : t.map)
                     a.u16(m);
                 uids(t.lsqOrder);
                 a.b(t.fetchStalled);
                 a.u64(t.fetchResumeTick);
                 a.u64(t.lastFetchLine);
                 a.b(t.wrongPathMode);
                 a.u64(t.wrongPathPc);
                 a.u32(t.wrongPathCnt);
                 a.u32(t.icount);
                 a.u8(t.stallCause);
                 ThreadStats &st = t.stats;
                 a.obj(st.committed, st.committedMem, st.memStallCycles,
                       st.branches, st.condBranches, st.mispredicts,
                       st.squashedInsts, st.squashCycles, st.replays,
                       st.wrongPathFetched, st.itlbMisses, st.dtlbMisses);
             });

    uids(decodeQApp_);
    uids(decodeQProto_);
    uids(renameQApp_);
    uids(renameQProto_);

    for (std::uint8_t &r : intReady_)
        ar.u8(r);
    for (std::uint8_t &r : fpReady_)
        ar.u8(r);
    auto reg = [](Ar &a, std::uint16_t &r) { a.u16(r); };
    ar.seq(intFree_, 2, reg, params_.intRegs,
           "corrupt snapshot: free-list overflow");
    ar.seq(fpFree_, 2, reg, params_.fpRegs,
           "corrupt snapshot: free-list overflow");
    for (ThreadId &o : intOwner_)
        ar.u8(o);

    ar.fixed(chkpts_, "corrupt snapshot: branch-stack size mismatch",
             [](Ar &a, Checkpoint &ck) {
                 a.b(ck.valid);
                 a.u8(ck.tid);
                 a.u64(ck.seq);
                 for (std::uint16_t &m : ck.map)
                     a.u16(m);
                 a.u32(ck.ras.top);
                 a.u64(ck.ras.tosValue);
             });

    ar.seq(intQ_, 8, uid, params_.intQueue,
           "corrupt snapshot: issue queue overflow");
    ar.seq(fpQ_, 8, uid, params_.fpQueue,
           "corrupt snapshot: issue queue overflow");
    if constexpr (Ar::loading) {
        intQKind_ = {};
        for (const DynInst *d : intQ_) {
            if (d == nullptr)
                continue;
            if (d->tid >= threads_.size()) {
                ar.fail("corrupt snapshot: issue-queue thread out of range");
                break;
            }
            ++intQCount(d);
        }
    }

    ar.seq(storeBuffer_, 10,
           [](Ar &a, SbEntry &e) {
               a.u64(e.addr);
               a.u8(e.tid);
               a.b(e.protocolSpace);
           },
           params_.storeBuffer, "corrupt snapshot: store buffer overflow");
    ar.b(sbDrainBusy_);
    ar.b(sbProtoDrainBusy_);

    for (Tlb *tlb : {&itlb_, &dtlb_}) {
        ar.seq(tlb->entries, 16,
               [](Ar &a, std::pair<Addr, std::uint64_t> &e) {
                   a.u64(e.first);
                   a.u64(e.second);
               },
               tlb->cap, "corrupt snapshot: TLB overflow");
        ar.u64(tlb->stamp);
        ar.obj(tlb->misses);
    }

    ar.obj(bpred_, protoOccupancy.branchStack, protoOccupancy.intRegs,
           protoOccupancy.intQueue, protoOccupancy.lsq, cycles,
           fetchedInsts);

    // Pending completions, in key order, as (due, seq, uid). Saving
    // applies the ones already passed first, which is what lets a
    // restored queue stand past every key of its current tick.
    // calendarError() checks due ticks and sequence numbers against the
    // restored queue.
    if constexpr (Ar::loading) {
        calendar_ = Calendar{};
        std::uint64_t n = ar.count(24);
        for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
            Completion c{};
            std::uint64_t seq = 0;
            ar.u64(c.due);
            ar.u64(seq);
            ar.u64(c.uid);
            if (!ar.ok())
                break;
            if (seq % 2 == 0 || EventQueue::seqOf(seq) != seq) {
                ar.fail("corrupt snapshot: completion sequence number out "
                        "of range");
                break;
            }
            c.ord = EventQueue::reservedOrd(seq);
            if (!calendar_.empty() &&
                !later(c, calendar_.at(calendar_.count - 1))) {
                ar.fail("corrupt snapshot: completions out of order");
                break;
            }
            c.dyn = resolveUid(c.uid);
            calendar_.insert(c);
        }
    } else {
        catchUp();
        ar.u64(calendar_.count);
        for (std::size_t i = 0; i < calendar_.count; ++i) {
            Completion &c = calendar_.at(i);
            std::uint64_t seq = EventQueue::seqOf(c.ord);
            ar.u64(c.due);
            ar.u64(seq);
            ar.u64(c.uid);
        }
    }
}

template void SmtCpu::io(snap::Ser &);
template void SmtCpu::io(snap::Des &);

const char *
SmtCpu::calendarError() const
{
    for (std::size_t i = 0; i < calendar_.count; ++i) {
        const Completion &c = calendar_.at(i);
        if (c.due < eq_->curTick())
            return "corrupt snapshot: completion due before the current "
                   "tick";
        if (!eq_->issued(EventQueue::seqOf(c.ord)))
            return "corrupt snapshot: completion sequence number was "
                   "never handed out";
    }
    return nullptr;
}

SmtCpu::DynInst *
SmtCpu::resolveUid(std::uint64_t uid) const
{
    auto it = live_->restoreMap.find(uid);
    return it == live_->restoreMap.end() ? nullptr : it->second;
}

void
SmtCpu::sampleProtoOccupancy()
{
    ThreadId ptid = protocolTid();
    ThreadState &t = *threads_[ptid];
    if (t.rob.empty())
        return;
    unsigned chk = 0;
    for (const auto &c : chkpts_)
        chk += c.valid && c.tid == ptid;
    protoOccupancy.branchStack.observe(chk);

    unsigned regs = 0;
    for (auto owner : intOwner_)
        regs += owner == ptid;
    protoOccupancy.intRegs.observe(regs);

    protoOccupancy.intQueue.observe(intQKind_[1]);

    unsigned lsq = static_cast<unsigned>(t.lsqOrder.size());
    protoOccupancy.lsq.observe(lsq);
}

} // namespace smtp
