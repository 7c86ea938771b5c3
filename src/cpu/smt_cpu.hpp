/**
 * @file
 * Out-of-order SMT pipeline (paper Section 2 / Table 2).
 *
 * Nine stages — fetch, decode, rename, issue, two operand-read stages,
 * execute, cache access, commit — modelled as a cycle-ticked front end
 * and commit stage with event-driven execution latencies. Key structures
 * follow the paper exactly:
 *
 *  - ICOUNT(2,8) fetch: two threads per cycle, eight slots, a
 *    predicted-taken branch ends a thread's run;
 *  - 8-entry decode and rename queues, shared but maintained as two
 *    logical queues (application / protocol) whose service priority
 *    alternates each cycle;
 *  - per-thread 128-entry active lists; 32-entry shared branch stack
 *    checkpointing the rename maps; per-thread 32-entry RAS;
 *  - shared physical register files (32*(threads+1)+96 of each kind),
 *    32-entry integer and FP queues, 64-entry unified LSQ with
 *    per-thread program-order memory issue, 32-entry store buffer
 *    draining at commit;
 *  - 21264-style tournament predictor; squash on mispredict with
 *    checkpoint restore and 8-per-cycle unmap cost;
 *  - sequential consistency via replay: an invalidation hitting a
 *    completed-but-ungraduated load forces it to re-execute at commit;
 *  - SMTp extensions: a protocol thread context fed by handler traces,
 *    PPCV-gated fetch, non-speculative uncached operations executed at
 *    the head of the active list, and one reserved instance of every
 *    deadlock-implicated resource (Section 2.2).
 */

#ifndef SMTP_CPU_SMT_CPU_HPP
#define SMTP_CPU_SMT_CPU_HPP

#include <array>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache_array.hpp"
#include "cache/hierarchy.hpp"
#include "common/types.hpp"
#include "cpu/bpred.hpp"
#include "cpu/inst.hpp"
#include "sim/clock.hpp"
#include "sim/eventq.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace smtp
{

struct CpuParams
{
    std::uint64_t freqMHz = 2000;
    unsigned appThreads = 1;
    bool protocolThread = false;   ///< SMTp: enable the extra context.

    unsigned fetchWidth = 8;
    unsigned fetchThreads = 2;
    unsigned decodeQueue = 8;
    unsigned renameQueue = 8;
    unsigned activeList = 128;     ///< Per thread.
    unsigned branchStack = 32;
    unsigned intRegs = 160;        ///< Machine layer sets 160/192/256.
    unsigned fpRegs = 160;
    unsigned intQueue = 32;
    unsigned fpQueue = 32;
    unsigned lsq = 64;
    unsigned intAlus = 6;          ///< The 7th ALU is the address unit.
    unsigned fpus = 3;
    unsigned commitWidth = 8;
    unsigned storeBuffer = 32;
    unsigned rasEntries = 32;

    Cycles readStages = 2;
    Cycles intMulLat = 6;
    Cycles intDivLat = 35;
    Cycles fpAddLat = 2;
    Cycles fpMulLat = 1;
    Cycles fpDivLat = 19;

    unsigned tlbEntries = 128;
    Cycles tlbMissPenalty = 40;

    // SMTp reserved resources (one each, Table 2).
    unsigned resDecode = 1;
    unsigned resRename = 1;
    unsigned resBranchStack = 1;
    unsigned resIntRegs = 1;
    unsigned resIntQueue = 1;
    unsigned resLsq = 1;
    unsigned resStoreBuffer = 1;

    /**
     * The special bit-manipulation ALU instructions (popcount / count
     * trailing zeros). When absent, each such protocol instruction
     * expands to this many plain ALU ops (Section 2.1 ablation).
     */
    bool bitAssistOps = true;
    unsigned bitAssistExpansion = 4;
};

struct LiveRegistry;

class SmtCpu
{
  public:
    struct DynInst;

    /** Hooks the SMTp protocol-thread agent installs (token = op.token). */
    struct ProtoHooks
    {
        std::function<void(const MicroOp &)> onSendG;
        std::function<Tick(const MicroOp &)> probeReadyAt;
        std::function<void(const MicroOp &)> onLdctxtRetired;
        std::function<void()> onLastOpFetched; ///< PPCV cleared.
    };

    SmtCpu(EventQueue &eq, const CpuParams &params, CacheHierarchy &cache,
           NodeId self = 0);
    ~SmtCpu();

    /** Total thread contexts (app + optional protocol). */
    unsigned numThreads() const { return static_cast<unsigned>(
        threads_.size()); }
    ThreadId protocolTid() const { return static_cast<ThreadId>(
        params_.appThreads); }

    void setSource(ThreadId tid, InstSource *source);
    void setProtoHooks(ProtoHooks hooks) { protoHooks_ = std::move(hooks); }

    /** Attach the node's pipeline telemetry buffer (stalls, stealing). */
    void setTrace(trace::TraceBuffer *buf) { trace_ = buf; }

    /**
     * Prove the idle-cycle path (`--check=full`): every tick that would
     * take it runs the full pipeline instead and asserts that nothing
     * moved.
     */
    void setIdleShadowCheck(bool on) { idleShadowCheck_ = on; }

    /** Begin ticking. */
    void start();

    /** New work may be available (protocol dispatch after idle). */
    void poke();

    bool appThreadsDone() const;
    bool idle() const;

    const ClockDomain &clock() const { return clock_; }
    Tick now() const { return eq_->curTick(); }

    // ---- Per-thread statistics --------------------------------------

    struct ThreadStats
    {
        Counter committed;
        Counter committedMem;
        Counter memStallCycles;
        Counter branches, condBranches, mispredicts;
        Counter squashedInsts;
        Counter squashCycles;       ///< Cycles retiring >=1 squashed inst.
        Counter replays;
        Counter wrongPathFetched;
        Counter itlbMisses, dtlbMisses;
    };

    const ThreadStats &threadStats(ThreadId tid) const;

    /** Protocol-thread live resource occupancy (Table 9). */
    struct ProtoOccupancy
    {
        PeakTracker branchStack;
        PeakTracker intRegs;
        PeakTracker intQueue;
        PeakTracker lsq;
    };

    ProtoOccupancy protoOccupancy;
    Counter cycles;
    Counter fetchedInsts;

    /** Dump pipeline state (wedge diagnosis). */
    void debugDump(std::FILE *out) const;

    /**
     * Apply every pending completion whose key the event queue has
     * passed, in key order. Every CPU entry point calls it first; a
     * machine calls it after a bounded run so counters read then are
     * current.
     */
    void
    catchUp()
    {
        if (!calendar_.empty() &&
            eq_->passed(calendar_.front().due, calendar_.front().ord))
            applyPassed();
    }

    /** Completions reserved and not yet applied (live or dead). */
    std::size_t pendingCompletions() const { return calendar_.count; }

    /**
     * After a restore, once the event queue is loaded: a diagnostic for
     * a pending completion the queue cannot have reserved (due before
     * its tick, or a sequence number it never handed out), else nullptr.
     */
    const char *calendarError() const;

    // ---- Snapshot support --------------------------------------------
    //
    // Fill and TLB-retry events and pending completions reference
    // DynInsts by (pointer, uid); snapshots persist the uid alone and
    // restore resolves it against the re-created instruction pool (a
    // dead uid decodes to a no-op, exactly matching the live generation
    // check).

    static constexpr const char *badNodeEvent =
        "snapshot references an unknown cpu node";

    /** Owner and DynInst uid of the per-instruction events below. */
    template <class Ar>
    static void
    instIo(Ar &ar, SmtCpu *&c, DynInst *&dyn, std::uint64_t &uid)
    {
        ar.owner(c, badNodeEvent);
        ar.u64(uid);
        if constexpr (Ar::loading)
            dyn = ar.ok() ? c->resolveUid(uid) : nullptr;
    }

    struct TickEv
    {
        static constexpr std::uint32_t kSnapId = snap::evCpuTick;
        SmtCpu *c;
        void
        operator()() const
        {
            // Completions apply while the tick is still marked
            // scheduled, as their events ran before it.
            c->catchUp();
            c->tickScheduled_ = false;
            c->tick();
        }
        template <class Ar> void io(Ar &ar) { ar.owner(c, badNodeEvent); }
    };

    struct FetchDoneEv
    {
        static constexpr std::uint32_t kSnapId = snap::evCpuFetchDone;
        SmtCpu *c;
        ThreadId tid;
        Addr line;
        void operator()() const;
        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(c, badNodeEvent);
            ar.u8(tid);
            ar.u64(line);
            if constexpr (Ar::loading) {
                if (ar.ok() && tid >= c->threads_.size())
                    ar.fail("corrupt snapshot: fetch event thread out of "
                            "range");
            }
        }
    };

    struct TlbRetryEv
    {
        static constexpr std::uint32_t kSnapId = snap::evCpuTlbRetry;
        SmtCpu *c;
        DynInst *dyn;
        std::uint64_t uid;
        void operator()() const;
        template <class Ar> void io(Ar &ar) { instIo(ar, c, dyn, uid); }
    };

    /** Cache fill for a load: start the operand-read stages. */
    struct LoadFillEv
    {
        static constexpr std::uint32_t kSnapId = snap::evCpuLoadFill;
        SmtCpu *c;
        DynInst *dyn;
        std::uint64_t uid;
        void operator()() const;
        template <class Ar> void io(Ar &ar) { instIo(ar, c, dyn, uid); }
    };

    struct SbDrainEv
    {
        static constexpr std::uint32_t kSnapId = snap::evCpuSbDrain;
        SmtCpu *c;
        void operator()() const;
        template <class Ar> void io(Ar &ar) { ar.owner(c, badNodeEvent); }
    };

    struct ProtoSbDrainEv
    {
        static constexpr std::uint32_t kSnapId = snap::evCpuProtoSbDrain;
        SmtCpu *c;
        Addr key;
        void operator()() const;
        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(c, badNodeEvent);
            ar.u64(key);
        }
    };

    template <class Ar> void io(Ar &ar);
    NodeId nodeId() const { return self_; }

    /** Live-instruction lookup during event decode (nullptr if dead). */
    DynInst *resolveUid(std::uint64_t uid) const;

  private:
    struct ThreadState;
    struct Checkpoint;

    Tick cyc(Cycles c) const { return clock_.cyclesToTicks(c); }

    void tick();
    void idleTick();
    static DynInst *memStallHead(const ThreadState &t);
    Tick nextFetchResume() const;
    void scheduleTick();

    void fetchStage();
    unsigned fetchFromThread(ThreadState &t, unsigned max_slots);
    void decodeStage();
    void renameStage();
    bool renameOne(DynInst *dyn);
    void issueStage();
    void lsuIssue();
    bool tryMemAccess(DynInst *dyn);
    void completeAt(Tick due, DynInst *dyn, std::uint64_t uid);
    void applyPassed();
    void completeInst(DynInst *dyn, Tick now);
    void resolveBranch(DynInst *dyn, Tick now);
    void squashAfter(ThreadState &t, std::uint64_t seq, int chkpt_idx,
                     Tick now);
    void commitStage();
    void execNonSpec(DynInst *dyn);
    void drainStoreBuffer();
    void sampleProtoOccupancy();
    void onLineInvalidated(Addr line);

    MicroOp synthWrongPath(ThreadState &t);

    bool operandsReady(const DynInst *dyn) const;
    std::uint16_t lookupMap(ThreadState &t, std::uint8_t logical) const;

    // TLB: fully-associative, LRU, 128 entries (Table 2).
    struct Tlb
    {
        explicit Tlb(unsigned entries) : cap(entries) {}
        bool access(Addr page);
        unsigned cap;
        std::vector<std::pair<Addr, std::uint64_t>> entries;
        std::uint64_t stamp = 0;
        Counter misses;
    };

    EventQueue *eq_;
    CpuParams params_;
    ClockDomain clock_;
    CacheHierarchy *cache_;
    NodeId self_;
    TournamentBpred bpred_;
    ProtoHooks protoHooks_;
    trace::TraceBuffer *trace_ = nullptr;

    /**
     * Registry resolving pending completions and fill events to
     * still-live instructions;
     * opaque so the header stays free of DynInst map details. Strictly
     * per-CPU state: sweep runs execute machines concurrently, so
     * nothing may live in process globals.
     */
    std::unique_ptr<LiveRegistry> live_;

    std::vector<std::unique_ptr<ThreadState>> threads_;

    // Front-end queues: two logical sections sharing one capacity.
    std::deque<DynInst *> decodeQApp_, decodeQProto_;
    std::deque<DynInst *> renameQApp_, renameQProto_;
    bool frontPriorityApp_ = true;

    // Physical registers.
    std::vector<std::uint8_t> intReady_, fpReady_;
    std::vector<std::uint16_t> intFree_, fpFree_;
    std::vector<ThreadId> intOwner_;

    // Branch stack.
    std::vector<Checkpoint> chkpts_;

    // Issue queues (kept age-ordered by insertion), reserved to their
    // capacity.
    std::vector<DynInst *> intQ_, fpQ_;
    /** intQ_ entries by kind: [0] app threads, [1] the protocol thread. */
    std::array<unsigned, 2> intQKind_{};
    /** The intQKind_ counter @p dyn belongs to. */
    unsigned &intQCount(const DynInst *dyn);
    unsigned lsqCount_ = 0;

    // Store buffer.
    struct SbEntry
    {
        Addr addr;
        ThreadId tid;
        bool protocolSpace;
    };
    std::deque<SbEntry> storeBuffer_;
    bool sbDrainBusy_ = false;
    bool sbProtoDrainBusy_ = false;

    /**
     * One completion in flight: the event-queue key its completion
     * event would have had (EventQueue::reserveOrd) and the instruction
     * it completes. catchUp() applies it where that event would have
     * run.
     */
    struct Completion
    {
        Tick due;
        std::uint64_t ord;
        DynInst *dyn;      ///< nullptr when restored dead.
        std::uint64_t uid; ///< Live iff dyn->uid still matches.
    };
    static bool later(const Completion &a, const Completion &b);

    /**
     * The completion calendar: a ring kept sorted under (due, ord). A
     * new entry is nearly always due last, so inserting it moves only
     * the few entries due after it; a far-future protocol probe is just
     * one more of those. The ring doubles when full and never shrinks,
     * so steady state does not allocate.
     */
    struct Calendar
    {
        std::vector<Completion> ring = std::vector<Completion>(64);
        std::size_t head = 0;
        std::size_t count = 0;

        bool empty() const { return count == 0; }
        const Completion &front() const { return ring[head]; }
        Completion &
        at(std::size_t i)
        {
            return ring[(head + i) & (ring.size() - 1)];
        }
        const Completion &
        at(std::size_t i) const
        {
            return ring[(head + i) & (ring.size() - 1)];
        }
        void
        pop()
        {
            head = (head + 1) & (ring.size() - 1);
            --count;
        }
        void insert(const Completion &c);
    };
    Calendar calendar_;

    std::uint64_t seqCounter_ = 0;
    unsigned rrCommit_ = 0;
    bool tickScheduled_ = false;
    bool started_ = false;

    /** ICOUNT fetch order, sized once to the thread contexts. */
    std::vector<ThreadState *> fetchOrder_;

    /**
     * Idle-cycle gating. activity_ counts every pipeline state change,
     * cache/TLB access attempt and outside touch (completions, fills,
     * drains, invalidations, poke()). A full tick that leaves it
     * unchanged is idle; the ticks after it take idleTick() while it
     * stays at quietActivity_ and no fetch hold-off expires
     * (quietUntil_). None of this is snapshot state: a restored
     * pipeline starts with one full tick, which does the same thing.
     */
    std::uint64_t activity_ = 0;
    std::uint64_t quietActivity_ = 0;
    Tick quietUntil_ = 0;
    bool idleShadowCheck_ = false;

    Tlb itlb_, dtlb_;
};

} // namespace smtp

#endif // SMTP_CPU_SMT_CPU_HPP
