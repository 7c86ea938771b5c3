/**
 * @file
 * Coroutine workload-generation framework.
 *
 * Each application thread is a C++20 coroutine (`Task`) that emits
 * micro-ops through its ThreadCtx. The ThreadCtx is the pipeline-facing
 * InstSource: when the fetch stage pulls and the buffer is empty, the
 * coroutine is resumed until it emits. Loads return their functional
 * value at emission (execute-at-generate), so spins, locks and
 * data-dependent control flow behave like real code.
 *
 * Tasks nest (`co_await subTask(...)`) with symmetric transfer, which
 * keeps the synchronization library (locks, tree barriers) and the
 * applications readable.
 *
 * Program counters: straight-line emission advances a virtual PC;
 * loopBegin/loopEnd rewind it so iterations replay the same PCs — the
 * I-cache, BTB and branch predictor see a faithful static code image.
 */

#ifndef SMTP_WORKLOAD_GEN_HPP
#define SMTP_WORKLOAD_GEN_HPP

#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "cpu/inst.hpp"
#include "snap/snap.hpp"
#include "workload/func_mem.hpp"

namespace smtp
{

class ThreadCtx;

/** Awaitable coroutine task with symmetric-transfer nesting. */
class Task
{
  public:
    struct promise_type
    {
        std::coroutine_handle<> continuation;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                auto cont = h.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { SMTP_PANIC("workload threw"); }
    };

    Task() = default;

    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    Task &
    operator=(Task &&other) noexcept
    {
        if (handle_)
            handle_.destroy();
        handle_ = std::exchange(other.handle_, nullptr);
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task()
    {
        if (handle_)
            handle_.destroy();
    }

    bool done() const { return !handle_ || handle_.done(); }

    /** Awaiting a sub-task transfers control into it. */
    struct Awaiter
    {
        std::coroutine_handle<promise_type> child;

        bool await_ready() noexcept { return !child || child.done(); }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> parent) noexcept
        {
            child.promise().continuation = parent;
            return child;
        }

        void await_resume() noexcept {}
    };

    Awaiter operator co_await() const noexcept { return Awaiter{handle_}; }

    std::coroutine_handle<promise_type> handle() const { return handle_; }

  private:
    std::coroutine_handle<promise_type> handle_;
};

/**
 * Per-thread generation context and InstSource.
 *
 * The micro-op emitters are awaitables: the coroutine suspends after
 * each emission, so the pipeline pulls exactly as fast as it fetches.
 */
class ThreadCtx : public InstSource
{
  public:
    ThreadCtx(FuncMem &mem, NodeId node, std::uint64_t pc_base)
        : mem_(&mem), node_(node), vpc_(pc_base)
    {
    }

    ThreadCtx(const ThreadCtx &) = delete;

    void
    run(Task task)
    {
        task_ = std::move(task);
        resume_ = task_.handle();
    }

    NodeId node() const { return node_; }
    FuncMem &mem() { return *mem_; }

    // ---- InstSource ---------------------------------------------------

    bool
    hasNext() override
    {
        pump();
        return !buf_.empty();
    }

    const MicroOp &
    peek() override
    {
        pump();
        SMTP_ASSERT(!buf_.empty(), "peek on a drained generator");
        return buf_.front();
    }

    void
    consume() override
    {
        ++supplied_;
        buf_.pop_front();
    }

    bool
    finished() override
    {
        pump();
        return buf_.empty() && task_.done();
    }

    /**
     * Sharded execution: generation touches the machine-global
     * functional memory and resume log, so mid-window pumping from a
     * shard thread is forbidden. Buffered mode confines every resume to
     * refill(), which the machine calls from the single-threaded
     * barrier phase in global-thread-id order (a deterministic schedule
     * under any host-thread count). A drained buffer simply stalls the
     * fetch stage until the next barrier tops it up.
     */
    void setBuffered(bool on) override { buffered_ = on; }

    void
    refill(std::size_t target) override
    {
        while (buf_.size() < target && !task_.done()) {
            auto h = resume_;
            SMTP_ASSERT(h && !h.done(), "generator wedged");
            if (log_ != nullptr)
                log_->resumes.push_back(gtid_);
            h.resume();
        }
    }

    std::uint64_t supplied() const { return supplied_; }

    // ---- Snapshot support ----------------------------------------------
    //
    // Coroutine frames cannot be serialized, so checkpoints record a
    // *resume log* instead: the owning App keeps one global sequence of
    // thread ids, appended each time any generator coroutine is resumed.
    // Restoring rebuilds the app from its (deterministic) config and
    // replays the log — every emission, functional-memory access and
    // data-dependent branch re-executes in the original global order —
    // then pops each thread's consumed prefix. The scalars saved here
    // only validate that the replay converged to the same state.

    struct ResumeLog
    {
        /** Global resume order: one gtid per coroutine resume. */
        std::vector<std::uint32_t> resumes;
        /**
         * Barrier-clock epochs: entry (i, t) means resumes from index i
         * onward were generated with the clock reading t. Saved and
         * replayed with the log so tick-stamped work items (request
         * birth times, latency samples) reproduce exactly on restore.
         */
        std::vector<std::pair<std::uint64_t, Tick>> epochs;
        /** Clock as of the latest setNow(); 0 before the first window. */
        Tick now = 0;

        void
        setNow(Tick t)
        {
            if (t == now)
                return;
            now = t;
            epochs.emplace_back(resumes.size(), t);
        }
    };

    /** Log every coroutine resume as @p gtid into @p log. */
    void
    attachResumeLog(ResumeLog *log, std::uint32_t gtid)
    {
        log_ = log;
        gtid_ = gtid;
    }

    /** Machine barrier phase publishes the tick before each refill. */
    void
    setNow(Tick t) override
    {
        if (log_ != nullptr)
            log_->setNow(t);
    }

    /**
     * Generation-time clock for stamping work items: the tick of the
     * last barrier before the current refill (window granularity), 0
     * when no log is attached or generation is unbuffered.
     */
    Tick
    now() const
    {
        return log_ != nullptr ? log_->now : 0;
    }

    /** One unlogged resume (snapshot replay); false past generator end. */
    bool
    replayResume()
    {
        if (task_.done() || !resume_ || resume_.done())
            return false;
        auto h = resume_;
        h.resume();
        return true;
    }

    /**
     * Save, or validate and finish a replayed rebuild: restore runs on
     * a fresh, fully replayed context (supplied_ == 0, buf_ holds every
     * emission), pops the consumed prefix and checks that the replay
     * converged on the snapshotted cursor.
     */
    template <class Ar>
    void
    io(Ar &ar)
    {
        std::uint64_t supplied = supplied_;
        std::uint64_t vpc = vpc_;
        std::uint64_t buffered = buf_.size();
        std::uint32_t int_rot = intRot_;
        std::uint32_t fp_rot = fpRot_;
        std::uint8_t last_load = lastLoadReg_;
        ar.u64(supplied);
        ar.u64(vpc);
        ar.u64(buffered);
        ar.u32(int_rot);
        ar.u32(fp_rot);
        ar.u8(last_load);
        if constexpr (Ar::loading) {
            if (!ar.ok())
                return;
            if (supplied > buf_.size()) {
                ar.fail("corrupt snapshot: consumed micro-op count "
                        "exceeds replayed emissions");
                return;
            }
            for (std::uint64_t i = 0; i < supplied; ++i)
                buf_.pop_front();
            supplied_ = supplied;
            if (vpc_ != vpc || buf_.size() != buffered ||
                intRot_ != int_rot || fpRot_ != fp_rot ||
                lastLoadReg_ != last_load) {
                ar.fail("workload replay divergence: the rebuilt "
                        "generator does not match the snapshotted one "
                        "(different app, seed, scale, or code version?)");
            }
        }
    }

    // ---- Emission primitives (used by awaitables below) ----------------

    struct Suspend
    {
        ThreadCtx *ctx;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            ctx->resume_ = h;
        }

        void await_resume() const noexcept {}
    };

    struct LoadAwait : Suspend
    {
        std::uint64_t value;
        std::uint64_t await_resume() const noexcept { return value; }
    };

    struct LoadFAwait : Suspend
    {
        double value;
        double await_resume() const noexcept { return value; }
    };

    /** Timed 8-byte load; resumes with the functional value. */
    LoadAwait
    load(Addr addr)
    {
        emitLoad(addr);
        return LoadAwait{{this}, mem_->read(addr)};
    }

    LoadFAwait
    loadF(Addr addr)
    {
        emitLoad(addr);
        return LoadFAwait{{this}, mem_->readF(addr)};
    }

    Suspend
    store(Addr addr, std::uint64_t value)
    {
        mem_->write(addr, value);
        emitStore(addr);
        return Suspend{this};
    }

    Suspend
    storeF(Addr addr, double value)
    {
        mem_->writeF(addr, value);
        emitStore(addr);
        return Suspend{this};
    }

    /** Atomic swap (LL/SC pair): returns the previous value. */
    LoadAwait
    swap(Addr addr, std::uint64_t value)
    {
        std::uint64_t old = mem_->read(addr);
        emitLoad(addr);
        mem_->write(addr, value);
        emitStore(addr);
        return LoadAwait{{this}, old};
    }

    /** Atomic fetch-and-add. */
    LoadAwait
    fetchAdd(Addr addr, std::uint64_t delta)
    {
        std::uint64_t old = mem_->read(addr);
        emitLoad(addr);
        mem_->write(addr, old + delta);
        emitStore(addr);
        return LoadAwait{{this}, old};
    }

    Suspend
    prefetch(Addr addr, bool exclusive = false)
    {
        MicroOp op = base(exclusive ? OpClass::PrefetchEx
                                    : OpClass::Prefetch);
        op.effAddr = addr;
        buf_.push_back(op);
        return Suspend{this};
    }

    /** Emit @p n integer ALU ops with light dependency structure. */
    Suspend
    intOps(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            MicroOp op = base(OpClass::IntAlu);
            op.dest = nextIntReg();
            op.src1 = lastIntReg();
            buf_.push_back(op);
        }
        return Suspend{this};
    }

    /**
     * Emit @p n floating-point ops (mul/add mix). Dependencies form
     * four interleaved chains — the instruction-level parallelism of
     * real butterfly/stencil kernels — so the three FPUs are usable.
     */
    Suspend
    fpOps(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            MicroOp op =
                base(i % 2 ? OpClass::FpAdd : OpClass::FpMul);
            std::uint8_t chain_src = static_cast<std::uint8_t>(
                fpRegBase + 2 + (fpRot_ + 24 - 4) % 24);
            op.dest = nextFpReg();
            op.src1 = chain_src;
            op.src2 = lastLoadReg_;
            buf_.push_back(op);
        }
        return Suspend{this};
    }

    // ---- Structured control flow ----------------------------------------

    struct LoopHandle
    {
        std::uint64_t headPc;
    };

    LoopHandle loopBegin() { return LoopHandle{vpc_}; }

    /** Backward branch; rewinds the virtual PC while iterating. */
    Suspend
    loopEnd(LoopHandle h, bool more)
    {
        MicroOp op = base(OpClass::Branch);
        op.isCondBranch = true;
        op.taken = more;
        op.target = more ? h.headPc : op.pc + 4;
        buf_.push_back(op);
        if (more)
            vpc_ = h.headPc;
        return Suspend{this};
    }

    /** A resolved forward conditional branch (e.g. convergence tests). */
    Suspend
    branch(bool taken, std::uint64_t skip_ops = 4)
    {
        MicroOp op = base(OpClass::Branch);
        op.isCondBranch = true;
        op.taken = taken;
        op.target = op.pc + 4 + (taken ? 4 * skip_ops : 0);
        buf_.push_back(op);
        if (taken)
            vpc_ = op.target;
        return Suspend{this};
    }

  private:
    friend struct Suspend;

    MicroOp
    base(OpClass cls)
    {
        MicroOp op;
        op.cls = cls;
        op.pc = vpc_;
        vpc_ += 4;
        return op;
    }

    void
    emitLoad(Addr addr)
    {
        MicroOp op = base(OpClass::Load);
        op.dest = nextIntReg();
        op.src1 = addrReg_;
        op.effAddr = addr;
        lastLoadReg_ = op.dest;
        buf_.push_back(op);
    }

    void
    emitStore(Addr addr)
    {
        MicroOp op = base(OpClass::Store);
        op.src1 = addrReg_;
        op.src2 = lastIntReg();
        op.effAddr = addr;
        buf_.push_back(op);
    }

    std::uint8_t
    nextIntReg()
    {
        intRot_ = (intRot_ + 1) % 20;
        return static_cast<std::uint8_t>(4 + intRot_);
    }

    std::uint8_t
    lastIntReg() const
    {
        return static_cast<std::uint8_t>(4 + intRot_);
    }

    std::uint8_t
    nextFpReg()
    {
        fpRot_ = (fpRot_ + 1) % 24;
        return static_cast<std::uint8_t>(fpRegBase + 2 + fpRot_);
    }

    std::uint8_t
    lastFpReg() const
    {
        return static_cast<std::uint8_t>(fpRegBase + 2 + fpRot_);
    }

    void
    pump()
    {
        if (buffered_)
            return; // refill() is the only legal generation point
        while (buf_.empty() && !task_.done()) {
            auto h = resume_;
            SMTP_ASSERT(h && !h.done(), "generator wedged");
            if (log_ != nullptr)
                log_->resumes.push_back(gtid_);
            h.resume();
        }
    }

    FuncMem *mem_;
    NodeId node_;
    std::uint64_t vpc_;
    std::deque<MicroOp> buf_;
    Task task_;
    std::coroutine_handle<> resume_;
    unsigned intRot_ = 0;
    unsigned fpRot_ = 0;
    std::uint8_t addrReg_ = 2;      ///< Nominal base-address register.
    std::uint8_t lastLoadReg_ = 4;
    std::uint64_t supplied_ = 0;
    bool buffered_ = false;
    ResumeLog *log_ = nullptr;
    std::uint32_t gtid_ = 0;
};

} // namespace smtp

#endif // SMTP_WORKLOAD_GEN_HPP
