/**
 * @file
 * The embedded programmable protocol processor of the conventional
 * machine models (paper Section 3): a dual-issue in-order sequencer in
 * the style of the Stanford FLASH MAGIC / SGI Origin hub, executing the
 * same handler image as the SMTp protocol thread.
 *
 * Timing model: statically scheduled dual issue — two consecutive
 * instructions share a cycle when the second does not read the first's
 * result, at most one memory operation and one control transfer issue
 * per cycle, and taken branches cost one bubble (no speculation).
 * Loads/stores access the directory data cache (direct-mapped,
 * write-back; 512 KB, 64 KB, or perfect depending on the machine
 * model); misses go to SDRAM and stall the engine. Instructions fetch
 * through a 32 KB direct-mapped protocol instruction cache that only
 * ever misses cold.
 */

#ifndef SMTP_PENGINE_PENGINE_HPP
#define SMTP_PENGINE_PENGINE_HPP

#include <algorithm>

#include "cache/cache_array.hpp"
#include "mem/agent.hpp"
#include "mem/controller.hpp"
#include "sim/clock.hpp"
#include "sim/eventq.hpp"
#include "sim/stats.hpp"

namespace smtp
{

struct PEngineParams
{
    std::uint64_t freqMHz = 1000;
    bool perfectDcache = false;
    std::size_t dcacheBytes = 512 * 1024; ///< Direct mapped.
    unsigned dcacheLineBytes = 32;
    std::size_t icacheBytes = 32 * 1024;  ///< Direct mapped.
    unsigned icacheLineBytes = 16;        ///< Four instructions.
    Cycles dcacheHit = 1;
};

class PEngine : public ProtocolAgent
{
  public:
    PEngine(EventQueue &eq, MemController &mc, const PEngineParams &params)
        : eq_(&eq), mc_(&mc), params_(params), clock_(params.freqMHz),
          dcache_(params.dcacheBytes, params.dcacheLineBytes, 1),
          icache_(params.icacheBytes, params.icacheLineBytes, 1)
    {
        mc.setAgent(this);
    }

    bool canAccept() const override { return ctx_ == nullptr; }

    void
    start(TransactionCtx *ctx) override
    {
        SMTP_ASSERT(ctx_ == nullptr, "protocol processor already busy");
        ctx_ = ctx;
        idx_ = 0;
        startTick_ = eq_->curTick();
        SMTP_TRACE_EVENT(trace_, startTick_,
                         trace::EventId::ProtoBusyBegin, 0);
        SMTP_TRACE_EVENT(trace_, startTick_, trace::EventId::HandlerStart,
                         trace::packMsg(ctx->msg, ctx->msg.mshr));
        // Handler issue begins on the next engine clock edge.
        time_ = clock_.nextEdge(startTick_);
        slotFree_ = false;
        lastWasMem_ = false;
        step();
    }

    Tick busyTicks() const override { return busyTicks_; }

    /** Attach the node's protocol telemetry buffer. */
    void setTrace(trace::TraceBuffer *buf) { trace_ = buf; }

    // Stats.
    Counter instructions, pairedIssues;
    Counter dcacheHits, dcacheMisses, dcacheWritebacks;
    Counter icacheMisses;
    Counter handlers;

    // ---- Snapshot support --------------------------------------------
    //
    // Pending SDRAM fills and deferred release/done events reference the
    // engine by node and the in-flight transaction by context id; decode
    // checks the id against the restored controller, firing looks it up.

    static constexpr const char *badNodeEvent =
        "snapshot references an unknown protocol engine";

    /** The node of the controller this engine serves. */
    NodeId nodeId() const { return mc_->nodeId(); }

    struct IcacheFillEv
    {
        static constexpr std::uint32_t kSnapId = snap::evPeIcacheFill;
        PEngine *pe;
        std::uint64_t resume;
        void
        operator()() const
        {
            pe->time_ = std::max(
                pe->time_, pe->clock_.nextEdge(pe->eq_->curTick()));
            SMTP_ASSERT(pe->idx_ == resume, "fetch resume skew");
            pe->step();
        }
        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(pe, badNodeEvent);
            ar.u64(resume);
        }
    };

    struct DcacheFillEv
    {
        static constexpr std::uint32_t kSnapId = snap::evPeDcacheFill;
        PEngine *pe;
        void
        operator()() const
        {
            pe->time_ = std::max(
                pe->time_, pe->clock_.nextEdge(pe->eq_->curTick()));
            pe->step();
        }
        template <class Ar> void io(Ar &ar) { ar.owner(pe, badNodeEvent); }
    };

    struct SendReleaseEv
    {
        static constexpr std::uint32_t kSnapId = snap::evPeSendRelease;
        PEngine *pe;
        std::uint64_t ctxId;
        std::uint32_t sendIdx;
        void
        operator()() const
        {
            TransactionCtx *ctx = pe->mc_->ctxById(ctxId);
            SMTP_ASSERT(ctx != nullptr, "send release for a dead handler");
            pe->mc_->releaseSend(ctx, sendIdx);
        }
        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(pe, badNodeEvent);
            ar.u64(ctxId);
            ar.u32(sendIdx);
            if constexpr (Ar::loading) {
                TransactionCtx *ctx =
                    ar.ok() ? pe->mc_->eventCtx(ar, ctxId) : nullptr;
                if (ctx != nullptr && sendIdx >= ctx->trace.sends.size())
                    ar.fail("corrupt snapshot: send release index out of "
                            "range");
            }
        }
    };

    struct HandlerDoneEv
    {
        static constexpr std::uint32_t kSnapId = snap::evPeHandlerDone;
        PEngine *pe;
        std::uint64_t ctxId;
        void
        operator()() const
        {
            TransactionCtx *ctx = pe->mc_->ctxById(ctxId);
            SMTP_ASSERT(ctx != nullptr, "handler done for a dead handler");
            pe->ctx_ = nullptr;
            pe->mc_->handlerDone(ctx);
        }
        template <class Ar>
        void
        io(Ar &ar)
        {
            ar.owner(pe, badNodeEvent);
            ar.u64(ctxId);
            if constexpr (Ar::loading) {
                if (ar.ok())
                    pe->mc_->eventCtx(ar, ctxId);
            }
        }
    };

    template <class Ar>
    void
    io(Ar &ar)
    {
        std::uint64_t ctx_id = ctx_ != nullptr ? ctx_->id : 0;
        ar.u64(ctx_id);
        if constexpr (Ar::loading) {
            ctx_ = ctx_id != 0 ? mc_->ctxById(ctx_id) : nullptr;
            if (ctx_id != 0 && ctx_ == nullptr) {
                ar.fail("corrupt snapshot: protocol engine references "
                        "an unknown transaction");
                return;
            }
        }
        ar.u64(idx_);
        ar.u64(startTick_);
        ar.u64(time_);
        ar.b(slotFree_);
        ar.b(lastWasMem_);
        ar.u64(busyTicks_);
        ar.obj(dcache_, icache_, instructions, pairedIssues, dcacheHits,
               dcacheMisses, dcacheWritebacks, icacheMisses, handlers);
    }

  private:
    void step();

    /** True when @p cur can share @p prev's issue cycle. */
    static bool
    pairable(const proto::PInst &prev, const proto::PInst &cur)
    {
        using proto::POp;
        // Structural: one memory op, one uncached op, one branch per
        // cycle; a branch closes the issue window.
        auto is_mem = [](const proto::PInst &i) {
            return i.op == POp::Ld || i.op == POp::St;
        };
        auto is_special = [](const proto::PInst &i) {
            return i.op == POp::SendH || i.op == POp::SendG ||
                   i.op == POp::Switch || i.op == POp::Ldctxt ||
                   i.op == POp::Ldprobe;
        };
        auto is_branch = [](const proto::PInst &i) {
            return i.op == POp::Beq || i.op == POp::Bne || i.op == POp::J;
        };
        if (is_branch(prev))
            return false;
        if (is_mem(prev) && is_mem(cur))
            return false;
        if (is_special(prev) || is_special(cur))
            return false;
        // RAW: cur reads prev's destination.
        bool prev_writes =
            prev.op != POp::St && prev.op != POp::Nop && prev.rd != 0;
        if (prev_writes && (cur.rs1 == prev.rd || cur.rs2 == prev.rd))
            return false;
        return true;
    }

    EventQueue *eq_;
    MemController *mc_;
    PEngineParams params_;
    ClockDomain clock_;
    CacheArray dcache_;
    CacheArray icache_;

    TransactionCtx *ctx_ = nullptr;
    std::size_t idx_ = 0;
    trace::TraceBuffer *trace_ = nullptr;
    Tick startTick_ = 0;
    Tick time_ = 0;
    bool slotFree_ = false;
    bool lastWasMem_ = false;
    Tick busyTicks_ = 0;
};

} // namespace smtp

#endif // SMTP_PENGINE_PENGINE_HPP
