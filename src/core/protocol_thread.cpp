#include "protocol_thread.hpp"

#include "common/log.hpp"
#include "protocol/directory.hpp"

namespace smtp
{

using proto::POp;

ProtocolThread::ProtocolThread(EventQueue &eq, SmtCpu &cpu,
                               MemController &mc,
                               const ProtocolThreadParams &params)
    : eq_(&eq), cpu_(&cpu), mc_(&mc), params_(params)
{
    mc.setAgent(this);
    SmtCpu::ProtoHooks hooks;
    hooks.onSendG = [this](const MicroOp &op) { onSendG(op); };
    hooks.probeReadyAt = [this](const MicroOp &op) {
        return probeReadyAt(op);
    };
    hooks.onLdctxtRetired = [this](const MicroOp &op) {
        onLdctxtRetired(op);
    };
    cpu.setProtoHooks(std::move(hooks));
    cpu.setSource(cpu.protocolTid(), this);
}

bool
ProtocolThread::canAccept() const
{
    if (handlers_.empty())
        return true;
    if (!params_.lookAheadScheduling)
        return false; // Next PC only after the previous ldctxt graduates.
    // One look-ahead handler, once the previous finished fetching.
    return handlers_.size() == 1 && handlers_.front().fullyFetched();
}

void
ProtocolThread::start(TransactionCtx *ctx)
{
    SMTP_ASSERT(canAccept(), "dispatch into a busy protocol thread");
    if (handlers_.empty()) {
        busyStart_ = eq_->curTick();
        SMTP_TRACE_EVENT(trace_, eq_->curTick(),
                         trace::EventId::ProtoBusyBegin, 0);
    } else {
        ++lookAheadStarts;
    }
    SMTP_TRACE_EVENT(trace_, eq_->curTick(), trace::EventId::HandlerStart,
                     trace::packMsg(ctx->msg, ctx->msg.mshr));
    ++handlersStarted;
    handlers_.emplace_back();
    Handler &h = handlers_.back();
    h.ctx = ctx;
    convertTrace(h);
    cpu_->poke();
}

void
ProtocolThread::convertTrace(Handler &h)
{
    for (const auto &rec : h.ctx->trace.insts) {
        MicroOp op;
        op.pc = proto::protoCodeBase + 4ULL * rec.pc;
        op.token = h.ctx->id;
        auto rd = [&](std::uint8_t r) {
            return r == 0 ? regNone : r;
        };
        switch (rec.inst.op) {
          case POp::Nop:
            op.cls = OpClass::Nop;
            break;
          case POp::Popc:
          case POp::Ctz:
            if (!params_.bitAssistOps) {
                // Expand into a dependent ALU sequence: the cost of
                // lacking the special instructions (Section 2.1).
                for (unsigned k = 0;
                     k + 1 < params_.bitAssistExpansion; ++k) {
                    MicroOp x;
                    x.pc = op.pc;
                    x.token = op.token;
                    x.cls = OpClass::IntAlu;
                    x.dest = rd(rec.inst.rd);
                    x.src1 = k == 0 ? rec.inst.rs1 : rd(rec.inst.rd);
                    h.ops.push_back(x);
                }
            }
            op.cls = OpClass::IntAlu;
            op.dest = rd(rec.inst.rd);
            op.src1 = params_.bitAssistOps ? rec.inst.rs1
                                           : rd(rec.inst.rd);
            break;
          case POp::Add: case POp::Addi: case POp::Sub: case POp::And:
          case POp::Andi: case POp::Or: case POp::Ori: case POp::Xor:
          case POp::Xori: case POp::Sll: case POp::Srl: case POp::Sllv:
          case POp::Srlv: case POp::Sltu: case POp::Sltiu: case POp::Lui:
          case POp::Dira:
            op.cls = OpClass::IntAlu;
            op.dest = rd(rec.inst.rd);
            op.src1 = rec.inst.rs1;
            op.src2 = rec.inst.rs2;
            break;
          case POp::Ld:
            op.cls = OpClass::PLoad;
            op.dest = rd(rec.inst.rd);
            op.src1 = rec.inst.rs1;
            op.effAddr = rec.memAddr;
            op.memBytes = rec.inst.memBytes;
            break;
          case POp::St:
            op.cls = OpClass::PStore;
            op.src1 = rec.inst.rs1;
            op.src2 = rec.inst.rs2;
            op.effAddr = rec.memAddr;
            op.memBytes = rec.inst.memBytes;
            break;
          case POp::Beq:
          case POp::Bne:
          case POp::J:
            op.cls = OpClass::Branch;
            op.isCondBranch = rec.inst.op != POp::J;
            op.src1 = rec.inst.rs1;
            op.src2 = rec.inst.rs2;
            op.taken = rec.branchTaken;
            op.target =
                rec.branchTaken
                    ? proto::protoCodeBase +
                          4ULL * static_cast<std::uint64_t>(rec.inst.imm)
                    : op.pc + 4;
            break;
          case POp::SendH:
            op.cls = OpClass::PSendH;
            op.src1 = rec.inst.rs2;
            break;
          case POp::SendG:
            op.cls = OpClass::PSendG;
            op.src1 = rec.inst.rs1;
            op.sendIdx = rec.sendIdx;
            break;
          case POp::Switch:
            op.cls = OpClass::PSwitch;
            op.dest = rd(rec.inst.rd);
            break;
          case POp::Ldctxt:
            op.cls = OpClass::PLdctxt;
            op.dest = rd(rec.inst.rd);
            op.endOfHandler = true;
            break;
          case POp::Ldprobe:
            op.cls = OpClass::PLdprobe;
            op.dest = rd(rec.inst.rd);
            break;
        }
        h.ops.push_back(op);
    }
    SMTP_ASSERT(!h.ops.empty() && h.ops.back().endOfHandler,
                "handler trace must end in ldctxt");
}

bool
ProtocolThread::hasNext()
{
    for (const auto &h : handlers_) {
        if (!h.fullyFetched())
            return true;
    }
    return false;
}

const MicroOp &
ProtocolThread::peek()
{
    for (auto &h : handlers_) {
        if (!h.fullyFetched())
            return h.ops[h.fetchIdx];
    }
    SMTP_PANIC("peek with no protocol micro-ops pending");
}

void
ProtocolThread::consume()
{
    for (auto &h : handlers_) {
        if (!h.fullyFetched()) {
            ++h.fetchIdx;
            ++opsSupplied;
            if (h.fullyFetched()) {
                // PPCV cleared by the ldctxt quick-compare; the memory
                // controller may now dispatch into the LAS slot.
                mc_->agentPoke();
            }
            return;
        }
    }
    SMTP_PANIC("consume with no protocol micro-ops pending");
}

template <class Ar>
void
ProtocolThread::io(Ar &ar)
{
    ar.seq(handlers_, 16, [this](Ar &a, Handler &h) {
        std::uint64_t id = h.ctx != nullptr ? h.ctx->id : 0;
        std::uint64_t fetch_idx = h.fetchIdx;
        a.u64(id);
        a.u64(fetch_idx);
        if constexpr (Ar::loading) {
            h.ctx = mc_->ctxById(id);
            if (h.ctx == nullptr) {
                a.fail("corrupt snapshot: protocol thread references an "
                       "unknown transaction");
                return;
            }
            convertTrace(h);
            if (fetch_idx > h.ops.size()) {
                a.fail("corrupt snapshot: handler fetch cursor out of "
                       "range");
                return;
            }
            h.fetchIdx = fetch_idx;
        }
    });
    ar.u64(busyTicks_);
    ar.u64(busyStart_);
    ar.obj(handlersStarted, lookAheadStarts, opsSupplied);
}

template void ProtocolThread::io(snap::Ser &);
template void ProtocolThread::io(snap::Des &);

TransactionCtx *
ProtocolThread::ctxForToken(std::uint64_t token)
{
    for (auto &h : handlers_) {
        if (h.ctx->id == token)
            return h.ctx;
    }
    SMTP_PANIC("protocol op references a dead handler");
}

void
ProtocolThread::onSendG(const MicroOp &op)
{
    SMTP_ASSERT(op.sendIdx >= 0, "sendg without send record");
    mc_->releaseSend(ctxForToken(op.token),
                     static_cast<unsigned>(op.sendIdx));
}

Tick
ProtocolThread::probeReadyAt(const MicroOp &op)
{
    return mc_->probeReadyTick(ctxForToken(op.token));
}

void
ProtocolThread::onLdctxtRetired(const MicroOp &op)
{
    SMTP_ASSERT(!handlers_.empty() &&
                    handlers_.front().ctx->id == op.token,
                "handlers must retire in dispatch order");
    TransactionCtx *ctx = handlers_.front().ctx;
    handlers_.pop_front();
    SMTP_TRACE_EVENT(trace_, eq_->curTick(), trace::EventId::HandlerRetire,
                     trace::packMsg(ctx->msg, ctx->msg.mshr));
    if (handlers_.empty()) {
        busyTicks_ += eq_->curTick() - busyStart_;
        SMTP_TRACE_EVENT(trace_, eq_->curTick(),
                         trace::EventId::ProtoBusyEnd, 0);
    }
    mc_->handlerDone(ctx);
}

} // namespace smtp
