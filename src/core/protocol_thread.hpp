/**
 * @file
 * The SMTp protocol thread (the paper's core contribution, Section 2).
 *
 * Implements ProtocolAgent by turning each dispatched handler trace into
 * a stream of micro-ops fetched by the protocol context of the main SMT
 * pipeline, and InstSource as that stream:
 *
 *  - PPCV ("Protocol PC Valid"): hasNext() is true exactly while a
 *    dispatched handler still has unfetched micro-ops; fetching the
 *    trailing `ldctxt` clears it (the fetcher's quick-compare logic);
 *  - handler dispatch: without Look-Ahead Scheduling the next handler's
 *    PC is handed out only after the previous handler's `ldctxt`
 *    graduates; with LAS (Section 2.3) it is handed out as soon as the
 *    previous handler has finished *fetching*, allowing two handlers in
 *    the pipe (one look-ahead handler);
 *  - the uncached operations execute non-speculatively at the head of
 *    the active list: `sendg` releases its message, `ldprobe` waits for
 *    the dispatch unit's L2 probe, and `ldctxt` completes the handler;
 *  - the special bit-manipulation ALU instructions can be disabled, in
 *    which case each popcount/ctz expands into a short dependent ALU
 *    sequence (the Section 2.1 ablation).
 */

#ifndef SMTP_CORE_PROTOCOL_THREAD_HPP
#define SMTP_CORE_PROTOCOL_THREAD_HPP

#include <deque>
#include <vector>

#include "cpu/smt_cpu.hpp"
#include "mem/agent.hpp"
#include "mem/controller.hpp"

namespace smtp
{

struct ProtocolThreadParams
{
    bool lookAheadScheduling = true;
    bool bitAssistOps = true;
    unsigned bitAssistExpansion = 4;
};

class ProtocolThread : public ProtocolAgent, public InstSource
{
  public:
    ProtocolThread(EventQueue &eq, SmtCpu &cpu, MemController &mc,
                   const ProtocolThreadParams &params);

    // ---- ProtocolAgent ----------------------------------------------

    bool canAccept() const override;
    void start(TransactionCtx *ctx) override;
    Tick busyTicks() const override { return busyTicks_; }

    // ---- InstSource (the protocol context's fetch stream) ------------

    bool hasNext() override;
    const MicroOp &peek() override;
    void consume() override;
    bool finished() override { return false; }

    /** Attach the node's protocol telemetry buffer. */
    void setTrace(trace::TraceBuffer *buf) { trace_ = buf; }

    // ---- Snapshot support --------------------------------------------
    //
    // Handlers are re-derived from their (serialized) transaction
    // contexts: convertTrace is a pure function of the trace, so only
    // the ctx id and the fetch cursor persist. No events to register —
    // the protocol thread schedules nothing itself.

    template <class Ar> void io(Ar &ar);

    // ---- Stats --------------------------------------------------------

    Counter handlersStarted;
    Counter lookAheadStarts;  ///< Handlers dispatched into the LAS slot.
    Counter opsSupplied;

  private:
    struct Handler
    {
        TransactionCtx *ctx = nullptr;
        std::vector<MicroOp> ops;
        std::size_t fetchIdx = 0;

        bool fullyFetched() const { return fetchIdx >= ops.size(); }
    };

    void convertTrace(Handler &h);

    // CPU hook targets.
    void onSendG(const MicroOp &op);
    Tick probeReadyAt(const MicroOp &op);
    void onLdctxtRetired(const MicroOp &op);

    TransactionCtx *ctxForToken(std::uint64_t token);

    EventQueue *eq_;
    SmtCpu *cpu_;
    MemController *mc_;
    ProtocolThreadParams params_;

    std::deque<Handler> handlers_; ///< Front = oldest (executing) handler.
    trace::TraceBuffer *trace_ = nullptr;
    Tick busyTicks_ = 0;
    Tick busyStart_ = 0;
};

} // namespace smtp

#endif // SMTP_CORE_PROTOCOL_THREAD_HPP
