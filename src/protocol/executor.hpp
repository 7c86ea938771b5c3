/**
 * @file
 * Functional executor for protocol handler programs.
 *
 * A handler's architectural effects (directory reads/writes, pending-
 * table bookkeeping, outgoing messages) are computed here, at dispatch
 * time, against the node's protocol state. The executor returns a
 * HandlerTrace — the exact dynamic instruction sequence — which the two
 * timing models replay: the SMTp protocol thread injects it into the
 * out-of-order pipeline as micro-ops, and the embedded dual-issue
 * protocol processor charges its own pipeline/cache timing over it.
 * Message sends recorded in the trace are *released* by the timing model
 * when the corresponding SendG instruction executes non-speculatively.
 *
 * Handlers at one node are serialized (a single protocol thread/PP per
 * node), so executing them functionally in dispatch order is exactly the
 * architectural order.
 */

#ifndef SMTP_PROTOCOL_EXECUTOR_HPP
#define SMTP_PROTOCOL_EXECUTOR_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "protocol/directory.hpp"
#include "protocol/isa.hpp"
#include "protocol/message.hpp"
#include "snap/snap.hpp"

namespace smtp::proto
{

/**
 * Services the executor needs from the surrounding node. Implemented by
 * the memory controller (production) and by mock harnesses (tests).
 */
class ExecEnv
{
  public:
    virtual ~ExecEnv() = default;

    /** Protocol data space access (directory, pending table, scratch). */
    virtual std::uint64_t protoLoad(Addr a, unsigned bytes) = 0;
    virtual void protoStore(Addr a, std::uint64_t v, unsigned bytes) = 0;

    /** The Dira instruction: directory entry address for a line. */
    virtual Addr dirAddrOf(Addr line_addr) = 0;

    /** Home node of a line (used to route by-address sends). */
    virtual NodeId homeOf(Addr line_addr) = 0;

    /**
     * Result of the architectural L2 probe launched by the dispatch unit
     * for forwarded interventions. Bit 0: line was present with
     * ownership (hit); bit 1: it was dirty.
     */
    virtual std::uint64_t probeResult() = 0;
};

/** One recorded outgoing message. */
struct SendRec
{
    Message msg;
    DataSrc dataSrc;
    SendTarget target;
    bool delayed;       ///< NAK-retry backoff requested by the handler.

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.obj(msg);
        ar.u8(dataSrc, DataSrc::Buffer,
              "corrupt snapshot: send record out of range");
        ar.u8(target, SendTarget::MemWrite,
              "corrupt snapshot: send record out of range");
        ar.b(delayed);
    }
};

/** One dynamically executed protocol instruction. */
struct ExecInst
{
    std::uint32_t pc;           ///< Instruction index in the image.
    PInst inst;
    Addr memAddr = invalidAddr; ///< Effective address for Ld/St.
    bool branchTaken = false;
    std::int32_t sendIdx = -1;  ///< Into HandlerTrace::sends for SendG.

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u32(pc);
        ar.obj(inst);
        ar.u64(memAddr);
        ar.b(branchTaken);
        ar.u32(sendIdx);
    }
};

/** The dynamic trace of one handler; in-flight ones survive checkpoints. */
struct HandlerTrace
{
    std::vector<ExecInst> insts;
    std::vector<SendRec> sends;
    bool usedProbe = false;

    template <class Ar>
    void
    io(Ar &ar)
    {
        auto each = [](Ar &a, auto &e) { e.io(a); };
        ar.seq(insts, 20, each);
        ar.seq(sends, 8, each);
        ar.b(usedProbe);
    }
};

class Executor
{
  public:
    Executor(const HandlerImage &image, ExecEnv &env)
        : image_(&image), env_(&env)
    {
    }

    /** Protocol boot sequence: initialise the persistent registers. */
    void boot(NodeId self);

    /**
     * Run the handler for message @p m to completion (through its
     * `switch; ldctxt` epilogue) and return the dynamic trace.
     */
    HandlerTrace run(const Message &m);

    /** Register file inspection, for tests. */
    std::uint64_t reg(unsigned idx) const { return regs_[idx]; }

    /** The persistent register file is the executor's only mutable state. */
    template <class Ar>
    void
    io(Ar &ar)
    {
        for (std::uint64_t &r : regs_)
            ar.u64(r);
    }

    const HandlerImage &image() const { return *image_; }

  private:
    static constexpr unsigned maxSteps = 4096;

    const HandlerImage *image_;
    ExecEnv *env_;
    std::uint64_t regs_[numPRegs] = {};
    NodeId self_ = invalidNode;
};

} // namespace smtp::proto

#endif // SMTP_PROTOCOL_EXECUTOR_HPP
