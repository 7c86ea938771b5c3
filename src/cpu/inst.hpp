/**
 * @file
 * Micro-operation and dynamic-instruction definitions for the SMT
 * pipeline.
 *
 * The pipeline consumes MicroOps from per-thread InstSources: workload
 * generators for application threads and (under SMTp) the protocol
 * thread's handler traces. A MicroOp carries its *resolved* outcome
 * (branch direction/target, effective address) because smtp-sim executes
 * functionally at generation time and replays for timing; the pipeline
 * still predicts, mis-speculates, squashes and replays against those
 * outcomes (DESIGN.md substitution 2).
 */

#ifndef SMTP_CPU_INST_HPP
#define SMTP_CPU_INST_HPP

#include <cstdint>

#include "common/types.hpp"
#include "snap/snap.hpp"

namespace smtp
{

enum class OpClass : std::uint8_t
{
    Nop,
    IntAlu,   ///< 1 cycle.
    IntMul,   ///< 6 cycles (R10000).
    IntDiv,   ///< 35 cycles.
    FpAdd,    ///< 2 cycles.
    FpMul,    ///< 1 cycle, fully pipelined (paper Table 2).
    FpDiv,    ///< 12 (SP) / 19 (DP); we model DP.
    Load,
    Store,
    Prefetch,    ///< Non-binding shared prefetch (hint).
    PrefetchEx,  ///< Prefetch-exclusive.
    Branch,
    // Protocol thread micro-ops (SMTp).
    PLoad,    ///< Protocol-space load through the shared caches.
    PStore,
    PSendH,   ///< Uncached store staging the outgoing header.
    PSendG,   ///< Uncached store firing the send; non-speculative.
    PSwitch,  ///< Uncached load of the next request's header.
    PLdctxt,  ///< Uncached load of the next address; ends the handler.
    PLdprobe, ///< Uncached load of the L2 probe outcome.
};

constexpr bool
isMemOp(OpClass c)
{
    switch (c) {
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::Prefetch:
      case OpClass::PrefetchEx:
      case OpClass::PLoad:
      case OpClass::PStore:
        return true;
      default:
        return false;
    }
}

/** Uncached protocol operations with side effects: execute at retire. */
constexpr bool
isNonSpeculative(OpClass c)
{
    switch (c) {
      case OpClass::PSendH:
      case OpClass::PSendG:
      case OpClass::PSwitch:
      case OpClass::PLdctxt:
      case OpClass::PLdprobe:
        return true;
      default:
        return false;
    }
}

constexpr bool
isFpOp(OpClass c)
{
    return c == OpClass::FpAdd || c == OpClass::FpMul ||
           c == OpClass::FpDiv;
}

/** Logical register identifiers: 0-31 integer, 32-63 floating point. */
constexpr std::uint8_t regNone = 0xff;
constexpr std::uint8_t fpRegBase = 32;
constexpr unsigned numLogicalRegs = 64;

constexpr bool
isFpReg(std::uint8_t r)
{
    return r != regNone && r >= fpRegBase;
}

struct MicroOp
{
    std::uint64_t pc = 0;
    OpClass cls = OpClass::Nop;
    std::uint8_t src1 = regNone;
    std::uint8_t src2 = regNone;
    std::uint8_t dest = regNone;

    Addr effAddr = invalidAddr;   ///< Memory ops.
    std::uint8_t memBytes = 8;

    // Branch semantics (cls == Branch).
    bool isCondBranch = false;
    bool isCall = false;
    bool isReturn = false;
    bool taken = false;           ///< Resolved direction.
    std::uint64_t target = 0;     ///< Resolved target.

    // Protocol plumbing.
    std::int32_t sendIdx = -1;    ///< PSendG: index into the trace sends.
    bool endOfHandler = false;    ///< PLdctxt.

    std::uint64_t token = 0;      ///< Source-private bookkeeping.

    /** In-flight micro-ops survive checkpoints. */
    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u64(pc);
        ar.u8(cls, OpClass::PLdprobe,
              "corrupt snapshot: op class out of range");
        ar.u8(src1);
        ar.u8(src2);
        ar.u8(dest);
        ar.u64(effAddr);
        ar.u8(memBytes);
        ar.b(isCondBranch);
        ar.b(isCall);
        ar.b(isReturn);
        ar.b(taken);
        ar.u64(target);
        ar.u32(sendIdx);
        ar.b(endOfHandler);
        ar.u64(token);
    }
};

/**
 * Per-thread instruction supplier. The pipeline peeks the next
 * correct-path micro-op, decides what the front end does with it, and
 * consumes it once fetched. Sources are never rewound: on a mispredicted
 * branch the pipeline synthesizes wrong-path micro-ops internally and
 * resumes consuming after recovery.
 */
class InstSource
{
  public:
    virtual ~InstSource() = default;

    /** Is a micro-op available right now? (May pump a generator.) */
    virtual bool hasNext() = 0;

    /** The next micro-op; stable until consume(). */
    virtual const MicroOp &peek() = 0;

    virtual void consume() = 0;

    /** The thread has terminated (never supplies again). */
    virtual bool finished() = 0;

    /**
     * Buffered mode (sharded execution): the source must not generate
     * new micro-ops from inside hasNext()/peek() — generation mutates
     * shared workload state (functional memory, sync primitives) and is
     * only legal in the single-threaded barrier phase, via refill().
     * Sources without generator state ignore both hooks.
     */
    virtual void setBuffered(bool) {}

    /** Barrier-phase top-up to roughly @p target buffered micro-ops. */
    virtual void refill(std::size_t) {}

    /**
     * Barrier-phase clock: the machine publishes the current tick before
     * each refill so generators can stamp work items (request birth /
     * retire times) at window granularity. Ignored by sources without
     * generator state.
     */
    virtual void setNow(Tick) {}
};

} // namespace smtp

#endif // SMTP_CPU_INST_HPP
