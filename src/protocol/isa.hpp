/**
 * @file
 * The protocol instruction set.
 *
 * A small RISC ISA in which the coherence handlers are written. It is
 * deliberately MIPS-flavoured (the simulated processor ISA, paper
 * Section 3) plus the "special ALU instructions that carry out bit
 * manipulations common in protocol code" (popcount, count-trailing-
 * zeros) and the uncached operations of Section 2.1: `switch`, `ldctxt`,
 * `send` (modelled as its two uncached stores, SendH + SendG), and
 * `ldprobe`, which waits on the outcome of a cache probe launched by the
 * handler dispatch unit.
 *
 * The same handler image is executed by (a) the SMTp protocol thread on
 * the main out-of-order pipeline and (b) the embedded dual-issue
 * protocol processor of the non-SMTp machine models.
 */

#ifndef SMTP_PROTOCOL_ISA_HPP
#define SMTP_PROTOCOL_ISA_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "protocol/directory.hpp"
#include "protocol/message.hpp"

namespace smtp::proto
{

enum class POp : std::uint8_t
{
    Nop,
    // ALU register-register / register-immediate.
    Add, Addi, Sub, And, Andi, Or, Ori, Xor, Xori,
    Sll, Srl,      ///< Shift by immediate.
    Sllv, Srlv,    ///< Shift by register.
    Sltu, Sltiu,   ///< Set-if-less-than (unsigned).
    Popc, Ctz,     ///< The protocol bit-manipulation assists.
    Lui,           ///< Load upper immediate (imm << 32 here; 64-bit regs).
    // Memory (protocol data space: directory, pending table, scratch).
    Ld, St,
    // Control.
    Beq, Bne, J,
    // Special / uncached.
    Dira,          ///< rd = directory entry address of line address in rs1.
    SendH,         ///< Uncached store: stage outgoing header from rs2.
    SendG,         ///< Uncached store: stage dest from rs1 and fire.
    Switch,        ///< Uncached load: header of next request (stalls).
    Ldctxt,        ///< Uncached load: address of next request; completes
                   ///< the handler and hands control back to dispatch.
    Ldprobe,       ///< Uncached load: result of the outstanding L2 probe.
};

/** Where an outgoing message's data payload comes from (SendG immediate). */
enum class DataSrc : std::uint8_t
{
    None,      ///< Header-only message.
    Memory,    ///< SDRAM line fetched in parallel by the dispatch unit.
    Probe,     ///< Line yielded by the L2 probe of this transaction.
    Carried,   ///< Line that arrived with the incoming message.
    Buffer,    ///< Line staged earlier in the per-MSHR data buffer.
};

/** Where a SendG directs the message. */
enum class SendTarget : std::uint8_t
{
    Network,   ///< To the node in rs1 via the network interface.
    Local,     ///< To this node's cache hierarchy (fills, probes).
    MemWrite,  ///< Commit the carried data line to local SDRAM.
};

struct PInst
{
    POp op = POp::Nop;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::int64_t imm = 0;      ///< ALU immediate, memory offset, or
                               ///< branch/jump target (instruction index).
    std::uint8_t memBytes = 8; ///< Footprint of Ld/St (4 for dir entries).
    // SendG payload description.
    MsgType sendType = MsgType::PiGet;
    DataSrc dataSrc = DataSrc::None;
    SendTarget target = SendTarget::Network;
    bool toHome = false;   ///< Route to home(addr) instead of rs1's node.
    bool delayed = false;  ///< Apply the NAK-retry backoff before sending.

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u8(op, POp::Ldprobe,
              "corrupt snapshot: protocol opcode out of range");
        ar.u8(rd);
        ar.u8(rs1);
        ar.u8(rs2);
        ar.u64(imm);
        ar.u8(memBytes);
        const char *bad_send =
            "corrupt snapshot: send descriptor out of range";
        ar.u8(sendType, numMsgTypes - 1, bad_send);
        ar.u8(dataSrc, DataSrc::Buffer, bad_send);
        ar.u8(target, SendTarget::MemWrite, bad_send);
        ar.b(toHome);
        ar.b(delayed);
    }
};

/** Number of protocol logical registers (all kept mapped; Section 2.2). */
constexpr unsigned numPRegs = 32;

/** Conventional register assignments used by the handler programs. */
namespace preg
{
constexpr std::uint8_t zero = 0;   ///< Hardwired zero.
constexpr std::uint8_t hdr = 1;    ///< Header of the current request.
constexpr std::uint8_t addr = 2;   ///< Line address of the current request.
// r3..r15: handler scratch.
constexpr std::uint8_t t0 = 3, t1 = 4, t2 = 5, t3 = 6, t4 = 7, t5 = 8;
constexpr std::uint8_t t6 = 9, t7 = 10, t8 = 11, t9 = 12;
// Persistent environment, initialised by the protocol boot sequence.
constexpr std::uint8_t nodeId = 26;   ///< This node's id.
constexpr std::uint8_t nodeBit = 27;  ///< 1 << nodeId.
constexpr std::uint8_t pendBase = 28; ///< Pending-table base address.
constexpr std::uint8_t scratchBase = 29;
constexpr std::uint8_t one = 30;      ///< Constant 1.
constexpr std::uint8_t lineMask = 31; ///< ~(l2LineBytes - 1).
} // namespace preg

/**
 * A fully assembled handler image: the flat instruction array plus the
 * dispatch table mapping incoming message types to entry PCs.
 * PCs are instruction indices; the byte address of instruction i is
 * protoCodeBase + 4 * i (handlers share the L1 I-cache in SMTp).
 */
struct HandlerImage
{
    std::vector<PInst> code;
    std::uint32_t entry[numMsgTypes] = {};
    bool hasHandler[numMsgTypes] = {};

    Addr
    byteAddrOf(std::uint32_t pc) const
    {
        return protoCodeBase + 4ULL * pc;
    }
};

const char *popName(POp op);

/** One-line disassembly, for tests and the protocol_inspector example. */
std::string disassemble(const PInst &inst, std::uint32_t pc);

} // namespace smtp::proto

#endif // SMTP_PROTOCOL_ISA_HPP
