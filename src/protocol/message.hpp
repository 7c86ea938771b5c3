/**
 * @file
 * Coherence transaction vocabulary.
 *
 * Every unit of work the machine moves around — processor-interface
 * requests queued at the Local Miss Interface, network transactions, and
 * controller-to-cache commands — is a Message. The directory protocol is
 * the home-based bitvector invalidation protocol of the SGI Origin 2000
 * family with eager-exclusive replies (paper Section 3): requests go to
 * the home, dirty data is forwarded three-hop from the owner, and
 * invalidation acknowledgements are collected at the requester.
 */

#ifndef SMTP_PROTOCOL_MESSAGE_HPP
#define SMTP_PROTOCOL_MESSAGE_HPP

#include <cstdint>
#include <initializer_list>
#include <string_view>

#include "common/types.hpp"
#include "snap/snap.hpp"

namespace smtp::proto
{

/**
 * Message types. The Pi group originates from the local cache hierarchy
 * (through the Local Miss Interface), the Req/Fwd/Rpl groups travel on
 * the network, and the Cc group holds commands from the controller back
 * into the cache hierarchy.
 */
enum class MsgType : std::uint8_t
{
    // Processor interface (local L2 miss / writeback) -> handler. The
    // dispatch unit indexes separate handlers for locally- vs
    // remotely-homed addresses (FLASH-style dispatch tables), so the
    // handlers themselves carry no home-test branch.
    PiGet,          ///< Load miss, remote home.
    PiGetx,         ///< Store miss needing exclusive ownership, remote.
    PiUpgrade,      ///< Store hit on a Shared line, remote home.
    PiPut,          ///< Dirty writeback (carries data), remote home.
    PiPutClean,     ///< Clean-exclusive eviction notice, remote home.
    PiGetLocal,     ///< Load miss homed at this node.
    PiGetxLocal,
    PiUpgradeLocal,
    PiPutLocal,
    PiPutCleanLocal,

    // Requests on the network (requester -> home), vnet 0.
    ReqGet,
    ReqGetx,
    ReqUpgrade,
    ReqPut,         ///< Dirty writeback to home (carries data).
    ReqPutClean,

    // Forwarded interventions (home -> owner/sharer), vnet 1.
    FwdIntervSh,    ///< Downgrade owner, forward data to requester.
    FwdIntervEx,    ///< Invalidate owner, transfer ownership to requester.
    FwdInval,       ///< Invalidate a sharer; ack goes to the requester.

    // Replies, vnet 2.
    RplDataSh,      ///< Shared data reply (carries data).
    RplDataEx,      ///< Exclusive data reply (carries data + ack count).
    RplUpgradeAck,  ///< Upgrade granted (ack count, no data).
    RplInvalAck,    ///< Invalidation ack, sharer -> requester.
    RplNak,         ///< Home busy; requester must retry.
    RplSharingWb,   ///< Owner -> home after FwdIntervSh (carries data).
    RplOwnershipXfer, ///< Owner -> home after FwdIntervEx (no data).
    RplIntervMiss,  ///< Owner no longer had the line (writeback race).
    RplWbAck,       ///< Home -> writer: writeback accepted, no race.
    RplWbBusyAck,   ///< Writeback consumed by a racing transaction; a
                    ///< stale intervention is still chasing the writer.

    // Controller -> local cache hierarchy commands.
    CcFillSh,       ///< Complete an MSHR with Shared permission.
    CcFillEx,       ///< Complete an MSHR with Exclusive permission.
    CcUpgradeGrant, ///< Upgrade an existing Shared line to Exclusive.
    CcInval,        ///< Probe: invalidate the line (if present).
    CcIntervSh,     ///< Probe: downgrade to Shared, yield data.
    CcIntervEx,     ///< Probe: invalidate, yield data.

    NumTypes
};

constexpr unsigned numMsgTypes = static_cast<unsigned>(MsgType::NumTypes);

/** Virtual networks (paper Table 3: 4 vnets, protocol uses 3). */
enum VirtualNet : std::uint8_t
{
    vnetRequest = 0,
    vnetForward = 1,
    vnetReply = 2,
    vnetIo = 3,     ///< Reserved for I/O; unused by the coherence protocol.
    numVnets = 4,
};

/** Header flag bits (mirrored into the protocol-visible header word). */
enum HeaderFlags : std::uint8_t
{
    flagHomeLocal = 0x1,   ///< Transaction address is homed at this node.
    flagDataCarried = 0x2, ///< Message arrived with a cache line of data.
    flagPrefetch = 0x4,    ///< Non-blocking prefetch request.
    /**
     * Link-layer duplicate (fault injection): this copy carries a
     * repeated link sequence number and is filtered at the landing
     * buffer before the NI — protocol handlers never see the flag.
     */
    flagLinkDup = 0x8,
};

struct Message
{
    MsgType type = MsgType::PiGet;
    Addr addr = invalidAddr;      ///< Coherence-line-aligned address.
    NodeId src = invalidNode;     ///< Sender of this message.
    NodeId dest = invalidNode;    ///< Destination node.
    NodeId requester = invalidNode; ///< Original requester of the transaction.
    std::uint8_t mshr = 0;        ///< Requester-side MSHR id (echoed around).
    std::uint16_t ackCount = 0;   ///< Invalidation acks the requester expects.
    std::uint8_t flags = 0;       ///< HeaderFlags.
    std::uint32_t traceId = 0;    ///< Telemetry id stamped at injection;
                                  ///< 0 = untraced. Fits the tail padding,
                                  ///< so sizeof(Message) is unchanged.
    /**
     * Requester barrier-phase epoch at issue time (phase-priority
     * protocol). Stamped on request-class messages by the requester's
     * controller and preserved across NAK retries, so an old request
     * keeps its age. 0 under protocols that don't use it.
     */
    std::uint32_t phase = 0;

    bool
    carriesData() const
    {
        return flags & flagDataCarried;
    }

    /**
     * Snapshot encoding, field by field: struct padding never reaches
     * the file, so snapshots of equal states are byte-equal.
     */
    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u8(type, numMsgTypes - 1,
              "corrupt snapshot: message type out of range");
        ar.u64(addr);
        ar.u16(src);
        ar.u16(dest);
        ar.u16(requester);
        if constexpr (Ar::loading) {
            // An idle (default-constructed) message names no node;
            // any other names only nodes of this machine.
            if (src != invalidNode || dest != invalidNode ||
                requester != invalidNode) {
                for (NodeId n : {src, dest, requester})
                    ar.checkNode(n, "corrupt snapshot: network message "
                                    "for an unknown node");
            }
        }
        ar.u8(mshr);
        ar.u16(ackCount);
        ar.u8(flags);
        ar.u32(traceId);
        ar.u32(phase);
    }
};

/** Does this message type inherently carry a full coherence line? */
constexpr bool
typeCarriesData(MsgType t)
{
    switch (t) {
      case MsgType::PiPut:
      case MsgType::PiPutLocal:
      case MsgType::ReqPut:
      case MsgType::RplDataSh:
      case MsgType::RplDataEx:
      case MsgType::RplSharingWb:
      case MsgType::CcFillSh:
      case MsgType::CcFillEx:
        return true;
      default:
        return false;
    }
}

/** Network message header size; data messages add one coherence line. */
constexpr unsigned msgHeaderBytes = 16;

constexpr unsigned
msgBytes(MsgType t)
{
    return msgHeaderBytes + (typeCarriesData(t) ? l2LineBytes : 0);
}

/** Virtual network assignment; deadlock freedom needs req < fwd < reply. */
constexpr VirtualNet
vnetOf(MsgType t)
{
    switch (t) {
      case MsgType::ReqGet:
      case MsgType::ReqGetx:
      case MsgType::ReqUpgrade:
      case MsgType::ReqPut:
      case MsgType::ReqPutClean:
        return vnetRequest;
      case MsgType::FwdIntervSh:
      case MsgType::FwdIntervEx:
      case MsgType::FwdInval:
        return vnetForward;
      default:
        return vnetReply;
    }
}

/** Does the dispatch unit start a speculative SDRAM read for this type? */
constexpr bool
expectsMemoryData(MsgType t)
{
    switch (t) {
      case MsgType::PiGetLocal:
      case MsgType::PiGetxLocal:
      case MsgType::ReqGet:
      case MsgType::ReqGetx:
        return true;
      default:
        return false;
    }
}

/** The locally-homed dispatch-table variant of a Pi request. */
constexpr MsgType
localPiVariant(MsgType t)
{
    switch (t) {
      case MsgType::PiGet: return MsgType::PiGetLocal;
      case MsgType::PiGetx: return MsgType::PiGetxLocal;
      case MsgType::PiUpgrade: return MsgType::PiUpgradeLocal;
      case MsgType::PiPut: return MsgType::PiPutLocal;
      case MsgType::PiPutClean: return MsgType::PiPutCleanLocal;
      default: return t;
    }
}

std::string_view msgTypeName(MsgType t);

/**
 * Pack the fields the protocol handler reads into the 64-bit header
 * word returned by the `switch` instruction:
 *   [7:0] type, [15:8] src, [23:16] requester, [31:24] mshr,
 *   [47:32] ackCount, [55:48] flags.
 */
constexpr std::uint64_t
packHeader(const Message &m)
{
    return static_cast<std::uint64_t>(m.type) |
           (static_cast<std::uint64_t>(m.src & 0xff) << 8) |
           (static_cast<std::uint64_t>(m.requester & 0xff) << 16) |
           (static_cast<std::uint64_t>(m.mshr) << 24) |
           (static_cast<std::uint64_t>(m.ackCount) << 32) |
           (static_cast<std::uint64_t>(m.flags) << 48);
}

constexpr std::uint8_t headerTypeShift = 0;
constexpr std::uint8_t headerSrcShift = 8;
constexpr std::uint8_t headerRequesterShift = 16;
constexpr std::uint8_t headerMshrShift = 24;
constexpr std::uint8_t headerAckShift = 32;
constexpr std::uint8_t headerFlagsShift = 48;

} // namespace smtp::proto

#endif // SMTP_PROTOCOL_MESSAGE_HPP
