/**
 * @file
 * Serializable-event machinery.
 *
 * Closures cannot be serialized, so every callback that can be *stored*
 * across a snapshot point — event-queue entries, MSHR waiter lists,
 * pending protocol completions — is a named functor struct with
 *
 *   static constexpr std::uint32_t kSnapId = snap::ev...;
 *   void operator()() const;              // the behaviour
 *   void snapEncode(snap::Ser &) const;   // POD payload (uids, msgs)
 *
 * InlineCallback detects kSnapId/snapEncode and exposes them through
 * its vtable; EventCodec maps the ids back to decoders registered by
 * Machine::restore against the freshly constructed component graph.
 * Saving a machine whose queues hold a *non*-snappable callback fails
 * loudly — silent state loss is the one bug a checkpoint subsystem must
 * never have.
 */

#ifndef SMTP_SNAP_EVENT_CODEC_HPP
#define SMTP_SNAP_EVENT_CODEC_HPP

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/log.hpp"
#include "sim/inline_callback.hpp"
#include "snap/snap.hpp"

namespace smtp::snap
{

/**
 * Stable event-kind ids (part of the snapshot format; append-only —
 * renumbering is a format version bump).
 */
enum EventId : std::uint32_t
{
    evNull = 0, ///< Empty InlineCallback.

    // Network.
    evNetLand = 1,
    evNetHop = 2,
    evNetRetry = 3,

    // Cache hierarchy.
    evCacheDrainOutQ = 10,
    evCacheBypassFill = 11,

    // Memory controller.
    evMcPoke = 20,
    evMcDispatchPoll = 21,
    evMcCtxMemDone = 22,
    evMcDeliverLocal = 23,
    evMcNetDeliver = 24,
    evMcDrainNiOut = 25,
    evMcPendingSend = 26,
    evMcBypassDone = 27,
    evMcMemWrite = 28,

    // SMT CPU.
    evCpuTick = 40,
    evCpuCompleteInst = 41,
    evCpuFetchDone = 42,
    evCpuLoadStages = 43,
    evCpuTlbRetry = 44,
    evCpuSbDrain = 45,
    evCpuProtoSbDrain = 46,
    evCpuLoadFill = 47,
    evCpuStoreFill = 48,
    evCpuIFill = 49,
    evCpuExecDone = 50,

    // Protocol engine (embedded PP models).
    evPeIcacheFill = 60,
    evPeDcacheFill = 61,
    evPeSendRelease = 62,
    evPeHandlerDone = 63,

    // Machine-level (re-armed, not replayed, on restore).
    evWatchdog = 80,
};

/**
 * Decoder registry: Machine::restore registers one decoder per event
 * kind, closed over the freshly constructed component graph, and hands
 * it to every section's Des, whose cb() decodes the event queue's and
 * every waiter list's callbacks through it.
 */
class EventCodec
{
  public:
    using Decoder = std::function<InlineCallback(Des &)>;

    void
    add(std::uint32_t id, Decoder d)
    {
        decoders_[id] = std::move(d);
    }

    /** Read one id + payload back into a live callback. */
    InlineCallback
    decode(Des &in) const
    {
        std::uint32_t id = in.u32();
        if (!in.ok() || id == evNull)
            return {};
        auto it = decoders_.find(id);
        if (it == decoders_.end()) {
            in.fail("no decoder for event kind " + std::to_string(id));
            return {};
        }
        return it->second(in);
    }

  private:
    std::unordered_map<std::uint32_t, Decoder> decoders_;
};

/**
 * Write @p c as id + payload. Fatal on a non-snappable callback: that
 * is a missing conversion at a schedule site, a programming error,
 * never a data error.
 */
inline void
Ser::cb(const InlineCallback &c)
{
    if (!c) {
        u32(evNull);
        return;
    }
    std::uint32_t id = c.snapId();
    SMTP_ASSERT(id != evNull,
                "cannot snapshot: a pending callback has no snap "
                "id (unconverted schedule site)");
    u32(id);
    c.snapEncode(*this);
}

inline void
Des::cb(InlineCallback &c)
{
    SMTP_ASSERT(codec_ != nullptr, "decoding a callback without a codec");
    c = codec_->decode(*this);
}

} // namespace smtp::snap

#endif // SMTP_SNAP_EVENT_CODEC_HPP
