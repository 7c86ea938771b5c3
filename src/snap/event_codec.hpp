/**
 * @file
 * Serializable-event machinery.
 *
 * Closures cannot be serialized, so every callback that can be *stored*
 * across a snapshot point — event-queue entries, MSHR waiter lists,
 * pending protocol completions — is a named functor struct that, like
 * any component, describes its payload once:
 *
 *   static constexpr std::uint32_t kSnapId = snap::ev...;
 *   void operator()() const;               // the behaviour
 *   template <class Ar> void io(Ar &ar);   // owner, then payload
 *
 * io() names the component the event acts on with ar.owner(ptr, why)
 * (snap/snap.hpp): saving writes its node id, restoring resolves the id
 * through the owner resolvers EventCodec carries for the freshly built
 * machine. Fields that restore derives (a DynInst pointer from its uid)
 * and the range checks a hostile payload must fail live in
 * `if constexpr (Ar::loading)` blocks.
 *
 * InlineCallback detects kSnapId and encodes through io(Ser &);
 * Machine::restore registers every event type plus one resolver per
 * owner type, and the codec decodes an id by default-constructing that
 * type and running io(Des &). Saving a machine whose queues hold a
 * *non*-snappable callback fails loudly — silent state loss is the one
 * bug a checkpoint subsystem must never have.
 */

#ifndef SMTP_SNAP_EVENT_CODEC_HPP
#define SMTP_SNAP_EVENT_CODEC_HPP

#include <cstdint>
#include <functional>
#include <typeindex>
#include <unordered_map>

#include "common/log.hpp"
#include "common/types.hpp"
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
    evCpuFetchDone = 42,
    evCpuTlbRetry = 44,
    evCpuSbDrain = 45,
    evCpuProtoSbDrain = 46,
    evCpuLoadFill = 47,
    // 41 (per-instruction completions, now the CPU's completion
    // calendar), 43, 48, 49 and 50 are retired: never reuse them.

    // Protocol engine (embedded PP models).
    evPeIcacheFill = 60,
    evPeDcacheFill = 61,
    evPeSendRelease = 62,
    evPeHandlerDone = 63,

    // Machine-level (re-armed, not replayed, on restore).
    evWatchdog = 80,
};

/**
 * Decoder registry: Machine::restore registers every event type and one
 * owner resolver per component type against the freshly constructed
 * component graph, and hands the codec to every section's Des, whose
 * cb() decodes the event queue's and every waiter list's callbacks
 * through it. The codec also carries the machine's node count, so
 * Des::checkNode() can reject a node id wherever one is restored.
 */
class EventCodec
{
  public:
    /** Decode each type in @p Ev by its kSnapId. */
    template <typename... Ev>
    void
    add()
    {
        ((decoders_[Ev::kSnapId] = &decodeAs<Ev>), ...);
    }

    /**
     * Resolve event owners of type @p T: @p f maps a node id to the
     * component, nullptr for an unknown node. A machine-wide owner (no
     * nodeId(), see PerNodeOwner) is resolved with node 0.
     */
    template <typename T>
    void
    owner(std::function<T *(NodeId)> f)
    {
        owners_[typeid(T)] = [f = std::move(f)](NodeId n) -> void * {
            return f(n);
        };
    }

    /** The owner of type @p T on node @p n; nullptr when none. */
    template <typename T>
    T *
    resolve(NodeId n) const
    {
        auto it = owners_.find(typeid(T));
        return it == owners_.end() ? nullptr
                                   : static_cast<T *>(it->second(n));
    }

    /** Node count restored node ids must stay below (Des::checkNode). */
    unsigned numNodes = 0;

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
    template <typename Ev>
    static InlineCallback
    decodeAs(Des &in)
    {
        Ev ev{};
        ev.io(in);
        if (!in.ok())
            return {};
        return ev;
    }

    std::unordered_map<std::uint32_t, InlineCallback (*)(Des &)> decoders_;
    std::unordered_map<std::type_index, std::function<void *(NodeId)>>
        owners_;
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
    c.encode(*this);
}

inline void
Des::cb(InlineCallback &c)
{
    SMTP_ASSERT(codec_ != nullptr, "decoding a callback without a codec");
    if (cbDepth_ == maxCallbackNesting) {
        fail("corrupt snapshot: callback nesting too deep");
        c = nullptr;
        return;
    }
    ++cbDepth_;
    c = codec_->decode(*this);
    --cbDepth_;
}

inline void
Des::checkNode(std::uint32_t node, const char *why)
{
    SMTP_ASSERT(codec_ != nullptr, "checking a node id without a codec");
    if (ok() && node >= codec_->numNodes)
        fail(why);
}

template <typename T>
void
Des::owner(T *&p, const char *why)
{
    NodeId n = 0;
    if constexpr (PerNodeOwner<T>)
        n = u16();
    SMTP_ASSERT(codec_ != nullptr, "resolving an owner without a codec");
    p = ok() ? codec_->resolve<T>(n) : nullptr;
    if (p == nullptr)
        fail(why);
}

} // namespace smtp::snap

#endif // SMTP_SNAP_EVENT_CODEC_HPP
