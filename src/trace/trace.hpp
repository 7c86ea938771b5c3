/**
 * @file
 * Always-on telemetry core: fixed-capacity, allocation-free binary ring
 * buffers of 16-byte trace events, owned per component, plus the
 * manager that creates them under a runtime category mask.
 *
 * Cost discipline (same contract as src/check's CheckLevel):
 *
 *  - disabled: components hold a null TraceBuffer pointer; each macro
 *    is one pointer test. No buffers, no memory.
 *  - enabled: recording is two stores into a preallocated ring. The
 *    simulation schedule is never touched — tracing on/off produces
 *    bit-identical timing.
 */

#ifndef SMTP_TRACE_TRACE_HPP
#define SMTP_TRACE_TRACE_HPP

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "snap/snap.hpp"
#include "trace/events.hpp"
#include "trace/interval.hpp"

#define SMTP_TRACE_EVENT(buf, tick, id, arg)                              \
    do {                                                                  \
        if ((buf) != nullptr)                                             \
            (buf)->record((tick), (id), (arg));                           \
    } while (0)

namespace smtp::trace
{

/**
 * Fixed-capacity event ring. Overwrites oldest on overflow; recorded()
 * keeps the true total so exporters can report drops.
 */
class TraceBuffer
{
  public:
    TraceBuffer(std::string name, NodeId node, Category category,
                std::size_t capacity)
        : name_(std::move(name)), node_(node), category_(category),
          ring_(capacity > 0 ? capacity : 1)
    {
    }

    void
    record(Tick tick, EventId id, std::uint64_t arg)
    {
        Event &e = ring_[head_];
        e.meta = makeMeta(tick, id);
        e.arg = arg;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        ++recorded_;
    }

    const std::string &name() const { return name_; }
    NodeId node() const { return node_; }
    Category category() const { return category_; }
    std::size_t capacity() const { return ring_.size(); }

    /** Events recorded over the run (>= stored => the ring wrapped). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events currently held. */
    std::size_t
    stored() const
    {
        return recorded_ < ring_.size()
                   ? static_cast<std::size_t>(recorded_)
                   : ring_.size();
    }

    /** Copy the stored events, oldest first, into @p out (appended). */
    void
    snapshot(std::vector<Event> &out) const
    {
        const std::size_t n = stored();
        const std::size_t start =
            recorded_ < ring_.size() ? 0 : head_;
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(ring_[(start + i) % ring_.size()]);
    }

    /** Print the newest @p max events, oldest first (wedge reports). */
    void dumpTail(std::FILE *out, std::size_t max) const;

    // ---- Snapshot support --------------------------------------------
    //
    // The stored events are written oldest-first (normalized), so the
    // on-disk form is independent of where the ring happened to wrap.
    // Restore lays them back from slot 0; exports and subsequent
    // recording behave identically either way.

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u64(recorded_);
        // On restore, stored() is now what the restored cursor implies.
        const std::uint64_t expect = stored();
        std::uint64_t n = expect;
        ar.u64(n);
        if constexpr (Ar::loading) {
            if (!ar.ok() || n != expect) {
                ar.fail("corrupt snapshot: trace ring event count does "
                        "not match its cursor (capacity mismatch?)");
                return;
            }
        }
        const std::size_t start =
            Ar::loading || recorded_ < ring_.size() ? 0 : head_;
        for (std::size_t i = 0; i < n; ++i) {
            Event &e = ring_[(start + i) % ring_.size()];
            ar.u64(e.meta);
            ar.u64(e.arg);
        }
        if constexpr (Ar::loading)
            head_ = n == ring_.size() ? 0 : static_cast<std::size_t>(n);
    }

  private:
    std::string name_;
    NodeId node_;
    Category category_;
    std::vector<Event> ring_;
    std::size_t head_ = 0; ///< Next slot to overwrite.
    std::uint64_t recorded_ = 0;
};

struct TraceConfig
{
    bool enabled = false;
    /** Bitmask over Category; a masked-off class gets no buffers. */
    std::uint32_t categories = allCategories;
    /** Ring capacity, in events, of each component buffer. */
    std::size_t bufferEvents = 1 << 15;
    /**
     * Interval-sampling period in CPU cycles (0 disables the time
     * series). Sampling piggybacks on the machine's run loop — it
     * schedules nothing, so the event stream is unperturbed.
     */
    Cycles intervalCycles = 20000;
};

struct TraceData;

/**
 * Owns every component TraceBuffer of one machine plus the interval
 * sampler. Buffer creation order is deterministic (node-major, then
 * cpu/proto/mc/net), which fixes exporter track order.
 */
class TraceManager
{
  public:
    explicit TraceManager(const TraceConfig &cfg) : cfg_(cfg) {}

    const TraceConfig &config() const { return cfg_; }

    /**
     * Create (and own) a buffer, or return nullptr when @p category is
     * masked off — the null pointer then keeps every record site free.
     */
    TraceBuffer *createBuffer(std::string name, NodeId node,
                              Category category);

    const std::vector<std::unique_ptr<TraceBuffer>> &
    buffers() const
    {
        return buffers_;
    }

    IntervalSampler &sampler() { return sampler_; }
    const IntervalSampler &sampler() const { return sampler_; }

    /** Copy all buffers + time series into an exportable snapshot. */
    void snapshot(TraceData &out, Tick exec_ticks, unsigned nodes) const;

    /** Print the newest @p per_buffer events of every buffer. */
    void dumpTails(std::FILE *out, std::size_t per_buffer) const;

    // ---- Snapshot support --------------------------------------------
    //
    // Buffer creation order is deterministic for a given config, so the
    // buffers serialize positionally; names are stored only to validate
    // that the restoring machine built the same buffer list.

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.fixed(buffers_,
                 "corrupt snapshot: trace buffer count mismatch (was the "
                 "snapshot taken under a different trace config?)",
                 [](Ar &a, std::unique_ptr<TraceBuffer> &b) {
                     std::string name = b->name();
                     a.str(name);
                     if constexpr (Ar::loading) {
                         if (name != b->name())
                             a.fail("corrupt snapshot: trace buffer "
                                    "order/name mismatch");
                     }
                     if (a.ok())
                         b->io(a);
                 });
        ar.obj(sampler_);
    }

  private:
    TraceConfig cfg_;
    std::vector<std::unique_ptr<TraceBuffer>> buffers_;
    IntervalSampler sampler_;
};

} // namespace smtp::trace

#endif // SMTP_TRACE_TRACE_HPP
