/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global EventQueue per simulated machine orders callbacks by
 * (tick, priority, insertion sequence) in one binary min-heap.
 * Insertion-order tie-breaking makes whole-machine runs deterministic:
 * two events at the same tick always run in the order they were
 * scheduled, independent of container internals; tests/test_sim.cpp
 * checks the executed order against that key on randomized
 * near/far/same-tick mixes. Entries carry an InlineCallback, so
 * scheduling a lambda with a small capture never touches the allocator
 * once the heap vector is warm.
 *
 * Sequence numbers are odd and step by 2, which leaves one even value
 * between any two of them: the per-tick *mark*. It is taken at the
 * first pop of a tick, or for tick `limit + 1` when a bounded
 * run(limit) returns, and scheduleAtMark() inserts an event there: it
 * runs after every same-priority event scheduled before the tick began
 * and before every one scheduled during it (or in the barrier phase
 * that follows run(limit)). Taking a mark consumes no sequence number,
 * so a run stopped at run(limit) and resumed numbers its events exactly
 * as an uninterrupted run does.
 */

#ifndef SMTP_SIM_EVENTQ_HPP
#define SMTP_SIM_EVENTQ_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "sim/inline_callback.hpp"
#include "snap/event_codec.hpp"

namespace smtp
{

class EventQueue
{
  public:
    using Callback = InlineCallback;

    /**
     * Relative ordering of events scheduled for the same tick.
     * Lower runs first.
     */
    enum Priority : std::int8_t
    {
        prioEarly = -1,   ///< e.g. link deliveries feeding this cycle
        prioDefault = 0,
        prioLate = 1,     ///< e.g. end-of-cycle bookkeeping
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    Tick curTick() const { return curTick_; }

    /** Schedule @p cb to run at absolute tick @p when (>= curTick). */
    void
    schedule(Tick when, Callback cb, Priority prio = prioDefault)
    {
        SMTP_ASSERT(when >= curTick_,
                    "scheduling event in the past (%llu < %llu)",
                    static_cast<unsigned long long>(when),
                    static_cast<unsigned long long>(curTick_));
        heapPush(Entry{when, prio, seq_, std::move(cb)});
        seq_ += 2;
    }

    /**
     * Schedule @p cb at the current mark: the tick being run (from
     * inside an event) or the tick after a bounded run(limit) returned.
     * At most one event per tick may take the mark; two would tie.
     */
    void
    scheduleAtMark(Callback cb)
    {
        SMTP_ASSERT(markTick_ != maxTick && markTick_ >= curTick_,
                    "no mark for the current tick");
        heapPush(Entry{markTick_, prioDefault, markSeq_, std::move(cb)});
    }

    /** Schedule @p cb @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb, Priority prio = prioDefault)
    {
        schedule(curTick_ + delta, std::move(cb), prio);
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** Tick of the next pending event; maxTick when empty. */
    Tick
    nextTick() const
    {
        return heap_.empty() ? maxTick : heap_.front().when;
    }

    /**
     * Pop and run the single earliest event.
     * @return false when the queue was empty.
     */
    bool
    runOne()
    {
        if (heap_.empty())
            return false;
        runMin();
        return true;
    }

    /** Run events until the queue drains or @p limit is passed. */
    void
    run(Tick limit = maxTick)
    {
        while (!heap_.empty() && heap_.front().when <= limit)
            runMin();
        if (limit == maxTick)
            return;
        if (curTick_ < limit)
            curTick_ = limit;
        takeMark(limit + 1);
    }

    /** Number of events executed so far (a cheap progress metric). */
    std::uint64_t executedCount() const { return executed_; }

    // ---- Snapshot support --------------------------------------------
    //
    // Entries serialize sorted ascending under the (when, prio, seq)
    // total order, with their *original* sequence numbers, so the bytes
    // do not depend on heap layout. Restoring preserves those seqs, so
    // same-tick tie-breaking — and therefore the entire event schedule
    // — is bit-identical to the uninterrupted run. The mark follows the
    // entries: a save after run(limit) must resume with the mark that
    // run took for tick limit + 1.

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u64(curTick_);
        ar.u64(seq_);
        ar.u64(executed_);
        auto entry = [](Ar &a, Entry &e) {
            a.u64(e.when);
            a.i8(e.prio);
            a.u64(e.seq);
            a.cb(e.cb);
        };
        if constexpr (Ar::loading) {
            heap_.clear();
            std::uint64_t n = ar.count(8 + 1 + 8 + 4);
            for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
                Entry e;
                entry(ar, e);
                if (!ar.ok())
                    break;
                if (e.when < curTick_ || e.seq >= seq_) {
                    ar.fail("corrupt snapshot: event entry out of range");
                    break;
                }
                heapPush(std::move(e));
            }
            ar.u64(markTick_);
            ar.u64(markSeq_);
            if (ar.ok() && (seq_ % 2 == 0 || markSeq_ >= seq_ ||
                            (markTick_ != maxTick && markTick_ < curTick_)))
                ar.fail("corrupt snapshot: event queue mark out of range");
        } else {
            std::vector<Entry *> all;
            all.reserve(size());
            for (Entry &e : heap_) {
                // Watchdog self-events are re-armed by the restoring
                // machine (when checking is on there), not replayed:
                // they are pure observers and only exist in
                // debug-checked runs.
                if (e.cb.snapId() != snap::evWatchdog)
                    all.push_back(&e);
            }
            std::sort(all.begin(), all.end(),
                      [](const Entry *a, const Entry *b) {
                          return Later{}(*b, *a);
                      });
            ar.u64(all.size());
            for (Entry *e : all)
                entry(ar, *e);
            ar.u64(markTick_);
            ar.u64(markSeq_);
        }
    }

  private:
    struct Entry
    {
        Tick when;
        Priority prio;
        std::uint64_t seq;
        Callback cb;
    };

    /** Strict total order; a after b means b runs first. */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    void
    heapPush(Entry e)
    {
        heap_.push_back(std::move(e));
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    /** Pop the minimum entry and run it; the heap must be non-empty. */
    void
    runMin()
    {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Entry e = std::move(heap_.back());
        heap_.pop_back();
        takeMark(e.when);
        curTick_ = e.when;
        ++executed_;
        e.cb();
    }

    /** The mark of tick @p when lies after every seq handed out so far. */
    void
    takeMark(Tick when)
    {
        if (markTick_ == when)
            return;
        markTick_ = when;
        markSeq_ = seq_ - 1;
    }

    std::vector<Entry> heap_; ///< Min-heap under Later.
    Tick curTick_ = 0;
    std::uint64_t seq_ = 1;   ///< Next (odd) sequence number.
    std::uint64_t executed_ = 0;
    Tick markTick_ = maxTick; ///< Tick the mark belongs to; none yet.
    std::uint64_t markSeq_ = 0;
};

} // namespace smtp

#endif // SMTP_SIM_EVENTQ_HPP
