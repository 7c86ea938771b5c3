/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global EventQueue per simulated machine orders callbacks by
 * (tick, priority, insertion sequence) in one 4-ary min-heap.
 * Insertion-order tie-breaking makes whole-machine runs deterministic:
 * two events at the same tick always run in the order they were
 * scheduled, independent of container internals; tests/test_sim.cpp
 * checks the executed order against that key on randomized
 * near/far/same-tick mixes.
 *
 * The heap holds only 24-byte keys. Each key names a slot in a slab of
 * InlineCallbacks whose chunks never move: a callback is moved once,
 * into its slot, when it is scheduled, runs in place and is destroyed
 * there, so heap sifts copy plain keys and never call a callback's
 * relocate thunk. Scheduling a lambda with a small capture never
 * touches the allocator once the heap and the slab are warm.
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
 *
 * A component that keeps its own calendar of work (the CPU's
 * completions) can stand in for events without scheduling them:
 * reserveOrd() hands out the key an event scheduled now would take,
 * and passed() says whether the queue has run past a key, so the
 * component applies each entry the first time it is touched after the
 * point where its event would have run.
 */

#ifndef SMTP_SIM_EVENTQ_HPP
#define SMTP_SIM_EVENTQ_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
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
        push(when, order(prio, seq_), std::move(cb));
        seq_ += 2;
    }

    /**
     * Schedule @p cb at the current mark: the tick being run (from
     * inside an event) or the tick after a bounded run(limit) returned.
     * Several events that take one tick's mark share its (tick, prio,
     * seq) key and run in the order they took it.
     */
    void
    scheduleAtMark(Callback cb)
    {
        SMTP_ASSERT(markTick_ != maxTick && markTick_ >= curTick_,
                    "no mark for the current tick");
        push(markTick_, order(prioDefault, markSeq_), std::move(cb));
    }

    /**
     * The order key (prioDefault) that schedule() would give an event
     * now, without scheduling one: it uses up the same sequence number,
     * so every other event keeps its number.
     */
    std::uint64_t
    reserveOrd()
    {
        std::uint64_t ord = order(prioDefault, seq_);
        seq_ += 2;
        return ord;
    }

    /**
     * Has the queue run, or is it running, past key (@p when, @p ord)?
     * The position is the furthest key run so far: the running event's
     * inside an event (or a later one of its tick, when the event took
     * a mark), the last one after runOne(). After a bounded run(limit)
     * it is (limit, next reservation), and after a restore (curTick,
     * next reservation): every key reserved by then at that tick has
     * passed. Exact for a key reserved before its tick began, or after
     * a bounded run: within a tick, an event may queue a same-tick event
     * at a lower priority, which runs behind keys already run.
     * Reserved keys are odd and unique, so no event ever sits at one.
     */
    bool
    passed(Tick when, std::uint64_t ord) const
    {
        return when < curTick_ || (when == curTick_ && ord < curOrd_);
    }

    /** The sequence number inside order key @p ord. */
    static std::uint64_t
    seqOf(std::uint64_t ord)
    {
        return ord & (seqLimit - 1);
    }

    /** The order key reserveOrd() gives sequence number @p seq. */
    static std::uint64_t
    reservedOrd(std::uint64_t seq)
    {
        return order(prioDefault, seq);
    }

    /**
     * Could @p seq be a sequence number this queue handed out: odd and
     * below the next one?
     */
    bool
    issued(std::uint64_t seq) const
    {
        return seq % 2 == 1 && seq < seq_;
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
        if (curTick_ <= limit) {
            curTick_ = limit;
            curOrd_ = order(prioDefault, seq_);
        }
        takeMark(limit + 1);
    }

    /** Number of events executed so far (a cheap progress metric). */
    std::uint64_t executedCount() const { return executed_; }

    // ---- Snapshot support --------------------------------------------
    //
    // Entries serialize sorted ascending under the full heap order
    // (when, prio, seq, then the order marks were taken), with their
    // *original* sequence numbers, so the bytes do not depend on heap
    // layout. Restoring preserves those seqs and re-inserts in that
    // order, so same-tick tie-breaking — and therefore the entire event
    // schedule — is bit-identical to the uninterrupted run. The mark
    // follows the entries: a save after run(limit) must resume with the
    // mark that run took for tick limit + 1.

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u64(curTick_);
        ar.u64(seq_);
        if constexpr (Ar::loading) {
            if (seq_ >= seqLimit)
                ar.fail("corrupt snapshot: event sequence number out of "
                        "range");
        }
        ar.u64(executed_);
        auto entry = [this](Ar &a, Tick &when, std::int8_t &prio,
                            std::uint64_t &seq, std::uint32_t slot) {
            a.u64(when);
            a.i8(prio);
            a.u64(seq);
            a.cb(callback(slot));
        };
        if constexpr (Ar::loading) {
            clear();
            std::uint64_t n = ar.count(8 + 1 + 8 + 4);
            for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
                Tick when = 0;
                std::int8_t prio = 0;
                std::uint64_t seq = 0;
                std::uint32_t slot = allocSlot();
                entry(ar, when, prio, seq, slot);
                if (ar.ok() && (prio < prioEarly || prio > prioLate))
                    ar.fail("corrupt snapshot: event priority out of "
                            "range");
                if (ar.ok() && (when < curTick_ || seq >= seqLimit ||
                                seq >= seq_))
                    ar.fail("corrupt snapshot: event entry out of range");
                if (!ar.ok()) {
                    freeSlot(slot);
                    break;
                }
                pushKey(when, order(static_cast<Priority>(prio), seq),
                        slot);
            }
            ar.u64(markTick_);
            ar.u64(markSeq_);
            curOrd_ = order(prioDefault, seq_);
            if (ar.ok() && (seq_ % 2 == 0 || markSeq_ >= seq_ ||
                            (markTick_ != maxTick && markTick_ < curTick_)))
                ar.fail("corrupt snapshot: event queue mark out of range");
        } else {
            std::vector<Key> all;
            all.reserve(size());
            for (const Key &k : heap_) {
                // Watchdog self-events are re-armed by the restoring
                // machine (when checking is on there), not replayed:
                // they are pure observers and only exist in
                // debug-checked runs.
                if (callback(k.slot).snapId() != snap::evWatchdog)
                    all.push_back(k);
            }
            std::sort(all.begin(), all.end(), before);
            ar.u64(all.size());
            for (const Key &k : all) {
                Tick when = k.when;
                auto prio = static_cast<std::int8_t>(
                    static_cast<int>(k.ord >> seqBits) - 1);
                std::uint64_t seq = k.ord & (seqLimit - 1);
                entry(ar, when, prio, seq, k.slot);
            }
            ar.u64(markTick_);
            ar.u64(markSeq_);
        }
    }

  private:
    /** Sequence numbers (and marks) fit below bit seqBits of ord. */
    static constexpr unsigned seqBits = 62;
    static constexpr std::uint64_t seqLimit = std::uint64_t{1} << seqBits;

    /** Heap fan-out: a sift-down compares the four children in turn. */
    static constexpr std::size_t arity = 4;

    /** Slab chunk size; a chunk's storage never moves once allocated. */
    static constexpr std::uint32_t chunkSlots = 256;

    /** One pending event; the callback stays in its slab slot. */
    struct Key
    {
        Tick when;
        std::uint64_t ord;  ///< (prio + 1) << seqBits | seq
        std::uint32_t push; ///< Insertion count: orders equal (when, ord)
        std::uint32_t slot; ///< Index into the callback slab
    };
    static_assert(sizeof(Key) == 24, "heap keys must stay compact");

    static std::uint64_t
    order(Priority prio, std::uint64_t seq)
    {
        return static_cast<std::uint64_t>(prio + 1) << seqBits | seq;
    }

    /**
     * Strict total order: does @p a run before @p b? Only events that
     * took one tick's mark share (when, ord); they were pushed within
     * that tick, so the wrapping difference of their push counts orders
     * them.
     */
    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.ord != b.ord)
            return a.ord < b.ord;
        return static_cast<std::int32_t>(a.push - b.push) < 0;
    }

    Callback &
    callback(std::uint32_t slot)
    {
        return chunks_[slot / chunkSlots][slot % chunkSlots];
    }

    /** A free slot, growing the slab by one chunk when none is left. */
    std::uint32_t
    allocSlot()
    {
        if (free_.empty()) {
            auto base = static_cast<std::uint32_t>(chunks_.size()) *
                        chunkSlots;
            chunks_.push_back(std::make_unique<Callback[]>(chunkSlots));
            // Room for every slot, so freeing never allocates.
            if (free_.capacity() < base + chunkSlots)
                free_.reserve(2 * (base + chunkSlots));
            for (std::uint32_t i = chunkSlots; i-- > 0;)
                free_.push_back(base + i);
        }
        std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }

    void
    freeSlot(std::uint32_t slot)
    {
        callback(slot) = nullptr;
        free_.push_back(slot);
    }

    void
    push(Tick when, std::uint64_t ord, Callback &&cb)
    {
        std::uint32_t slot = allocSlot();
        callback(slot) = std::move(cb);
        pushKey(when, ord, slot);
    }

    void
    pushKey(Tick when, std::uint64_t ord, std::uint32_t slot)
    {
        Key k{when, ord, pushes_++, slot};
        std::size_t i = heap_.size();
        heap_.push_back(k);
        while (i > 0) {
            std::size_t parent = (i - 1) / arity;
            if (!before(k, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = k;
    }

    /** Remove and return the minimum key; the heap must be non-empty. */
    Key
    popKey()
    {
        Key top = heap_.front();
        Key last = heap_.back();
        heap_.pop_back();
        std::size_t n = heap_.size();
        if (n == 0)
            return top;
        std::size_t i = 0;
        for (;;) {
            std::size_t first = arity * i + 1;
            if (first >= n)
                break;
            std::size_t end = std::min(first + arity, n);
            std::size_t min = first;
            for (std::size_t c = first + 1; c < end; ++c) {
                if (before(heap_[c], heap_[min]))
                    min = c;
            }
            if (!before(heap_[min], last))
                break;
            heap_[i] = heap_[min];
            i = min;
        }
        heap_[i] = last;
        return top;
    }

    /**
     * Pop the minimum event and run its callback in place; the heap
     * must be non-empty. The slot is freed only after the callback
     * returns, so events it schedules can neither reuse nor move it.
     */
    void
    runMin()
    {
        Key k = popKey();
        takeMark(k.when);
        // An event at a mark can sort behind keys already run in its
        // tick; passed() keeps the furthest key run.
        if (k.when != curTick_ || k.ord > curOrd_)
            curOrd_ = k.ord;
        curTick_ = k.when;
        ++executed_;
        Callback &cb = callback(k.slot);
        cb();
        freeSlot(k.slot);
    }

    /** Drop every pending event. */
    void
    clear()
    {
        for (const Key &k : heap_)
            freeSlot(k.slot);
        heap_.clear();
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

    std::vector<Key> heap_; ///< 4-ary min-heap under before().
    std::vector<std::unique_ptr<Callback[]>> chunks_; ///< Callback slab.
    std::vector<std::uint32_t> free_; ///< Free slots; last freed on top.
    std::uint32_t pushes_ = 0;
    Tick curTick_ = 0;
    std::uint64_t curOrd_ = 0; ///< With curTick_, the furthest key run.
    std::uint64_t seq_ = 1;   ///< Next (odd) sequence number.
    std::uint64_t executed_ = 0;
    Tick markTick_ = maxTick; ///< Tick the mark belongs to; none yet.
    std::uint64_t markSeq_ = 0;
};

} // namespace smtp

#endif // SMTP_SIM_EVENTQ_HPP
