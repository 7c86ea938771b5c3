/**
 * @file
 * Node-sharded simulation kernel: conservative window-based PDES.
 *
 * A ShardSet partitions one simulated machine into per-node shards,
 * each owning a private EventQueue. Shards execute windows of
 * `lookahead` ticks independently (the network's 25 ns per-hop latency
 * guarantees every cross-shard event lands at least one window ahead),
 * then exchange mailboxes at a barrier and repeat.
 *
 * Determinism contract: results are bit-identical whether the shards
 * run on one host thread or many. Three mechanisms deliver that:
 *
 *  1. every queue keeps the kernel's (tick, priority, sequence) total
 *     order, and a shard's event stream is a pure function of its
 *     inputs;
 *  2. cross-shard events carry (due, sendTick, srcShard, srcSeq) and
 *     the barrier drains every mailbox in that sorted order, so the
 *     destination queue assigns the same local sequence numbers no
 *     matter which host thread produced the events or when;
 *  3. the host-thread count only changes which thread runs a shard's
 *     window, never the order of events inside it.
 *
 * The serial execution mode (--exec=serial) runs the *same* windowed
 * engine on one host thread — it is the reference implementation the
 * parallel mode must match bit-for-bit.
 */

#ifndef SMTP_SIM_SHARD_HPP
#define SMTP_SIM_SHARD_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "sim/eventq.hpp"
#include "sim/spsc.hpp"
#include "sim/sweep.hpp"
#include "snap/event_codec.hpp"

namespace smtp
{

/** Execution-mode selection (--exec=serial|parallel[:T]). */
struct ExecParams
{
    enum class Mode
    {
        Serial,  ///< Windowed engine on one host thread (reference).
        Parallel ///< Windowed engine on a shard thread pool.
    };

    Mode mode = Mode::Serial;
    /** Host threads for Parallel; 0 = auto (hardware concurrency). */
    unsigned threads = 0;

    bool parallel() const { return mode == Mode::Parallel; }

    std::string
    toString() const
    {
        if (mode == Mode::Serial)
            return "serial";
        return threads == 0 ? "parallel"
                            : "parallel:" + std::to_string(threads);
    }

    /** Parse "serial" | "parallel" | "parallel:T". */
    static bool
    parse(const std::string &spec, ExecParams &out,
          std::string *err = nullptr)
    {
        if (spec == "serial") {
            out = ExecParams{};
            return true;
        }
        if (spec.rfind("parallel", 0) == 0) {
            out.mode = Mode::Parallel;
            out.threads = 0;
            if (spec.size() == 8)
                return true;
            if (spec[8] == ':' && parseJobs(spec.substr(9), out.threads))
                return true;
        }
        if (err != nullptr)
            *err = "bad exec mode '" + spec +
                   "' (want serial | parallel[:T])";
        return false;
    }
};

/** One event in flight between shards, awaiting the barrier drain. */
struct CrossEvent
{
    Tick due = 0;
    Tick sendTick = 0;
    std::uint64_t srcSeq = 0;
    EventQueue::Callback cb;
};

/**
 * One (src, dst) shard-pair mailbox: a lock-free SPSC ring with a
 * producer-owned spill vector for growth beyond the ring capacity.
 * FIFO order survives the spill because the consumer only drains
 * between windows — once the ring fills, *all* later pushes of the
 * window go to the spill, so ring-then-spill replay is push order.
 */
class Mailbox
{
  public:
    void
    push(CrossEvent ev)
    {
        if (!ring_.tryPush(std::move(ev))) {
            ++spills_;
            spill_.push_back(std::move(ev));
        }
    }

    /** Barrier-phase drain (externally synchronized). */
    template <typename Fn>
    void
    drain(Fn &&fn)
    {
        CrossEvent ev;
        while (ring_.tryPop(ev))
            fn(std::move(ev));
        for (auto &e : spill_)
            fn(std::move(e));
        spill_.clear();
    }

    /** Barrier-phase inspection without consuming (snapshots). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        ring_.forEach(fn);
        for (const auto &e : spill_)
            fn(e);
    }

    bool empty() const { return ring_.empty() && spill_.empty(); }

    std::size_t size() const { return ring_.size() + spill_.size(); }

    /** Pushes that overflowed the ring (back-pressure telemetry). */
    std::uint64_t spills() const { return spills_; }

  private:
    SpscRing<CrossEvent> ring_{256};
    std::vector<CrossEvent> spill_;
    std::uint64_t spills_ = 0;
};

/**
 * The shard partition: per-shard event queues plus the mailbox matrix.
 * Scheduling routes through the calling thread's shard context — local
 * events go straight onto the shard's queue, cross-shard events into
 * the (src, dst) mailbox.
 */
class ShardSet
{
  public:
    static constexpr unsigned noShard = ~0u;

    /** @p n owned per-shard queues. */
    explicit ShardSet(unsigned n)
    {
        SMTP_ASSERT(n >= 1, "shard set needs at least one shard");
        owned_.reserve(n);
        queues_.reserve(n);
        for (unsigned s = 0; s < n; ++s) {
            owned_.push_back(std::make_unique<EventQueue>());
            queues_.push_back(owned_.back().get());
        }
        mail_.resize(static_cast<std::size_t>(n) * n);
        srcSeq_.assign(n, 0);
    }

    /**
     * Single-shard wrapper around an external queue: standalone
     * component tests keep constructing `Network(eq, params)` and
     * driving `eq.run()` directly; all scheduling degenerates to the
     * plain queue and the mailboxes are never touched.
     */
    explicit ShardSet(EventQueue &external)
    {
        queues_.push_back(&external);
        mail_.resize(1);
        srcSeq_.assign(1, 0);
    }

    ShardSet(const ShardSet &) = delete;
    ShardSet &operator=(const ShardSet &) = delete;

    unsigned
    count() const
    {
        return static_cast<unsigned>(queues_.size());
    }

    EventQueue &queue(unsigned s) { return *queues_[s]; }
    const EventQueue &queue(unsigned s) const { return *queues_[s]; }

    // ---- Execution context --------------------------------------------

    /**
     * Bind the calling host thread to @p shard of @p set for the
     * duration of a window (nullptr/noShard = barrier phase).
     */
    static void
    setCurrent(ShardSet *set, unsigned shard)
    {
        tlsSet_ = set;
        tlsShard_ = shard;
    }

    /** The calling thread's shard in *this* set; noShard outside one. */
    unsigned
    current() const
    {
        return tlsSet_ == this ? tlsShard_ : noShard;
    }

    // ---- Scheduling ----------------------------------------------------

    /**
     * Schedule @p cb at absolute tick @p when on shard @p dst. Same
     * shard (or barrier phase, or a single-shard set) schedules
     * directly; cross-shard posts go through the mailbox and land at
     * the next barrier. Cross-shard @p when must be at least one
     * lookahead window ahead — the network's hop latency guarantees it.
     */
    void
    schedule(unsigned dst, Tick when, EventQueue::Callback cb)
    {
        unsigned src = current();
        if (src == noShard || src == dst || count() == 1) {
            queues_[dst]->schedule(when, std::move(cb));
            return;
        }
        mail_[static_cast<std::size_t>(src) * count() + dst].push(
            CrossEvent{when, queues_[src]->curTick(), srcSeq_[src]++,
                       std::move(cb)});
    }

    // ---- Barrier phase (externally synchronized) -----------------------

    /**
     * Deliver every mailbox into its destination queue in the
     * deterministic (due, sendTick, srcShard, srcSeq) order, so local
     * sequence assignment is independent of host-thread interleaving.
     */
    void
    drainMailboxes()
    {
        struct Item
        {
            Tick due;
            Tick sendTick;
            unsigned src;
            std::uint64_t seq;
            EventQueue::Callback cb;
        };
        std::vector<Item> items;
        unsigned n = count();
        for (unsigned dst = 0; dst < n; ++dst) {
            items.clear();
            for (unsigned src = 0; src < n; ++src) {
                mail_[static_cast<std::size_t>(src) * n + dst].drain(
                    [&](CrossEvent ev) {
                        items.push_back(Item{ev.due, ev.sendTick, src,
                                             ev.srcSeq,
                                             std::move(ev.cb)});
                    });
            }
            std::sort(items.begin(), items.end(),
                      [](const Item &a, const Item &b) {
                          if (a.due != b.due)
                              return a.due < b.due;
                          if (a.sendTick != b.sendTick)
                              return a.sendTick < b.sendTick;
                          if (a.src != b.src)
                              return a.src < b.src;
                          return a.seq < b.seq;
                      });
            for (auto &it : items)
                queues_[dst]->schedule(it.due, std::move(it.cb));
        }
    }

    bool
    mailboxesEmpty() const
    {
        for (const auto &m : mail_) {
            if (!m.empty())
                return false;
        }
        return true;
    }

    /** Earliest pending tick over all queues (maxTick when idle). */
    Tick
    minPendingTick() const
    {
        Tick best = maxTick;
        for (const auto *q : queues_)
            best = std::min(best, q->nextTick());
        return best;
    }

    std::size_t
    pendingEvents() const
    {
        std::size_t n = 0;
        for (const auto *q : queues_)
            n += q->size();
        return n;
    }

    std::uint64_t
    mailboxSpills() const
    {
        std::uint64_t n = 0;
        for (const auto &m : mail_)
            n += m.spills();
        return n;
    }

    // ---- Snapshot support ----------------------------------------------
    //
    // Mailboxes are only guaranteed empty at window barriers; a save at
    // a mid-window stop (runUntil) must carry the undelivered events so
    // the resumed barrier assigns the same sequence numbers as the
    // uninterrupted one.

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.fixed(srcSeq_, "snapshot shard count does not match machine",
                 [](Ar &a, std::uint64_t &s) { a.u64(s); });
        ar.fixed(mail_, "snapshot mailbox count does not match machine",
                 [](Ar &a, Mailbox &m) {
                     auto event = [&a](auto &ev) {
                         a.u64(ev.due);
                         a.u64(ev.sendTick);
                         a.u64(ev.srcSeq);
                         a.cb(ev.cb);
                     };
                     if constexpr (Ar::loading) {
                         std::uint64_t n = a.count(25);
                         for (std::uint64_t i = 0; i < n && a.ok(); ++i) {
                             CrossEvent ev;
                             event(ev);
                             m.push(std::move(ev));
                         }
                     } else {
                         a.u64(m.size());
                         m.forEach(event);
                     }
                 });
    }

  private:
    static inline thread_local ShardSet *tlsSet_ = nullptr;
    static inline thread_local unsigned tlsShard_ = noShard;

    std::vector<std::unique_ptr<EventQueue>> owned_;
    std::vector<EventQueue *> queues_;
    // mail_[src * count() + dst]; deque because a Mailbox (SPSC ring
    // atomics) is neither movable nor copyable.
    std::deque<Mailbox> mail_;
    std::vector<std::uint64_t> srcSeq_;
};

/**
 * Executes one window across every shard: a static contiguous
 * partition over a persistent pool of host threads, synchronized by a
 * spinning epoch barrier. With one host thread (the serial reference,
 * or a checker-forced run) no threads are spawned and the shards run
 * in index order on the caller.
 */
class ShardExecutor
{
  public:
    ShardExecutor(ShardSet &shards, unsigned host_threads)
        : shards_(shards),
          threads_(std::min(std::max(1u, host_threads), shards.count()))
    {
        busyNs_.assign(shards_.count(), 0);
        for (unsigned i = 0; i + 1 < threads_; ++i)
            workers_.emplace_back([this, i] { workerLoop(i); });
    }

    ~ShardExecutor()
    {
        stop_.store(true, std::memory_order_release);
        for (auto &w : workers_)
            w.join();
    }

    unsigned hostThreads() const { return threads_; }

    /** Measure per-shard host time (exec telemetry); off by default. */
    void setMeasure(bool on) { measure_ = on; }

    /** Per-shard host busy ns accumulated while measuring. */
    std::uint64_t busyNs(unsigned shard) const { return busyNs_[shard]; }

    /**
     * Run every shard's queue through tick @p limit (inclusive) and
     * return with all shards quiescent at the window boundary.
     */
    void
    runWindow(Tick limit)
    {
        limit_ = limit;
        if (threads_ == 1) {
            runPartition(0);
            return;
        }
        pending_.store(threads_ - 1, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        runPartition(threads_ - 1);
        while (pending_.load(std::memory_order_acquire) != 0)
            std::this_thread::yield();
    }

  private:
    void
    runPartition(unsigned index)
    {
        unsigned n = shards_.count();
        unsigned lo = index * n / threads_;
        unsigned hi = (index + 1) * n / threads_;
        for (unsigned s = lo; s < hi; ++s) {
            ShardSet::setCurrent(&shards_, s);
            if (measure_) {
                auto t0 = std::chrono::steady_clock::now();
                shards_.queue(s).run(limit_);
                auto t1 = std::chrono::steady_clock::now();
                busyNs_[s] += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count());
            } else {
                shards_.queue(s).run(limit_);
            }
        }
        ShardSet::setCurrent(nullptr, ShardSet::noShard);
    }

    void
    workerLoop(unsigned index)
    {
        std::uint64_t seen = 0;
        for (;;) {
            std::uint64_t e;
            while ((e = epoch_.load(std::memory_order_acquire)) ==
                   seen) {
                if (stop_.load(std::memory_order_acquire))
                    return;
                std::this_thread::yield();
            }
            seen = e;
            runPartition(index);
            pending_.fetch_sub(1, std::memory_order_release);
        }
    }

    ShardSet &shards_;
    unsigned threads_;
    Tick limit_ = 0;
    bool measure_ = false;
    std::vector<std::uint64_t> busyNs_;
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<unsigned> pending_{0};
    std::atomic<bool> stop_{false};
};

} // namespace smtp

#endif // SMTP_SIM_SHARD_HPP
