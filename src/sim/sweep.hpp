/**
 * @file
 * Parallel sweep harness.
 *
 * Every paper figure is dozens of independent full-system simulations;
 * a Machine is single-threaded but shares nothing with its siblings, so
 * sweep cells are embarrassingly parallel. SweepPool runs an indexed
 * task set over a work-stealing thread pool: each worker owns a deque
 * seeded round-robin, pops its own work LIFO and steals FIFO from
 * victims when dry, so a straggler cell (a 32-node model) never idles
 * the other cores. Results are the caller's responsibility to store by
 * index, which keeps output ordering — and therefore every printed
 * table — identical to a serial run.
 *
 * Worker count: explicit argument > SMTP_SWEEP_JOBS env var > hardware
 * concurrency. Every textual count (--jobs, SMTP_SWEEP_JOBS, smtpd
 * --jobs, the T of parallel:T) goes through parseJobs(), so a typo or
 * a negative number is a diagnostic, never a huge thread count.
 * jobs == 1 degenerates to an inline serial loop (no
 * threads), which the determinism tests diff against parallel runs.
 *
 * Service mode (the smtpd daemon): enqueue() adds one prioritized task
 * to a persistent queue serviced by dedicated workers — higher
 * priority first, FIFO within a priority. Service workers are spawned
 * lazily on the first enqueue (jobs_ of them, even when jobs_ == 1:
 * the batch degenerate case has no threads, but a service caller is an
 * event loop that must never simulate inline) and are independent of
 * the batch protocol, so parallelFor() batches and service traffic can
 * coexist on one pool.
 */

#ifndef SMTP_SIM_SWEEP_HPP
#define SMTP_SIM_SWEEP_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace smtp
{

/** Largest worker or host-thread count any textual input may name. */
constexpr unsigned maxJobs = 1024;

/**
 * Parse a worker count strictly: decimal digits only, value in
 * 1..maxJobs. On failure returns false, leaves @p out untouched and,
 * when @p err is non-null, stores a diagnostic naming @p text.
 */
bool parseJobs(const std::string &text, unsigned &out,
               std::string *err = nullptr);

class SweepPool
{
  public:
    /** @p jobs 0 resolves via defaultJobs(). */
    explicit SweepPool(unsigned jobs = 0);
    ~SweepPool();

    SweepPool(const SweepPool &) = delete;
    SweepPool &operator=(const SweepPool &) = delete;

    unsigned jobs() const { return jobs_; }

    /**
     * SMTP_SWEEP_JOBS env override, else hardware concurrency. A set
     * but malformed SMTP_SWEEP_JOBS is fatal.
     */
    static unsigned defaultJobs();

    /**
     * Run body(0) .. body(n-1) across the pool; blocks until all
     * complete. The body must only touch state owned by its index.
     * Exceptions escaping the body abort the process (a simulation
     * panic is fatal anyway).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    // ---- Service mode (persistent prioritized queue) -----------------

    /**
     * Queue one task. Higher @p priority runs first; equal priorities
     * run FIFO. Returns a monotonically increasing task id. The first
     * enqueue spawns the service workers (jobs() of them). @p fn runs
     * on a service worker; exceptions escaping it abort the process.
     */
    std::uint64_t enqueue(int priority, std::function<void()> fn);

    /** Block until the service queue is empty and no task is running. */
    void drainService();

    /** Tasks queued but not yet started (diagnostics). */
    std::size_t serviceQueued() const;

  private:
    struct WorkDeque
    {
        std::mutex mtx;
        std::deque<std::size_t> tasks;
    };

    void workerLoop(unsigned self);
    void runTasks(unsigned self);
    bool popOwn(unsigned self, std::size_t &task);
    bool steal(unsigned self, std::size_t &task);

    unsigned jobs_;
    std::vector<std::unique_ptr<WorkDeque>> deques_;
    std::vector<std::thread> workers_;

    std::mutex mtx_;
    std::condition_variable workCv_;   ///< Wakes workers for a batch.
    std::condition_variable doneCv_;   ///< Wakes the caller.
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::uint64_t epoch_ = 0;          ///< Batch generation counter.
    std::size_t pending_ = 0;          ///< Tasks not yet finished.
    unsigned active_ = 0;              ///< Threads inside runTasks().
    bool stop_ = false;

    // Service mode: its own lock/cv/threads so persistent traffic and
    // the batch epoch protocol never interleave on one condvar.
    void serviceLoop();

    mutable std::mutex svcMtx_;
    std::condition_variable svcCv_;     ///< Wakes service workers.
    std::condition_variable svcDoneCv_; ///< Wakes drainService().
    /** priority -> FIFO of tasks; iterated highest priority first. */
    std::map<int, std::deque<std::function<void()>>, std::greater<int>>
        svcQueue_;
    std::vector<std::thread> svcWorkers_; ///< Spawned on first enqueue.
    std::size_t svcQueued_ = 0;
    std::size_t svcRunning_ = 0;
    std::uint64_t svcNextId_ = 0;
    bool svcStop_ = false;
};

} // namespace smtp

#endif // SMTP_SIM_SWEEP_HPP
