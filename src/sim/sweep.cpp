#include "sweep.hpp"

#include <cstdlib>

#include "common/log.hpp"
#include "common/parse.hpp"

namespace smtp
{

bool
parseJobs(const std::string &text, unsigned &out, std::string *err)
{
    unsigned v = 0;
    if (!parseDigits(text, v, maxJobs) || v < 1) {
        if (err != nullptr)
            *err = "bad worker count '" + text + "' (want 1.." +
                   std::to_string(maxJobs) + ")";
        return false;
    }
    out = v;
    return true;
}

unsigned
SweepPool::defaultJobs()
{
    if (const char *env = std::getenv("SMTP_SWEEP_JOBS")) {
        unsigned v = 0;
        std::string err;
        if (!parseJobs(env, v, &err))
            SMTP_FATAL("SMTP_SWEEP_JOBS: %s", err.c_str());
        return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

SweepPool::SweepPool(unsigned jobs) : jobs_(jobs != 0 ? jobs : defaultJobs())
{
    deques_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        deques_.push_back(std::make_unique<WorkDeque>());
    // Worker 0 is the calling thread; only spawn the helpers.
    for (unsigned i = 1; i < jobs_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

SweepPool::~SweepPool()
{
    {
        std::lock_guard<std::mutex> lk(mtx_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto &w : workers_)
        w.join();
    {
        std::lock_guard<std::mutex> lk(svcMtx_);
        svcStop_ = true;
    }
    svcCv_.notify_all();
    for (auto &w : svcWorkers_)
        w.join();
}

std::uint64_t
SweepPool::enqueue(int priority, std::function<void()> fn)
{
    std::uint64_t id;
    {
        std::lock_guard<std::mutex> lk(svcMtx_);
        id = svcNextId_++;
        svcQueue_[priority].push_back(std::move(fn));
        ++svcQueued_;
        if (svcWorkers_.empty()) {
            for (unsigned i = 0; i < jobs_; ++i)
                svcWorkers_.emplace_back([this] { serviceLoop(); });
        }
    }
    svcCv_.notify_one();
    return id;
}

void
SweepPool::serviceLoop()
{
    std::unique_lock<std::mutex> lk(svcMtx_);
    while (true) {
        svcCv_.wait(lk, [&] { return svcStop_ || !svcQueue_.empty(); });
        if (svcStop_)
            return;
        auto it = svcQueue_.begin(); // Highest priority bucket.
        std::function<void()> fn = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty())
            svcQueue_.erase(it);
        --svcQueued_;
        ++svcRunning_;
        lk.unlock();
        fn();
        lk.lock();
        --svcRunning_;
        if (svcQueue_.empty() && svcRunning_ == 0)
            svcDoneCv_.notify_all();
    }
}

void
SweepPool::drainService()
{
    std::unique_lock<std::mutex> lk(svcMtx_);
    svcDoneCv_.wait(lk,
                    [&] { return svcQueue_.empty() && svcRunning_ == 0; });
}

std::size_t
SweepPool::serviceQueued() const
{
    std::lock_guard<std::mutex> lk(svcMtx_);
    return svcQueued_;
}

bool
SweepPool::popOwn(unsigned self, std::size_t &task)
{
    WorkDeque &dq = *deques_[self];
    std::lock_guard<std::mutex> lk(dq.mtx);
    if (dq.tasks.empty())
        return false;
    task = dq.tasks.back();
    dq.tasks.pop_back();
    return true;
}

bool
SweepPool::steal(unsigned self, std::size_t &task)
{
    for (unsigned i = 1; i < jobs_; ++i) {
        WorkDeque &dq = *deques_[(self + i) % jobs_];
        std::lock_guard<std::mutex> lk(dq.mtx);
        if (!dq.tasks.empty()) {
            task = dq.tasks.front();
            dq.tasks.pop_front();
            return true;
        }
    }
    return false;
}

void
SweepPool::runTasks(unsigned self)
{
    const std::function<void(std::size_t)> *body;
    {
        // A worker that wakes after its batch finished sees no body and
        // must not touch the deques: the next batch may already be
        // filling them.
        std::lock_guard<std::mutex> lk(mtx_);
        body = body_;
        if (body == nullptr)
            return;
        ++active_;
    }
    std::size_t done = 0;
    std::size_t task;
    while (popOwn(self, task) || steal(self, task)) {
        (*body)(task);
        ++done;
    }
    std::lock_guard<std::mutex> lk(mtx_);
    pending_ -= done;
    --active_;
    if (pending_ == 0 && active_ == 0)
        doneCv_.notify_all();
}

void
SweepPool::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lk(mtx_);
            workCv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
            if (stop_)
                return;
            seen = epoch_;
        }
        runTasks(self);
    }
}

void
SweepPool::parallelFor(std::size_t n,
                       const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (jobs_ == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        WorkDeque &dq = *deques_[i % jobs_];
        std::lock_guard<std::mutex> lk(dq.mtx);
        dq.tasks.push_back(i);
    }
    {
        std::lock_guard<std::mutex> lk(mtx_);
        body_ = &body;
        pending_ = n;
        ++epoch_;
    }
    workCv_.notify_all();
    runTasks(0); // The caller works too.
    std::unique_lock<std::mutex> lk(mtx_);
    // Wait for every worker to leave runTasks too: one still looping
    // with this batch's body must not pick up the next batch's tasks.
    doneCv_.wait(lk, [&] { return pending_ == 0 && active_ == 0; });
    body_ = nullptr;
}

} // namespace smtp
