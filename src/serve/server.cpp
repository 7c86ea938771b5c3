#include "serve/server.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serve/proto.hpp"
#include "workload/app.hpp"

namespace smtp::serve
{

namespace
{

bool
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return true;
    std::fprintf(stderr, "smtpd: mkdir %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
}

/** makeApp() accepts the canonical name or its all-lowercase form. */
bool
knownApp(const std::string &name)
{
    auto matches = [&](const std::vector<std::string> &names) {
        for (const std::string &n : names) {
            if (name == n)
                return true;
            std::string lower = n;
            for (char &c : lower)
                c = static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
            if (name == lower)
                return true;
        }
        return false;
    };
    return matches(workload::appNames()) ||
           matches(workload::serverAppNames());
}

/**
 * FNV-1a over the cached payload. Not cryptographic — it only has to
 * catch disk-level rot (torn writes, bit flips), which the startup
 * fsck then quarantines instead of serving as a valid-looking record
 * for the wrong experiment.
 */
std::uint64_t
contentSum(std::string_view record, std::string_view resultJson)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&](std::string_view s) {
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
    };
    mix(record);
    mix("\n");
    mix(resultJson);
    return h;
}

/** Slow-loris bound: a reader this far behind is shed, not waited on. */
constexpr std::size_t kMaxConnOutbuf = 32u * 1024 * 1024;

} // namespace

fault::RetryPolicyConfig
ServerOptions::defaultRetry()
{
    // Spec grammar is the fault layer's; the serve layer reads the
    // numbers as milliseconds: first retry ~100 ms, doubling to a 5 s
    // cap, plus jitter (see Server::onWorkerEvent).
    fault::RetryPolicyConfig cfg;
    cfg.kind = fault::RetryKind::ExpBackoff;
    cfg.base = 100 * tickPerNs;
    cfg.cap = 5000 * tickPerNs;
    return cfg;
}

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)), rng_(opt_.retrySeed)
{
    if (opt_.maxAttempts == 0)
        opt_.maxAttempts = 1;
}

Server::~Server()
{
    // Pool first: its destructor SIGKILLs and reaps every worker, so
    // no child outlives the daemon's sockets.
    pool_.reset();
    for (auto &[id, conn] : conns_) {
        if (conn.fd >= 0)
            ::close(conn.fd);
    }
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (wakeR_ >= 0)
        ::close(wakeR_);
    if (wakeW_ >= 0)
        ::close(wakeW_);
    if (!opt_.socketPath.empty())
        ::unlink(opt_.socketPath.c_str());
}

void
Server::requestStop()
{
    static_cast<void>(stopReq_.exchange(true));
    char b = 's';
    [[maybe_unused]] ssize_t r = ::write(wakeW_, &b, 1);
}

bool
Server::setup(std::string *err)
{
    if (opt_.socketPath.empty() || opt_.stateDir.empty()) {
        *err = "socket path and state dir are both required";
        return false;
    }
    if (!ensureDir(opt_.stateDir) ||
        !ensureDir(opt_.stateDir + "/ckpt") ||
        !ensureDir(opt_.stateDir + "/results") ||
        !ensureDir(opt_.stateDir + "/traces") ||
        !ensureDir(opt_.stateDir + "/quarantine")) {
        *err = "cannot create state directory layout";
        return false;
    }
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
        *err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    wakeR_ = pipefd[0];
    wakeW_ = pipefd[1];
    // Non-blocking write end so requestStop() from a signal handler
    // can never wedge; non-blocking read end so draining is a loop.
    ::fcntl(wakeR_, F_SETFL, O_NONBLOCK);
    ::fcntl(wakeW_, F_SETFL, O_NONBLOCK);
    listenFd_ = listenSocket(opt_.socketPath, err);
    if (listenFd_ < 0)
        return false;
    // Non-blocking so acceptClients() can drain the backlog and return.
    ::fcntl(listenFd_, F_SETFL, O_NONBLOCK);
    scanResultCache();
    // Fork workers last: the children must not inherit any daemon fd
    // they could hold open past a crash (a child keeping the listen
    // socket alive would make restart-after-crash fail to bind).
    pool_ = std::make_unique<WorkerPool>(
        opt_.jobs == 0 ? 2 : opt_.jobs, opt_.verbose, [this] {
            if (listenFd_ >= 0)
                ::close(listenFd_);
            if (wakeR_ >= 0)
                ::close(wakeR_);
            if (wakeW_ >= 0)
                ::close(wakeW_);
            for (auto &[id, conn] : conns_) {
                if (conn.fd >= 0)
                    ::close(conn.fd);
            }
        });
    return pool_->start(err);
}

std::string
Server::resultPath(std::uint64_t key) const
{
    return opt_.stateDir + "/results/cell_" + hex64(key) + ".json";
}

void
Server::scanResultCache()
{
    std::string resultsDir = opt_.stateDir + "/results";
    DIR *d = ::opendir(resultsDir.c_str());
    if (d == nullptr)
        return;
    std::vector<std::string> bad;
    while (dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0) {
            // A write the previous daemon never published; the rename
            // never happened, so nothing references it.
            ::unlink((resultsDir + "/" + name).c_str());
            continue;
        }
        if (name.size() != 5 + 16 + 5 || name.rfind("cell_", 0) != 0 ||
            name.substr(21) != ".json")
            continue;
        std::uint64_t key;
        if (!parseHex64(name.substr(5, 16), key))
            continue;
        // fsck: only files that parse, name their own key, match
        // their content checksum and carry every RunResult field are
        // trusted for verbatim replay.
        std::string record;
        RunResult result;
        if (loadCachedRecord(key, record, result)) {
            diskIndex_[key] = true;
        } else {
            bad.push_back(name);
        }
    }
    ::closedir(d);
    for (const std::string &name : bad) {
        std::string from = resultsDir + "/" + name;
        std::string to = opt_.stateDir + "/quarantine/" + name;
        if (::rename(from.c_str(), to.c_str()) == 0) {
            ++stats_.fsckQuarantined;
            std::fprintf(stderr,
                         "smtpd: fsck: quarantined corrupt result "
                         "cache file %s\n",
                         name.c_str());
        }
    }
    if (opt_.verbose && !diskIndex_.empty())
        std::fprintf(stderr, "smtpd: rehydrated %zu cached cell(s)\n",
                     diskIndex_.size());
}

bool
Server::loadCachedRecord(std::uint64_t key, std::string &record,
                         RunResult &result)
{
    std::FILE *f = std::fopen(resultPath(key).c_str(), "rb");
    if (f == nullptr)
        return false;
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    JsonValue v;
    std::string err;
    if (!JsonValue::parse(text, v, &err) || !v.isObject())
        return false;
    const JsonValue *rec = v.find("record");
    if (rec == nullptr || !rec->isString() || rec->str().empty())
        return false;
    std::uint64_t namedKey = 0;
    if (!parseHex64(v.getString("key"), namedKey) || namedKey != key)
        return false;
    const JsonValue *res = v.find("result");
    if (res == nullptr || !res->isObject())
        return false;
    // parse(dump(x)) is the identity for our own output (insertion
    // order kept, %.17g round-trips), so the checksum can be verified
    // against the re-serialized members.
    std::uint64_t sum = 0;
    if (!parseHex64(v.getString("sum"), sum) ||
        sum != contentSum(rec->str(), res->dump()))
        return false;
    // A file written before a RunResult field existed would replay
    // that field as zero: re-simulate instead.
    bool complete = false;
    result = resultFromJson(*res, &complete);
    if (!complete)
        return false;
    record = rec->str();
    return true;
}

void
Server::storeCachedRecord(std::uint64_t key, const std::string &record,
                          const RunResult &result)
{
    JsonValue v = JsonValue::makeObject();
    v.set("key", JsonValue::makeString(hex64(key)));
    v.set("record", JsonValue::makeString(record));
    JsonValue res = resultToJson(result);
    v.set("sum", JsonValue::makeString(
                     hex64(contentSum(record, res.dump()))));
    v.set("result", std::move(res));
    std::string text = v.dump();
    std::string path = resultPath(key);
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return;
    std::fwrite(text.data(), 1, text.size(), f);
    // Crash consistency, not just atomicity: flush to the kernel and
    // then to the device *before* the rename publishes the file, so a
    // power cut can lose the record but never publish a torn one.
    std::fflush(f);
    ::fsync(::fileno(f));
    std::fclose(f);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return;
    }
    int dfd = ::open((opt_.stateDir + "/results").c_str(),
                     O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd); // Best effort; the rename itself was atomic.
        ::close(dfd);
    }
    diskIndex_[key] = true;
}

void
Server::flushConn(Conn &conn)
{
    while (conn.outOff < conn.outbuf.size()) {
        ssize_t w = ::send(conn.fd, conn.outbuf.data() + conn.outOff,
                           conn.outbuf.size() - conn.outOff,
                           MSG_NOSIGNAL);
        if (w >= 0) {
            conn.outOff += static_cast<std::size_t>(w);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break; // poll() will tell us when to resume.
        if (opt_.verbose)
            std::fprintf(stderr, "smtpd: conn %llu write: %s\n",
                         static_cast<unsigned long long>(conn.id),
                         std::strerror(errno));
        conn.dead = true;
        conn.writeFailed = true;
        return;
    }
    if (conn.outOff == conn.outbuf.size()) {
        conn.outbuf.clear();
        conn.outOff = 0;
    } else if (conn.outOff > (1u << 20)) {
        conn.outbuf.erase(0, conn.outOff);
        conn.outOff = 0;
    }
}

bool
Server::sendJson(Conn &conn, const JsonValue &v)
{
    if (conn.dead)
        return false;
    conn.outbuf += encodeFrame(v.dump());
    if (conn.outbuf.size() - conn.outOff > kMaxConnOutbuf) {
        // A reader this far behind (slow-loris or wedged client) is
        // dropped rather than allowed to balloon daemon memory.
        if (opt_.verbose)
            std::fprintf(stderr,
                         "smtpd: conn %llu output buffer overflow, "
                         "dropping\n",
                         static_cast<unsigned long long>(conn.id));
        conn.dead = true;
        conn.writeFailed = true;
        return false;
    }
    flushConn(conn);
    return !conn.dead;
}

void
Server::sendError(Conn &conn, const std::string &msg)
{
    JsonValue v = JsonValue::makeObject();
    v.set("type", JsonValue::makeString("error"));
    v.set("proto", JsonValue::makeNumber(kProtoVersion));
    v.set("message", JsonValue::makeString(msg));
    sendJson(conn, v);
    // A protocol error is not recoverable mid-stream: drop the client
    // rather than guess where its next frame boundary is. dropConn
    // still makes a bounded effort to deliver the frame above.
    conn.dead = true;
}

void
Server::deliverCell(const Cell &cell, const Cell::Waiter &w, bool cached)
{
    auto it = conns_.find(w.conn);
    if (it == conns_.end())
        return;
    JsonValue v = JsonValue::makeObject();
    v.set("type", JsonValue::makeString("cell"));
    v.set("proto", JsonValue::makeNumber(kProtoVersion));
    v.set("job", JsonValue::makeString(hex64(w.job)));
    v.set("index", JsonValue::makeNumber(static_cast<double>(w.index)));
    v.set("key", JsonValue::makeString(hex64(cell.key)));
    v.set("cached", JsonValue::makeBool(cached));
    v.set("record", JsonValue::makeString(cell.record));
    if (cell.failed) {
        v.set("failed", JsonValue::makeBool(true));
        v.set("error", JsonValue::makeString(cell.errReason));
        v.set("detail", JsonValue::makeString(cell.errDetail));
        v.set("attempts", JsonValue::makeNumber(
                              static_cast<double>(cell.attempts)));
    } else {
        v.set("result", resultToJson(cell.result));
    }
    if (!cell.cfg.traceStem.empty() && cell.cfg.traceStem != "?")
        v.set("trace_stem", JsonValue::makeString(cell.cfg.traceStem));
    sendJson(it->second, v);
}

void
Server::finishJobIfDone(std::uint64_t jobId)
{
    auto jt = jobs_.find(jobId);
    if (jt == jobs_.end())
        return;
    Job &job = jt->second;
    if (job.delivered + job.skipped + job.failed < job.cells)
        return;
    auto ct = conns_.find(job.conn);
    if (ct != conns_.end()) {
        JsonValue v = JsonValue::makeObject();
        v.set("type", JsonValue::makeString("done"));
        v.set("proto", JsonValue::makeNumber(kProtoVersion));
        v.set("job", JsonValue::makeString(hex64(job.id)));
        v.set("completed",
              JsonValue::makeNumber(static_cast<double>(job.delivered)));
        v.set("skipped",
              JsonValue::makeNumber(static_cast<double>(job.skipped)));
        v.set("failed",
              JsonValue::makeNumber(static_cast<double>(job.failed)));
        sendJson(ct->second, v);
    }
    jobs_.erase(jt);
}

// ---------------------------------------------------------------------------
// Scheduler.

void
Server::enqueueCell(std::uint64_t key, int priority)
{
    pending_[priority].push_back(key);
}

std::size_t
Server::backlogSize() const
{
    std::size_t n = retryQueue_.size();
    for (const auto &[prio, q] : pending_)
        n += q.size();
    return n;
}

void
Server::dispatchPending()
{
    if (stopping_)
        return;
    while (pool_->idle() > 0) {
        std::uint64_t key = 0;
        bool found = false;
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->second.empty()) {
                it = pending_.erase(it);
                continue;
            }
            key = it->second.front();
            it->second.pop_front();
            found = true;
            break;
        }
        if (!found)
            return;
        auto ct = cells_.find(key);
        if (ct == cells_.end())
            continue;
        Cell &cell = *ct->second;
        if (cell.state != CellState::Queued)
            continue; // Stale queue entry.
        if (cell.abandoned && cell.waiters.empty()) {
            ++stats_.cellsSkipped;
            cells_.erase(ct);
            continue;
        }
        JsonValue req = JsonValue::makeObject();
        req.set("op", JsonValue::makeString("run"));
        req.set("cell", cellToJson(cell.cfg));
        req.set("ckpt_dir", JsonValue::makeString(cell.cfg.ckptDir));
        if (!cell.cfg.traceStem.empty() && cell.cfg.traceStem != "?")
            req.set("trace_stem",
                    JsonValue::makeString(cell.cfg.traceStem));
        req.set("attempt", JsonValue::makeNumber(
                               static_cast<double>(cell.attempts + 1)));
        req.set("key", JsonValue::makeString(hex64(key)));
        auto deadline = std::chrono::steady_clock::time_point::max();
        if (cell.deadlineMs != 0)
            deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(cell.deadlineMs);
        if (!pool_->dispatch(key, cell.attempts + 1, req.dump(),
                             deadline)) {
            // Dispatch can fail transiently while the pool heals from
            // a failed respawn; keep the cell at the head of its class.
            pending_[cell.priority].push_front(key);
            return;
        }
        ++cell.attempts;
        cell.state = CellState::Running;
        if (opt_.verbose)
            std::fprintf(
                stderr,
                "smtpd: cell %s dispatched (%s %s n%u w%u attempt %u)\n",
                hex64(key).c_str(),
                std::string(modelName(cell.cfg.model)).c_str(),
                cell.cfg.app.c_str(), cell.cfg.nodes, cell.cfg.ways,
                cell.attempts);
    }
}

void
Server::promoteDueRetries(std::chrono::steady_clock::time_point now)
{
    while (!retryQueue_.empty() && retryQueue_.begin()->first <= now) {
        std::uint64_t key = retryQueue_.begin()->second;
        retryQueue_.erase(retryQueue_.begin());
        auto ct = cells_.find(key);
        if (ct == cells_.end())
            continue;
        Cell &cell = *ct->second;
        if (cell.state != CellState::RetryWait)
            continue;
        if (cell.abandoned && cell.waiters.empty()) {
            ++stats_.cellsSkipped;
            cells_.erase(ct);
            continue;
        }
        cell.state = CellState::Queued;
        enqueueCell(key, cell.priority);
    }
}

int
Server::nextTimeoutMs() const
{
    auto now = std::chrono::steady_clock::now();
    int timeout = pool_->nextDeadlineMs(now);
    if (!retryQueue_.empty()) {
        auto due = retryQueue_.begin()->first;
        int ms = 0;
        if (due > now)
            ms = static_cast<int>(
                     std::chrono::duration_cast<
                         std::chrono::milliseconds>(due - now)
                         .count()) +
                 1;
        if (timeout < 0 || ms < timeout)
            timeout = ms;
    }
    return timeout;
}

void
Server::quarantineCell(Cell &cell, const std::string &reason,
                       const std::string &detail)
{
    cell.failed = true;
    cell.state = CellState::Done;
    cell.errReason = reason;
    cell.errDetail = detail;
    cell.record =
        jsonFailureRecord(cell.cfg, reason, detail, cell.attempts);
    if (reason == "shed")
        ++stats_.cellsShed;
    else
        ++stats_.cellsQuarantined;
    std::vector<Cell::Waiter> waiters;
    waiters.swap(cell.waiters);
    for (const Cell::Waiter &w : waiters) {
        deliverCell(cell, w, /*cached=*/false);
        auto jt = jobs_.find(w.job);
        if (jt != jobs_.end()) {
            ++jt->second.failed;
            finishJobIfDone(w.job);
        }
    }
    // The failure record is deliberately NOT written to the result
    // cache: a daemon restart gives poison cells a fresh chance
    // (whatever crashed them may have been environmental). Shed cells
    // are forgotten entirely so a resubmission recomputes them.
    if (reason == "shed")
        cells_.erase(cell.key);
}

std::size_t
Server::shedBelow(int below, std::size_t need)
{
    std::size_t shed = 0;
    // Lowest priority class first; within a class, newest first (the
    // oldest queued cell is closest to running and most likely has the
    // most waiters behind it).
    for (auto it = pending_.rbegin();
         it != pending_.rend() && shed < need; ++it) {
        if (it->first >= below)
            break;
        std::deque<std::uint64_t> &q = it->second;
        while (!q.empty() && shed < need) {
            std::uint64_t key = q.back();
            q.pop_back();
            auto ct = cells_.find(key);
            if (ct == cells_.end())
                continue;
            Cell &cell = *ct->second;
            if (cell.state != CellState::Queued)
                continue;
            if (cell.abandoned && cell.waiters.empty()) {
                ++stats_.cellsSkipped;
                cells_.erase(ct);
                ++shed; // Freed a slot either way.
                continue;
            }
            quarantineCell(cell,
                           "shed",
                           "shed by admission control for a "
                           "higher-priority job");
            ++shed;
        }
    }
    return shed;
}

void
Server::onWorkerEvent(const WorkerEvent &ev)
{
    auto ct = cells_.find(ev.key);
    if (ct == cells_.end())
        return; // Cancel-killed and forgotten; nothing to account.
    Cell &cell = *ct->second;
    if (cell.state != CellState::Running || ev.attempt != cell.attempts)
        return; // Stale event from a recycled worker.

    if (ev.kind == WorkerEvent::Kind::Done) {
        cell.record = ev.record;
        JsonValue res;
        std::string err;
        if (JsonValue::parse(ev.resultJson, res, &err))
            cell.result = resultFromJson(res);
        cell.state = CellState::Done;
        ++stats_.cellsSimulated;
        // Checked cells are cacheable too: the record is final either
        // way. Trace cells are cached as records; artifacts stay on
        // disk under traces/ and are referenced by path.
        storeCachedRecord(ev.key, cell.record, cell.result);
        std::vector<Cell::Waiter> waiters;
        waiters.swap(cell.waiters);
        for (const Cell::Waiter &w : waiters) {
            deliverCell(cell, w, /*cached=*/false);
            auto jt = jobs_.find(w.job);
            if (jt != jobs_.end()) {
                ++jt->second.delivered;
                finishJobIfDone(w.job);
            }
        }
        return;
    }

    // A failed attempt: worker crash, deadline kill, or clean error.
    ++stats_.cellsFailed;
    std::string reason;
    switch (ev.kind) {
    case WorkerEvent::Kind::Crashed:
        ++stats_.workersCrashed;
        reason = "crash";
        break;
    case WorkerEvent::Kind::DeadlineKilled:
        ++stats_.workersDeadlineKilled;
        reason = "deadline";
        break;
    default:
        reason = "error";
        break;
    }
    if (opt_.verbose)
        std::fprintf(stderr,
                     "smtpd: cell %s attempt %u failed (%s: %s)\n",
                     hex64(ev.key).c_str(), ev.attempt, reason.c_str(),
                     ev.error.c_str());
    if (cell.abandoned && cell.waiters.empty()) {
        // Nobody is waiting; don't burn retries on unwanted work.
        ++stats_.cellsSkipped;
        cells_.erase(ct);
        return;
    }
    if (cell.attempts >= opt_.maxAttempts || stopping_) {
        quarantineCell(cell, reason, ev.error);
        return;
    }
    ++stats_.cellsRetried;
    cell.state = CellState::RetryWait;
    // RetryPolicy numbers are milliseconds in the serve layer: the
    // parsed config stores base*tickPerNs ticks, so ticks/tickPerNs
    // recovers milliseconds. Jitter comes from the seeded stream.
    std::uint64_t delayMs =
        fault::retryBackoff(opt_.retry, cell.attempts, rng_) / tickPerNs;
    cell.retryDue = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(delayMs);
    retryQueue_.emplace(cell.retryDue, ev.key);
    if (opt_.verbose)
        std::fprintf(stderr, "smtpd: cell %s retry %u in %llu ms\n",
                     hex64(ev.key).c_str(), cell.attempts,
                     static_cast<unsigned long long>(delayMs));
}

// ---------------------------------------------------------------------------
// Request handlers.

void
Server::handleSubmit(Conn &conn, const JsonValue &req)
{
    for (const auto &[key, value] : req.members()) {
        if (key != "op" && key != "proto" && key != "priority" &&
            key != "cells" && key != "deadline_ms") {
            sendError(conn, "unknown request field '" + key + "'");
            return;
        }
    }
    int priority = 0;
    const JsonValue *prio = req.find("priority");
    if (prio != nullptr) {
        if (!prio->isNumber()) {
            sendError(conn, "priority must be a number");
            return;
        }
        priority = static_cast<int>(prio->number());
    }
    std::uint64_t deadlineMs = opt_.deadlineMs;
    const JsonValue *dl = req.find("deadline_ms");
    if (dl != nullptr) {
        if (!dl->isNumber() || dl->number() < 0) {
            sendError(conn, "deadline_ms must be a non-negative number");
            return;
        }
        deadlineMs = static_cast<std::uint64_t>(dl->number());
    }
    const JsonValue *cells = req.find("cells");
    if (cells == nullptr || !cells->isArray() || cells->array().empty()) {
        sendError(conn, "submit requires a non-empty 'cells' array");
        return;
    }
    std::vector<RunConfig> cfgs;
    cfgs.reserve(cells->array().size());
    for (std::size_t i = 0; i < cells->array().size(); ++i) {
        RunConfig cfg;
        std::string err;
        if (!cellFromJson(cells->array()[i], cfg, &err)) {
            sendError(conn, "cell " + std::to_string(i) + ": " + err);
            return;
        }
        if (!knownApp(cfg.app)) {
            sendError(conn, "cell " + std::to_string(i) +
                                ": unknown application '" + cfg.app +
                                "'");
            return;
        }
        // The daemon owns the checkpoint farm; whatever the client had
        // configured locally is irrelevant here.
        cfg.ckptDir = cfg.checkLevel == check::CheckLevel::Off
                          ? opt_.stateDir + "/ckpt"
                          : std::string();
        cfgs.push_back(std::move(cfg));
    }

    // Admission control, before anything is accepted: count the cells
    // that would genuinely join the backlog (not dedup joins, not
    // cache hits). If they don't fit, shed strictly-lower-priority
    // queued work; if they still don't fit, refuse the whole job with
    // explicit backpressure — the client decides what to do, and the
    // connection stays usable.
    std::vector<std::uint64_t> keys(cfgs.size());
    std::size_t newCells = 0;
    {
        std::unordered_map<std::uint64_t, bool> seen;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            keys[i] = cellKey(cfgs[i]);
            if (cells_.count(keys[i]) == 0 &&
                diskIndex_.count(keys[i]) == 0 &&
                seen.emplace(keys[i], true).second)
                ++newCells;
        }
    }
    std::size_t backlog = backlogSize();
    if (backlog + newCells > opt_.maxQueuedCells) {
        std::size_t need = backlog + newCells - opt_.maxQueuedCells;
        shedBelow(priority, need);
        backlog = backlogSize();
        if (backlog + newCells > opt_.maxQueuedCells) {
            ++stats_.jobsRejected;
            JsonValue v = JsonValue::makeObject();
            v.set("type", JsonValue::makeString("overloaded"));
            v.set("proto", JsonValue::makeNumber(kProtoVersion));
            v.set("queued", JsonValue::makeNumber(
                                static_cast<double>(backlog)));
            v.set("limit", JsonValue::makeNumber(static_cast<double>(
                               opt_.maxQueuedCells)));
            sendJson(conn, v);
            return;
        }
    }

    std::uint64_t jobId = nextJobId_++;
    Job job;
    job.id = jobId;
    job.conn = conn.id;
    job.cells = cfgs.size();
    jobs_.emplace(jobId, job);
    ++stats_.jobsAccepted;
    stats_.cellsSubmitted += cfgs.size();

    JsonValue acc = JsonValue::makeObject();
    acc.set("type", JsonValue::makeString("accepted"));
    acc.set("proto", JsonValue::makeNumber(kProtoVersion));
    acc.set("job", JsonValue::makeString(hex64(jobId)));
    acc.set("cells",
            JsonValue::makeNumber(static_cast<double>(cfgs.size())));
    sendJson(conn, acc);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        RunConfig &cfg = cfgs[i];
        std::uint64_t key = keys[i];
        // The trace stem is daemon-assigned and keyed by the cell, so
        // re-submissions overwrite rather than accumulate artifacts.
        // cellKey() only folds in *whether* tracing is on, never the
        // stem string, so this substitution cannot change the key.
        if (cfg.traceStem == "?")
            cfg.traceStem =
                opt_.stateDir + "/traces/cell_" + hex64(key);

        auto it = cells_.find(key);
        if (it != cells_.end()) {
            Cell &cell = *it->second;
            ++stats_.dedupHits;
            if (cell.state == CellState::Done) {
                deliverCell(cell, Cell::Waiter{conn.id, jobId, i},
                            /*cached=*/true);
                if (cell.failed)
                    ++jobs_[jobId].failed;
                else
                    ++jobs_[jobId].delivered;
            } else {
                cell.abandoned = false;
                cell.waiters.push_back(Cell::Waiter{conn.id, jobId, i});
            }
            continue;
        }

        auto cell = std::make_shared<Cell>();
        cell->key = key;
        cell->cfg = cfg;
        cell->priority = priority;
        cell->deadlineMs = deadlineMs;
        std::string record;
        RunResult cached;
        if (diskIndex_.count(key) != 0 &&
            loadCachedRecord(key, record, cached)) {
            cell->state = CellState::Done;
            cell->fromCache = true;
            cell->record = std::move(record);
            cell->result = cached;
            cells_.emplace(key, cell);
            ++stats_.diskHits;
            deliverCell(*cell, Cell::Waiter{conn.id, jobId, i},
                        /*cached=*/true);
            ++jobs_[jobId].delivered;
            continue;
        }
        cell->waiters.push_back(Cell::Waiter{conn.id, jobId, i});
        cells_.emplace(key, cell);
        enqueueCell(key, priority);
    }
    finishJobIfDone(jobId);
    dispatchPending();
}

void
Server::handleCancel(Conn &conn, const JsonValue &req)
{
    for (const auto &[key, value] : req.members()) {
        if (key != "op" && key != "proto" && key != "job") {
            sendError(conn, "unknown request field '" + key + "'");
            return;
        }
    }
    std::uint64_t jobId;
    const JsonValue *job = req.find("job");
    if (job == nullptr || !job->isString() ||
        !parseHex64(job->str(), jobId)) {
        sendError(conn, "cancel requires a 'job' id string");
        return;
    }
    std::size_t removed = 0;
    auto jt = jobs_.find(jobId);
    if (jt != jobs_.end()) {
        jt->second.cancelled = true;
        std::vector<std::uint64_t> killed;
        for (auto &[key, cellPtr] : cells_) {
            Cell &cell = *cellPtr;
            auto end = std::remove_if(
                cell.waiters.begin(), cell.waiters.end(),
                [jobId](const Cell::Waiter &w) { return w.job == jobId; });
            std::size_t n =
                static_cast<std::size_t>(cell.waiters.end() - end);
            cell.waiters.erase(end, cell.waiters.end());
            removed += n;
            if (n == 0 || !cell.waiters.empty())
                continue;
            // A queued/retrying cell nobody wants any more is skipped
            // when its turn comes; a RUNNING one is killed right now —
            // cancellation frees the worker slot promptly instead of
            // letting an unwanted simulation hold it (possibly for
            // minutes).
            if (cell.state == CellState::Running) {
                if (pool_->killCell(key)) {
                    ++stats_.workersCancelKilled;
                    ++stats_.cellsSkipped;
                    killed.push_back(key);
                }
            } else if (cell.state != CellState::Done) {
                cell.abandoned = true;
            }
        }
        for (std::uint64_t key : killed)
            cells_.erase(key);
        jt->second.skipped += removed;
        ++stats_.jobsCancelled;
    }
    JsonValue v = JsonValue::makeObject();
    v.set("type", JsonValue::makeString("cancelled"));
    v.set("proto", JsonValue::makeNumber(kProtoVersion));
    v.set("job", JsonValue::makeString(hex64(jobId)));
    v.set("removed", JsonValue::makeNumber(static_cast<double>(removed)));
    sendJson(conn, v);
    finishJobIfDone(jobId);
    dispatchPending();
}

void
Server::handleStats(Conn &conn)
{
    std::size_t running = 0, queued = 0, cached = 0, retrying = 0;
    for (const auto &[key, cell] : cells_) {
        switch (cell->state) {
        case CellState::Queued: ++queued; break;
        case CellState::Running: ++running; break;
        case CellState::RetryWait: ++retrying; break;
        case CellState::Done: ++cached; break;
        }
    }
    JsonValue v = JsonValue::makeObject();
    v.set("type", JsonValue::makeString("stats"));
    v.set("proto", JsonValue::makeNumber(kProtoVersion));
    v.set("jobs_active",
          JsonValue::makeNumber(static_cast<double>(jobs_.size())));
    v.set("cells_queued",
          JsonValue::makeNumber(static_cast<double>(queued)));
    v.set("cells_running",
          JsonValue::makeNumber(static_cast<double>(running)));
    v.set("cells_retry_wait",
          JsonValue::makeNumber(static_cast<double>(retrying)));
    v.set("cells_cached",
          JsonValue::makeNumber(static_cast<double>(cached)));
    auto num = [](std::uint64_t x) {
        return JsonValue::makeNumber(static_cast<double>(x));
    };
    v.set("jobs_accepted", num(stats_.jobsAccepted));
    v.set("jobs_cancelled", num(stats_.jobsCancelled));
    v.set("jobs_rejected", num(stats_.jobsRejected));
    v.set("cells_submitted", num(stats_.cellsSubmitted));
    v.set("cells_simulated", num(stats_.cellsSimulated));
    v.set("cells_skipped", num(stats_.cellsSkipped));
    v.set("dedup_hits", num(stats_.dedupHits));
    v.set("disk_hits", num(stats_.diskHits));
    v.set("cells_failed", num(stats_.cellsFailed));
    v.set("cells_retried", num(stats_.cellsRetried));
    v.set("cells_quarantined", num(stats_.cellsQuarantined));
    v.set("cells_shed", num(stats_.cellsShed));
    v.set("workers_crashed", num(stats_.workersCrashed));
    v.set("workers_deadline_killed", num(stats_.workersDeadlineKilled));
    v.set("workers_cancel_killed", num(stats_.workersCancelKilled));
    v.set("fsck_quarantined", num(stats_.fsckQuarantined));
    sendJson(conn, v);
}

void
Server::handleHealth(Conn &conn)
{
    JsonValue v = JsonValue::makeObject();
    v.set("type", JsonValue::makeString("health"));
    v.set("proto", JsonValue::makeNumber(kProtoVersion));
    v.set("workers", JsonValue::makeNumber(
                         static_cast<double>(pool_->workers())));
    v.set("workers_busy",
          JsonValue::makeNumber(static_cast<double>(pool_->busy())));
    v.set("workers_reaped",
          JsonValue::makeNumber(static_cast<double>(pool_->reaped())));
    JsonValue pids = JsonValue::makeArray();
    for (int pid : pool_->pids())
        pids.append(JsonValue::makeNumber(static_cast<double>(pid)));
    v.set("worker_pids", std::move(pids));
    v.set("queue_depth", JsonValue::makeNumber(
                             static_cast<double>(backlogSize())));
    v.set("admission_limit", JsonValue::makeNumber(static_cast<double>(
                                 opt_.maxQueuedCells)));
    v.set("jobs_active",
          JsonValue::makeNumber(static_cast<double>(jobs_.size())));
    v.set("connections",
          JsonValue::makeNumber(static_cast<double>(conns_.size())));
    v.set("cache_cells", JsonValue::makeNumber(
                             static_cast<double>(diskIndex_.size())));
    v.set("fsck_quarantined", JsonValue::makeNumber(static_cast<double>(
                                  stats_.fsckQuarantined)));
    v.set("deadline_ms", JsonValue::makeNumber(
                             static_cast<double>(opt_.deadlineMs)));
    v.set("max_attempts", JsonValue::makeNumber(
                              static_cast<double>(opt_.maxAttempts)));
    v.set("retry_policy", JsonValue::makeString(
                              fault::retryPolicyToString(opt_.retry)));
    sendJson(conn, v);
}

void
Server::handleFrame(Conn &conn, const std::string &payload)
{
    JsonValue req;
    std::string err;
    if (!JsonValue::parse(payload, req, &err) || !req.isObject()) {
        sendError(conn, "malformed request: " +
                            (err.empty() ? "not an object" : err));
        return;
    }
    const JsonValue *proto = req.find("proto");
    if (proto != nullptr &&
        (!proto->isNumber() ||
         proto->number() != static_cast<double>(kProtoVersion))) {
        sendError(conn, "unsupported protocol version");
        return;
    }
    std::string op = req.getString("op");
    if (op == "ping") {
        JsonValue v = JsonValue::makeObject();
        v.set("type", JsonValue::makeString("pong"));
        v.set("proto", JsonValue::makeNumber(kProtoVersion));
        sendJson(conn, v);
    } else if (op == "stats") {
        handleStats(conn);
    } else if (op == "health") {
        handleHealth(conn);
    } else if (op == "submit") {
        handleSubmit(conn, req);
    } else if (op == "cancel") {
        handleCancel(conn, req);
    } else if (op == "shutdown") {
        JsonValue v = JsonValue::makeObject();
        v.set("type", JsonValue::makeString("shutting_down"));
        v.set("proto", JsonValue::makeNumber(kProtoVersion));
        sendJson(conn, v);
        requestStop();
    } else {
        sendError(conn, "unknown op '" + op + "'");
    }
}

// ---------------------------------------------------------------------------
// Connection plumbing.

void
Server::acceptClients()
{
    while (true) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or a transient error; poll again.
        }
        // Nonblocking: all writes go through the buffered sendJson
        // path, so one slow reader can never stall the poll loop.
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
        Conn conn;
        conn.id = nextConnId_++;
        conn.fd = fd;
        std::uint64_t id = conn.id;
        conns_.emplace(id, std::move(conn));
        if (opt_.verbose)
            std::fprintf(stderr, "smtpd: conn %llu connected\n",
                         static_cast<unsigned long long>(id));
    }
}

void
Server::readClient(Conn &conn)
{
    char buf[65536];
    ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n == 0) {
        conn.dead = true;
        return;
    }
    if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        conn.dead = true;
        conn.writeFailed = true;
        return;
    }
    conn.splitter.feed(buf, static_cast<std::size_t>(n));
    std::string payload;
    while (!conn.dead && conn.splitter.next(payload))
        handleFrame(conn, payload);
    if (!conn.splitter.error().empty())
        sendError(conn, conn.splitter.error());
}

void
Server::dropConn(Conn &conn)
{
    if (opt_.verbose)
        std::fprintf(stderr, "smtpd: conn %llu closed\n",
                     static_cast<unsigned long long>(conn.id));
    // Courtesy flush: error and in-flight reply frames should still
    // reach a live-but-slow peer, but with a hard time bound so a
    // hostile half-open socket cannot wedge the daemon.
    if (!conn.writeFailed && conn.fd >= 0 &&
        conn.outOff < conn.outbuf.size()) {
        auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(1000);
        while (conn.outOff < conn.outbuf.size() &&
               std::chrono::steady_clock::now() < give_up) {
            pollfd p{conn.fd, POLLOUT, 0};
            if (::poll(&p, 1, 100) <= 0)
                continue;
            std::size_t before = conn.outOff;
            flushConn(conn);
            if (conn.writeFailed || conn.outOff == before)
                break;
        }
    }
    // Abandon every job this client owned: nobody is listening for the
    // results, so unstarted cells are skipped (finished ones still land
    // in the cache for the client's next attempt — running ones are
    // left to complete for the same reason, unlike explicit cancel).
    std::vector<std::uint64_t> gone;
    for (auto &[jobId, job] : jobs_) {
        if (job.conn == conn.id)
            gone.push_back(jobId);
    }
    for (auto &[key, cellPtr] : cells_) {
        Cell &cell = *cellPtr;
        auto end = std::remove_if(
            cell.waiters.begin(), cell.waiters.end(),
            [&conn](const Cell::Waiter &w) { return w.conn == conn.id; });
        cell.waiters.erase(end, cell.waiters.end());
        if (cell.waiters.empty() && cell.state != CellState::Done &&
            cell.state != CellState::Running)
            cell.abandoned = true;
    }
    for (std::uint64_t jobId : gone)
        jobs_.erase(jobId);
    if (conn.fd >= 0)
        ::close(conn.fd);
    conn.fd = -1;
}

int
Server::run()
{
    std::string err;
    if (!setup(&err)) {
        std::fprintf(stderr, "smtpd: %s\n", err.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "smtpd: listening on %s (state %s, %u worker "
                 "process%s)\n",
                 opt_.socketPath.c_str(), opt_.stateDir.c_str(),
                 pool_->workers(), pool_->workers() == 1 ? "" : "es");

    std::vector<WorkerEvent> events;
    while (true) {
        if (stopReq_.load())
            stopping_ = true;
        if (stopping_)
            break;
        std::vector<pollfd> fds;
        fds.push_back(pollfd{listenFd_, POLLIN, 0});
        fds.push_back(pollfd{wakeR_, POLLIN, 0});
        std::vector<int> workerFds = pool_->pollFds();
        for (int wfd : workerFds)
            fds.push_back(pollfd{wfd, POLLIN, 0});
        std::vector<std::uint64_t> order;
        for (auto &[id, conn] : conns_) {
            short want = POLLIN;
            if (conn.outOff < conn.outbuf.size())
                want |= POLLOUT;
            fds.push_back(pollfd{conn.fd, want, 0});
            order.push_back(id);
        }
        int rc = ::poll(fds.data(), fds.size(), nextTimeoutMs());
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "smtpd: poll: %s\n",
                         std::strerror(errno));
            break;
        }
        if ((fds[1].revents & POLLIN) != 0) {
            char buf[256];
            while (::read(wakeR_, buf, sizeof(buf)) > 0) {
            }
        }
        // Worker pipes and timers first: completions free worker slots
        // and retry promotions fill the queue, so the dispatch below
        // sees the freshest picture.
        events.clear();
        pool_->service(events);
        for (const WorkerEvent &ev : events)
            onWorkerEvent(ev);
        promoteDueRetries(std::chrono::steady_clock::now());
        if ((fds[0].revents & POLLIN) != 0)
            acceptClients();
        std::size_t connBase = 2 + workerFds.size();
        for (std::size_t i = 0; i < order.size(); ++i) {
            auto it = conns_.find(order[i]);
            if (it == conns_.end())
                continue;
            short re = fds[connBase + i].revents;
            if ((re & (POLLERR | POLLNVAL)) != 0)
                it->second.dead = true;
            else if ((re & (POLLIN | POLLHUP)) != 0)
                readClient(it->second);
            if (!it->second.dead && (re & POLLOUT) != 0)
                flushConn(it->second);
        }
        dispatchPending();
        for (auto it = conns_.begin(); it != conns_.end();) {
            if (it->second.dead) {
                dropConn(it->second);
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
    }

    // Clean shutdown: stop accepting, let in-flight simulations finish
    // (their records land in the cache and reach their waiters), fail
    // anything that breaks during the drain (no retries while
    // stopping), skip everything still queued, then close every
    // connection with a bounded flush.
    ::close(listenFd_);
    listenFd_ = -1;
    while (pool_->busy() > 0) {
        std::vector<int> workerFds = pool_->pollFds();
        std::vector<pollfd> fds;
        for (int wfd : workerFds)
            fds.push_back(pollfd{wfd, POLLIN, 0});
        int timeout = pool_->nextDeadlineMs(
            std::chrono::steady_clock::now());
        ::poll(fds.data(), fds.size(), timeout < 0 ? 200 : timeout);
        events.clear();
        pool_->service(events);
        for (const WorkerEvent &ev : events)
            onWorkerEvent(ev);
    }
    for (auto &[id, conn] : conns_) {
        conn.dead = true;
        dropConn(conn);
    }
    conns_.clear();
    std::fprintf(
        stderr,
        "smtpd: shutdown (%llu simulated, %llu dedup hits, %llu disk "
        "hits, %llu workers reaped)\n",
        static_cast<unsigned long long>(stats_.cellsSimulated),
        static_cast<unsigned long long>(stats_.dedupHits),
        static_cast<unsigned long long>(stats_.diskHits),
        static_cast<unsigned long long>(pool_->reaped()));
    return 0;
}

} // namespace smtp::serve
