/**
 * @file
 * smtpd — the sweep-service daemon (docs/service.md).
 *
 *   smtpd --socket=PATH --state-dir=DIR [--jobs=N] [--verbose]
 *         [--deadline-ms=MS] [--max-attempts=N] [--max-queue=N]
 *         [--retry-policy=SPEC] [--retry-seed=S]
 *
 * Listens on a local UNIX socket for sweep jobs (see smtpctl and the
 * bench binaries' --server mode), simulates each distinct cell once —
 * in a crash-isolated worker *process* — streams records back as they
 * complete, and keeps a warm checkpoint farm plus an on-disk result
 * cache under --state-dir so identical work is never paid for twice,
 * not even across daemon restarts. A crashing or wedged simulation
 * kills only its worker: the cell is retried on a jittered backoff and
 * quarantined with a structured failure record after --max-attempts.
 * SIGINT/SIGTERM (or a client "shutdown" request) stops cleanly:
 * running cells finish and land in the cache, queued ones are skipped.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/parse.hpp"
#include "serve/server.hpp"
#include "sim/sweep.hpp"

namespace
{

smtp::serve::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop();
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: smtpd --socket=PATH --state-dir=DIR [options]\n"
        "  --socket=PATH       UNIX socket to listen on (required)\n"
        "  --state-dir=DIR     checkpoint farm + result cache + traces\n"
        "  --jobs=N            worker processes (default: 2)\n"
        "  --deadline-ms=MS    default per-cell deadline; overdue\n"
        "                      workers are killed and retried (0 = off)\n"
        "  --max-attempts=N    attempts before a failing cell is\n"
        "                      quarantined (default: 3)\n"
        "  --max-queue=N       admission limit on queued cells\n"
        "                      (default: 1024)\n"
        "  --retry-policy=SPEC immediate | fixed[:ms] | exp[:ms[:ms]]\n"
        "                      between attempts (default: exp:100:5000)\n"
        "  --retry-seed=S      retry-jitter seed (default: 1)\n"
        "  --verbose           per-connection and per-cell progress\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    smtp::serve::ServerOptions opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        auto digits = [&arg](const char *v, auto &n, unsigned min) {
            if (smtp::parseDigits(v, n) && n >= min)
                return true;
            std::fprintf(stderr, "smtpd: bad %s\n", arg.c_str());
            return false;
        };
        if (const char *v = value("--socket=")) {
            opt.socketPath = v;
        } else if (const char *v = value("--state-dir=")) {
            opt.stateDir = v;
        } else if (const char *v = value("--jobs=")) {
            std::string err;
            if (!smtp::parseJobs(v, opt.jobs, &err)) {
                std::fprintf(stderr, "smtpd: --jobs: %s\n", err.c_str());
                return 2;
            }
        } else if (const char *v = value("--deadline-ms=")) {
            if (!digits(v, opt.deadlineMs, 0))
                return 2;
        } else if (const char *v = value("--max-attempts=")) {
            if (!digits(v, opt.maxAttempts, 1))
                return 2;
        } else if (const char *v = value("--max-queue=")) {
            if (!digits(v, opt.maxQueuedCells, 1))
                return 2;
        } else if (const char *v = value("--retry-policy=")) {
            std::string err;
            // Fault-layer grammar; the serve layer reads the numbers
            // as milliseconds (docs/service.md).
            if (!smtp::fault::parseRetryPolicy(v, opt.retry, &err)) {
                std::fprintf(stderr, "smtpd: %s\n", err.c_str());
                return 2;
            }
        } else if (const char *v = value("--retry-seed=")) {
            if (!digits(v, opt.retrySeed, 0))
                return 2;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            std::fprintf(stderr, "smtpd: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        }
    }
    if (opt.socketPath.empty() || opt.stateDir.empty())
        return usage();

    smtp::serve::Server server(std::move(opt));
    g_server = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);
    int rc = server.run();
    g_server = nullptr;
    return rc;
}
