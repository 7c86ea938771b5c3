/**
 * @file
 * smtpctl — command-line client for the smtpd sweep daemon.
 *
 *   smtpctl --socket=PATH ping
 *   smtpctl --socket=PATH stats
 *   smtpctl --socket=PATH shutdown
 *   smtpctl --socket=PATH run [cell options]
 *
 * `run` submits a cross-product sweep (models x apps x node counts)
 * as one job and streams results as the daemon completes them: a
 * human-readable table line per cell on stdout, and — with --json=FILE
 * — the daemon's verbatim JSON-Lines records appended to FILE, in
 * submission order, byte-identical (mod wall_ms) to what the same
 * bench run would have written locally.
 *
 * Exit codes are script-stable:
 *   0  success (every requested cell produced a record)
 *   1  connection, protocol, or daemon error (refused socket,
 *      malformed reply, daemon overloaded, ...)
 *   2  usage error (bad flags, unknown command)
 *   3  the job ran but one or more cells FAILED — quarantined after
 *      repeated crashes/deadline kills, or shed by admission control;
 *      each failure is diagnosed on stderr
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"

namespace
{

using namespace smtp;
using namespace smtp::serve;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: smtpctl --socket=PATH COMMAND [options]\n"
        "commands:\n"
        "  ping                  liveness round-trip\n"
        "  stats                 print daemon counters\n"
        "  health                worker/queue/cache health snapshot\n"
        "  shutdown              ask the daemon to exit cleanly\n"
        "  run                   submit a sweep and stream results\n"
        "run options (defaults in parentheses):\n"
        "  --models=A,B          machine models (SMTp)\n"
        "  --apps=a,b            applications (fft)\n"
        "  --nodes=N,M           node counts, powers of two to 32 (8)\n"
        "  --ways=N              SMT contexts per CPU (1)\n"
        "  --scale=F             problem scale factor (0.05)\n"
        "  --dcache-div=N        directory-cache divisor, a power of "
        "two (16)\n"
        "  --exec=MODE           serial | parallel[:T] (serial)\n"
        "  --check=LEVEL         off | asserts | full (off)\n"
        "  --protocol=NAME       bitvector | migratory | phase-priority\n"
        "  --sample=W:M:K        sampled measurement spec\n"
        "  --faults=PLAN         fault-injection plan\n"
        "  --retry=SPEC          NAK retry policy\n"
        "  --trace               request server-side trace artifacts\n"
        "  --priority=N          job priority, higher first (0)\n"
        "  --deadline=MS         per-cell deadline (0 = daemon default)\n"
        "  --json=FILE           append the daemon's records to FILE\n"
        "exit codes: 0 ok, 1 connection/daemon error, 2 usage, "
        "3 cells failed\n");
    return 2;
}

/** Print a stats or health reply, one member per line. */
int
printReply(Client &client, bool (Client::*query)(JsonValue &))
{
    JsonValue v;
    if (!(client.*query)(v)) {
        std::fprintf(stderr, "smtpctl: %s\n", client.error().c_str());
        return 1;
    }
    for (const auto &[key, value] : v.members()) {
        if (key == "type" || key == "proto")
            continue;
        if (value.isNumber()) {
            std::printf("%-24s %.0f\n", key.c_str(), value.number());
        } else if (value.isString()) {
            std::printf("%-24s %s\n", key.c_str(), value.str().c_str());
        } else if (value.isArray()) {
            std::printf("%-24s", key.c_str());
            for (const JsonValue &e : value.array())
                std::printf(" %.0f", e.number());
            std::printf("\n");
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath;
    std::string command;
    std::string models = "SMTp";
    std::string apps = "fft";
    std::string nodesList = "8";
    RunConfig base;
    base.scale = 0.05;
    int priority = 0;
    std::uint64_t deadlineMs = 0;
    std::string jsonPath;
    bool trace = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        std::string err;
        if (parseCellFlag(arg, base, &err))
            continue;
        if (!err.empty()) {
            std::fprintf(stderr, "smtpctl: %s\n", err.c_str());
            return 2;
        }
        if (const char *v = value("--socket=")) {
            socketPath = v;
        } else if (const char *v = value("--models=")) {
            models = v;
        } else if (const char *v = value("--apps=")) {
            apps = v;
        } else if (const char *v = value("--nodes=")) {
            nodesList = v;
        } else if (const char *v = value("--ways=")) {
            if (!parseDigits(v, base.ways)) {
                std::fprintf(stderr, "smtpctl: bad --ways=%s\n", v);
                return 2;
            }
        } else if (const char *v = value("--priority=")) {
            bool neg = *v == '-';
            if (!parseDigits(v + neg, priority)) {
                std::fprintf(stderr, "smtpctl: bad --priority=%s\n", v);
                return 2;
            }
            priority = neg ? -priority : priority;
        } else if (const char *v = value("--deadline=")) {
            if (!parseDigits(v, deadlineMs)) {
                std::fprintf(stderr, "smtpctl: bad --deadline=%s\n", v);
                return 2;
            }
        } else if (const char *v = value("--json=")) {
            jsonPath = v;
        } else if (arg == "--trace") {
            trace = true;
        } else if (!arg.empty() && arg[0] != '-' && command.empty()) {
            command = arg;
        } else {
            std::fprintf(stderr, "smtpctl: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        }
    }
    if (socketPath.empty() || command.empty())
        return usage();
    if (command != "ping" && command != "stats" &&
        command != "health" && command != "shutdown" &&
        command != "run") {
        std::fprintf(stderr, "smtpctl: unknown command '%s'\n",
                     command.c_str());
        return usage();
    }

    // Build the cell list before connecting, so flag mistakes are
    // usage errors (2) even when the daemon is down (1).
    std::vector<RunConfig> cells;
    if (command == "run") {
        for (const std::string &modelStr : splitList(models)) {
            MachineModel model;
            if (!modelFromName(modelStr, model)) {
                std::fprintf(stderr, "smtpctl: unknown model '%s'\n",
                             modelStr.c_str());
                return 2;
            }
            for (const std::string &app : splitList(apps)) {
                for (const std::string &n : splitList(nodesList)) {
                    RunConfig cfg = base;
                    cfg.model = model;
                    cfg.app = app;
                    std::string why = "bad node count '" + n + "'";
                    if (!parseDigits(n, cfg.nodes) ||
                        !checkMachineParams(paramsFor(cfg), &why)) {
                        std::fprintf(stderr, "smtpctl: %s\n",
                                     why.c_str());
                        return 2;
                    }
                    if (trace)
                        cfg.traceStem = "?"; // Daemon assigns the stem.
                    cells.push_back(std::move(cfg));
                }
            }
        }
    }

    Client client;
    if (!client.connect(socketPath)) {
        std::fprintf(stderr, "smtpctl: %s\n", client.error().c_str());
        return 1;
    }

    if (command == "ping") {
        if (!client.ping()) {
            std::fprintf(stderr, "smtpctl: %s\n",
                         client.error().c_str());
            return 1;
        }
        std::printf("pong\n");
        return 0;
    }
    if (command == "stats" || command == "health")
        return printReply(client, command == "stats" ? &Client::stats
                                                     : &Client::health);
    if (command == "shutdown") {
        if (!client.shutdown()) {
            std::fprintf(stderr, "smtpctl: %s\n",
                         client.error().c_str());
            return 1;
        }
        std::printf("shutting down\n");
        return 0;
    }
    std::FILE *json = nullptr;
    if (!jsonPath.empty()) {
        json = std::fopen(jsonPath.c_str(), "a");
        if (json == nullptr) {
            std::fprintf(stderr, "smtpctl: cannot open %s\n",
                         jsonPath.c_str());
            return 1;
        }
    }

    // Records are buffered by submission index and flushed in order, so
    // the JSON file matches a local sweep's ordering exactly even
    // though the daemon streams in completion order.
    std::vector<std::string> records(cells.size());
    std::size_t received = 0;
    std::size_t failedCells = 0;
    std::size_t skipped = 0, failed = 0;
    bool ok = client.submit(
        cells, priority,
        [&](const CellReply &cr) {
            records[cr.index] = cr.record;
            ++received;
            if (cr.failed) {
                ++failedCells;
                std::fprintf(stderr,
                             "smtpctl: cell %zu (%s n%u) FAILED after "
                             "%u attempt(s): %s (%s)\n",
                             cr.index, cells[cr.index].app.c_str(),
                             cells[cr.index].nodes, cr.attempts,
                             cr.errReason.c_str(),
                             cr.errDetail.c_str());
                return;
            }
            JsonValue rec;
            if (JsonValue::parse(cr.record, rec)) {
                std::printf("%-10s %-10s n%-4.0f w%-3.0f exec_ticks "
                            "%13.0f mem_stall %.4f%s%s\n",
                            rec.getString("app").c_str(),
                            rec.getString("model").c_str(),
                            rec.getNumber("nodes"),
                            rec.getNumber("ways"),
                            rec.getNumber("exec_ticks"),
                            rec.getNumber("mem_stall"),
                            cr.cached ? "  [cached]" : "",
                            cr.traceStem.empty() ? "" : "  [traced]");
                std::fflush(stdout);
            }
        },
        &skipped, &failed, deadlineMs);
    if (json != nullptr) {
        // Failure records are written too: the JSON-Lines file stays
        // one-line-per-requested-cell, and "failed":true lines are
        // unmistakable downstream.
        for (const std::string &r : records)
            if (!r.empty())
                std::fprintf(json, "%s\n", r.c_str());
        std::fclose(json);
    }
    if (!ok) {
        std::fprintf(stderr, "smtpctl: %s\n", client.error().c_str());
        if (failed != 0 || failedCells != 0) {
            std::fprintf(stderr,
                         "smtpctl: %zu of %zu cell(s) failed — see "
                         "diagnostics above\n",
                         failed != 0 ? failed : failedCells,
                         cells.size());
            return 3;
        }
        return 1;
    }
    std::fprintf(stderr, "smtpctl: %zu cell(s) complete\n", received);
    return 0;
}
