/**
 * @file
 * Cross-protocol comparison harness (docs/protocols.md).
 *
 * Runs the same workload table under every registered directory
 * protocol — bitvector, migratory, phase-priority — across any subset
 * of the five machine models, and prints a side-by-side table per
 * (app, model) cell: IPC, peak handler occupancy, invalidations, NAK
 * count, migratory upgrade round-trips saved, starvation-floor trips,
 * and the directory request-queueing delay (mean / p95). Server
 * workloads add their request-latency percentiles. Cells run through
 * the same serve::runOnce the bench binaries and the smtpd daemon use,
 * so every number here is reproducible from those front ends with
 * --protocol=NAME.
 *
 *   protocol_compare [--models=base,smtp,...] [--protocols=a,b,...]
 *                    [--apps=fft,...] [--nodes=N] [--ways=W]
 *                    [--scale=F] [--exec=serial|parallel[:T]]
 *                    [--jobs=N] [--json=PATH] [--quick]
 *                    [--markdown] [--list[=PROTOCOL]]
 *
 * --json appends one JSON-Lines record per cell (the canonical
 * serve::jsonRecord, which carries the protocol field group for
 * non-default protocols). --markdown prints the tables as GitHub
 * markdown instead of aligned text (for docs/protocols.md).
 * --list dumps the assembled handler program of each requested
 * protocol (the assembler's disassembly listing) and exits.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "machine/machine.hpp"
#include "protocol/assembler.hpp"
#include "protocol/variants/variants.hpp"
#include "serve/proto.hpp"
#include "serve/runner.hpp"
#include "sim/sweep.hpp"

namespace smtp
{
namespace
{

using serve::RunConfig;
using serve::RunResult;

struct CompareOptions
{
    std::vector<MachineModel> models{
        MachineModel::Base, MachineModel::IntPerfect,
        MachineModel::Int512KB, MachineModel::Int64KB,
        MachineModel::SMTp};
    std::vector<proto::ProtocolKind> protocols{
        proto::allProtocols.begin(), proto::allProtocols.end()};
    std::vector<std::string> apps{"fft"};
    RunConfig base; ///< Every cell's sizes, scale and exec mode.
    unsigned jobs = 0;
    std::string jsonPath;
    bool markdown = false;
};

/** Dump the assembled handler program of each requested protocol. */
int
listPrograms(const CompareOptions &o)
{
    for (auto kind : o.protocols) {
        proto::DirFormat fmt =
            proto::protocolDirFormat(kind, o.base.nodes <= 16 ? 16 : 32);
        proto::HandlerImage image = proto::buildProtocolImage(kind, fmt);
        std::printf("#### protocol %s (%u-bit vector, %u-byte entries)\n",
                    std::string(proto::protocolName(kind)).c_str(),
                    fmt.vectorBits, fmt.entryBytes);
        std::fputs(proto::listHandlerImage(image).c_str(), stdout);
        std::printf("\n");
    }
    return 0;
}

/** Machine IPC over the whole run (committed app insts / CPU cycles). */
double
ipcOf(const RunConfig &c, const RunResult &r)
{
    if (r.execTime == 0)
        return 0.0;
    ClockDomain clk(c.cpuFreqMHz);
    double cycles = static_cast<double>(r.execTime) /
                    static_cast<double>(clk.period());
    return cycles > 0.0 ? static_cast<double>(r.committedInsts) / cycles
                        : 0.0;
}

int
compareMain(const CompareOptions &o)
{
    // The cell table: protocols × models × apps, flattened in an order
    // that keeps all protocols of one (app, model) adjacent for the
    // side-by-side print.
    std::vector<RunConfig> cfgs;
    for (const std::string &app : o.apps) {
        for (auto model : o.models) {
            for (auto kind : o.protocols) {
                RunConfig c = o.base;
                c.model = model;
                c.protocol = kind;
                c.app = app;
                cfgs.push_back(c);
            }
        }
    }

    std::vector<RunResult> results(cfgs.size());
    SweepPool pool(o.jobs);
    pool.parallelFor(cfgs.size(), [&](std::size_t i) {
        results[i] = serve::runOnce(cfgs[i]);
    });

    if (!o.jsonPath.empty()) {
        std::FILE *f = std::fopen(o.jsonPath.c_str(), "a");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open json output '%s'\n",
                         o.jsonPath.c_str());
            return 1;
        }
        for (std::size_t i = 0; i < cfgs.size(); ++i)
            serve::appendJsonRecord(f, cfgs[i], results[i]);
        std::fclose(f);
    }

    const char *sep = o.markdown ? " | " : "  ";
    const char *edge = o.markdown ? "| " : "";
    std::size_t per_group = o.protocols.size();
    for (std::size_t g = 0; g + per_group <= cfgs.size();
         g += per_group) {
        const RunConfig &head = cfgs[g];
        std::printf("\n%s %s  nodes=%u ways=%u scale=%g\n",
                    head.app.c_str(),
                    std::string(modelName(head.model)).c_str(),
                    head.nodes, head.ways, head.scale);
        std::printf("%s%-16s", edge, "metric");
        for (std::size_t i = 0; i < per_group; ++i)
            std::printf("%s%14s", sep,
                        std::string(proto::protocolName(
                                        cfgs[g + i].protocol))
                            .c_str());
        std::printf("%s\n", o.markdown ? " |" : "");
        if (o.markdown) {
            std::printf("| ---");
            for (std::size_t i = 0; i < per_group; ++i)
                std::printf(" | ---:");
            std::printf(" |\n");
        }
        auto row = [&](const char *name, auto get, const char *fmt) {
            std::printf("%s%-16s", edge, name);
            for (std::size_t i = 0; i < per_group; ++i) {
                char cell[32];
                std::snprintf(cell, sizeof(cell), fmt,
                              get(cfgs[g + i], results[g + i]));
                std::printf("%s%14s", sep, cell);
            }
            std::printf("%s\n", o.markdown ? " |" : "");
        };
        auto u = [](std::uint64_t v) {
            return static_cast<unsigned long long>(v);
        };
        row("exec_Mticks",
            [](const RunConfig &, const RunResult &r) {
                return static_cast<double>(r.execTime) / 1e6;
            },
            "%.3f");
        row("ipc", ipcOf, "%.4f");
        row("peak_handler_occ",
            [](const RunConfig &, const RunResult &r) {
                return r.peakProtocolOccupancy;
            },
            "%.4f");
        row("invals",
            [&u](const RunConfig &, const RunResult &r) {
                return u(r.invalsSent);
            },
            "%llu");
        row("naks",
            [&u](const RunConfig &, const RunResult &r) {
                return u(r.naks);
            },
            "%llu");
        row("mig_saved",
            [&u](const RunConfig &, const RunResult &r) {
                return u(r.migSaved);
            },
            "%llu");
        row("mig_reverts",
            [&u](const RunConfig &, const RunResult &r) {
                return u(r.migReverts);
            },
            "%llu");
        row("floor_trips",
            [&u](const RunConfig &, const RunResult &r) {
                return u(r.phaseFloorTrips);
            },
            "%llu");
        row("qdelay_mean_ns",
            [](const RunConfig &, const RunResult &r) {
                return r.reqQueueDelayMeanNs;
            },
            "%.1f");
        row("qdelay_p95_ns",
            [](const RunConfig &, const RunResult &r) {
                return r.reqQueueDelayP95Ns;
            },
            "%.1f");
        if (results[g].server) {
            row("req_lat_p50_us",
                [](const RunConfig &, const RunResult &r) {
                    return r.reqLatP50Us;
                },
                "%.2f");
            row("req_lat_p95_us",
                [](const RunConfig &, const RunResult &r) {
                    return r.reqLatP95Us;
                },
                "%.2f");
            row("req_lat_p99_us",
                [](const RunConfig &, const RunResult &r) {
                    return r.reqLatP99Us;
                },
                "%.2f");
        }
    }
    return 0;
}

int
toolMain(int argc, char **argv)
{
    CompareOptions o;
    o.base.nodes = 8;
    o.base.scale = 0.05;
    bool list = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        auto digits = [&](auto &n) {
            bool ok = parseDigits(value(), n);
            if (!ok)
                std::fprintf(stderr, "bad %s\n", arg.c_str());
            return ok;
        };
        std::string err;
        if (arg.rfind("--models=", 0) == 0) {
            o.models.clear();
            for (const std::string &tok : splitList(value())) {
                MachineModel model;
                if (!modelFromName(tok, model)) {
                    std::fprintf(stderr, "unknown model '%s'\n",
                                 tok.c_str());
                    return 2;
                }
                o.models.push_back(model);
            }
        } else if (arg.rfind("--protocols=", 0) == 0) {
            o.protocols.clear();
            for (const std::string &tok : splitList(value())) {
                proto::ProtocolKind kind;
                if (!proto::protocolFromName(tok, kind)) {
                    std::fprintf(
                        stderr, "unknown protocol '%s' (expected %s)\n",
                        tok.c_str(),
                        std::string(proto::protocolNameList()).c_str());
                    return 2;
                }
                o.protocols.push_back(kind);
            }
        } else if (arg.rfind("--apps=", 0) == 0) {
            o.apps = splitList(value());
        } else if (arg.rfind("--nodes=", 0) == 0) {
            if (!digits(o.base.nodes))
                return 2;
        } else if (arg.rfind("--ways=", 0) == 0) {
            if (!digits(o.base.ways))
                return 2;
        } else if (arg.rfind("--scale=", 0) == 0 ||
                   arg.rfind("--exec=", 0) == 0) {
            if (!serve::parseCellFlag(arg, o.base, &err)) {
                std::fprintf(stderr, "%s\n", err.c_str());
                return 2;
            }
        } else if (arg.rfind("--jobs=", 0) == 0) {
            if (!parseJobs(value(), o.jobs, &err)) {
                std::fprintf(stderr, "--jobs: %s\n", err.c_str());
                return 2;
            }
        } else if (arg.rfind("--json=", 0) == 0) {
            o.jsonPath = value();
        } else if (arg == "--markdown") {
            o.markdown = true;
        } else if (arg == "--quick") {
            o.base.scale *= 0.5;
            o.models = {MachineModel::Base, MachineModel::SMTp};
        } else if (arg == "--list") {
            list = true;
        } else if (arg.rfind("--list=", 0) == 0) {
            list = true;
            proto::ProtocolKind kind;
            if (!proto::protocolFromName(value(), kind)) {
                std::fprintf(
                    stderr, "unknown protocol '%s' (expected %s)\n",
                    value().c_str(),
                    std::string(proto::protocolNameList()).c_str());
                return 2;
            }
            o.protocols = {kind};
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (std::string why;
        !checkMachineParams(serve::paramsFor(o.base), &why)) {
        std::fprintf(stderr, "%s\n", why.c_str());
        return 2;
    }
    if (list)
        return listPrograms(o);
    return compareMain(o);
}

} // namespace
} // namespace smtp

int
main(int argc, char **argv)
{
    return smtp::toolMain(argc, argv);
}
