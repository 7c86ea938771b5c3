#include "bench_util.hpp"

#include <cstring>
#include <filesystem>

#include "common/parse.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"

namespace smtp::bench
{

namespace
{

/**
 * Server-mode runCells: submit the whole cell list to a smtpd daemon
 * and collect results by submitted index. The daemon streams cells in
 * completion order; collection is order-insensitive, and the JSON file
 * (written by our caller in cell order from the verbatim records) ends
 * up identical to a local run's.
 */
std::vector<RunResult>
runCellsOnServer(const BenchOptions &opt,
                 const std::vector<RunConfig> &cfgs,
                 std::vector<std::string> &records)
{
    serve::Client client;
    if (!client.connect(opt.serverSock)) {
        std::fprintf(stderr, "--server: %s\n", client.error().c_str());
        std::exit(1);
    }
    std::vector<RunResult> results(cfgs.size());
    records.assign(cfgs.size(), std::string());
    std::size_t cachedCount = 0;
    std::size_t skipped = 0, failed = 0;
    bool ok = client.submit(
        cfgs, /*priority=*/0,
        [&](const serve::CellReply &cr) {
            results[cr.index] = cr.result;
            records[cr.index] = cr.record;
            if (cr.cached)
                ++cachedCount;
            if (cr.failed)
                std::fprintf(stderr,
                             "--server: cell %zu FAILED after %u "
                             "attempt(s): %s (%s)\n",
                             cr.index, cr.attempts,
                             cr.errReason.c_str(),
                             cr.errDetail.c_str());
            else if (opt.verbose)
                std::fprintf(stderr, "served cell %zu%s\n", cr.index,
                             cr.cached ? " (cached)" : "");
        },
        &skipped, &failed);
    if (!ok) {
        std::fprintf(stderr, "--server: %s\n", client.error().c_str());
        if (client.overloaded())
            std::fprintf(stderr,
                         "--server: daemon refused the job "
                         "(admission control); retry later or raise "
                         "its --max-queue\n");
        std::exit(1);
    }
    std::fprintf(stderr,
                 "server '%s': %zu cell(s), %zu served from cache\n",
                 opt.serverSock.c_str(), cfgs.size(), cachedCount);
    return results;
}

} // namespace

std::vector<RunResult>
runCells(const BenchOptions &opt, const std::vector<RunConfig> &cfgs_in)
{
    std::vector<RunConfig> cfgs = cfgs_in;
    if (!opt.traceDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.traceDir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create trace dir '%s': %s\n",
                         opt.traceDir.c_str(), ec.message().c_str());
            std::exit(1);
        }
        for (RunConfig &c : cfgs) {
            char stem[512];
            std::snprintf(stem, sizeof(stem), "%s/%s_%s_n%uw%u",
                          opt.traceDir.c_str(), c.app.c_str(),
                          std::string(modelName(c.model)).c_str(),
                          c.nodes, c.ways);
            c.traceStem = stem;
            c.traceExec = opt.traceExec;
        }
    }

    // Opened before the sweep so a bad path fails in milliseconds, not
    // after every cell has simulated.
    std::FILE *json = nullptr;
    if (!opt.jsonPath.empty()) {
        json = std::fopen(opt.jsonPath.c_str(), "a");
        if (json == nullptr) {
            std::fprintf(stderr, "cannot open json output '%s'\n",
                         opt.jsonPath.c_str());
            std::exit(1);
        }
    }

    if (!opt.serverSock.empty()) {
        // The daemon owns checkpointing and artifact paths; local
        // --ckpt-dir/--trace directories don't apply over there (the
        // cell frames report daemon-side trace stems instead).
        std::vector<std::string> records;
        std::vector<RunResult> results =
            runCellsOnServer(opt, cfgs, records);
        if (json != nullptr) {
            for (const std::string &r : records)
                std::fprintf(json, "%s\n", r.c_str());
            std::fclose(json);
        }
        return results;
    }

    std::vector<RunResult> results(cfgs.size());
    SweepPool pool(opt.jobs);
    pool.parallelFor(cfgs.size(), [&](std::size_t i) {
        results[i] = runOnce(cfgs[i]);
    });
    if (!opt.cell.ckptDir.empty()) {
        // Cache effectiveness goes to stderr, not the JSON records, so
        // a warm sweep's output stays byte-comparable to a cold one.
        std::uint64_t hits = 0, misses = 0;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            if (results[i].ckpt < 0)
                continue;
            const RunConfig &c = cfgs[i];
            bool hit = results[i].ckpt == 1;
            (hit ? hits : misses)++;
            std::fprintf(stderr, "ckpt %-4s %s %s n%uw%u (%.1f ms)\n",
                         hit ? "hit" : "miss", c.app.c_str(),
                         std::string(modelName(c.model)).c_str(),
                         c.nodes, c.ways, results[i].wallMs);
        }
        std::fprintf(
            stderr,
            "checkpoint cache '%s': %llu hits, %llu misses\n",
            opt.cell.ckptDir.c_str(),
            static_cast<unsigned long long>(hits),
            static_cast<unsigned long long>(misses));
    }
    if (json != nullptr) {
        for (std::size_t i = 0; i < cfgs.size(); ++i)
            serve::appendJsonRecord(json, cfgs[i], results[i]);
        std::fclose(json);
    }
    return results;
}

const std::vector<std::string> &
BenchOptions::appList() const
{
    if (!apps.empty())
        return apps;
    return workload::appNames();
}

BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            std::size_t n = std::strlen(prefix);
            if (arg.compare(0, n, prefix) == 0)
                return arg.c_str() + n;
            return nullptr;
        };
        // "--opt value" form: fold the next argv into "--opt=value".
        auto next_value = [&](const char *flag) -> const char * {
            if (arg != flag)
                return nullptr;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(1);
            }
            return argv[++i];
        };
        auto jobs_value = [](const char *v) {
            unsigned n = 0;
            std::string err;
            if (!parseJobs(v, n, &err)) {
                std::fprintf(stderr, "--jobs: %s\n", err.c_str());
                std::exit(1);
            }
            return n;
        };
        std::string err;
        if (serve::parseCellFlag(arg, opt.cell, &err))
            continue;
        if (!err.empty()) {
            std::fprintf(stderr, "%s\n", err.c_str());
            std::exit(1);
        }
        if (const char *v2 = value("--apps=")) {
            opt.apps = splitList(v2);
        } else if (const char *vj = value("--jobs=")) {
            opt.jobs = jobs_value(vj);
        } else if (const char *vj2 = next_value("--jobs")) {
            opt.jobs = jobs_value(vj2);
        } else if (const char *vp = value("--json=")) {
            opt.jsonPath = vp;
        } else if (const char *vp2 = next_value("--json")) {
            opt.jsonPath = vp2;
        } else if (const char *vt = value("--trace=")) {
            opt.traceDir = vt;
        } else if (arg == "--trace") {
            opt.traceDir = "traces";
        } else if (arg == "--trace-exec") {
            opt.traceExec = true;
        } else if (const char *vc = value("--ckpt-dir=")) {
            opt.cell.ckptDir = vc;
        } else if (const char *vc2 = next_value("--ckpt-dir")) {
            opt.cell.ckptDir = vc2;
        } else if (const char *vsv = value("--server=")) {
            opt.serverSock = vsv;
        } else if (const char *vsv2 = next_value("--server")) {
            opt.serverSock = vsv2;
        } else if (arg == "--quick") {
            opt.quick = true;
        } else if (arg == "--big") {
            opt.big = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--help") {
            std::printf("options: --scale=F --dcache-div=N --apps=A,B,... "
                        "--quick --big "
                        "--verbose --jobs=N --json=PATH --trace[=DIR] "
                        "--faults=PLAN --retry=SPEC --ckpt-dir=DIR "
                        "--sample=W:M:K --exec=serial|parallel[:T] "
                        "--check=off|asserts|full --server=SOCK "
                        "--protocol=NAME --trace-exec\n"
                        "  --dcache-div directory-cache divisor, a power "
                        "of two (default 16; 1 = the paper's absolute "
                        "sizes)\n"
                        "  --big    add beyond-paper capacity rows "
                        "(64/128/256 hardware contexts) to benches "
                        "that support them (bench_server)\n"
                        "  --jobs   sweep worker threads (default: "
                        "SMTP_SWEEP_JOBS env or all cores)\n"
                        "  --json   append per-cell JSON-Lines records "
                        "to PATH\n"
                        "  --trace  record telemetry; per-cell "
                        "DIR/<app>_<model>_n<N>w<W>.{smtptrace,json,csv} "
                        "(DIR defaults to 'traces')\n"
                        "  --faults seeded fault plan, e.g. "
                        "seed=7,drop=0.01,dup=0.01,delay=0.02,flip=0.001,"
                        "nak=0.01 (docs/robustness.md)\n"
                        "  --retry  NAK retry policy: immediate | "
                        "fixed[:baseNs] | exp[:baseNs[:capNs]]\n"
                        "  --ckpt-dir  checkpoint library: cache each "
                        "cell's end state (or warmup snapshot with "
                        "--sample) keyed by config hash; hit/miss per "
                        "cell on stderr (docs/checkpointing.md)\n"
                        "  --sample W:M:K sampled measurement: W warmup "
                        "cycles, then K intervals of M cycles; JSON "
                        "gains ipc/memstall mean and 95%% CI\n"
                        "  --check  coherence checker: asserts runs "
                        "under parallel exec; full forces one host "
                        "thread, loudly (docs/checker.md)\n"
                        "  --server run cells on the smtpd daemon at "
                        "SOCK instead of in-process "
                        "(docs/service.md)\n"
                        "  --protocol directory-protocol variant: "
                        "bitvector (default) | migratory | "
                        "phase-priority (docs/protocols.md)\n");
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            std::exit(1);
        }
    }
    if (opt.quick)
        opt.cell.scale *= 0.5;
    std::string why;
    if (!checkMachineParams(serve::paramsFor(opt.cell), &why)) {
        std::fprintf(stderr, "%s\n", why.c_str());
        std::exit(1);
    }
    return opt;
}

void
printHeader(const std::string &title, const std::string &paper_note)
{
    std::printf("\n================================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("paper reference: %s\n", paper_note.c_str());
    std::printf("================================================================================\n");
    std::fflush(stdout);
}

void
printBar()
{
    std::printf("--------------------------------------------------------------------------------\n");
}

void
printRowHeader(const std::vector<std::string> &cols)
{
    for (const auto &c : cols)
        std::printf("%12s", c.c_str());
    std::printf("\n");
    printBar();
}

namespace
{
const MachineModel figureModels[] = {
    MachineModel::Base, MachineModel::IntPerfect, MachineModel::Int512KB,
    MachineModel::Int64KB, MachineModel::SMTp,
};
}

void
runFigure(const BenchOptions &opt, unsigned nodes, unsigned ways,
          std::uint64_t cpu_freq_mhz, const std::string &caption)
{
    const auto &apps = opt.appList();
    std::vector<RunConfig> cells;
    for (const auto &app : apps) {
        for (MachineModel model : figureModels) {
            RunConfig cfg = opt.cell;
            cfg.model = model;
            cfg.nodes = nodes;
            cfg.ways = ways;
            cfg.app = app;
            cfg.cpuFreqMHz = cpu_freq_mhz;
            cells.push_back(cfg);
        }
    }

    std::vector<RunResult> results = runCells(opt, cells);

    std::printf("\n%s  (nodes=%u, ways=%u, cpu=%llu MHz, scale=%.2f)\n",
                caption.c_str(), nodes, ways,
                static_cast<unsigned long long>(cpu_freq_mhz), opt.cell.scale);
    printRowHeader({"app", "model", "exec(us)", "norm", "memstall",
                    "protOcc"});
    std::size_t idx = 0;
    for (const auto &app : apps) {
        double base_time = 0.0;
        for (MachineModel model : figureModels) {
            const RunResult &r = results[idx++];
            double us = static_cast<double>(r.execTime) / tickPerUs;
            if (model == MachineModel::Base)
                base_time = us;
            std::printf("%12s%12s%12.1f%12.3f%12.3f%12.3f\n", app.c_str(),
                        std::string(modelName(model)).c_str(), us,
                        us / base_time, r.memStallFraction,
                        r.peakProtocolOccupancy);
        }
        printBar();
    }
    std::fflush(stdout);
}

} // namespace smtp::bench
