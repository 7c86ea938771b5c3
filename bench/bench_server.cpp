/**
 * @file
 * Server workload family sweep: the MPMC queue-server, the Zipf
 * kv-store and the HTM-style spec-txn generators across the five
 * machine models, with request-latency percentiles and transactional
 * commit/abort counts as the headline columns (docs/workloads.md).
 *
 * The paper's tables stop at 16 nodes; --big adds beyond-paper
 * capacity rows at 64/128/256 total hardware contexts. The directory
 * entry's sharer vector is 32 bits wide (protocol/directory.hpp), so
 * node count caps at 32 — the big rows scale contexts per node
 * (nodes x ways = 16x4, 32x4, 32x8) instead, which is also the more
 * server-shaped direction: many threads per node sharing a cache.
 */
#include "bench_util.hpp"
using namespace smtp;
using namespace smtp::bench;

namespace
{

const MachineModel kModels[] = {
    MachineModel::Base, MachineModel::IntPerfect, MachineModel::Int512KB,
    MachineModel::Int64KB, MachineModel::SMTp};

void
printServerRow(const char *app, const char *label, const RunResult &r)
{
    std::printf("%14s%12s%12.1f%10llu%10.3f%10.3f%10.3f%9llu%9llu\n",
                app, label, static_cast<double>(r.execTime) / tickPerUs,
                static_cast<unsigned long long>(r.requests), r.reqLatP50Us,
                r.reqLatP95Us, r.reqLatP99Us,
                static_cast<unsigned long long>(r.txnCommits),
                static_cast<unsigned long long>(r.txnAborts));
}

void
printServerHeader()
{
    std::printf("%14s%12s%12s%10s%10s%10s%10s%9s%9s\n", "app", "cell",
                "exec_us", "requests", "p50_us", "p95_us", "p99_us",
                "commits", "aborts");
    printBar();
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = parseArgs(argc, argv);
    if (opt.apps.empty())
        opt.apps = workload::serverAppNames();
    printHeader(
        "Server workload family: request latency and txn outcomes",
        "beyond-paper workloads; methodology follows the paper's "
        "five-model comparison at 4 nodes");

    // ---- Five-model comparison, 4 nodes x 1 way ----------------------
    std::vector<RunConfig> cells;
    for (const auto &app : opt.apps) {
        for (MachineModel model : kModels) {
            RunConfig cfg = opt.cell;
            cfg.model = model;
            cfg.nodes = 4;
            cfg.ways = 1;
            cfg.app = app;
            cells.push_back(cfg);
        }
    }

    // ---- Scaling rows on SMTp: paper-range, then --big ---------------
    struct ScaleRow
    {
        unsigned nodes, ways;
        bool big;
    };
    std::vector<ScaleRow> scaleRows = {
        {4, 1, false}, {8, 1, false}, {16, 1, false}};
    if (opt.big) {
        // 64/128/256 total contexts. Nodes cap at 32 (32-bit sharer
        // vector in the directory entry), so capacity grows through
        // SMT ways beyond that.
        scaleRows.push_back({16, 4, true});
        scaleRows.push_back({32, 4, true});
        scaleRows.push_back({32, 8, true});
    }
    std::size_t scaleBase = cells.size();
    for (const auto &app : opt.apps) {
        for (const ScaleRow &s : scaleRows) {
            if (opt.quick && s.nodes * s.ways > 8)
                continue;
            RunConfig cfg = opt.cell;
            cfg.model = MachineModel::SMTp;
            cfg.nodes = s.nodes;
            cfg.ways = s.ways;
            cfg.app = app;
            cells.push_back(cfg);
        }
    }

    std::vector<RunResult> results = runCells(opt, cells);

    std::printf("\nfive-model comparison (nodes=4, ways=1, scale=%.2f)\n",
                opt.cell.scale);
    printServerHeader();
    std::size_t idx = 0;
    for (const auto &app : opt.apps) {
        for (MachineModel model : kModels)
            printServerRow(app.c_str(),
                           std::string(modelName(model)).c_str(),
                           results[idx++]);
        printBar();
    }

    std::printf("\nSMTp scaling (total contexts = nodes x ways%s)\n",
                opt.big ? "; --big rows go beyond the paper's range"
                        : "; add --big for 64/128/256-context rows");
    printServerHeader();
    idx = scaleBase;
    for (const auto &app : opt.apps) {
        for (const ScaleRow &s : scaleRows) {
            if (opt.quick && s.nodes * s.ways > 8)
                continue;
            char label[32];
            std::snprintf(label, sizeof(label), "%ux%u=%u", s.nodes,
                          s.ways, s.nodes * s.ways);
            printServerRow(app.c_str(), label, results[idx++]);
        }
        printBar();
    }
    std::fflush(stdout);
    return 0;
}
