/**
 * @file
 * Section 2.3 / 4 ablation: separate, perfect protocol caches for SMTp.
 * Paper: removes the data-cache pollution, gaining 0.9-3.2% (one case
 * 5.1%) — the residual gap between SMTp and Int512KB.
 */
#include "bench_util.hpp"
using namespace smtp;
using namespace smtp::bench;
int
main(int argc, char **argv)
{
    auto opt = parseArgs(argc, argv);
    printHeader("Ablation: perfect protocol caches (SMTp)",
                "Section 2.3: perfect protocol I/D caches gain 0.9-5.1%");

    unsigned nodes = opt.quick ? 4 : 8;
    // Cell order per app: SMTp baseline, perfect protocol caches.
    std::vector<RunConfig> cells;
    for (const auto &app : opt.appList()) {
        RunConfig cfg = opt.cell;
        cfg.model = MachineModel::SMTp;
        cfg.nodes = nodes;
        cfg.ways = 1;
        cfg.app = app;
        cells.push_back(cfg);
        RunConfig perfect = cfg;
        perfect.perfectProtocolCaches = true;
        cells.push_back(perfect);
    }

    std::vector<RunResult> results = runCells(opt, cells);

    printRowHeader({"app", "SMTp(us)", "perfectPC"});
    std::size_t idx = 0;
    for (const auto &app : opt.appList()) {
        double base = static_cast<double>(results[idx].execTime);
        double perfect = static_cast<double>(results[idx + 1].execTime);
        idx += 2;
        std::printf("%12s%12.1f%+11.2f%%\n", app.c_str(),
                    base / tickPerUs, 100.0 * (perfect / base - 1.0));
    }
    std::fflush(stdout);
    return 0;
}
