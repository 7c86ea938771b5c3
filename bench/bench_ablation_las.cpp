/**
 * @file
 * Section 2.3 ablation: Look-Ahead Scheduling on/off. Paper: LAS
 * improves SMTp by up to 3.9%. Also covers the bit-manipulation
 * ALU-assist ablation (paper: <=0.8% without the special instructions).
 */
#include "bench_util.hpp"
using namespace smtp;
using namespace smtp::bench;
int
main(int argc, char **argv)
{
    auto opt = parseArgs(argc, argv);
    printHeader("Ablation: Look-Ahead Scheduling and bit-assist ops",
                "Section 2.3: LAS gains up to 3.9%; missing popcount/ctz "
                "costs <=0.8% (16 nodes)");

    unsigned nodes = opt.quick ? 4 : 8;
    // Cell order per app: SMTp baseline, no-LAS, no-bit-assist.
    std::vector<RunConfig> cells;
    for (const auto &app : opt.appList()) {
        RunConfig cfg = opt.cell;
        cfg.model = MachineModel::SMTp;
        cfg.nodes = nodes;
        cfg.ways = 1;
        cfg.app = app;
        cells.push_back(cfg);
        RunConfig nolas = cfg;
        nolas.lookAheadScheduling = false;
        cells.push_back(nolas);
        RunConfig nobits = cfg;
        nobits.bitAssistOps = false;
        cells.push_back(nobits);
    }

    std::vector<RunResult> results = runCells(opt, cells);

    printRowHeader({"app", "SMTp(us)", "noLAS", "noBitOps"});
    std::size_t idx = 0;
    for (const auto &app : opt.appList()) {
        double base = static_cast<double>(results[idx].execTime);
        double nolas = static_cast<double>(results[idx + 1].execTime);
        double nobits = static_cast<double>(results[idx + 2].execTime);
        idx += 3;
        std::printf("%12s%12.1f%+11.2f%%%+11.2f%%\n", app.c_str(),
                    base / tickPerUs, 100.0 * (nolas / base - 1.0),
                    100.0 * (nobits / base - 1.0));
    }
    std::fflush(stdout);
    return 0;
}
