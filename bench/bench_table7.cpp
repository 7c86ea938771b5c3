/**
 * @file
 * Table 7: peak protocol occupancy (busy fraction of the protocol agent
 * over parallel execution) on 16-node 1-way machines. Paper shape:
 * Base >> Int512KB ~ SMTp > IntPerfect; memory-intensive applications
 * (FFT, FFTW, Ocean, Radix) far above compute-intensive (LU, Water).
 */
#include "bench_util.hpp"
using namespace smtp;
using namespace smtp::bench;
int
main(int argc, char **argv)
{
    auto opt = parseArgs(argc, argv);
    printHeader("Table 7: 16-node protocol occupancy (1-way nodes)",
                "paper: FFT 10.2/3.6/5.3/5.8%, Ocean 25/7.7/12.3/12.9%, "
                "Water 1.5/0.3/0.6/0.7% (Base/IntPerf/Int512KB/SMTp)");

    const MachineModel models[] = {
        MachineModel::Base, MachineModel::IntPerfect,
        MachineModel::Int512KB, MachineModel::SMTp};

    std::vector<RunConfig> cells;
    for (const auto &app : opt.appList()) {
        for (MachineModel model : models) {
            RunConfig cfg = opt.cell;
            cfg.model = model;
            cfg.nodes = opt.quick ? 8 : 16;
            cfg.ways = 1;
            cfg.app = app;
            cells.push_back(cfg);
        }
    }

    std::vector<RunResult> results = runCells(opt, cells);

    printRowHeader({"app", "Base", "IntPerfect", "Int512KB", "SMTp"});
    std::size_t idx = 0;
    for (const auto &app : opt.appList()) {
        std::printf("%12s", app.c_str());
        for (std::size_t m = 0; m < std::size(models); ++m) {
            std::printf("%11.1f%%",
                        100.0 * results[idx++].peakProtocolOccupancy);
        }
        std::printf("\n");
    }
    std::fflush(stdout);
    return 0;
}
