/**
 * @file
 * Tables 5-6: 16-node self-relative speedups for Base and SMTp at
 * 1/2/4 application threads per node. Speedups are relative to the
 * single-node 1-way run of the same model (the paper's definition).
 * Our scaled-down problems yield smaller absolute speedups than the
 * paper's full-size inputs (see EXPERIMENTS.md); raise --scale to
 * approach them.
 */
#include "bench_util.hpp"
using namespace smtp;
using namespace smtp::bench;
int
main(int argc, char **argv)
{
    auto opt = parseArgs(argc, argv);
    printHeader("Tables 5-6: 16-node self-relative speedup",
                "Table 5 (Base), Table 6 (SMTp); paper: e.g. FFT 13.9 / "
                "14.0, Ocean 21.4 / 21.3 at 1-way");

    const MachineModel models[] = {MachineModel::Base, MachineModel::SMTp};
    const unsigned waysList[] = {1u, 2u, 4u};

    // Cell order: (model, app) x [1-node ref, then 16-node per ways].
    std::vector<RunConfig> cells;
    for (MachineModel model : models) {
        for (const auto &app : opt.appList()) {
            RunConfig ref = opt.cell;
            ref.model = model;
            ref.nodes = 1;
            ref.ways = 1;
            ref.app = app;
            cells.push_back(ref);
            for (unsigned ways : waysList) {
                if (opt.quick && ways == 4)
                    continue;
                RunConfig cfg = ref;
                cfg.nodes = 16;
                cfg.ways = ways;
                cells.push_back(cfg);
            }
        }
    }

    std::vector<RunResult> results = runCells(opt, cells);

    std::size_t idx = 0;
    for (MachineModel model : models) {
        std::printf("\n%s (scale=%.2f)\n",
                    std::string(modelName(model)).c_str(), opt.cell.scale);
        printRowHeader({"app", "1-way", "2-way", "4-way"});
        for (const auto &app : opt.appList()) {
            double t1 = static_cast<double>(results[idx++].execTime);
            std::printf("%12s", app.c_str());
            for (unsigned ways : waysList) {
                if (opt.quick && ways == 4) {
                    std::printf("%12s", "-");
                    continue;
                }
                double t = static_cast<double>(results[idx++].execTime);
                std::printf("%12.2f", t1 / t);
            }
            std::printf("\n");
        }
    }
    std::fflush(stdout);
    return 0;
}
