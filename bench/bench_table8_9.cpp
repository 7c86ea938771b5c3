/**
 * @file
 * Tables 8-9: SMTp protocol-thread characterization on 16-node 1-way
 * machines. Table 8: conditional branch misprediction rate, squash-cycle
 * percentage, retired protocol instructions as a share of all retired.
 * Table 9: peak live occupancy of the branch stack, integer registers,
 * integer queue and LSQ by the protocol thread. Paper shape: >=95%%
 * protocol branch prediction accuracy except Water (low training);
 * tiny squash and retired-instruction fractions; surprisingly high
 * resource peaks (e.g. ~100 integer registers).
 */
#include "bench_util.hpp"
using namespace smtp;
using namespace smtp::bench;
int
main(int argc, char **argv)
{
    auto opt = parseArgs(argc, argv);
    printHeader("Tables 8-9: SMTp protocol-thread characteristics "
                "(16 nodes, 1-way)",
                "Table 8: e.g. FFT 2.1% mispred, 0.02% squash, 4.2% "
                "retired; Table 9: peaks ~22-28 brstack, ~100-113 regs, "
                "32 IQ, 20-35 LSQ");

    std::vector<RunConfig> cells;
    for (const auto &app : opt.appList()) {
        RunConfig cfg = opt.cell;
        cfg.model = MachineModel::SMTp;
        cfg.nodes = opt.quick ? 8 : 16;
        cfg.ways = 1;
        cfg.app = app;
        cells.push_back(cfg);
    }

    std::vector<RunResult> results = runCells(opt, cells);

    printRowHeader({"app", "brMis%", "squash%", "retired%", "pkBrStk",
                    "pkIntRegs", "pkIQ", "pkLSQ"});
    std::size_t idx = 0;
    for (const auto &app : opt.appList()) {
        const RunResult &r = results[idx++];
        std::printf("%12s%11.2f%%%11.3f%%%11.2f%%%12llu%12llu%12llu"
                    "%12llu\n",
                    app.c_str(), 100.0 * r.protoBranchMispredict,
                    100.0 * r.protoSquashCyclePct,
                    100.0 * r.protoRetiredPct,
                    static_cast<unsigned long long>(r.peakBranchStack),
                    static_cast<unsigned long long>(r.peakIntRegs),
                    static_cast<unsigned long long>(r.peakIntQueue),
                    static_cast<unsigned long long>(r.peakLsq));
    }
    std::fflush(stdout);
    return 0;
}
