/**
 * @file
 * Shared harness for the paper-reproduction benchmarks: one full-system
 * simulation per (application, machine model, size) cell, plus table
 * formatting that prints our measurements next to the paper's reported
 * shapes (EXPERIMENTS.md records the comparison).
 *
 * Cells are independent machines, so every bench binary builds its
 * whole cell list up front and runs it through the work-stealing
 * SweepPool (--jobs=N / SMTP_SWEEP_JOBS); tables are printed from the
 * collected results in deterministic cell order, so the output is
 * byte-identical at any thread count. --json=PATH appends one
 * machine-readable record per cell (JSON Lines) for CI perf
 * trajectories.
 *
 * The cell runner itself lives in src/serve (serve::runOnce and
 * friends) and is shared with the smtpd daemon; this header re-exports
 * it under smtp::bench so the bench binaries are agnostic about where
 * their cells execute. With --server=SOCK (or SMTPD_SOCK via
 * run_benches.sh), runCells() submits the whole sweep to a running
 * smtpd instead of simulating locally — the records that come back are
 * byte-identical (mod wall_ms) because both paths run the same code.
 */

#ifndef SMTP_BENCH_BENCH_UTIL_HPP
#define SMTP_BENCH_BENCH_UTIL_HPP

#include <cstdio>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "serve/runner.hpp"
#include "sim/sweep.hpp"
#include "workload/app.hpp"

namespace smtp::bench
{

// The sweep-cell vocabulary is the service layer's; bench code and the
// daemon must agree on it exactly (that shared identity is what makes
// served results interchangeable with local ones).
using serve::RunConfig;
using serve::RunResult;
using serve::SampleSpec;
using serve::runOnce;

/** Command-line options shared by every bench binary. */
struct BenchOptions
{
    /**
     * The base every cell starts from: the sweep-wide flags
     * (serve::parseCellFlag) and --ckpt-dir land here, and a bench
     * sets model, sizes and app per cell.
     */
    RunConfig cell;
    std::vector<std::string> apps;  ///< Empty = all six.
    bool quick = false;             ///< Halve sizes, skip 4-way rows.
    /**
     * --big: beyond-paper capacity rows (64/128/256 total hardware
     * contexts via nodes x ways). Off by default — these rows dominate
     * a sweep's wall time and exist for the scaling story, not the
     * paper tables.
     */
    bool big = false;
    bool verbose = false;
    unsigned jobs = 0;              ///< Sweep workers; 0 = auto.
    std::string jsonPath;           ///< Append per-cell records here.
    std::string traceDir;           ///< Per-cell trace files (empty=off).
    bool traceExec = false;         ///< --trace-exec (Exec category).
    /** --server=SOCK: run cells on a smtpd daemon instead of locally. */
    std::string serverSock;

    const std::vector<std::string> &appList() const;
};

BenchOptions parseArgs(int argc, char **argv);

/**
 * Run every cell (each built from opt.cell) through a SweepPool sized
 * by opt.jobs — or, with opt.serverSock set, through the smtpd daemon
 * at that socket — returning results in cell order (index i belongs
 * to cfgs[i] regardless of worker interleaving). When opt.jsonPath is
 * set, one JSON record per cell is appended there, also in cell order.
 */
std::vector<RunResult> runCells(const BenchOptions &opt,
                                const std::vector<RunConfig> &cfgs);

/** Printing helpers. */
void printHeader(const std::string &title, const std::string &paper_note);
void printRowHeader(const std::vector<std::string> &cols);
void printBar();

/**
 * Run one "figure" group: for each application and machine model at a
 * given (nodes, ways), print execution time normalized to Base plus the
 * memory-stall fraction — the paper's stacked-bar figures in text form.
 */
void runFigure(const BenchOptions &opt, unsigned nodes, unsigned ways,
               std::uint64_t cpu_freq_mhz, const std::string &caption);

} // namespace smtp::bench

#endif // SMTP_BENCH_BENCH_UTIL_HPP
