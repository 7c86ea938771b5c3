/**
 * @file
 * The shared sweep-cell runner: one full-system simulation per
 * (application, machine model, size) cell, with checkpoint-library
 * integration and sampled measurement.
 *
 * Both front ends run cells through this exact code path — the bench
 * binaries inline (bench/bench_util) and the smtpd daemon on behalf of
 * remote clients (serve/server) — which is what makes the daemon's
 * determinism guarantee cheap to state: a served result is the same
 * RunResult the client's own process would have computed, serialized
 * by the same jsonRecord(), so records are byte-identical mod wall_ms.
 */

#ifndef SMTP_SERVE_RUNNER_HPP
#define SMTP_SERVE_RUNNER_HPP

#include <cstdio>
#include <string>

#include "machine/machine.hpp"

namespace smtp::serve
{

/**
 * Sampled-measurement spec (--sample=W:M:K, all in CPU cycles except
 * K): skip W cycles of warmup, then take K measurement intervals of M
 * cycles each and report per-metric mean and 95% confidence interval
 * (Student's t) instead of running the workload to completion. With a
 * checkpoint library attached, the warmup snapshot is cached under the
 * cell's config hash, so every variant sharing the warmup prefix
 * simulates it once.
 */
struct SampleSpec
{
    Cycles warmup = 0;   ///< W: warmup length in CPU cycles.
    Cycles interval = 0; ///< M: one measurement interval, CPU cycles.
    unsigned count = 0;  ///< K: number of intervals.

    bool active() const { return interval > 0 && count > 0; }

    /** Parse "W:M:K". False (with *err) on malformed input. */
    static bool parse(const std::string &spec, SampleSpec &out,
                      std::string *err = nullptr);
};

/**
 * One sweep cell. fields() names every field a cell carries on the
 * smtpd wire once, with its wire key and, for the sweep-wide options,
 * its CLI flag; cellToJson/cellFromJson and every front end's cell
 * flags (parseCellFlag) are walks over that one list.
 */
struct RunConfig
{
    /**
     * How a field travels in cellToJson(): Always; IfSet only when it
     * differs from the default, so a cell that leaves the option off
     * still reads on a daemon that predates it; InOnly is accepted
     * from clients and never sent.
     */
    enum class Wire : std::uint8_t { Always, IfSet, InOnly };

    MachineModel model = MachineModel::SMTp;
    /**
     * Directory-protocol variant (--protocol=NAME). The default
     * bitvector protocol leaves every record, config hash and cache
     * key byte-identical to a build without the variant subsystem.
     */
    proto::ProtocolKind protocol = proto::ProtocolKind::Bitvector;
    unsigned nodes = 1;
    unsigned ways = 1;
    std::string app = "FFT";
    double scale = 1.0;
    std::uint64_t cpuFreqMHz = 2000;
    bool lookAheadScheduling = true;
    bool bitAssistOps = true;
    bool perfectProtocolCaches = false;
    unsigned dirCacheDivisor = 16; ///< Scaled with the problem sizes.
    /**
     * Shard-engine execution mode (--exec=serial|parallel[:T]).
     * Simulated results are bit-identical across modes; parallel only
     * changes host wall time (docs/parallelism.md).
     */
    ExecParams exec;
    /**
     * Coherence checker level (--check=off|asserts|full). Asserts runs
     * under the parallel engine; FullMirror forces one host thread,
     * loudly (RunResult::execSerialized). Checked cells bypass the
     * checkpoint library: restore requires checkLevel Off, and a
     * checked run's point is to observe every transition itself.
     */
    check::CheckLevel checkLevel = check::CheckLevel::Off;
    /**
     * When non-empty, run with telemetry enabled and write
     * stem.smtptrace / stem.json / stem.csv after the run. Tracing
     * never perturbs simulated timing.
     */
    std::string traceStem;
    /**
     * Also record the opt-in Exec category (--trace-exec): per-shard
     * window-advance and barrier-wait events. These carry host time,
     * so exec-traced exports are NOT byte-comparable across exec modes
     * (docs/parallelism.md).
     */
    bool traceExec = false;
    /**
     * Fault injection (--faults=PLAN) and NAK retry policy
     * (--retry=SPEC). A disabled plan and the default Fixed policy
     * leave every cell bit-identical to a build without src/fault.
     */
    fault::FaultPlan faults;
    fault::RetryPolicyConfig retryPolicy;
    /**
     * Checkpoint library directory (--ckpt-dir=DIR; empty = off).
     * Full runs cache their end state; sampled runs cache the warmup
     * snapshot. Keys include the machine config hash, so a stale or
     * foreign snapshot is rejected and re-simulated, never trusted.
     */
    std::string ckptDir;
    SampleSpec sample; ///< Inactive = run to completion (default).

    /**
     * Call f(key, member, flag, wire) once per field, in wire order.
     * flag is the CLI spelling of a sweep-wide option, or nullptr for
     * the fields a front end sets per cell. The wire carries only
     * whether to trace ("?" until the daemon names the stem), and
     * accepts a client's ckpt_dir only to drop it: the daemon owns
     * the checkpoint farm.
     */
    template <class F>
    void
    fields(F &f)
    {
        using W = Wire;
        bool trace = !traceStem.empty();
        std::string ckptIgnored;
        f("model", model, nullptr, W::Always);
        f("protocol", protocol, "--protocol", W::IfSet);
        f("nodes", nodes, nullptr, W::Always);
        f("ways", ways, nullptr, W::Always);
        f("app", app, nullptr, W::Always);
        f("scale", scale, "--scale", W::Always);
        f("cpu_mhz", cpuFreqMHz, nullptr, W::Always);
        f("las", lookAheadScheduling, nullptr, W::Always);
        f("bitops", bitAssistOps, nullptr, W::Always);
        f("pcache", perfectProtocolCaches, nullptr, W::Always);
        f("dir_cache_divisor", dirCacheDivisor, "--dcache-div", W::Always);
        f("exec", exec, "--exec", W::Always);
        f("check", checkLevel, "--check", W::Always);
        f("sample", sample, "--sample", W::IfSet);
        f("faults", faults, "--faults", W::IfSet);
        f("retry", retryPolicy, "--retry", W::Always);
        f("trace", trace, nullptr, W::IfSet);
        f("trace_exec", traceExec, nullptr, W::IfSet);
        f("ckpt_dir", ckptIgnored, nullptr, W::InOnly);
        if (trace && traceStem.empty())
            traceStem = "?";
    }
};

/**
 * One cell's outcome. fields() names every member once, with its JSON
 * key, the jsonRecord() group it prints in and its record format; the
 * record writer, the smtpd wire (resultToJson/resultFromJson) and the
 * daemon's result cache are all walks over that one list.
 */
struct RunResult
{
    /**
     * Where a field appears in jsonRecord(): Always; Protocol, Fault,
     * Server, Sample and Serialized only for cells with that feature
     * (non-default protocol, fault plan, server app, sampled run,
     * parallel request run serialized), so other records keep their
     * bytes; Wall closes every record; Wire fields (Wire is last)
     * stay out of it. Within a group, list order is record order.
     */
    enum class Group : std::uint8_t
    {
        Always, Protocol, Fault, Server, Sample, Serialized, Wall, Wire
    };

    /** Record format: Int (%llu, or true/false for a bool), %.3f, %.6f. */
    enum class Fmt : std::uint8_t { Int, F3, F6 };

    Tick execTime = 0;
    /** Committed app instructions (derived metrics like IPC use it
     *  with execTime). */
    std::uint64_t committedInsts = 0;
    double memStallFraction = 0.0;
    double peakProtocolOccupancy = 0.0;
    // SMTp-only protocol thread characteristics.
    double protoBranchMispredict = 0.0;
    double protoSquashCyclePct = 0.0;
    double protoRetiredPct = 0.0;
    // Protocol thread peak resource occupancy (Table 9).
    std::uint64_t peakBranchStack = 0;
    std::uint64_t peakIntRegs = 0;
    std::uint64_t peakIntQueue = 0;
    std::uint64_t peakLsq = 0;
    // Fault-injection outcome (zero unless a plan was enabled).
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsRecovered = 0;
    // Sampled-measurement statistics (populated when sample.active()).
    bool sampled = false;
    unsigned sampleCount = 0;     ///< Intervals actually measured.
    double ipcMean = 0.0;         ///< Machine IPC per interval, mean.
    double ipcCi95 = 0.0;         ///< 95% CI half-width (Student's t).
    double memStallMean = 0.0;    ///< Per-interval mem-stall fraction.
    double memStallCi95 = 0.0;
    // Server-workload statistics (populated only when the app is one
    // of the server family; see workload::ServerStats).
    bool server = false;
    std::uint64_t requests = 0;
    double reqLatMeanUs = 0.0; ///< Request latency, microseconds.
    double reqLatP50Us = 0.0;
    double reqLatP95Us = 0.0;
    double reqLatP99Us = 0.0;
    std::uint64_t txnCommits = 0;
    std::uint64_t txnAborts = 0;
    std::uint64_t txnFallbacks = 0;
    // Protocol-variant statistics (populated only when the cell runs a
    // non-default protocol).
    std::uint64_t migDetected = 0;  ///< Migratory lines predicted.
    std::uint64_t migSaved = 0;     ///< Upgrade round-trips avoided.
    std::uint64_t migReverts = 0;   ///< False predictions reverted.
    std::uint64_t naks = 0;          ///< NAKs sent, summed over nodes.
    std::uint64_t invalsSent = 0;    ///< FwdInval messages sent.
    std::uint64_t phaseFloorTrips = 0; ///< Starvation-floor force-serves.
    double reqQueueDelayMeanNs = 0.0;  ///< Directory queueing delay.
    double reqQueueDelayP95Ns = 0.0;
    // Checkpoint-library outcome: -1 = library off, 0 = miss, 1 = hit.
    int ckpt = -1;
    /** A parallel exec request was serialized by the FullMirror checker. */
    bool execSerialized = false;
    // Harness measurement (host time; not simulated state).
    double wallMs = 0.0;

    /** Call f(key, member, group, fmt) once per field, in member order. */
    template <class F>
    void
    fields(F &f)
    {
        using G = Group;
        f("exec_ticks", execTime, G::Always, Fmt::Int);
        f("committed_insts", committedInsts, G::Wire, Fmt::Int);
        f("mem_stall", memStallFraction, G::Always, Fmt::F6);
        f("peak_proto_occ", peakProtocolOccupancy, G::Wire, Fmt::F6);
        f("proto_br_mis", protoBranchMispredict, G::Wire, Fmt::F6);
        f("proto_squash_pct", protoSquashCyclePct, G::Wire, Fmt::F6);
        f("proto_retired_pct", protoRetiredPct, G::Wire, Fmt::F6);
        f("peak_branch_stack", peakBranchStack, G::Wire, Fmt::Int);
        f("peak_int_regs", peakIntRegs, G::Wire, Fmt::Int);
        f("peak_int_queue", peakIntQueue, G::Wire, Fmt::Int);
        f("peak_lsq", peakLsq, G::Wire, Fmt::Int);
        f("faults_injected", faultsInjected, G::Fault, Fmt::Int);
        f("faults_recovered", faultsRecovered, G::Fault, Fmt::Int);
        f("sampled", sampled, G::Wire, Fmt::Int);
        f("samples", sampleCount, G::Sample, Fmt::Int);
        f("ipc_mean", ipcMean, G::Sample, Fmt::F6);
        f("ipc_ci95", ipcCi95, G::Sample, Fmt::F6);
        f("memstall_mean", memStallMean, G::Sample, Fmt::F6);
        f("memstall_ci95", memStallCi95, G::Sample, Fmt::F6);
        f("server", server, G::Wire, Fmt::Int);
        f("requests", requests, G::Server, Fmt::Int);
        f("req_lat_mean_us", reqLatMeanUs, G::Server, Fmt::F3);
        f("req_lat_p50_us", reqLatP50Us, G::Server, Fmt::F3);
        f("req_lat_p95_us", reqLatP95Us, G::Server, Fmt::F3);
        f("req_lat_p99_us", reqLatP99Us, G::Server, Fmt::F3);
        f("txn_commits", txnCommits, G::Server, Fmt::Int);
        f("txn_aborts", txnAborts, G::Server, Fmt::Int);
        f("txn_fallbacks", txnFallbacks, G::Server, Fmt::Int);
        f("mig_detected", migDetected, G::Protocol, Fmt::Int);
        f("mig_upgrades_saved", migSaved, G::Protocol, Fmt::Int);
        f("mig_reverts", migReverts, G::Protocol, Fmt::Int);
        f("naks", naks, G::Protocol, Fmt::Int);
        f("invals", invalsSent, G::Protocol, Fmt::Int);
        f("floor_trips", phaseFloorTrips, G::Protocol, Fmt::Int);
        f("req_qdelay_mean_ns", reqQueueDelayMeanNs, G::Protocol, Fmt::F3);
        f("req_qdelay_p95_ns", reqQueueDelayP95Ns, G::Protocol, Fmt::F3);
        f("ckpt", ckpt, G::Wire, Fmt::Int);
        f("exec_serialized", execSerialized, G::Serialized, Fmt::Int);
        f("wall_ms", wallMs, G::Wall, Fmt::F3);
    }
};

using check::checkLevelName;
using check::parseCheckLevel;

/** MachineParams for one cell (the machine-facing half of RunConfig). */
MachineParams paramsFor(const RunConfig &cfg);

/**
 * Cell identity: the machine config hash (model, sizes, fault plan,
 * ...) mixed with everything that shapes the produced record but lives
 * outside MachineParams — workload, trace flags, checker level, and
 * the sample spec. Computable from the config alone (no machine
 * build), so the daemon dedups jobs before paying for construction.
 * Two configs with equal cellKey() produce byte-identical jsonRecord()
 * output mod wall_ms.
 */
std::uint64_t cellKey(const RunConfig &cfg);

/** Run one full-system simulation. */
RunResult runOnce(const RunConfig &cfg);

/**
 * The canonical JSON-Lines record for one cell. Every producer (bench
 * --json, the daemon's result stream) uses this one serializer, so
 * "byte-identical mod wall_ms" is a property of the string, not of
 * who computed it.
 */
std::string jsonRecord(const RunConfig &cfg, const RunResult &r);

/** fprintf(jsonRecord(...)) with a trailing newline. */
void appendJsonRecord(std::FILE *f, const RunConfig &cfg,
                      const RunResult &r);

} // namespace smtp::serve

#endif // SMTP_SERVE_RUNNER_HPP
