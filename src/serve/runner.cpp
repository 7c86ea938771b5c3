#include "serve/runner.hpp"

#include <chrono>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "check/checker.hpp"
#include "common/parse.hpp"
#include "snap/ckpt_cache.hpp"
#include "trace/trace.hpp"
#include "workload/app.hpp"

namespace smtp::serve
{

bool
SampleSpec::parse(const std::string &spec, SampleSpec &out,
                  std::string *err)
{
    std::vector<std::string> p = splitList(spec, ':');
    SampleSpec s;
    if (p.size() != 3 || !parseDigits(p[0], s.warmup) ||
        !parseDigits(p[1], s.interval) || !parseDigits(p[2], s.count) ||
        !s.active()) {
        if (err != nullptr)
            *err = "expected W:M:K (cycles:cycles:count, M and K > 0), "
                   "got '" +
                   spec + "'";
        return false;
    }
    out = s;
    return true;
}

namespace
{

/**
 * One sweep cell's simulation state: machine + functional memory +
 * workload, wired together. Rebuildable, because a failed snapshot
 * restore may leave the machine partially mutated — the fallback path
 * constructs a fresh cell and simulates from tick zero.
 */
struct CellSim
{
    MachineParams mp;
    std::unique_ptr<FuncMem> mem;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<workload::App> app;
    unsigned totalThreads = 0;

    void
    build(const RunConfig &cfg)
    {
        machine.reset();
        mem = std::make_unique<FuncMem>();
        machine = std::make_unique<Machine>(mp);
        app = workload::makeApp(cfg.app);
        workload::WorkloadEnv env;
        env.mem = mem.get();
        env.map = &machine->addressMap();
        env.nodes = cfg.nodes;
        env.threadsPerNode = cfg.ways;
        env.scale = cfg.scale;
        app->build(env);
        totalThreads = env.totalThreads();
        for (unsigned t = 0; t < totalThreads; ++t)
            machine->setGlobalSource(t, app->thread(t));
        machine->setWorkloadState(app.get());
        // Server workloads: request/txn telemetry buffers (no-op for
        // the scientific apps and for untraced machines — the factory
        // returns nullptr when the category is masked, keeping other
        // exports byte-identical) and a watchdog progress probe so a
        // wedged-but-cache-quiet workload still trips the checker.
        if (auto *tm = machine->traceManager()) {
            app->attachTrace([tm](NodeId node) {
                return tm->createBuffer("wl", node,
                                        trace::Category::Workload);
            });
        }
        const workload::ServerStats *stats = app->serverStats();
        if (machine->checker() != nullptr && stats != nullptr) {
            machine->checker()->addProgressProbe(
                std::string(app->name()),
                [stats] {
                    return stats->requests + stats->txnCommits +
                           stats->txnAborts;
                },
                [stats] { return stats->done(); });
        }
    }
};

/**
 * Checkpoint-library identity: the machine config hash mixed with
 * everything that shapes *simulated state* but lives outside
 * MachineParams — the workload, and whether telemetry rides along (a
 * traced snapshot carries a trace section an untraced machine must not
 * be handed, and vice versa). Deliberately narrower than cellKey():
 * sample runs with different interval counts share one warmup
 * snapshot (the tag carries the warmup length), and checker level
 * never reaches the library (checked cells bypass it).
 */
std::uint64_t
snapKey(const RunConfig &cfg)
{
    snap::Hasher h;
    h.mix(machineConfigHash(paramsFor(cfg)));
    h.mix("workload");
    h.mix(cfg.app);
    h.mixF(cfg.scale);
    h.mix(static_cast<std::uint64_t>(cfg.traceStem.empty() ? 0 : 1));
    // Exec-traced snapshots carry per-shard exec buffers a plainly
    // traced machine would refuse, so they get their own cache cells.
    h.mix(static_cast<std::uint64_t>(cfg.traceExec ? 1 : 0));
    return h.value();
}

/** Two-sided 95% Student's t critical value for @p df degrees. */
double
tCrit95(unsigned df)
{
    static const double kTable[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return kTable[df - 1];
    return 1.96;
}

/** Sample mean and 95% CI half-width (0 when n < 2). */
void
meanCi95(const std::vector<double> &xs, double &mean, double &ci)
{
    mean = 0.0;
    ci = 0.0;
    if (xs.empty())
        return;
    for (double x : xs)
        mean += x;
    mean /= static_cast<double>(xs.size());
    if (xs.size() < 2)
        return;
    double ss = 0.0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    double var = ss / static_cast<double>(xs.size() - 1);
    ci = tCrit95(static_cast<unsigned>(xs.size() - 1)) *
         std::sqrt(var / static_cast<double>(xs.size()));
}

/**
 * Read every derived metric off the machine's current state. Works
 * identically on a machine that just simulated and on one that just
 * restored a snapshot — that equivalence is what makes checkpoint
 * hits indistinguishable in the JSON output.
 */
void
extractMetrics(Machine &machine, const RunConfig &cfg, RunResult &out,
               bool quiesce_faults)
{
    out.execTime = machine.execTime();
    out.committedInsts = machine.committedAppInsts();
    out.memStallFraction = machine.memStallFraction();
    out.peakProtocolOccupancy = machine.peakProtocolOccupancy();
    out.execSerialized = machine.execSerializedByChecker();
    if (cfg.model == MachineModel::SMTp) {
        auto pc = machine.protoCharacteristics();
        out.protoBranchMispredict = pc.branchMispredictRate;
        out.protoSquashCyclePct = pc.squashCyclePct;
        out.protoRetiredPct = pc.retiredInstPct;
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            const auto &occ = machine.node(n).cpu->protoOccupancy;
            out.peakBranchStack =
                std::max(out.peakBranchStack, occ.branchStack.peak());
            out.peakIntRegs =
                std::max(out.peakIntRegs, occ.intRegs.peak());
            out.peakIntQueue =
                std::max(out.peakIntQueue, occ.intQueue.peak());
            out.peakLsq = std::max(out.peakLsq, occ.lsq.peak());
        }
    }
    // Variant statistics are extracted for EVERY protocol (the JSON
    // fields they feed stay conditional on a non-default protocol, so
    // default records keep their bytes): protocol_compare diffs the
    // bitvector baseline against the variants through these fields.
    {
        auto mig = machine.migratoryCounters();
        out.migDetected = mig.detected;
        out.migSaved = mig.saved;
        out.migReverts = mig.reverts;
        Distribution delay;
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            const auto &mc = *machine.node(n).mc;
            out.naks += mc.naksSent.value();
            out.invalsSent += mc.invalsSent.value();
            out.phaseFloorTrips += mc.phaseFloorTrips.value();
            if (n == 0)
                delay = mc.reqQueueDelay;
            else
                delay.merge(mc.reqQueueDelay);
        }
        out.reqQueueDelayMeanNs =
            delay.mean() / static_cast<double>(tickPerNs);
        out.reqQueueDelayP95Ns =
            delay.percentile(95.0) / static_cast<double>(tickPerNs);
    }
    if (!cfg.traceStem.empty()) {
        std::string err;
        if (!machine.writeTraceFiles(cfg.traceStem, &err))
            std::fprintf(stderr, "trace export failed: %s\n", err.c_str());
    }
    if (const auto *fi = machine.faultInjector(); fi != nullptr) {
        // Faulty cells must still drain cleanly: every injected fault
        // is recoverable, so residual traffic is a harness bug. A
        // restored machine was quiesced before its snapshot was saved.
        if (quiesce_faults)
            machine.quiesce();
        out.faultsInjected = fi->injectedTotal();
        out.faultsRecovered = fi->recoveredTotal();
    }
}

/**
 * Publish the server-family statistics into the record. Works equally
 * after a cold simulation, a checkpoint restore (the resume-log replay
 * recomputed them) or a sampled run; no-op for the scientific apps.
 */
void
extractServerStats(const workload::App &app, RunResult &out)
{
    const workload::ServerStats *st = app.serverStats();
    if (st == nullptr)
        return;
    out.server = true;
    out.requests = st->requests;
    out.txnCommits = st->txnCommits;
    out.txnAborts = st->txnAborts;
    out.txnFallbacks = st->txnFallbacks;
    out.reqLatMeanUs =
        st->reqLatency.mean() / static_cast<double>(tickPerUs);
    out.reqLatP50Us =
        st->reqLatency.percentile(50.0) / static_cast<double>(tickPerUs);
    out.reqLatP95Us =
        st->reqLatency.percentile(95.0) / static_cast<double>(tickPerUs);
    out.reqLatP99Us =
        st->reqLatency.percentile(99.0) / static_cast<double>(tickPerUs);
}

void
saveCheckpoint(Machine &machine, snap::CheckpointLibrary &lib,
               std::uint64_t key, std::string_view tag)
{
    std::string err;
    if (!machine.save(lib.pathFor(key, tag), &err))
        std::fprintf(stderr, "checkpoint save failed: %s\n", err.c_str());
}

/**
 * Restore @p sim from the library snapshot (key, tag). On any failure
 * — config-hash mismatch from a stale library, truncation, version
 * skew — the cell is rebuilt from scratch and the caller simulates
 * cold; a bad snapshot can cost time, never correctness.
 */
bool
tryRestore(CellSim &sim, const RunConfig &cfg,
           snap::CheckpointLibrary &lib, std::uint64_t key,
           std::string_view tag)
{
    std::string err;
    if (sim.machine->restore(lib.pathFor(key, tag), &err))
        return true;
    std::fprintf(stderr,
                 "checkpoint restore failed (%s); re-simulating: %s\n",
                 lib.pathFor(key, tag).c_str(), err.c_str());
    sim.build(cfg);
    return false;
}

/**
 * Sampled measurement: warm up W cycles (restoring a shared warmup
 * snapshot when the library has one), then measure K intervals of M
 * cycles, reporting per-interval machine IPC and memory-stall fraction
 * as mean +/- 95% CI. Ends early if the workload completes.
 */
void
runSampled(CellSim &sim, const RunConfig &cfg,
           snap::CheckpointLibrary *lib, RunResult &out)
{
    const SampleSpec &sp = cfg.sample;
    out.sampled = true;
    ClockDomain clk(cfg.cpuFreqMHz);
    Tick warm_ticks = clk.cyclesToTicks(sp.warmup);
    bool done = false;
    if (lib != nullptr && sp.warmup > 0) {
        std::uint64_t key = snapKey(cfg);
        char tag[32];
        std::snprintf(tag, sizeof(tag), "w%llu",
                      static_cast<unsigned long long>(sp.warmup));
        if (lib->lookup(key, tag) && tryRestore(sim, cfg, *lib, key, tag)) {
            out.ckpt = 1;
        } else {
            out.ckpt = 0;
            done = sim.machine->runUntil(warm_ticks);
            // A workload that finished inside the warmup left an end
            // state, not a warm state; publishing it would make warm
            // reruns diverge from cold ones (extra sample intervals
            // against a finished machine), so the cell stays a miss.
            if (!done)
                saveCheckpoint(*sim.machine, *lib, key, tag);
        }
    } else if (warm_ticks > 0) {
        done = sim.machine->runUntil(warm_ticks);
    }

    Machine &m = *sim.machine;
    auto stall_sum = [&] {
        std::uint64_t s = 0;
        for (unsigned n = 0; n < cfg.nodes; ++n)
            for (unsigned t = 0; t < cfg.ways; ++t)
                s += m.node(n)
                         .cpu->threadStats(static_cast<ThreadId>(t))
                         .memStallCycles.value();
        return s;
    };
    Tick interval_ticks = clk.cyclesToTicks(sp.interval);
    Tick base = m.eventQueue().curTick();
    Tick prev_tick = base;
    std::uint64_t prev_insts = m.committedAppInsts();
    std::uint64_t prev_stall = stall_sum();
    std::vector<double> ipc, stall;
    for (unsigned k = 0; k < sp.count && !done; ++k) {
        done = m.runUntil(base + (k + 1) * interval_ticks);
        Tick now = m.eventQueue().curTick();
        double cycles = static_cast<double>(now - prev_tick) /
                        static_cast<double>(clk.period());
        if (cycles <= 0.0)
            break;
        std::uint64_t insts = m.committedAppInsts();
        std::uint64_t st = stall_sum();
        ipc.push_back(static_cast<double>(insts - prev_insts) / cycles);
        stall.push_back(static_cast<double>(st - prev_stall) /
                        (cycles * sim.totalThreads));
        prev_tick = now;
        prev_insts = insts;
        prev_stall = st;
    }
    out.sampleCount = static_cast<unsigned>(ipc.size());
    meanCi95(ipc, out.ipcMean, out.ipcCi95);
    meanCi95(stall, out.memStallMean, out.memStallCi95);
    // Cumulative metrics reflect the run so far (warmup + intervals);
    // quiesce only when the workload actually finished — draining a
    // mid-flight machine would perturb nothing we report but is wasted
    // work and not what a sampled cell means.
    extractMetrics(m, cfg, out, /*quiesce_faults=*/done);
}

} // namespace

MachineParams
paramsFor(const RunConfig &cfg)
{
    MachineParams mp;
    mp.model = cfg.model;
    mp.protocol = cfg.protocol;
    mp.nodes = cfg.nodes;
    mp.appThreadsPerNode = cfg.ways;
    mp.cpuFreqMHz = cfg.cpuFreqMHz;
    mp.lookAheadScheduling = cfg.lookAheadScheduling;
    mp.bitAssistOps = cfg.bitAssistOps;
    mp.perfectProtocolCaches = cfg.perfectProtocolCaches;
    mp.dirCacheDivisor = cfg.dirCacheDivisor;
    mp.exec = cfg.exec;
    mp.checkLevel = cfg.checkLevel;
    mp.trace.enabled = !cfg.traceStem.empty();
    if (cfg.traceExec)
        mp.trace.categories |= trace::categoryBit(trace::Category::Exec);
    mp.faults = cfg.faults;
    mp.retryPolicy = cfg.retryPolicy;
    return mp;
}

std::uint64_t
cellKey(const RunConfig &cfg)
{
    // Record identity = snapshot identity plus everything else that
    // shapes jsonRecord() bytes: checker level (the "check" field and
    // the serialized-fallback flag), exec mode (the "exec" field), and
    // the sample spec (the sampled-statistics fields).
    snap::Hasher h;
    h.mix(snapKey(cfg));
    h.mix(static_cast<std::uint64_t>(cfg.checkLevel));
    h.mix(cfg.exec.toString());
    h.mix(static_cast<std::uint64_t>(cfg.sample.warmup));
    h.mix(static_cast<std::uint64_t>(cfg.sample.interval));
    h.mix(static_cast<std::uint64_t>(cfg.sample.count));
    return h.value();
}

RunResult
runOnce(const RunConfig &cfg)
{
    auto wall_start = std::chrono::steady_clock::now();

    CellSim sim;
    sim.mp = paramsFor(cfg);
    sim.build(cfg);

    // Checked cells bypass the checkpoint library wholesale: restore
    // requires checkLevel Off (mirror state is not serialized), and a
    // checked cell's purpose is to observe every transition itself.
    std::unique_ptr<snap::CheckpointLibrary> lib;
    if (!cfg.ckptDir.empty() &&
        cfg.checkLevel == check::CheckLevel::Off) {
        lib = std::make_unique<snap::CheckpointLibrary>(cfg.ckptDir);
        if (!lib->valid()) {
            std::fprintf(stderr, "%s\n", lib->error().c_str());
            lib.reset();
        }
    }

    RunResult out;
    if (cfg.sample.active()) {
        runSampled(sim, cfg, lib.get(), out);
    } else if (lib != nullptr) {
        std::uint64_t key = snapKey(cfg);
        if (lib->lookup(key, "full") &&
            tryRestore(sim, cfg, *lib, key, "full")) {
            out.ckpt = 1;
            extractMetrics(*sim.machine, cfg, out,
                           /*quiesce_faults=*/false);
        } else {
            out.ckpt = 0;
            sim.machine->run();
            extractMetrics(*sim.machine, cfg, out,
                           /*quiesce_faults=*/true);
            saveCheckpoint(*sim.machine, *lib, key, "full");
        }
    } else {
        sim.machine->run();
        extractMetrics(*sim.machine, cfg, out, /*quiesce_faults=*/true);
        // A checked cell drains to a quiet point so the checker can
        // age out residual transactions — and, at FullMirror level,
        // cross-check its mirrors (Machine::quiesce calls
        // verifyQuiescent). After extractMetrics: quiescing first
        // would perturb cumulative metrics vs. an unchecked run.
        if (cfg.checkLevel != check::CheckLevel::Off)
            sim.machine->quiesce();
    }
    extractServerStats(*sim.app, out);
    out.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
    return out;
}

std::string
jsonRecord(const RunConfig &c, const RunResult &r)
{
    using G = RunResult::Group;
    auto add = [](std::string &out,
                  std::initializer_list<std::string_view> parts) {
        for (std::string_view p : parts)
            out += p;
    };
    // One walk renders `,"key":value` for each record field into its
    // group's text; the groups are then joined in record order.
    std::string group[static_cast<int>(G::Wire)];
    auto put = [&](const char *key, auto &v, G g, RunResult::Fmt fmt) {
        using T = std::decay_t<decltype(v)>;
        if (g == G::Wire)
            return;
        std::string value;
        if constexpr (std::is_same_v<T, bool>) {
            value = v ? "true" : "false";
        } else if constexpr (std::is_floating_point_v<T>) {
            char buf[512]; // %.3f of the largest double: 313 chars.
            std::snprintf(buf, sizeof(buf),
                          fmt == RunResult::Fmt::F3 ? "%.3f" : "%.6f", v);
            value = buf;
        } else {
            value = std::to_string(v);
        }
        add(group[static_cast<int>(g)], {",\"", key, "\":", value});
    };
    const_cast<RunResult &>(r).fields(put);
    auto text = [&group](G g) -> std::string_view {
        return group[static_cast<int>(g)];
    };

    std::string out;
    add(out, {"{\"app\":\"", c.app, "\",\"model\":\"", modelName(c.model),
              "\",\"nodes\":", std::to_string(c.nodes),
              ",\"ways\":", std::to_string(c.ways), text(G::Always)});
    // Each optional group below appears only for cells with that
    // feature, so records without it (the golden sweep JSONs included)
    // stay byte-identical to output from before the feature existed.
    if (c.protocol != proto::ProtocolKind::Bitvector) {
        add(out, {",\"protocol\":\"", proto::protocolName(c.protocol), "\"",
                  text(G::Protocol)});
    }
    if (c.faults.enabled() || c.faults.injectDropWithoutRetransmit) {
        add(out, {",\"fault_seed\":", std::to_string(c.faults.seed),
                  ",\"faults\":\"", c.faults.toString(), "\",\"retry\":\"",
                  fault::retryPolicyToString(c.retryPolicy), "\"",
                  text(G::Fault)});
    }
    // Server and sample values are pure functions of simulated state:
    // serial and parallel:T runs must produce the same bytes.
    if (r.server)
        out += text(G::Server);
    if (r.sampled)
        out += text(G::Sample);
    // The exec field is ALWAYS present ("serial" included) so ingest —
    // diff scripts, the daemon's dedup — never special-cases its
    // absence. A full-mirror run that overrode a parallel request
    // additionally says so: the record must never read as parallel
    // when one host thread did the work.
    add(out, {",\"exec\":\"", c.exec.toString(), "\""});
    if (r.execSerialized)
        out += text(G::Serialized);
    if (c.checkLevel != check::CheckLevel::Off)
        add(out, {",\"check\":\"", checkLevelName(c.checkLevel), "\""});
    add(out, {text(G::Wall), "}"});
    return out;
}

void
appendJsonRecord(std::FILE *f, const RunConfig &cfg, const RunResult &r)
{
    std::fprintf(f, "%s\n", jsonRecord(cfg, r).c_str());
}

} // namespace smtp::serve
