/**
 * @file
 * Whole-machine assembly: the five machine models of the paper's
 * Table 4 built from the subsystem libraries.
 *
 *   Base        off-chip PP/MC at 400 MHz, 512 KB DM directory cache
 *   IntPerfect  integrated PP/MC at processor frequency, perfect dcache
 *   Int512KB    integrated PP/MC at half frequency, 512 KB DM dcache
 *   Int64KB     integrated PP/MC at half frequency, 64 KB DM dcache
 *   SMTp        integrated standard MC at half frequency, protocol
 *               thread on the main pipeline
 *
 * The machine owns the sharded simulation kernel (one shard per node,
 * sim/shard.hpp), network, address map, handler image and one Node per
 * position; the workload layer plugs InstSources into each CPU. run()
 * advances simulation in barrier-synchronized windows of one network
 * hop latency until every application thread on every node has
 * finished, recording the parallel execution time and the paper's
 * per-run metrics. The window engine is identical under --exec=serial
 * and --exec=parallel:T — results are bit-identical for any host
 * thread count (docs/parallelism.md).
 */

#ifndef SMTP_MACHINE_MACHINE_HPP
#define SMTP_MACHINE_MACHINE_HPP

#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hierarchy.hpp"
#include "check/checker.hpp"
#include "core/protocol_thread.hpp"
#include "cpu/smt_cpu.hpp"
#include "fault/fault.hpp"
#include "mem/controller.hpp"
#include "network/network.hpp"
#include "pengine/pengine.hpp"
#include "protocol/handlers.hpp"
#include "protocol/variants/variants.hpp"
#include "sim/eventq.hpp"
#include "sim/shard.hpp"
#include "snap/snapfile.hpp"
#include "trace/trace.hpp"

namespace smtp
{

enum class MachineModel
{
    Base,
    IntPerfect,
    Int512KB,
    Int64KB,
    SMTp,
};

std::string_view modelName(MachineModel m);

/** Parse a model name ("Base", "SMTp", ...; case-insensitive). */
bool modelFromName(std::string_view name, MachineModel &out);

struct MachineParams;

/**
 * Machine::configHash() without building the machine: the fingerprint
 * of every state-affecting parameter, computable from params alone.
 * The daemon's dedup key uses this to recognize identical cells before
 * paying for construction.
 */
std::uint64_t machineConfigHash(const MachineParams &p);

/**
 * Whether a Machine can be built from @p p: nodes a power of two in
 * 1..32, 1..64 app threads per node, a positive CPU clock and a
 * power-of-two directory-cache divisor. The Machine constructor
 * asserts it; front ends call it first to refuse bad sizes with a
 * diagnostic (stored in *why).
 */
bool checkMachineParams(const MachineParams &p, std::string *why);

struct MachineParams
{
    MachineModel model = MachineModel::SMTp;
    unsigned nodes = 1;
    unsigned appThreadsPerNode = 1;
    std::uint64_t cpuFreqMHz = 2000;

    // SMTp options (Section 2.3 ablations).
    bool lookAheadScheduling = true;
    bool bitAssistOps = true;
    bool perfectProtocolCaches = false;

    /**
     * Protocol extension (paper Section 6): ReVive-style ownership
     * logging by the coherence handlers.
     */
    bool ownershipLog = false;

    /**
     * Directory protocol variant (src/protocol/variants): the baseline
     * bitvector protocol, migratory-sharing detection (Exclusive on
     * the next read of a migrating line; forces the 64-bit directory
     * format), or phase-priority request servicing at the controller.
     * Bitvector reproduces the paper's machine bit for bit.
     */
    proto::ProtocolKind protocol = proto::ProtocolKind::Bitvector;

    /**
     * Deliberate protocol bugs for checker validation (tests only).
     * Each is meaningful under one variant and must make the checker
     * (or its watchdog) fire: a migratory grant without releasing the
     * owner breaks SWMR; a dropped starved request wedges.
     */
    bool injectMigratoryNoRelease = false;
    bool injectDropOnFloor = false;

    /** Scale caches down for protocol-stress tests. */
    std::size_t l2Bytes = 2 * 1024 * 1024;

    /**
     * Execution mode: the windowed shard engine on one host thread
     * (serial, the reference) or on a pool (parallel[:T]). Excluded
     * from configHash() — results are bit-identical across modes, so
     * snapshots restore across them.
     */
    ExecParams exec;

    /**
     * Scaled-simulation methodology: directory data caches shrink by
     * this power-of-two divisor along with the (scaled-down) problem
     * sizes, preserving the paper's directory-cache pressure ratios.
     * 1 = the paper's absolute sizes.
     */
    unsigned dirCacheDivisor = 1;

    /**
     * Coherence checker + watchdog (src/check). Off costs nothing;
     * Asserts checks SWMR on every transition — internally serialized,
     * so it runs under the full parallel shard engine. FullMirror's
     * quiescence mirrors need a globally serialized schedule and force
     * one host thread, loudly (execSerializedByChecker()).
     */
    check::CheckLevel checkLevel = check::CheckLevel::Off;
    bool checkAbortOnViolation = true;
    Tick checkWatchdogMaxAge = 2 * tickPerMs;

    /**
     * Telemetry (src/trace). Disabled costs one null-pointer test per
     * would-be event; enabled never perturbs the event schedule, so
     * simulated timing is bit-identical either way.
     */
    trace::TraceConfig trace;

    /**
     * Deterministic fault injection (src/fault). The default plan has
     * every probability at zero, no injector is constructed, and the
     * run is bit-identical to a fault-free build.
     */
    fault::FaultPlan faults;

    /** NAK retry/backoff policy applied by every node's controller. */
    fault::RetryPolicyConfig retryPolicy;

    /**
     * When non-empty and a checker is active, a watchdog trip
     * auto-saves a machine snapshot here before flagging the violation
     * (docs/debugging.md) — the wedge becomes a restorable, diffable
     * artifact instead of only a text report.
     */
    std::string wedgeSnapshotPath;
};

class Machine
{
  public:
    explicit Machine(const MachineParams &params);
    ~Machine();

    const MachineParams &params() const { return params_; }
    unsigned numNodes() const { return params_.nodes; }
    unsigned appThreads() const
    {
        return params_.nodes * params_.appThreadsPerNode;
    }

    /**
     * Attach the instruction source for (node, thread-slot). The
     * machine switches the source to buffered mode: generation happens
     * only in the single-threaded barrier phase (refill), never from a
     * shard thread.
     */
    void setSource(unsigned node, unsigned thread, InstSource *source);

    /** Global thread index -> (node, slot) attach. */
    void
    setGlobalSource(unsigned gtid, InstSource *source)
    {
        setSource(gtid / params_.appThreadsPerNode,
                  gtid % params_.appThreadsPerNode, source);
    }

    PagePlacementMap &addressMap() { return *map_; }

    /** Shard 0's queue (single-queue harness uses; see shards()). */
    EventQueue &eventQueue() { return shards_.queue(0); }

    /** The sharded kernel (one shard per node). */
    ShardSet &shards() { return shards_; }
    const ShardSet &shards() const { return shards_; }

    /** Host threads the window executor actually uses. */
    unsigned hostThreads() const { return executor_->hostThreads(); }

    /**
     * True when a parallel exec request was overridden to one host
     * thread by the FullMirror checker. Surfaced in bench JSON records
     * as "exec_serialized" so ingest never mistakes a serialized run
     * for a parallel one.
     */
    bool execSerializedByChecker() const { return execSerializedByChecker_; }

    /**
     * Run until every application thread has finished (or @p limit
     * simulated time passes, which is fatal: a deadlock).
     * @return the parallel execution time in ticks.
     */
    Tick run(Tick limit = 500 * tickPerMs);

    /**
     * Advance until the absolute tick @p when (executing every event
     * scheduled at or before it) or until the workload completes,
     * whichever is first. Unlike run(), stopping early is not an error
     * — this is the warmup/measurement-slice primitive of the
     * checkpoint and sampled-measurement paths. Resumable: call again
     * (or call run()) to continue. A mid-window stop leaves in-flight
     * cross-shard events in their mailboxes; save() carries them.
     * @return true when every application thread has finished.
     */
    bool runUntil(Tick when);

    /** Drain residual protocol traffic (after run) for checkers. */
    void quiesce(Tick limit = 10 * tickPerMs);
    bool quiescent() const;

    /** Total committed instructions over all application threads. */
    std::uint64_t committedAppInsts() const;

    Tick execTime() const { return execTime_; }

    struct Node
    {
        std::unique_ptr<CacheHierarchy> cache;
        std::unique_ptr<MemController> mc;
        std::unique_ptr<SmtCpu> cpu;
        std::unique_ptr<PEngine> pengine;        ///< Non-SMTp models.
        std::unique_ptr<ProtocolThread> pthread; ///< SMTp.

        /** Protocol agent busy time (Table 7 numerator). */
        Tick
        agentBusyTicks() const
        {
            return pengine ? pengine->busyTicks() : pthread->busyTicks();
        }
    };

    Node &node(unsigned n) { return *nodes_[n]; }
    const Node &node(unsigned n) const { return *nodes_[n]; }
    Network &network() { return *net_; }
    const proto::DirFormat &dirFormat() const { return fmt_; }
    /** nullptr when checkLevel is Off. */
    check::Checker *checker() { return checker_.get(); }

    /** nullptr when tracing is disabled. */
    trace::TraceManager *traceManager() { return traceMgr_.get(); }

    /** nullptr when the fault plan is fully disabled. */
    fault::FaultInjector *faultInjector() { return faults_.get(); }
    const fault::FaultInjector *faultInjector() const
    {
        return faults_.get();
    }

    /**
     * Snapshot the telemetry and write stem.smtptrace / stem.json
     * (Perfetto) / stem.csv. False (with @p err) when tracing is off
     * or a file cannot be written.
     */
    bool writeTraceFiles(const std::string &stem,
                         std::string *err = nullptr) const;

    // ---- Paper metrics ------------------------------------------------

    /** Mean memory-stall fraction over all application threads. */
    double memStallFraction() const;

    /** Peak protocol occupancy over nodes: busy / exec time (Table 7). */
    double peakProtocolOccupancy() const;

    /**
     * Migratory-variant prediction counters, summed over every node's
     * home-side scratch space (zero under other protocols): migrations
     * detected, upgrade round-trips saved by an Exclusive-on-read
     * grant, and false predictions reverted.
     */
    struct MigratoryCounters
    {
        std::uint64_t detected = 0;
        std::uint64_t saved = 0;
        std::uint64_t reverts = 0;
    };

    MigratoryCounters migratoryCounters() const;

    /** Aggregate protocol-thread characteristics (Table 8; SMTp only). */
    struct ProtoCharacteristics
    {
        double branchMispredictRate = 0.0;
        double squashCyclePct = 0.0;
        double retiredInstPct = 0.0;
    };

    ProtoCharacteristics protoCharacteristics() const;

    /** Hierarchical end-of-run statistics dump (gem5-style). */
    void dumpStats(std::ostream &os) const;

    // ---- Checkpoint / restore (src/snap) ------------------------------

    /**
     * Fingerprint of every state-affecting parameter. Snapshots carry
     * it and restore refuses on mismatch. Deliberately excluded: exec
     * (host-thread counts are bit-identical — snapshots restore across
     * them), the checker and trace configs (observation-only), and
     * wedgeSnapshotPath.
     */
    std::uint64_t configHash() const;

    /**
     * Attach the workload's snapshot delegate (the workload::App).
     * Required before save/restore of a machine with attached
     * generators; restore replays the app's coroutine resume log, so
     * the app must be freshly built with the identical name/env.
     */
    void setWorkloadState(snap::Snapshottable *w) { workloadState_ = w; }

    /**
     * Write a complete deterministic snapshot. Resuming it on an
     * identically configured machine continues bit-identically to the
     * uninterrupted run. Works after run()/runUntil() returned —
     * including mid-window runUntil stops, whose undelivered mailbox
     * events are carried by the snapshot.
     */
    bool save(const std::string &path, std::string *err = nullptr) const;

    /** In-memory save (tests, the checkpoint library). */
    std::vector<std::uint8_t> saveImage() const;

    /**
     * Restore into a *freshly constructed* machine with identical
     * state-affecting params (hash-gated), checkLevel Off (mirror
     * state is not serialized), and the workload delegate attached.
     * False with a diagnostic on any mismatch, truncation or
     * corruption — never UB.
     */
    bool restore(const std::string &path, std::string *err = nullptr);

    /** In-memory restore counterpart of saveImage(). */
    bool restoreImage(std::vector<std::uint8_t> image,
                      std::string *err = nullptr);

    /**
     * The event decoder restore uses: every snappable event type plus
     * one owner resolver per component type of this machine.
     */
    snap::EventCodec buildEventCodec();

  private:
    void saveSections(snap::SnapWriter &w) const;
    bool restoreFrom(const snap::SnapReader &r, std::string *err);

    Tick curTick() const { return shards_.queue(0).curTick(); }
    bool allDone() const;

    /** First-run initialization: window origin + generator priming. */
    void prime();

    /**
     * Execute the window ending at @p end (exclusive) on every shard,
     * then the single-threaded barrier phase: mailbox exchange,
     * generator refill (gtid order), CPU wakeup, interval sampling and
     * exec telemetry.
     */
    void runWindow(Tick end);

    /**
     * Pick the next window end after a completed barrier: one
     * lookahead ahead, or further when every shard is idle until a
     * later tick (window skip). False when no work remains anywhere.
     */
    bool advanceWindow();

    MachineParams params_;
    ShardSet shards_;
    proto::DirFormat fmt_;
    proto::HandlerImage image_;
    std::unique_ptr<PagePlacementMap> map_;
    std::unique_ptr<Network> net_;
    std::unique_ptr<check::Checker> checker_;
    std::unique_ptr<fault::FaultInjector> faults_;
    std::unique_ptr<trace::TraceManager> traceMgr_;
    std::unique_ptr<ShardExecutor> executor_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<InstSource *> sources_; ///< By gtid; refill order.
    Tick lookahead_ = 0;   ///< Window length (network hop latency).
    Tick windowEnd_ = 0;   ///< Next barrier tick; 0 = never run.
    Tick execTime_ = 0;
    bool execSerializedByChecker_ = false;
    // Exec telemetry (Category::Exec, opt-in): per-shard buffers and
    // the executed-event watermark for per-window deltas.
    std::vector<trace::TraceBuffer *> execTrace_;
    std::vector<std::uint64_t> lastExecuted_;
    std::vector<std::uint64_t> lastBusyNs_;
    snap::Snapshottable *workloadState_ = nullptr;
};

} // namespace smtp

#endif // SMTP_MACHINE_MACHINE_HPP
