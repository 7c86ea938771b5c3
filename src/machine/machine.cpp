#include "machine.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "sim/stats.hpp"
#include "trace/export.hpp"

namespace smtp
{

/**
 * How often (in absolute simulated time) the run loops poll for
 * workload completion. A multiple of the window length, and
 * time-aligned so the poll schedule — and thus the tick at which a
 * finished run stops executing residual protocol events — is identical
 * however the run was sliced by runUntil().
 */
constexpr Tick kDoneCheckPeriod = 50 * tickPerNs;

/**
 * Barrier-phase generator top-up (buffered micro-ops per thread).
 * Large enough that a thread rarely drains its buffer inside one
 * window; any dry spell it does hit is a pure function of simulated
 * time, so it is identical under every exec mode and host-thread
 * count.
 */
constexpr std::size_t kRefillTarget = 512;

std::string_view
modelName(MachineModel m)
{
    switch (m) {
      case MachineModel::Base: return "Base";
      case MachineModel::IntPerfect: return "IntPerfect";
      case MachineModel::Int512KB: return "Int512KB";
      case MachineModel::Int64KB: return "Int64KB";
      case MachineModel::SMTp: return "SMTp";
    }
    return "?";
}

bool
modelFromName(std::string_view name, MachineModel &out)
{
    static constexpr MachineModel all[] = {
        MachineModel::Base, MachineModel::IntPerfect,
        MachineModel::Int512KB, MachineModel::Int64KB, MachineModel::SMTp};
    auto eq = [](std::string_view a, std::string_view b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (std::tolower(static_cast<unsigned char>(a[i])) !=
                std::tolower(static_cast<unsigned char>(b[i])))
                return false;
        }
        return true;
    };
    for (MachineModel m : all) {
        if (eq(name, modelName(m))) {
            out = m;
            return true;
        }
    }
    return false;
}

bool
checkMachineParams(const MachineParams &p, std::string *why)
{
    auto bad = [why](const char *what, unsigned long long v,
                     const char *want) {
        if (why != nullptr)
            *why = std::string(what) + " " + std::to_string(v) +
                   " is not " + want;
        return false;
    };
    if (p.nodes > 32 || !isPow2(p.nodes))
        return bad("nodes", p.nodes, "a power of two in 1..32");
    if (p.appThreadsPerNode < 1 || p.appThreadsPerNode > 64)
        return bad("ways", p.appThreadsPerNode, "in 1..64");
    if (p.cpuFreqMHz == 0)
        return bad("cpu_mhz", p.cpuFreqMHz, "positive");
    if (!isPow2(p.dirCacheDivisor))
        return bad("dir_cache_divisor", p.dirCacheDivisor,
                   "a power of two");
    return true;
}

Machine::Machine(const MachineParams &params)
    : params_(params), shards_(params.nodes),
      fmt_(proto::protocolDirFormat(params.protocol,
                                    params.nodes <= 16 ? 16 : 32)),
      image_(proto::buildProtocolImage(
          params.protocol, fmt_,
          proto::HandlerOptions{params.ownershipLog, false, false,
                                params.injectMigratoryNoRelease}))
{
    if (std::string why; !checkMachineParams(params, &why))
        SMTP_PANIC("bad machine parameters: %s", why.c_str());
    map_ = std::make_unique<PagePlacementMap>(params.nodes,
                                              fmt_.entryBytes);
    NetworkParams np;
    np.numNodes = params.nodes;
    net_ = std::make_unique<Network>(shards_, np);
    lookahead_ = net_->lookahead();
    sources_.assign(params.nodes * params.appThreadsPerNode, nullptr);

    if (params.trace.enabled)
        traceMgr_ = std::make_unique<trace::TraceManager>(params.trace);

    if (params.faults.enabled() || params.faults.injectDropWithoutRetransmit) {
        faults_ = std::make_unique<fault::FaultInjector>(params.faults,
                                                         params.nodes);
        net_->setFaultInjector(faults_.get());
        // The fault buffers exist only when a plan is active, so traced
        // fault-free runs keep byte-identical export files. One buffer
        // per node: fault decisions execute on the owning shard.
        if (traceMgr_) {
            for (unsigned n = 0; n < params.nodes; ++n) {
                faults_->setTrace(n, traceMgr_->createBuffer(
                                         "fault", static_cast<NodeId>(n),
                                         trace::Category::Fault));
            }
        }
    }

    if (params.checkLevel != check::CheckLevel::Off) {
        check::CheckerParams chp;
        chp.level = params.checkLevel;
        chp.nodes = params.nodes;
        chp.abortOnViolation = params.checkAbortOnViolation;
        chp.watchdogMaxAge = params.checkWatchdogMaxAge;
        checker_ = std::make_unique<check::Checker>(shards_.queue(0),
                                                    fmt_, chp);
        auto *net = net_.get();
        checker_->addDumpHook(
            "network", [net](std::FILE *f) { net->debugState(f); });
        if (!params.wedgeSnapshotPath.empty()) {
            checker_->setWedgeSnapshotHook([this]() -> std::string {
                std::string serr;
                if (!save(params_.wedgeSnapshotPath, &serr)) {
                    std::fprintf(stderr, "wedge snapshot failed: %s\n",
                                 serr.c_str());
                    return {};
                }
                return params_.wedgeSnapshotPath;
            });
        }
    }

    if (checker_) {
        // Hooks run on the shard owning the reporting node; timestamps
        // must come from that shard's clock, and the watchdog must arm
        // from the single-threaded barrier phase (see checker.hpp).
        checker_->setTickSource(
            [this](NodeId n) { return shards_.queue(n).curTick(); });
        checker_->enableBarrierArming();
    }

    // Asserts-level checking is internally serialized per hook and
    // reads per-shard clocks, so it runs under the full parallel
    // engine. Only the FullMirror quiescence mirrors need a globally
    // serialized schedule; that fallback is loud (stderr + the
    // execSerializedByChecker flag in bench records), never silent.
    unsigned host_threads = 1;
    if (params.exec.parallel()) {
        if (checker_ && checker_->fullMirror()) {
            execSerializedByChecker_ = true;
            std::fprintf(stderr,
                "machine: --check=full forces one host thread "
                "(FullMirror quiescence mirrors are unsharded); "
                "requested %s ignored\n",
                params.exec.toString().c_str());
        } else {
            host_threads = params.exec.threads != 0
                               ? params.exec.threads
                               : std::thread::hardware_concurrency();
            if (host_threads == 0)
                host_threads = 1;
        }
    }
    executor_ = std::make_unique<ShardExecutor>(shards_, host_threads);

    bool smtp = params.model == MachineModel::SMTp;

    for (unsigned n = 0; n < params.nodes; ++n) {
        auto node = std::make_unique<Node>();
        EventQueue &eq = shards_.queue(n);

        CacheParams cp;
        cp.l2Bytes = params.l2Bytes;
        cp.enableBypass = smtp;
        cp.perfectProtocolCaches = smtp && params.perfectProtocolCaches;
        ClockDomain cpu_clock(params.cpuFreqMHz);
        node->cache = std::make_unique<CacheHierarchy>(
            eq, cpu_clock, static_cast<NodeId>(n), cp);

        McParams mp;
        switch (params.model) {
          case MachineModel::Base:
            mp.freqMHz = 400;
            mp.busLatency = 8 * tickPerNs; // off-chip crossing
            break;
          case MachineModel::IntPerfect:
            mp.freqMHz = params.cpuFreqMHz;
            mp.busLatency = 1 * tickPerNs;
            break;
          default:
            mp.freqMHz = params.cpuFreqMHz / 2;
            mp.busLatency = 1 * tickPerNs;
            break;
        }
        mp.probeLatency = 9 * cpu_clock.period(); // L2 round trip
        mp.retry = params.retryPolicy;
        mp.rngSeed = 1000 + n;
        if (proto::protocolUsesPhasePriority(params.protocol)) {
            mp.phasePriority = true;
            mp.injectDropOnFloor = params.injectDropOnFloor;
        }
        node->mc = std::make_unique<MemController>(
            eq, static_cast<NodeId>(n), mp, *map_, image_, *node->cache,
            *net_);

        CpuParams cpup;
        cpup.freqMHz = params.cpuFreqMHz;
        cpup.appThreads = params.appThreadsPerNode;
        cpup.protocolThread = smtp;
        // 32*(n+1)+96 registers; the non-SMTp baselines get the same
        // total with one fewer active context (paper Section 3).
        cpup.intRegs = 32 * (params.appThreadsPerNode + 1) + 96;
        cpup.fpRegs = cpup.intRegs;
        cpup.bitAssistOps = params.bitAssistOps;
        node->cpu = std::make_unique<SmtCpu>(eq, cpup, *node->cache,
                                             static_cast<NodeId>(n));

        if (smtp) {
            ProtocolThreadParams pt;
            pt.lookAheadScheduling = params.lookAheadScheduling;
            pt.bitAssistOps = params.bitAssistOps;
            node->pthread = std::make_unique<ProtocolThread>(
                eq, *node->cpu, *node->mc, pt);
        } else {
            PEngineParams pe;
            switch (params.model) {
              case MachineModel::Base:
                pe.freqMHz = 400;
                pe.dcacheBytes = 512 * 1024;
                break;
              case MachineModel::IntPerfect:
                pe.freqMHz = params.cpuFreqMHz;
                pe.perfectDcache = true;
                break;
              case MachineModel::Int512KB:
                pe.freqMHz = params.cpuFreqMHz / 2;
                pe.dcacheBytes = 512 * 1024;
                break;
              case MachineModel::Int64KB:
                pe.freqMHz = params.cpuFreqMHz / 2;
                pe.dcacheBytes = 64 * 1024;
                break;
              default:
                break;
            }
            pe.dcacheBytes = std::max<std::size_t>(
                pe.dcacheBytes / params.dirCacheDivisor, 2048);
            node->pengine =
                std::make_unique<PEngine>(eq, *node->mc, pe);
        }

        auto *mc = node->mc.get();
        if (faults_)
            mc->setFaultInjector(faults_.get());
        if (checker_) {
            node->cache->setChecker(checker_.get());
            mc->setChecker(checker_.get());
            checker_->addDumpHook("node" + std::to_string(n) + ".mc",
                                  [mc](std::FILE *f) { mc->debugState(f); });
            node->cpu->setIdleShadowCheck(checker_->fullMirror());
        }
        node->cache->connect(
            [mc](const proto::Message &m) { return mc->lmiEnqueue(m); },
            [mc](Addr a, bool w, EventQueue::Callback fn) {
                mc->bypassAccess(a, w, std::move(fn));
            });
        net_->attach(static_cast<NodeId>(n),
                     [mc](const proto::Message &m) {
                         return mc->niDeliver(m);
                     });

        if (traceMgr_) {
            // Buffer creation order fixes the exporters' track order:
            // fault buffers first, then node-major cpu / proto / mc /
            // net, then the per-shard exec buffers.
            auto nid = static_cast<NodeId>(n);
            node->cpu->setTrace(
                traceMgr_->createBuffer("cpu", nid, trace::Category::Cpu));
            trace::TraceBuffer *pb = traceMgr_->createBuffer(
                "proto", nid, trace::Category::Protocol);
            if (node->pthread)
                node->pthread->setTrace(pb);
            else
                node->pengine->setTrace(pb);
            trace::TraceBuffer *mb =
                traceMgr_->createBuffer("mc", nid, trace::Category::Mem);
            node->mc->setTrace(mb);
            node->cache->setTrace(mb);
            net_->setTrace(nid, traceMgr_->createBuffer(
                                    "net", nid, trace::Category::Network));
        }

        nodes_.push_back(std::move(node));
    }

    if (traceMgr_) {
        // Per-shard exec telemetry (window/barrier events). Opt-in via
        // Category::Exec: BarrierWait records nondeterministic host
        // time, so the category is excluded from the default mask and
        // from telemetry bit-identity comparisons.
        bool any_exec = false;
        execTrace_.assign(params.nodes, nullptr);
        lastExecuted_.assign(params.nodes, 0);
        lastBusyNs_.assign(params.nodes, 0);
        for (unsigned s = 0; s < params.nodes; ++s) {
            execTrace_[s] = traceMgr_->createBuffer(
                "exec", static_cast<NodeId>(s), trace::Category::Exec);
            any_exec = any_exec || execTrace_[s] != nullptr;
        }
        if (any_exec)
            executor_->setMeasure(true);
        else
            execTrace_.clear();

        if (checker_)
            checker_->setTraceManager(traceMgr_.get());

        auto &sampler = traceMgr_->sampler();
        auto *net = net_.get();
        sampler.addProbe("net.msgs", [net] {
            return static_cast<double>(net->msgsInjected());
        });
        sampler.addProbe("net.bytes", [net] {
            return static_cast<double>(net->bytesInjected());
        });
        for (unsigned n = 0; n < nodes_.size(); ++n) {
            Node *node = nodes_[n].get();
            std::string p = "n" + std::to_string(n) + ".";
            unsigned app_threads = params_.appThreadsPerNode;
            sampler.addProbe(p + "l2Misses", [node] {
                return static_cast<double>(node->cache->l2Misses.value());
            });
            sampler.addProbe(p + "mshrsInUse", [node] {
                return static_cast<double>(node->cache->mshrsInUse());
            });
            sampler.addProbe(p + "handlers", [node] {
                return static_cast<double>(
                    node->mc->handlersDispatched.value());
            });
            sampler.addProbe(p + "protoBusyTicks", [node] {
                return static_cast<double>(node->agentBusyTicks());
            });
            sampler.addProbe(p + "sdramBusyTicks", [node] {
                return static_cast<double>(
                    node->mc->sdram().busyTicks.value());
            });
            sampler.addProbe(p + "memStallCycles", [node, app_threads] {
                std::uint64_t sum = 0;
                for (unsigned t = 0; t < app_threads; ++t) {
                    sum += node->cpu
                               ->threadStats(static_cast<ThreadId>(t))
                               .memStallCycles.value();
                }
                return static_cast<double>(sum);
            });
        }
        if (params.trace.intervalCycles > 0) {
            sampler.start(ClockDomain(params.cpuFreqMHz)
                              .cyclesToTicks(params.trace.intervalCycles));
        }
    }
}

Machine::~Machine() = default;

void
Machine::setSource(unsigned node, unsigned thread, InstSource *source)
{
    SMTP_ASSERT(node < nodes_.size(), "node out of range");
    SMTP_ASSERT(thread < params_.appThreadsPerNode, "thread out of range");
    nodes_[node]->cpu->setSource(static_cast<ThreadId>(thread), source);
    sources_[node * params_.appThreadsPerNode + thread] = source;
    if (source != nullptr)
        source->setBuffered(true);
}

bool
Machine::allDone() const
{
    for (const auto &node : nodes_) {
        if (!node->cpu->appThreadsDone())
            return false;
    }
    return true;
}

void
Machine::prime()
{
    if (windowEnd_ != 0)
        return;
    windowEnd_ = lookahead_;
    // First-window generation: the buffers must hold work before the
    // CPUs' first fetch. The refill schedule (here, then at every
    // barrier, in gtid order) is a pure function of simulated time, so
    // sliced and resumed runs generate in the identical global order.
    // A restored machine skips this (windowEnd_ came from the
    // snapshot): its buffers were rebuilt by the resume-log replay.
    for (InstSource *src : sources_) {
        if (src != nullptr) {
            src->setNow(0);
            src->refill(kRefillTarget);
        }
    }
}

void
Machine::runWindow(Tick end)
{
    bool measure = !execTrace_.empty();
    std::chrono::steady_clock::time_point t0;
    if (measure)
        t0 = std::chrono::steady_clock::now();

    executor_->runWindow(end - 1);

    std::uint64_t wall_ns = 0;
    if (measure) {
        wall_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }

    // ---- Single-threaded barrier phase ----
    shards_.drainMailboxes();

    // Watchdog arming deferred from shard threads (checker.hpp): the
    // scan event lands on queue 0 while nothing else runs.
    if (checker_)
        checker_->onBarrier();

    // Replenish the generators (global workload plane: functional
    // memory, sync primitives) and wake any CPU that idled on a dry
    // buffer. gtid order keeps the functional interleaving exec-mode
    // independent. The barrier clock is published first so generators
    // stamp work items (request birth/retire) with this window's tick —
    // a pure function of simulated time, hence exec-mode independent
    // and reproduced exactly by the resume-log replay on restore.
    for (InstSource *src : sources_) {
        if (src != nullptr) {
            src->setNow(end - 1);
            src->refill(kRefillTarget);
        }
    }
    for (auto &node : nodes_)
        node->cpu->poke();

    // Interval sampling happens only at true window barriers (never at
    // partial runUntil stops): the sampled state must be a pure
    // function of simulated time or a sliced-and-resumed traced run
    // would diverge from its uninterrupted twin.
    if (traceMgr_ != nullptr && traceMgr_->sampler().active())
        traceMgr_->sampler().sampleUpTo(end - 1);

    if (measure) {
        for (unsigned s = 0; s < shards_.count(); ++s) {
            trace::TraceBuffer *tb = execTrace_[s];
            if (tb == nullptr)
                continue;
            std::uint64_t ex = shards_.queue(s).executedCount();
            tb->record(end - 1, trace::EventId::WindowAdvance,
                       trace::packWindow(s, ex - lastExecuted_[s]));
            lastExecuted_[s] = ex;
            std::uint64_t busy = executor_->busyNs(s);
            std::uint64_t busy_delta = busy - lastBusyNs_[s];
            lastBusyNs_[s] = busy;
            std::uint64_t wait_ns =
                wall_ns > busy_delta ? wall_ns - busy_delta : 0;
            tb->record(end - 1, trace::EventId::BarrierWait,
                       trace::packWindow(s, wait_ns));
        }
    }
}

bool
Machine::advanceWindow()
{
    Tick m = shards_.minPendingTick();
    if (m == maxTick)
        return false;
    // Next barrier: one window ahead, or aligned past the earliest
    // pending event when every shard is idle until a later tick
    // (window skip). Events re-armed at the barrier tick itself (m ==
    // windowEnd_ - 1, from a barrier-phase poke) cap the advance to
    // exactly one window, preserving the lookahead safety argument.
    windowEnd_ = (std::max(m, windowEnd_) / lookahead_) * lookahead_ +
                 lookahead_;
    return true;
}

Tick
Machine::run(Tick limit)
{
    prime();
    for (auto &node : nodes_)
        node->cpu->start();

    Tick deadline = curTick() + limit;

    // A restored machine may already be past its workload's end (the
    // saved run had finished); exit where we stand rather than one
    // window later.
    if (allDone()) {
        execTime_ = curTick();
        return execTime_;
    }

    // The completion poll runs at barriers whose end is a multiple of
    // kDoneCheckPeriod — aligned to absolute simulated time, so the
    // loop-exit tick (and with it the final cycle counters) is
    // identical however the run was sliced by runUntil().
    while (curTick() < deadline) {
        Tick end = windowEnd_;
        runWindow(end);
        if (end % kDoneCheckPeriod == 0 && allDone())
            break;
        if (!advanceWindow())
            break;
    }
    if (!allDone() && checker_)
        checker_->reportWedge("run deadline reached with threads "
                              "unfinished");
    SMTP_ASSERT(allDone(),
                "machine did not finish within the time limit "
                "(workload deadlock?)");
    execTime_ = curTick();
    return execTime_;
}

bool
Machine::runUntil(Tick when)
{
    prime();
    for (auto &node : nodes_)
        node->cpu->start();

    // Same entry short-circuit as run(): a restored already-finished
    // machine must report done at its restored tick, not drift to the
    // next barrier.
    if (allDone()) {
        execTime_ = curTick();
        return true;
    }

    bool stopped = false;
    while (windowEnd_ - 1 <= when) {
        Tick end = windowEnd_;
        runWindow(end);
        if (end % kDoneCheckPeriod == 0 && allDone()) {
            stopped = true;
            break;
        }
        if (!advanceWindow()) {
            stopped = true;
            break;
        }
    }
    if (!stopped && curTick() < when) {
        // Partial tail window: advance every shard to `when` with no
        // barrier afterwards. No mailbox drain, no refill, no
        // sampling — those are barrier-phase actions, and running them
        // at an arbitrary slice point would make a sliced run diverge
        // from its uninterrupted twin. In-flight cross-shard events
        // stay mailboxed (save() carries them); the next
        // run()/runUntil() completes this window and drains them at
        // the real barrier.
        executor_->runWindow(when);
        // Apply the completions the tail passed, so counters read now
        // are current.
        for (auto &node : nodes_)
            node->cpu->catchUp();
    }
    execTime_ = curTick();
    return allDone();
}

std::uint64_t
Machine::committedAppInsts() const
{
    std::uint64_t sum = 0;
    for (const auto &node : nodes_) {
        for (unsigned t = 0; t < params_.appThreadsPerNode; ++t) {
            sum += node->cpu->threadStats(static_cast<ThreadId>(t))
                       .committed.value();
        }
    }
    return sum;
}

bool
Machine::quiescent() const
{
    if (!net_->quiescent())
        return false;
    for (const auto &node : nodes_) {
        if (!node->cache->quiescent() || !node->mc->quiescent())
            return false;
        // A store still draining from a store buffer will create new
        // coherence work; the machine is not quiet until CPUs are.
        if (!node->cpu->idle())
            return false;
    }
    return true;
}

void
Machine::quiesce(Tick limit)
{
    if (windowEnd_ == 0)
        windowEnd_ = lookahead_;
    Tick deadline = curTick() + limit;
    // Whole windows (executor + mailbox exchange, no refill/sampling —
    // the workload is finished and quiescing is not a measured phase)
    // until quiet or out of work/time.
    while (curTick() < deadline && !quiescent()) {
        executor_->runWindow(windowEnd_ - 1);
        shards_.drainMailboxes();
        if (checker_)
            checker_->onBarrier();
        if (!advanceWindow())
            break;
    }
    if (!quiescent()) {
        if (checker_)
            checker_->reportWedge("machine failed to quiesce");
        std::fprintf(stderr, "quiesce failure: net=%d evq=%zu\n",
                     static_cast<int>(net_->quiescent()),
                     shards_.pendingEvents());
        for (unsigned n = 0; n < nodes_.size(); ++n) {
            std::fprintf(stderr, "  n%u cacheQ=%d mshr=%u mcQ=%d\n", n,
                         static_cast<int>(nodes_[n]->cache->quiescent()),
                         nodes_[n]->cache->mshrsInUse(),
                         static_cast<int>(nodes_[n]->mc->quiescent()));
            nodes_[n]->mc->debugState(stderr);
            nodes_[n]->cpu->debugDump(stderr);
        }
        SMTP_PANIC("machine failed to quiesce after the run");
    }
    if (checker_ && checker_->fullMirror())
        checker_->verifyQuiescent();
}

double
Machine::memStallFraction() const
{
    double sum = 0.0;
    unsigned count = 0;
    for (const auto &node : nodes_) {
        Cycles cyc = node->cpu->cycles.value();
        if (cyc == 0)
            continue;
        for (unsigned t = 0; t < params_.appThreadsPerNode; ++t) {
            const auto &st =
                node->cpu->threadStats(static_cast<ThreadId>(t));
            sum += static_cast<double>(st.memStallCycles.value()) /
                   static_cast<double>(cyc);
            ++count;
        }
    }
    return count ? sum / count : 0.0;
}

double
Machine::peakProtocolOccupancy() const
{
    double peak = 0.0;
    for (const auto &node : nodes_) {
        double occ = static_cast<double>(node->agentBusyTicks()) /
                     static_cast<double>(std::max<Tick>(execTime_, 1));
        peak = std::max(peak, occ);
    }
    return peak;
}

bool
Machine::writeTraceFiles(const std::string &stem, std::string *err) const
{
    if (!traceMgr_) {
        if (err != nullptr)
            *err = "tracing not enabled on this machine";
        return false;
    }
    trace::TraceData data;
    traceMgr_->snapshot(data, execTime_, params_.nodes);
    data.protocol = std::string(proto::protocolName(params_.protocol));
    return trace::writeTraceFiles(data, stem, err);
}

Machine::MigratoryCounters
Machine::migratoryCounters() const
{
    MigratoryCounters out;
    if (!proto::protocolIsMigratory(params_.protocol))
        return out;
    for (unsigned n = 0; n < nodes_.size(); ++n) {
        Addr base = proto::protoScratchBase +
                    static_cast<Addr>(n) * proto::protoNodeStride;
        const auto &ram = nodes_[n]->mc->ram();
        out.detected += ram.read(base + proto::migDetectOffset, 8);
        out.saved += ram.read(base + proto::migSavedOffset, 8);
        out.reverts += ram.read(base + proto::migRevertOffset, 8);
    }
    return out;
}

Machine::ProtoCharacteristics
Machine::protoCharacteristics() const
{
    ProtoCharacteristics out;
    SMTP_ASSERT(params_.model == MachineModel::SMTp,
                "protocol-thread characteristics need an SMTp machine");
    std::uint64_t cond = 0, mispred = 0, squash_cycles = 0, cycles = 0;
    std::uint64_t proto_retired = 0, all_retired = 0;
    for (const auto &node : nodes_) {
        ThreadId ptid = node->cpu->protocolTid();
        const auto &ps = node->cpu->threadStats(ptid);
        cond += ps.condBranches.value();
        mispred += ps.mispredicts.value();
        squash_cycles += ps.squashCycles.value();
        cycles += node->cpu->cycles.value();
        proto_retired += ps.committed.value();
        for (unsigned t = 0; t < params_.appThreadsPerNode; ++t) {
            all_retired += node->cpu
                               ->threadStats(static_cast<ThreadId>(t))
                               .committed.value();
        }
        all_retired += ps.committed.value();
    }
    if (cond > 0)
        out.branchMispredictRate =
            static_cast<double>(mispred) / static_cast<double>(cond);
    if (cycles > 0)
        out.squashCyclePct = static_cast<double>(squash_cycles) /
                             static_cast<double>(cycles);
    if (all_retired > 0)
        out.retiredInstPct = static_cast<double>(proto_retired) /
                             static_cast<double>(all_retired);
    return out;
}

} // namespace smtp

namespace smtp
{

void
Machine::dumpStats(std::ostream &os) const
{
    // Build a transient stat hierarchy over the live counters. The
    // components outlive the dump, so registering pointers is safe;
    // per-shard sliced stats are folded into transient locals that
    // stay alive through root.dump().
    StatGroup root("machine." + std::string(modelName(params_.model)));
    std::vector<std::unique_ptr<StatGroup>> groups;
    Counter exec_us;
    exec_us += execTime_ / tickPerUs;
    root.add("execTimeUs", &exec_us);
    // Migratory prediction counters live in home-side protocol scratch
    // RAM (the handler program bumps them), so they are summed here
    // into transient stats rather than registered live.
    Counter mig_detected, mig_saved, mig_reverts;
    if (proto::protocolIsMigratory(params_.protocol)) {
        MigratoryCounters mc = migratoryCounters();
        mig_detected += mc.detected;
        mig_saved += mc.saved;
        mig_reverts += mc.reverts;
        root.add("migDetected", &mig_detected);
        root.add("migUpgradesSaved", &mig_saved);
        root.add("migReverts", &mig_reverts);
    }
    Counter net_msgs, net_bytes;
    net_msgs += net_->msgsInjected();
    net_bytes += net_->bytesInjected();
    Distribution net_hops = net_->hopDist();
    root.add("netMsgs", &net_msgs);
    root.add("netBytes", &net_bytes);
    root.add("netHops", &net_hops);

    std::unique_ptr<StatGroup> fg;
    Counter f_drops, f_dups, f_dups_filtered, f_delays, f_reorders,
        f_lost, f_ecc_c, f_ecc_d, f_ecc_s, f_ecc_r, f_naks;
    if (faults_) {
        f_drops += faults_->netDrops();
        f_dups += faults_->netDups();
        f_dups_filtered += faults_->netDupsFiltered();
        f_delays += faults_->netDelays();
        f_reorders += faults_->netReorders();
        f_lost += faults_->netLost();
        f_ecc_c += faults_->eccCorrected();
        f_ecc_d += faults_->eccDetected();
        f_ecc_s += faults_->eccScrubs();
        f_ecc_r += faults_->eccRefetches();
        f_naks += faults_->naksForced();
        fg = std::make_unique<StatGroup>("faults");
        fg->add("netDrops", &f_drops);
        fg->add("netDups", &f_dups);
        fg->add("netDupsFiltered", &f_dups_filtered);
        fg->add("netDelays", &f_delays);
        fg->add("netReorders", &f_reorders);
        fg->add("netLost", &f_lost);
        fg->add("eccCorrected", &f_ecc_c);
        fg->add("eccDetected", &f_ecc_d);
        fg->add("eccScrubs", &f_ecc_s);
        fg->add("eccRefetches", &f_ecc_r);
        fg->add("naksForced", &f_naks);
        root.addChild(fg.get());
    }

    for (unsigned n = 0; n < nodes_.size(); ++n) {
        const Node &node = *nodes_[n];
        auto g = std::make_unique<StatGroup>("node" + std::to_string(n));
        g->add("cycles", &node.cpu->cycles);
        g->add("fetched", &node.cpu->fetchedInsts);
        g->add("l1dHits", &node.cache->l1dHits);
        g->add("l1dMisses", &node.cache->l1dMisses);
        g->add("l2Hits", &node.cache->l2Hits);
        g->add("l2Misses", &node.cache->l2Misses);
        g->add("writebacksDirty", &node.cache->writebacksDirty);
        g->add("prefetchesIssued", &node.cache->prefetchesIssued);
        g->add("prefetchesUseful", &node.cache->prefetchesUseful);
        g->add("handlers", &node.mc->handlersDispatched);
        g->add("naks", &node.mc->naksSent);
        g->add("starvationFlags", &node.mc->starvationFlags);
        g->add("invalsSent", &node.mc->invalsSent);
        g->add("probesDeferred", &node.mc->probesDeferred);
        g->add("handlerLatency", &node.mc->handlerLatency);
        g->add("reqQueueDelay", &node.mc->reqQueueDelay);
        if (proto::protocolUsesPhasePriority(params_.protocol))
            g->add("phaseFloorTrips", &node.mc->phaseFloorTrips);
        g->add("sdramReads", &node.mc->sdram().reads);
        g->add("sdramWrites", &node.mc->sdram().writes);
        if (node.pengine) {
            g->add("ppInstructions", &node.pengine->instructions);
            g->add("ppPairedIssues", &node.pengine->pairedIssues);
            g->add("ppDcacheMisses", &node.pengine->dcacheMisses);
        }
        if (node.pthread) {
            g->add("ptHandlers", &node.pthread->handlersStarted);
            g->add("ptLookAheadStarts", &node.pthread->lookAheadStarts);
            g->add("ptOpsSupplied", &node.pthread->opsSupplied);
            g->add("ptPeakIntRegs", &node.cpu->protoOccupancy.intRegs);
            g->add("ptPeakIQ", &node.cpu->protoOccupancy.intQueue);
        }
        root.addChild(g.get());
        groups.push_back(std::move(g));
    }
    root.dump(os);
}

} // namespace smtp
