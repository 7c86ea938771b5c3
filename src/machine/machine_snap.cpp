/**
 * @file
 * Machine-level checkpoint/restore: assembles the per-component
 * Ser/Des implementations into one versioned snapshot file
 * (docs/checkpointing.md) and rebuilds a freshly constructed machine
 * from it, bit-identically.
 *
 * Restore ordering is load-bearing:
 *
 *  1. workload  — replays the coroutine resume log, rebuilding the
 *                 generators and the functional memory;
 *  2. CPUs      — rebuild the DynInst pools and the uid resolution
 *                 maps every decoded event handle needs (their pending
 *                 completions are checked against the event queues
 *                 once those are loaded);
 *  3. MCs       — rebuild the transaction-context tables that protocol
 *                 engine/thread state and deferred sends resolve ids
 *                 against;
 *  4. caches    — MSHR waiter lists decode callbacks referencing CPUs
 *                 and MCs;
 *  5. protocol engines / threads, network, faults, trace;
 *  6. event queue last — its entries decode against everything above.
 */

#include "machine.hpp"

#include <string>
#include <type_traits>

namespace smtp
{

namespace
{

std::string
nodeSection(unsigned n, const char *what)
{
    return "node" + std::to_string(n) + "." + what;
}

} // namespace

std::uint64_t
machineConfigHash(const MachineParams &p)
{
    snap::Hasher h;
    // v2: node-sharded windowed kernel — barrier-phase generator
    // refill changed the functional interleaving, so v1 snapshots
    // cannot resume bit-identically and are refused wholesale.
    h.mix(std::string_view("smtp-machine-config-v2"));
    h.mix(modelName(p.model));
    h.mix(p.nodes);
    h.mix(p.appThreadsPerNode);
    h.mix(p.cpuFreqMHz);
    h.mix(static_cast<std::uint64_t>(p.lookAheadScheduling));
    h.mix(static_cast<std::uint64_t>(p.bitAssistOps));
    h.mix(static_cast<std::uint64_t>(p.perfectProtocolCaches));
    h.mix(static_cast<std::uint64_t>(p.ownershipLog));
    h.mix(p.l2Bytes);
    h.mix(p.dirCacheDivisor);
    // Protocol variant: mixed only when non-default so every bitvector
    // hash (and with it the daemon's dedup/cache keys and existing
    // snapshots) is unchanged by the variant subsystem's existence.
    if (p.protocol != proto::ProtocolKind::Bitvector)
        h.mix(protocolName(p.protocol));
    if (p.injectMigratoryNoRelease)
        h.mix(std::string_view("inject-migratory-no-release"));
    if (p.injectDropOnFloor)
        h.mix(std::string_view("inject-drop-on-floor"));

    const fault::FaultPlan &fp = p.faults;
    h.mix(fp.seed);
    fault::FaultPlan::keys([&](const char *, auto m, Tick) {
        if constexpr (std::is_same_v<decltype(m), double fault::FaultPlan::*>)
            h.mixF(fp.*m);
        else
            h.mix(static_cast<std::uint64_t>(fp.*m));
    });

    const fault::RetryPolicyConfig &rp = p.retryPolicy;
    h.mix(static_cast<std::uint64_t>(rp.kind));
    h.mix(rp.base);
    h.mix(rp.cap);
    h.mix(rp.starvationRetries);
    return h.value();
}

std::uint64_t
Machine::configHash() const
{
    return machineConfigHash(params_);
}

snap::EventCodec
Machine::buildEventCodec()
{
    using MC = MemController;
    snap::EventCodec codec;
    codec.numNodes = params_.nodes;
    codec.add<Network::LandEv, Network::HopEv, Network::RetryEv,
              CacheHierarchy::DrainEv, CacheHierarchy::BypassFillEv,
              MC::PokeEv, MC::DispatchPollEv, MC::CtxMemDoneEv,
              MC::DeliverLocalEv, MC::NetDeliverEv, MC::DrainNiOutEv,
              MC::PendingSendEv, MC::BypassBusEv, MC::MemWriteEv,
              SmtCpu::TickEv, SmtCpu::FetchDoneEv, SmtCpu::TlbRetryEv,
              SmtCpu::LoadFillEv, SmtCpu::SbDrainEv,
              SmtCpu::ProtoSbDrainEv, PEngine::IcacheFillEv,
              PEngine::DcacheFillEv, PEngine::SendReleaseEv,
              PEngine::HandlerDoneEv>();
    auto per_node = [this](auto member) {
        return [this, member](NodeId n) {
            return n < nodes_.size() ? ((*nodes_[n]).*member).get()
                                     : nullptr;
        };
    };
    codec.owner<Network>([this](NodeId) { return net_.get(); });
    codec.owner<CacheHierarchy>(per_node(&Node::cache));
    codec.owner<MemController>(per_node(&Node::mc));
    codec.owner<SmtCpu>(per_node(&Node::cpu));
    codec.owner<PEngine>(per_node(&Node::pengine));
    return codec;
}

void
Machine::saveSections(snap::SnapWriter &w) const
{
    {
        snap::Ser &out = w.beginSection("meta");
        out.str(modelName(params_.model));
        out.u32(params_.nodes);
        out.u32(params_.appThreadsPerNode);
        out.u64(execTime_);
        out.u64(windowEnd_);
        w.endSection();
    }
    if (workloadState_ != nullptr)
        w.section("workload", *workloadState_);
    auto save = [&w](const std::string &name, auto &component) {
        component.io(w.beginSection(name));
        w.endSection();
    };
    for (unsigned n = 0; n < nodes_.size(); ++n) {
        const Node &node = *nodes_[n];
        save(nodeSection(n, "cpu"), *node.cpu);
        save(nodeSection(n, "mc"), *node.mc);
        save(nodeSection(n, "cache"), *node.cache);
        if (node.pengine)
            save(nodeSection(n, "pe"), *node.pengine);
        if (node.pthread)
            save(nodeSection(n, "pt"), *node.pthread);
    }
    save("net", *net_);
    if (faults_)
        save("faults", *faults_);
    if (traceMgr_)
        save("trace", *traceMgr_);
    // Shard bookkeeping (sequence counters + any mailboxed events from
    // a mid-window runUntil stop), then every shard's queue. One
    // section per queue: entries decode independently and positional
    // section names catch shard-count mismatches early. Saving only
    // reads through io(), so the shards may be cast mutable here.
    auto &shards = const_cast<ShardSet &>(shards_);
    save("shards", shards);
    for (unsigned s = 0; s < shards.count(); ++s)
        save("shard" + std::to_string(s) + ".eventq", shards.queue(s));
}

bool
Machine::save(const std::string &path, std::string *err) const
{
    snap::SnapWriter w(configHash());
    saveSections(w);
    return w.write(path, err);
}

std::vector<std::uint8_t>
Machine::saveImage() const
{
    snap::SnapWriter w(configHash());
    saveSections(w);
    return w.finish();
}

bool
Machine::restore(const std::string &path, std::string *err)
{
    snap::SnapReader r;
    if (!r.load(path)) {
        if (err != nullptr)
            *err = r.error();
        return false;
    }
    return restoreFrom(r, err);
}

bool
Machine::restoreImage(std::vector<std::uint8_t> image, std::string *err)
{
    snap::SnapReader r;
    if (!r.parse(std::move(image))) {
        if (err != nullptr)
            *err = r.error();
        return false;
    }
    return restoreFrom(r, err);
}

bool
Machine::restoreFrom(const snap::SnapReader &r, std::string *err)
{
    auto fail = [err](std::string why) {
        if (err != nullptr)
            *err = std::move(why);
        return false;
    };
    auto sectionFail = [&](std::string_view name, const snap::Des &in) {
        return fail("section '" + std::string(name) + "': " + in.error());
    };

    if (r.configHash() != configHash()) {
        return fail("config hash mismatch: the snapshot was taken on a "
                    "machine with different state-affecting parameters "
                    "(model/nodes/threads/frequencies/fault plan/retry "
                    "policy)");
    }
    if (checker_) {
        return fail("restore requires checkLevel=Off: the checker's "
                    "mirror state is rebuilt from observed transitions "
                    "and cannot be reconstructed mid-run");
    }
    for (unsigned s = 0; s < shards_.count(); ++s) {
        const EventQueue &q = shards_.queue(s);
        if (q.executedCount() != 0 || q.curTick() != 0) {
            return fail("restore requires a freshly constructed machine "
                        "(this one has already run)");
        }
    }

    {
        snap::Des in = r.section("meta");
        std::string model = in.str();
        std::uint32_t nodes = in.u32();
        std::uint32_t tpn = in.u32();
        Tick exec = in.u64();
        Tick window_end = in.u64();
        if (!in.ok())
            return sectionFail("meta", in);
        if (model != modelName(params_.model) ||
            nodes != params_.nodes ||
            tpn != params_.appThreadsPerNode) {
            return fail("snapshot metadata does not match this machine "
                        "(model " + model + ", " + std::to_string(nodes) +
                        " node(s))");
        }
        execTime_ = exec;
        windowEnd_ = window_end;
    }

    if (r.hasSection("workload")) {
        if (workloadState_ == nullptr) {
            return fail("snapshot carries workload state but no "
                        "delegate is attached: build the identical app "
                        "and call setWorkloadState() before restore()");
        }
        snap::Des in = r.section("workload");
        workloadState_->restoreState(in);
        if (!in.ok())
            return sectionFail("workload", in);
    } else if (workloadState_ != nullptr) {
        return fail("snapshot has no workload section but a workload "
                    "delegate is attached");
    }

    // Every section decodes its pending callbacks through this codec,
    // closed over the freshly constructed component graph.
    snap::EventCodec codec = buildEventCodec();
    auto load = [&](const std::string &name, auto &component) {
        snap::Des in = r.section(name);
        in.setCodec(&codec);
        component.io(in);
        return in.ok() || sectionFail(name, in);
    };

    for (unsigned n = 0; n < nodes_.size(); ++n) {
        if (!load(nodeSection(n, "cpu"), *nodes_[n]->cpu))
            return false;
    }
    for (unsigned n = 0; n < nodes_.size(); ++n) {
        if (!load(nodeSection(n, "mc"), *nodes_[n]->mc))
            return false;
    }
    for (unsigned n = 0; n < nodes_.size(); ++n) {
        if (!load(nodeSection(n, "cache"), *nodes_[n]->cache))
            return false;
    }
    for (unsigned n = 0; n < nodes_.size(); ++n) {
        Node &node = *nodes_[n];
        if (node.pengine && !load(nodeSection(n, "pe"), *node.pengine))
            return false;
        if (node.pthread && !load(nodeSection(n, "pt"), *node.pthread))
            return false;
    }
    if (!load("net", *net_))
        return false;
    if (faults_ && !load("faults", *faults_))
        return false;

    // Trace config is observation-only (outside the config hash), but a
    // resumed *traced* run can only match its uninterrupted twin if the
    // warmup's telemetry is carried over too.
    if (traceMgr_) {
        if (!r.hasSection("trace")) {
            return fail("tracing is enabled but the snapshot has no "
                        "trace section: take the snapshot with tracing "
                        "on, or restore with tracing off");
        }
        if (!load("trace", *traceMgr_))
            return false;
    }

    if (!load("shards", shards_))
        return false;
    for (unsigned s = 0; s < shards_.count(); ++s) {
        if (!load("shard" + std::to_string(s) + ".eventq",
                  shards_.queue(s)))
            return false;
    }
    // Pending completions carry event-queue keys: check them against
    // the restored queues.
    for (unsigned n = 0; n < nodes_.size(); ++n) {
        if (const char *why = nodes_[n]->cpu->calendarError())
            return fail("section '" + nodeSection(n, "cpu") + "': " + why);
    }
    return true;
}

} // namespace smtp
