/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot structures:
 * event queue throughput, cache array lookups, branch predictor,
 * protocol handler functional execution, and network message transport.
 * These guard the simulator's own performance (simulation speed), not
 * the paper's results.
 */

#include <benchmark/benchmark.h>

#include "cache/cache_array.hpp"
#include "cpu/bpred.hpp"
#include "mem/protocol_ram.hpp"
#include "network/network.hpp"
#include "protocol/executor.hpp"
#include "protocol/handlers.hpp"
#include "sim/eventq.hpp"

namespace
{

using namespace smtp;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.scheduleIn(static_cast<Tick>(1 + i % 7),
                          [&sink] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * The simulator's dominant pattern: short-delta events (pipeline
 * ticks, link hops) with an occasional far-future one (DRAM
 * refresh-scale timers).
 */
void
BM_EventQueueNearFarMix(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        for (int i = 0; i < 63; ++i)
            eq.scheduleIn(static_cast<Tick>(250 + (n + i) % 2000),
                          [&sink] { ++sink; });
        // One far event per batch.
        eq.scheduleIn((Tick{1} << 20) + n % 4096, [&sink] { ++sink; });
        ++n;
        eq.run(eq.curTick() + 4000);
    }
    eq.run();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueNearFarMix);

/** Same-tick fan-out: many events at one tick, mixed priorities. */
void
BM_EventQueueSameTickBurst(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    constexpr EventQueue::Priority prios[] = {
        EventQueue::prioEarly, EventQueue::prioDefault,
        EventQueue::prioLate};
    for (auto _ : state) {
        Tick when = eq.curTick() + 500;
        for (int i = 0; i < 64; ++i)
            eq.schedule(when, [&sink] { ++sink; }, prios[i % 3]);
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueSameTickBurst);

void
BM_CacheArrayLookup(benchmark::State &state)
{
    CacheArray l2(2 * 1024 * 1024, 128, 8);
    for (Addr a = 0; a < 512 * 1024; a += 128) {
        CacheLine *v = l2.victimFor(a);
        v->addr = a;
        v->state = LineState::Sh;
        l2.touch(v);
    }
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(l2.find(a));
        a = (a + 128) % (512 * 1024);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayLookup);

void
BM_BranchPredict(benchmark::State &state)
{
    BpredParams bp;
    bp.threads = 2;
    TournamentBpred pred(bp);
    std::uint64_t pc = 0x1000;
    bool taken = false;
    for (auto _ : state) {
        auto p = pred.predict(0, pc, true, false, false, pc + 4);
        benchmark::DoNotOptimize(p);
        pred.update(0, pc, taken, pc + 64, true);
        taken = !taken;
        pc = 0x1000 + (pc + 4) % 4096;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredict);

class BenchEnv : public proto::ExecEnv
{
  public:
    std::uint64_t
    protoLoad(Addr a, unsigned bytes) override
    {
        return ram.read(a, bytes);
    }

    void
    protoStore(Addr a, std::uint64_t v, unsigned bytes) override
    {
        ram.write(a, v, bytes);
    }

    Addr
    dirAddrOf(Addr line) override
    {
        return proto::protoDirBase + (line >> 7) * 4;
    }

    NodeId homeOf(Addr) override { return 0; }
    std::uint64_t probeResult() override { return 1; }

    ProtocolRam ram;
};

void
BM_HandlerFunctionalExecution(benchmark::State &state)
{
    auto fmt = proto::DirFormat::forNodes(16);
    auto image = proto::buildHandlerImage(fmt);
    BenchEnv env;
    proto::Executor ex(image, env);
    ex.boot(0);
    proto::Message m;
    m.type = proto::MsgType::ReqGet;
    m.addr = 0x100000;
    m.src = 1;
    m.requester = 1;
    m.mshr = 3;
    for (auto _ : state) {
        auto trace = ex.run(m);
        benchmark::DoNotOptimize(trace.insts.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HandlerFunctionalExecution);

void
BM_NetworkTransport(benchmark::State &state)
{
    EventQueue eq;
    NetworkParams np;
    np.numNodes = 16;
    Network net(eq, np);
    std::uint64_t delivered = 0;
    for (NodeId n = 0; n < 16; ++n) {
        net.attach(n, [&delivered](const proto::Message &) {
            ++delivered;
            return true;
        });
    }
    proto::Message m;
    m.type = proto::MsgType::ReqGet;
    for (auto _ : state) {
        m.src = static_cast<NodeId>(delivered % 16);
        m.dest = static_cast<NodeId>((delivered + 7) % 16);
        m.addr = 0x1000 + delivered * 128;
        net.inject(m);
        eq.run();
    }
    benchmark::DoNotOptimize(delivered);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkTransport);

void
BM_ProtocolRamAccess(benchmark::State &state)
{
    ProtocolRam ram;
    Addr a = 0;
    for (auto _ : state) {
        ram.write(a, a + 1, 8);
        benchmark::DoNotOptimize(ram.read(a, 8));
        a = (a + 8) % 65536;
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ProtocolRamAccess);

} // namespace

BENCHMARK_MAIN();
