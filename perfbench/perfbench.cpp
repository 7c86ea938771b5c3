/**
 * @file
 * smtp_perfbench: runs one named workload through the simulator's
 * public API and times every call from outside (the Machine
 * constructor, makeApp + App::build, setGlobalSource, Machine::run,
 * the stat getters + dumpStats + jsonRecord, SweepPool::parallelFor).
 * Nothing under src/ is edited or instrumented.
 *
 *   smtp_perfbench --workload NAME --seed N --seconds S
 *                  [--mode measure|traced|serial] [--out DIR]
 *
 * measure  repeats the workload in passes for about S seconds with
 *          telemetry off and prints one JSON line per pass. After each
 *          cell, the thread that ran it also times the reference
 *          kernel (see referenceChunk), outside every timed span.
 * traced   runs one pass with telemetry on (plus the Exec category on
 *          parallel cells), writes each cell's capture and the
 *          benchmark's own spans under DIR, reads the captures back
 *          with trace::readTrace and prints the per-layer numbers.
 * serial   runs one pass with every cell forced to exec=serial: the
 *          reference the parallel cells must match bit for bit.
 *
 * Every line on stdout is one JSON object with a "kind" field;
 * perfbench/run.py turns them into the benchmark's metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "machine/machine.hpp"
#include "serve/runner.hpp"
#include "sim/sweep.hpp"
#include "trace/export.hpp"
#include "workload/app.hpp"

using namespace smtp;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

// ---- Workloads ----------------------------------------------------------

struct Cell
{
    serve::RunConfig cfg;
    /** WorkloadEnv::seed = benchmark seed * Workload::seedSlots + slot. */
    unsigned seedSlot = 0;
};

struct Workload
{
    unsigned workers = 1;   ///< SweepPool workers (1 = cells run inline).
    unsigned seedSlots = 1; ///< Distinct workload seeds per benchmark seed.
    std::vector<Cell> cells;
};

serve::RunConfig
config(const std::string &app, MachineModel model, unsigned nodes,
       unsigned ways, double scale, ExecParams exec = {})
{
    serve::RunConfig c;
    c.app = app;
    c.model = model;
    c.nodes = nodes;
    c.ways = ways;
    c.scale = scale;
    c.exec = exec;
    return c;
}

/** kv-store cells per kv16x2-par2 pass, each with its own seed. */
constexpr unsigned kvCells = 4;

// Why each workload exists is in perfbench/README.md. Paper apps run at
// the bench binaries' --quick scale (0.5).
bool
makeWorkload(const std::string &name, Workload &w)
{
    ExecParams par2;
    par2.mode = ExecParams::Mode::Parallel;
    par2.threads = 2;
    if (name == "fft16-serial" || name == "fft16-par2") {
        ExecParams exec = name == "fft16-par2" ? par2 : ExecParams{};
        for (MachineModel m : {MachineModel::SMTp, MachineModel::Base})
            w.cells.push_back({config("FFT", m, 16, 1, 0.5, exec)});
        return true;
    }
    if (name == "kv16x2-par2") {
        // The kv-store's host cost swings with its seed (the end-of-run
        // barrier spin varies several-fold), so one pass averages
        // several client seeds; 4 x 768 requests put well over ten
        // samples beyond the pooled p99.
        w.seedSlots = kvCells;
        for (unsigned k = 0; k < kvCells; ++k) {
            w.cells.push_back(
                {config("kv-store", MachineModel::SMTp, 16, 2, 0.25, par2),
                 k});
        }
        return true;
    }
    if (name == "sweep1n-j2") {
        w.workers = 2;
        for (const std::string &app : workload::appNames()) {
            for (MachineModel m :
                 {MachineModel::Base, MachineModel::IntPerfect,
                  MachineModel::Int512KB, MachineModel::Int64KB,
                  MachineModel::SMTp}) {
                for (unsigned ways : {1u, 2u, 4u})
                    w.cells.push_back({config(app, m, 1, ways, 0.5)});
            }
        }
        return true;
    }
    return false;
}

// ---- Host-speed reference ----------------------------------------------

/**
 * One fixed unit of reference work: a toy discrete-event loop (a binary
 * heap of timestamped events, each updating a pseudo-randomly chosen
 * record in a 1.5 MB table and branching on its contents), about 10 ms
 * on the measurement host. It is compiled from this file only, never
 * from src/, so no simulator change moves it. Its time, taken on the
 * same thread right after each cell, measures how fast the host runs
 * this kind of code at that moment: the vCPUs of a shared host switch
 * between speeds about 1.75x apart, and the mix of slow and fast time
 * drifts over minutes (see perfbench/README.md). Host times divided by
 * it repeat far better between runs than host seconds do.
 */
double
referenceChunk()
{
    struct Record
    {
        std::uint64_t a, b;
        std::uint32_t c, d;
    };
    static thread_local std::vector<Record> table(1u << 16);
    static thread_local std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::vector<Event> heap;
    for (std::uint32_t i = 0; i < 64; ++i)
        heap.push_back({i, i});
    std::uint64_t x = 88172645463325252ull, acc = 0;
    for (int n = 0; n < 100000; ++n) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        auto [when, id] = heap.back();
        heap.pop_back();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Record &r = table[(id * 2654435761u + x) & (table.size() - 1)];
        if (r.c & 1)
            r.a += when;
        else
            r.b ^= x;
        switch (x & 3) {
          case 0: r.c += 3; break;
          case 1: r.d ^= r.c; break;
          case 2: acc += r.a; break;
          default: r.c = r.d + 1; break;
        }
        heap.push_back({when + 1 + (x >> 60), id});
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    sink += acc; // Keeps the loop's work observable.
    return secondsSince(t0, Clock::now());
}

/** Reference time taken after each cell, as a share of the cell's time. */
constexpr double referenceShare = 0.10;

// ---- Spans --------------------------------------------------------------

/**
 * One timed interval: a public call inside a cell, a whole cell, or a
 * whole pass. @p parent names the span that caused it.
 */
struct Span
{
    const char *name;
    const char *parent;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t cell; ///< Cell index; Workload::cells.size() for a pass.
    unsigned worker;

    double seconds() const { return secondsSince(start, end); }
};

// ---- One cell -----------------------------------------------------------

/** Counters folded out of dumpStats text (summed over nodes). */
struct StatSums
{
    std::map<std::string, double> counters;
    /** Distribution name -> (sum of mean*samples, samples). */
    std::map<std::string, std::pair<double, double>> dists;

    void
    parse(const std::string &text)
    {
        std::istringstream in(text);
        std::string line;
        while (std::getline(in, line)) {
            auto eq = line.find(" = ");
            if (eq == std::string::npos)
                continue;
            std::string key = line.substr(0, eq);
            key.erase(0, key.find_first_not_of(' '));
            std::string val = line.substr(eq + 3);
            if (val.rfind("mean ", 0) == 0) {
                double mean = 0, mn = 0, mx = 0, n = 0;
                if (std::sscanf(val.c_str(),
                                "mean %lf min %lf max %lf (%lf", &mean,
                                &mn, &mx, &n) == 4) {
                    dists[key].first += mean * n;
                    dists[key].second += n;
                }
            } else if (val.rfind("peak ", 0) == 0) {
                counters[key] = std::max(counters[key],
                                         std::atof(val.c_str() + 5));
            } else {
                counters[key] += std::atof(val.c_str());
            }
        }
    }

    void
    merge(const StatSums &o)
    {
        for (const auto &[k, v] : o.counters)
            counters[k] += v;
        for (const auto &[k, v] : o.dists) {
            dists[k].first += v.first;
            dists[k].second += v.second;
        }
    }

    double get(const std::string &k) const
    {
        auto it = counters.find(k);
        return it == counters.end() ? 0.0 : it->second;
    }

    double mean(const std::string &k) const
    {
        auto it = dists.find(k);
        return it == dists.end() || it->second.second == 0
                   ? 0.0
                   : it->second.first / it->second.second;
    }
};

/** Exec-category numbers read back from one cell's capture. */
struct ExecSums
{
    bool present = false;      ///< The capture had Exec buffers.
    double windows = 0;        ///< Windows run (max over shards).
    double barrierWaitNs = 0;  ///< Max over shards of waited host ns.
    double eventsMinShare = 1; ///< Min shard events / mean shard events.
};

struct CellOut
{
    std::string fingerprint;
    Tick execTicks = 0;
    std::uint64_t committed = 0;
    bool server = false;
    std::uint64_t requests = 0;
    Distribution reqLatency; ///< Server apps: the request histogram.
    bool quiescent = false;
    double runS = 0;
    double totalS = 0;
    double refS = 0;      ///< Reference-kernel seconds after the cell.
    unsigned refChunks = 0;
    // Layer numbers (every mode; cheap, read from dumpStats/getters).
    StatSums stats;
    bool pengine = false;      ///< Non-SMTp model: a PEngine per node.
    double agentBusyShare = 0; ///< Mean over nodes (PEngine cells).
    double protoOccupancy = 0; ///< Peak over nodes (SMTp cells).
    ExecSums exec;
};

struct Options
{
    std::string mode = "measure";
    std::string outDir;
    std::uint64_t seed = 1;
};

std::string
cellLabel(const serve::RunConfig &c)
{
    return c.app + "/" + std::string(modelName(c.model)) + "/" +
           std::to_string(c.nodes) + "x" + std::to_string(c.ways);
}

ExecSums
readExecCategory(const std::string &path)
{
    ExecSums out;
    trace::TraceData data;
    std::string err;
    if (!trace::readTrace(path, data, err)) {
        std::fprintf(stderr, "readTrace %s: %s\n", path.c_str(),
                     err.c_str());
        std::exit(1);
    }
    std::vector<double> events;
    for (const auto &b : data.buffers) {
        if (b.category != static_cast<std::uint8_t>(trace::Category::Exec))
            continue;
        double wait = 0, ev = 0, stored = 0;
        for (const trace::Event &e : b.events) {
            if (e.id() == trace::EventId::WindowAdvance) {
                ev += static_cast<double>(trace::windowValue(e.arg));
                ++stored;
            } else if (e.id() == trace::EventId::BarrierWait) {
                wait += static_cast<double>(trace::windowValue(e.arg));
            }
        }
        // Two events per window; when the ring wrapped, the stored
        // tail is scaled up to the whole run.
        double windows = static_cast<double>(b.recorded) / 2.0;
        double scale = stored > 0 ? windows / stored : 0.0;
        out.present = true;
        out.windows = std::max(out.windows, windows);
        out.barrierWaitNs = std::max(out.barrierWaitNs, wait * scale);
        events.push_back(ev);
    }
    if (!events.empty()) {
        double sum = 0;
        for (double e : events)
            sum += e;
        double mean = sum / static_cast<double>(events.size());
        out.eventsMinShare =
            mean > 0 ? *std::min_element(events.begin(), events.end()) /
                           mean
                     : 0.0;
    }
    return out;
}

CellOut
runCell(serve::RunConfig cfg, std::uint64_t seed, std::size_t index,
        unsigned worker, const Options &opt, std::vector<Span> &spans)
{
    const bool traced = opt.mode == "traced";
    if (opt.mode == "serial")
        cfg.exec = ExecParams{};
    MachineParams mp = serve::paramsFor(cfg);
    if (traced) {
        mp.trace.enabled = true;
        if (cfg.exec.parallel())
            mp.trace.categories |=
                trace::categoryBit(trace::Category::Exec);
    }
    CellOut out;
    auto span = [&](const char *name, Clock::time_point t0,
                    const char *parent = "cell") {
        auto t1 = Clock::now();
        spans.push_back({name, parent, t0, t1, index, worker});
        return t1;
    };

    // Same wiring order as the serve runner's cell: functional memory,
    // machine, then the workload attached thread by thread.
    auto cell_start = Clock::now();
    auto mem = std::make_unique<FuncMem>();
    auto machine = std::make_unique<Machine>(mp);
    auto t = span("Machine::Machine", cell_start);

    auto app = workload::makeApp(cfg.app);
    workload::WorkloadEnv env;
    env.mem = mem.get();
    env.map = &machine->addressMap();
    env.nodes = cfg.nodes;
    env.threadsPerNode = cfg.ways;
    env.scale = cfg.scale;
    env.seed = seed;
    app->build(env);
    t = span("App::build", t);

    for (unsigned g = 0; g < env.totalThreads(); ++g)
        machine->setGlobalSource(g, app->thread(g));
    if (auto *tm = machine->traceManager()) {
        app->attachTrace([tm](NodeId node) {
            return tm->createBuffer("wl", node, trace::Category::Workload);
        });
    }
    t = span("Machine::setGlobalSource", t);

    machine->run();
    auto run_end = span("Machine::run", t);
    out.runS = secondsSince(t, run_end);

    // The record: stat getters, dumpStats and jsonRecord, as a bench
    // binary produces it.
    serve::RunResult r;
    r.execTime = machine->execTime();
    r.committedInsts = machine->committedAppInsts();
    r.memStallFraction = machine->memStallFraction();
    r.peakProtocolOccupancy = machine->peakProtocolOccupancy();
    if (cfg.model == MachineModel::SMTp) {
        auto pc = machine->protoCharacteristics();
        r.protoBranchMispredict = pc.branchMispredictRate;
        r.protoSquashCyclePct = pc.squashCyclePct;
        r.protoRetiredPct = pc.retiredInstPct;
    }
    if (const workload::ServerStats *st = app->serverStats()) {
        r.server = true;
        r.requests = st->requests;
        r.txnCommits = st->txnCommits;
        r.txnAborts = st->txnAborts;
        r.txnFallbacks = st->txnFallbacks;
        const double us = static_cast<double>(tickPerUs);
        r.reqLatMeanUs = st->reqLatency.mean() / us;
        r.reqLatP50Us = st->reqLatency.percentile(50.0) / us;
        r.reqLatP95Us = st->reqLatency.percentile(95.0) / us;
        r.reqLatP99Us = st->reqLatency.percentile(99.0) / us;
    }
    std::ostringstream stats;
    machine->dumpStats(stats);
    std::string record = serve::jsonRecord(cfg, r);
    auto record_end = span("getters+dumpStats+jsonRecord", run_end);
    span("cell", cell_start, "pass");
    out.totalS = secondsSince(cell_start, record_end);

    out.execTicks = r.execTime;
    out.committed = r.committedInsts;
    out.server = r.server;
    out.requests = r.requests;
    if (r.server)
        out.reqLatency = app->serverStats()->reqLatency;
    char fp[256];
    std::snprintf(fp, sizeof(fp), "%s/s%llu:%llu:%llu",
                  cellLabel(cfg).c_str(), static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(r.execTime),
                  static_cast<unsigned long long>(r.committedInsts));
    out.fingerprint = fp;
    if (r.server) {
        std::snprintf(fp, sizeof(fp), ":%llu:%.3f",
                      static_cast<unsigned long long>(r.requests),
                      r.reqLatP99Us);
        out.fingerprint += fp;
    }
    if (record.find("\"exec_ticks\":" + std::to_string(r.execTime)) ==
        std::string::npos) {
        out.fingerprint += ":bad-record";
    }

    out.stats.parse(stats.str());
    out.pengine = cfg.model != MachineModel::SMTp && r.execTime > 0;
    for (unsigned n = 0; out.pengine && n < cfg.nodes; ++n) {
        out.agentBusyShare +=
            static_cast<double>(machine->node(n).agentBusyTicks()) /
            static_cast<double>(r.execTime) / cfg.nodes;
    }
    if (cfg.model == MachineModel::SMTp)
        out.protoOccupancy = r.peakProtocolOccupancy;

    if (traced) {
        // Only the binary capture is written: the Perfetto/CSV exports
        // of a 16-node cell run to tens of megabytes and add nothing
        // the per-layer numbers use.
        std::string path =
            opt.outDir + "/cell" + std::to_string(index) + ".smtptrace";
        auto t0 = Clock::now();
        trace::TraceData data;
        machine->traceManager()->snapshot(data, r.execTime, cfg.nodes);
        std::FILE *f = std::fopen(path.c_str(), "wb");
        bool ok = f != nullptr && trace::writeBinary(data, f);
        if (f != nullptr && std::fclose(f) != 0)
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            std::exit(1);
        }
        span("trace::writeBinary", t0);
        t0 = Clock::now();
        out.exec = readExecCategory(path);
        span("trace::readTrace", t0);
    }

    // Correctness gate outside the timed region: the run must drain to
    // a quiet machine.
    machine->quiesce();
    out.quiescent = machine->quiescent();

    // Host speed right after the cell, on the same thread.
    if (opt.mode == "measure") {
        do {
            out.refS += referenceChunk();
            ++out.refChunks;
        } while (out.refS < referenceShare * out.totalS);
    }
    return out;
}

// ---- Output -------------------------------------------------------------

class JsonLine
{
  public:
    explicit JsonLine(const char *kind)
        : s_("{\"kind\":\"" + std::string(kind) + "\"")
    {
    }

    JsonLine &
    num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        s_ += ",\"" + k + "\":" + buf;
        return *this;
    }

    JsonLine &
    str(const std::string &k, const std::string &v)
    {
        s_ += ",\"" + k + "\":\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                s_ += '\\';
            s_ += c;
        }
        s_ += "\"";
        return *this;
    }

    JsonLine &
    nums(const std::string &k, const std::vector<double> &vs)
    {
        s_ += ",\"" + k + "\":[";
        for (std::size_t i = 0; i < vs.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                          vs[i]);
            s_ += buf;
        }
        s_ += "]";
        return *this;
    }

    JsonLine &
    strs(const std::string &k, const std::vector<std::string> &vs)
    {
        s_ += ",\"" + k + "\":[";
        for (std::size_t i = 0; i < vs.size(); ++i)
            s_ += (i ? ",\"" : "\"") + vs[i] + "\"";
        s_ += "]";
        return *this;
    }

    void
    print()
    {
        std::printf("%s}\n", s_.c_str());
        std::fflush(stdout);
    }

  private:
    std::string s_;
};

double
sumSpans(const std::vector<Span> &spans, const char *name)
{
    double s = 0;
    for (const Span &sp : spans) {
        if (std::string_view(sp.name) == name)
            s += sp.seconds();
    }
    return s;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans,
           Clock::time_point origin, const Workload &w)
{
    // Chrome trace-event JSON: loads in ui.perfetto.dev next to the
    // simulator's own per-cell captures.
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &sp = spans[i];
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,"
            "\"args\":{\"cell\":\"%s\",\"parent\":\"%s\"}}",
            i ? "," : "", sp.name, sp.worker,
            std::chrono::duration<double, std::micro>(sp.start - origin)
                .count(),
            std::chrono::duration<double, std::micro>(sp.end - sp.start)
                .count(),
            sp.cell < w.cells.size()
                ? cellLabel(w.cells[sp.cell].cfg).c_str()
                : "pass",
            sp.parent);
        os << buf;
    }
    os << "]}\n";
}

/** Refuse to time a build whose numbers would mislead. */
bool
optimizedBuild(std::string &why)
{
#if !defined(NDEBUG)
    why = "assertions are enabled (not an optimized build)";
    return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why = "sanitizer build";
    return false;
#endif
    std::string type = PERFBENCH_BUILD_TYPE;
    std::string flags = PERFBENCH_CXX_FLAGS;
    if (type == "Debug" || flags.find("-fsanitize") != std::string::npos ||
        flags.find("-O0") != std::string::npos) {
        why = "build type " + type + " with flags '" + flags + "'";
        return false;
    }
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: smtp_perfbench --workload fft16-serial|"
                 "fft16-par2|kv16x2-par2|sweep1n-j2 --seed N --seconds S "
                 "[--mode measure|traced|serial] [--out DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string name;
    double seconds = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            name = v;
        else if (k == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            seconds = std::atof(v.c_str());
        else if (k == "--mode")
            opt.mode = v;
        else if (k == "--out")
            opt.outDir = v;
        else
            return usage();
    }
    Workload w;
    if (argc % 2 == 0 || !makeWorkload(name, w) ||
        (opt.mode != "measure" && opt.mode != "traced" &&
         opt.mode != "serial") ||
        (opt.mode == "traced" && opt.outDir.empty()))
        return usage();
    std::string why;
    if (!optimizedBuild(why)) {
        std::fprintf(stderr, "refusing to benchmark: %s\n", why.c_str());
        return 3;
    }

    JsonLine("provenance")
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .str("compiler", PERFBENCH_COMPILER)
        .num("nproc", std::thread::hardware_concurrency())
        .num("workers", w.workers)
        .num("cells", static_cast<double>(w.cells.size()))
        .print();

    std::unique_ptr<SweepPool> pool;
    if (w.workers > 1)
        pool = std::make_unique<SweepPool>(w.workers);

    auto seedOf = [&](std::size_t i) {
        return opt.seed * w.seedSlots + w.cells[i].seedSlot;
    };
    const auto origin = Clock::now();
    const bool one_pass = opt.mode != "measure";
    std::vector<Span> all_spans;
    double last_pass = 0;
    for (unsigned pass = 0;; ++pass) {
        double elapsed = secondsSince(origin, Clock::now());
        if (pass > 0 && (one_pass || elapsed + last_pass > seconds))
            break;

        std::vector<CellOut> outs(w.cells.size());
        std::vector<std::vector<Span>> spans(w.cells.size());
        auto pass_start = Clock::now();
        if (pool) {
            pool->parallelFor(w.cells.size(), [&](std::size_t i) {
                static std::atomic<unsigned> next_worker{0};
                static thread_local unsigned worker_id = ++next_worker;
                outs[i] = runCell(w.cells[i].cfg, seedOf(i), i, worker_id,
                                  opt, spans[i]);
            });
        } else {
            for (std::size_t i = 0; i < w.cells.size(); ++i)
                outs[i] = runCell(w.cells[i].cfg, seedOf(i), i, 0, opt,
                                  spans[i]);
        }
        auto pass_end = Clock::now();
        last_pass = secondsSince(pass_start, pass_end);

        std::vector<Span> flat;
        flat.push_back({pool ? "SweepPool::parallelFor" : "pass", "",
                        pass_start, pass_end, w.cells.size(), 0});
        for (auto &s : spans)
            flat.insert(flat.end(), s.begin(), s.end());

        double setup = sumSpans(flat, "Machine::Machine") +
                       sumSpans(flat, "App::build") +
                       sumSpans(flat, "Machine::setGlobalSource");
        double cell_s = 0, run_s = 0, committed = 0, exec_us = 0;
        double ref_s = 0, ref_chunks = 0;
        double requests = 0;
        Distribution latency;
        std::vector<double> cell_us;
        std::vector<std::string> fps;
        std::vector<double> unquiet;
        StatSums stats;
        double busy_share = 0, busy_cells = 0, occupancy = 0;
        ExecSums exec;
        exec.eventsMinShare = 0;
        for (std::size_t i = 0; i < outs.size(); ++i) {
            const CellOut &o = outs[i];
            cell_s += o.totalS;
            run_s += o.runS;
            ref_s += o.refS;
            ref_chunks += o.refChunks;
            committed += static_cast<double>(o.committed);
            cell_us.push_back(static_cast<double>(o.execTicks) /
                              static_cast<double>(tickPerUs));
            exec_us += cell_us.back();
            if (!o.quiescent)
                unquiet.push_back(static_cast<double>(i));
            fps.push_back(o.fingerprint);
            if (o.server) {
                requests += static_cast<double>(o.requests);
                if (latency.samples() == 0)
                    latency = o.reqLatency;
                else
                    latency.merge(o.reqLatency);
            }
            stats.merge(o.stats);
            if (o.pengine) {
                busy_share += o.agentBusyShare;
                ++busy_cells;
            }
            occupancy = std::max(occupancy, o.protoOccupancy);
            if (o.exec.present) {
                bool first = !exec.present;
                exec.present = true;
                exec.windows += o.exec.windows;
                exec.barrierWaitNs += o.exec.barrierWaitNs;
                exec.eventsMinShare =
                    first ? o.exec.eventsMinShare
                          : std::min(exec.eventsMinShare,
                                     o.exec.eventsMinShare);
            }
        }
        // Request latency p99: the kv-store's pooled request histogram.
        // The paper apps serve no client requests; there each cell is
        // the request (the unit a sweep client submits to smtpd) and
        // its latency the cell's simulated execution time (nearest
        // rank, so the longest cell below 100 cells).
        double req_p99 = 0, req_p50 = 0;
        const double us = static_cast<double>(tickPerUs);
        if (latency.samples() > 0) {
            req_p99 = latency.percentile(99.0) / us;
            req_p50 = latency.percentile(50.0) / us;
        } else {
            std::sort(cell_us.begin(), cell_us.end());
            std::size_t rank = (99 * cell_us.size() + 99) / 100;
            req_p99 = cell_us[rank - 1];
        }

        // The reference chunks ran inside the pass, spread evenly over
        // the workers; wall_s leaves them out.
        const double wall = last_pass - ref_s / w.workers;
        JsonLine line("pass");
        line.num("pass", pass)
            .num("wall_s", wall)
            .num("ref_s", ref_s)
            .num("ref_chunks", ref_chunks)
            .num("setup_s", setup)
            .num("run_s", run_s)
            .num("build_ms", 1e3 * sumSpans(flat, "Machine::Machine"))
            .num("wbuild_ms", 1e3 * sumSpans(flat, "App::build"))
            .num("record_ms",
                 1e3 * sumSpans(flat, "getters+dumpStats+jsonRecord"))
            .num("sweep_idle_s", w.workers * wall - cell_s)
            .num("committed", committed)
            .num("exec_us", exec_us)
            .num("req_p99_us", req_p99)
            .nums("unquiet", unquiet)
            .strs("fp", fps);
        if (one_pass) {
            double cycles = stats.get("cycles");
            double fetched = stats.get("fetched");
            double l1d = stats.get("l1dHits") + stats.get("l1dMisses");
            double pf = stats.get("prefetchesIssued");
            double handlers = stats.get("handlers");
            double tick_ns = static_cast<double>(tickPerNs);
            line.num("requests", requests)
                .num("req_p50_us", req_p50)
                .num("cpu.cycles", cycles)
                .num("cpu.fetched", fetched)
                .num("cpu.committed", committed)
                .num("cpu.commit_per_fetch",
                     fetched > 0 ? committed / fetched : 0.0)
                .num("cpu.host_ns_per_cycle",
                     cycles > 0 ? 1e9 * run_s / cycles : 0.0)
                .num("cache.l1d_miss_ratio",
                     l1d > 0 ? stats.get("l1dMisses") / l1d : 0.0)
                .num("cache.l2_misses", stats.get("l2Misses"))
                .num("cache.prefetch_useful_ratio",
                     pf > 0 ? stats.get("prefetchesUseful") / pf : 0.0)
                .num("mem.handlers", handlers)
                .num("mem.naks", stats.get("naks"))
                .num("mem.nak_per_handler",
                     handlers > 0 ? stats.get("naks") / handlers : 0.0)
                .num("mem.sdram_reads", stats.get("sdramReads"))
                .num("mem.req_queue_delay_ns_mean",
                     stats.mean("reqQueueDelay") / tick_ns)
                .num("mem.handler_latency_ns_mean",
                     stats.mean("handlerLatency") / tick_ns)
                .num("core.pt_ops_supplied", stats.get("ptOpsSupplied"))
                .num("core.peak_protocol_occupancy", occupancy)
                .num("pengine.busy_share",
                     busy_cells > 0 ? busy_share / busy_cells : 0.0)
                .num("network.msgs", stats.get("netMsgs"))
                .num("network.bytes", stats.get("netBytes"))
                .num("network.hops_mean", stats.mean("netHops"))
                .num("sim.windows", exec.windows)
                .num("sim.barrier_wait_share",
                     run_s > 0 ? exec.barrierWaitNs / (1e9 * run_s) : 0.0)
                .num("sim.shard_busy_min_share", exec.eventsMinShare);
        }
        line.print();
        all_spans.insert(all_spans.end(), flat.begin(), flat.end());
    }

    if (opt.mode == "traced")
        writeSpans(opt.outDir + "/spans.json", all_spans, origin, w);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    JsonLine("end")
        .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
        .print();
    return 0;
}
