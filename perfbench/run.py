#!/usr/bin/env python3
"""Benchmark of the SMTp simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-fingerprints

Builds perfbench/ (which compiles the simulator libraries from src/)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the workload in its own process for about S seconds and checks every
cell's output. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones (telemetry off), with --trace 1 the
per-layer ones (from one separate traced pass).

--record-fingerprints rewrites perfbench/fingerprints.json: the serial
reference fingerprint of every cell for the default and held-out seeds.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

WORKLOADS = ("fft16-serial", "fft16-par2", "kv16x2-par2", "sweep1n-j2")
# Workloads whose cells run on the parallel shard engine; they must
# match an exec=serial run bit for bit.
PARALLEL = ("fft16-par2", "kv16x2-par2")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# "ref" is the time of one chunk of smtp_perfbench's reference kernel,
# timed on the same thread right after each cell (perfbench/README.md,
# "Host-speed reference").
END_TO_END_UNITS = {
    "wall_ref": "ref",
    "setup_s": "s",
    "sim_kinst_per_ref": "kinst/ref",
    "peak_rss_mb": "MB",
    "sim_exec_us": "sim_us",
    "req_p99_us": "sim_us",
}

# Per-layer metric -> (unit, key in smtp_perfbench's traced pass line).
# Keys of None are derived here rather than read from the line.
PER_LAYER = {
    "machine.build_ms": ("ms", "build_ms"),
    "machine.run_s": ("s", "run_s"),
    "workload.build_ms": ("ms", "wbuild_ms"),
    "workload.requests": ("count", "requests"),
    "workload.req_p50_us": ("sim_us", "req_p50_us"),
    "serve.record_ms": ("ms", "record_ms"),
    "sim.sweep_idle_s": ("s", "sweep_idle_s"),
    "sim.windows": ("count", "sim.windows"),
    "sim.barrier_wait_share": ("ratio", "sim.barrier_wait_share"),
    "sim.shard_busy_min_share": ("ratio", "sim.shard_busy_min_share"),
    "sim.par2_speedup": ("ratio", None),
    "cpu.cycles": ("count", "cpu.cycles"),
    "cpu.fetched": ("count", "cpu.fetched"),
    "cpu.committed": ("count", "cpu.committed"),
    "cpu.commit_per_fetch": ("ratio", "cpu.commit_per_fetch"),
    "cpu.host_ns_per_cycle": ("ns", "cpu.host_ns_per_cycle"),
    "cache.l1d_miss_ratio": ("ratio", "cache.l1d_miss_ratio"),
    "cache.l2_misses": ("count", "cache.l2_misses"),
    "cache.prefetch_useful_ratio": ("ratio", "cache.prefetch_useful_ratio"),
    "mem.handlers": ("count", "mem.handlers"),
    "mem.naks": ("count", "mem.naks"),
    "mem.nak_per_handler": ("ratio", "mem.nak_per_handler"),
    "mem.sdram_reads": ("count", "mem.sdram_reads"),
    "mem.req_queue_delay_ns_mean": ("sim_ns", "mem.req_queue_delay_ns_mean"),
    "mem.handler_latency_ns_mean": ("sim_ns", "mem.handler_latency_ns_mean"),
    "core.pt_ops_supplied": ("count", "core.pt_ops_supplied"),
    "core.peak_protocol_occupancy": ("ratio", "core.peak_protocol_occupancy"),
    "pengine.busy_share": ("ratio", "pengine.busy_share"),
    "network.msgs": ("count", "network.msgs"),
    "network.bytes": ("bytes", "network.bytes"),
    "network.hops_mean": ("hops", "network.hops_mean"),
    "trace.overhead_pct": ("%", None),
    "host.wall_s": ("s", None),
    "host.sim_minst_per_s": ("Minst/s", None),
    "host.ref_chunk_ms": ("ms", None),
}

# Generous per-process limits; each run must end within 180 s.
RUN_LIMIT_S = 175


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure once, then (re)build smtp_perfbench; returns its path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        os.makedirs(bdir, exist_ok=True)
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "smtp_perfbench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(bdir, "smtp_perfbench")


def drive(exe, workload, seed, seconds, mode, deadline, out=None):
    """Run smtp_perfbench once; returns (provenance, passes, end)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if out is not None:
        cmd += ["--out", out]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s timed out" % (workload, mode))
    if proc.returncode != 0:
        raise BenchError("%s %s exited with %d"
                         % (workload, mode, proc.returncode))
    prov, passes, end = None, [], None
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        if rec["kind"] == "provenance":
            prov = rec
        elif rec["kind"] == "pass":
            passes.append(rec)
        elif rec["kind"] == "end":
            end = rec
    if prov is None or not passes or end is None:
        raise BenchError("%s %s: incomplete output" % (workload, mode))
    return prov, passes, end


def stored_fingerprints(workload, seed):
    try:
        with open(FINGERPRINTS) as f:
            return json.load(f)["seeds"].get(str(seed), {}).get(workload)
    except (OSError, ValueError, KeyError):
        return None


def count_failures(passes, reference):
    """(attempted, failed): one operation per cell per pass."""
    attempted = failed = 0
    for r in passes:
        unquiet = set(int(i) for i in r["unquiet"])
        for i, fp in enumerate(r["fp"]):
            attempted += 1
            if (i >= len(reference) or fp != reference[i]
                    or i in unquiet):
                failed += 1
    return attempted, failed


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def src_digest():
    """SHA-256 over src/ (paths and contents): the code that was timed."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def ref_chunk_s(r):
    """Mean reference-chunk seconds in one measured pass."""
    return r["ref_s"] / r["ref_chunks"]


def end_to_end(passes, end):
    """Metric -> per-pass values (host metrics) or one value."""
    return {
        "wall_ref": [r["wall_s"] / ref_chunk_s(r) for r in passes],
        "setup_s": [r["setup_s"] for r in passes],
        "sim_kinst_per_ref": [r["committed"] / (r["run_s"] / ref_chunk_s(r))
                              / 1e3 for r in passes],
        "peak_rss_mb": [end["peak_rss_mb"]],
        "sim_exec_us": [passes[0]["exec_us"]],
        "req_p99_us": [passes[0]["req_p99_us"]],
    }


def per_layer(traced, untraced_passes, serial_passes):
    values = {}
    for name, (_, key) in PER_LAYER.items():
        if key is not None:
            values[name] = traced[key]
    untraced_wall = statistics.median(r["wall_s"] for r in untraced_passes)
    values["host.wall_s"] = untraced_wall
    values["host.sim_minst_per_s"] = statistics.median(
        r["committed"] / r["run_s"] / 1e6 for r in untraced_passes)
    values["host.ref_chunk_ms"] = 1e3 * statistics.median(
        ref_chunk_s(r) for r in untraced_passes)
    values["trace.overhead_pct"] = 100.0 * (traced["wall_s"]
                                            / untraced_wall - 1.0)
    if serial_passes:
        par_run = statistics.median(r["run_s"] for r in untraced_passes)
        values["sim.par2_speedup"] = serial_passes[0]["run_s"] / par_run
    else:
        values["sim.par2_speedup"] = 0.0
    return values


def record_fingerprints(exe):
    data = {"note": "Serial reference fingerprints per cell: "
                    "label/seed:exec_ticks:committed_insts"
                    "[:requests:req_p99_us]. Regenerate with "
                    "python3 perfbench/run.py --record-fingerprints.",
            "seeds": {}}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        per = data["seeds"].setdefault(str(seed), {})
        for w in WORKLOADS:
            deadline = time.monotonic() + 600
            _, passes, _ = drive(exe, w, seed, 0, "serial", deadline)
            if passes[0]["unquiet"]:
                raise BenchError("%s seed %d: cells did not quiesce"
                                 % (w, seed))
            per[w] = passes[0]["fp"]
            log("recorded %s seed %d (%d cells)" % (w, seed, len(per[w])))
    with open(FINGERPRINTS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprints", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.record_fingerprints and args.workload is None:
        ap.error("--workload is required")

    try:
        t0 = time.monotonic()
        exe = build()
        log("build: %.1f s" % (time.monotonic() - t0))
        if args.record_fingerprints:
            record_fingerprints(exe)
            return 0
        return run(exe, args)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1


def run(exe, args):
    w, seed = args.workload, args.seed
    deadline = time.monotonic() + RUN_LIMIT_S
    prov, passes, end = drive(exe, w, seed, args.seconds, "measure",
                              deadline)
    checked = list(passes)

    traced = None
    if args.trace:
        out = os.path.join(build_dir(), "traces", w)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        _, traced_passes, _ = drive(exe, w, seed, 0, "traced", deadline,
                                    out)
        traced = traced_passes[0]
        checked.append(traced)

    # The reference every cell must reproduce: the stored serial
    # fingerprints for the default and held-out seeds, otherwise a
    # fresh exec=serial pass for parallel workloads, otherwise the
    # first pass of this run.
    reference = stored_fingerprints(w, seed)
    serial_passes = []
    if w in PARALLEL and (args.trace or reference is None):
        _, serial_passes, _ = drive(exe, w, seed, 0, "serial", deadline)
        checked += serial_passes
        if reference is None:
            reference = serial_passes[0]["fp"]
    if reference is None:
        reference = passes[0]["fp"]
    attempted, failed = count_failures(checked, reference)

    if args.trace:
        values = per_layer(traced, passes, serial_passes)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]}
                   for k in PER_LAYER}
        repeats = {k: 1 for k in PER_LAYER}
        spreads = {k: 0.0 for k in PER_LAYER}
    else:
        series = end_to_end(passes, end)
        metrics = {k: {"value": statistics.median(v),
                       "unit": END_TO_END_UNITS[k]}
                   for k, v in series.items()}
        repeats = {k: len(v) for k, v in series.items()}
        spreads = {k: spread(v) for k, v in series.items()}

    provenance = {
        "workload": w,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "build_type": prov["build_type"],
        "cxx_flags": prov["cxx_flags"].strip(),
        "compiler": prov["compiler"],
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "passes": len(passes),
        "cells_per_pass": int(prov["cells"]),
        "host_wall_s": statistics.median(r["wall_s"] for r in passes),
        "host_ref_chunk_ms": 1e3 * statistics.median(
            ref_chunk_s(r) for r in passes),
        "repeats": repeats,
        "spread_iqr_over_median": spreads,
    }
    print("%-30s %14s %-8s %4s %8s" % ("metric", "value", "unit", "n",
                                       "spread"))
    for k, m in metrics.items():
        print("%-30s %14.6g %-8s %4d %7.1f%%" % (k, m["value"], m["unit"],
                                                repeats[k],
                                                100 * spreads[k]))
    if args.trace:
        print("per-layer host time inside Machine::run needs tracing "
              "inside the simulator (the snapId profiler of ROADMAP "
              "item 1); it is not measured here. Captures and spans: %s"
              % os.path.relpath(os.path.join(build_dir(), "traces", w),
                                ROOT))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
