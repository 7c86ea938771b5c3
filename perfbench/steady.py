#!/usr/bin/env python3
"""Steadiness check: how far the end-to-end metrics move between runs.

    python3 perfbench/steady.py [--runs 10] [--seconds 30] [--seed0 100]
                                [--workloads a,b] [--json PATH]

Runs perfbench/run.py --trace 0 RUNS times per workload, each run with
its own seed (seed0, seed0+1, ...), alternating the workload order
(forward, then reversed) so slow and fast host phases fall on every
workload alike. Prints, per workload and end-to-end metric, the median,
the quartiles and the spread (IQR / median, the figure the bounds in
BENCHMARK.json are checked against), and flags any spread above a third
of its bound. Also reports failed operations, and for comparison the
spread of the raw host seconds (host_wall_s in each run's provenance),
which no bound checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            seed = args.seed0 + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if proc.returncode != 0:
                print("run %d %s: exit %d" % (i, w, proc.returncode))
                continue
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["seed"] = seed
            res["host_wall_s"] = json.loads(lines[-2])["provenance"][
                "host_wall_s"]
            results[w].append(res)
            print("run %d %-13s seed %d: %s" % (
                i, w, seed, " ".join(
                    "%s=%.6g" % (k, m["value"])
                    for k, m in res["metrics"].items())), flush=True)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print("\n%s: %d runs, %d/%d operations failed" % (
            w, len(runs), failed, attempted))
        print("  %-17s %12s %12s %12s %8s %7s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for k in bounds:
            vals = [r["metrics"][k]["value"] for r in runs]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            sp = (q3 - q1) / med if med else 0.0
            flag = "" if k == "setup_s" or sp < bounds[k] / 3 else "  <-"
            if k != "setup_s":
                worst = max(worst, sp / bounds[k])
            print("  %-17s %12.6g %12.6g %12.6g %7.1f%% %6.0f%%%s" % (
                k, q1, med, q3, 100 * sp, 100 * bounds[k], flag))
        vals = [r["host_wall_s"] for r in runs]
        if len(vals) >= 2:
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print("  %-17s %12.6g %12.6g %12.6g %7.1f%%    raw" % (
                "host_wall_s", q1, med, q3, 100 * (q3 - q1) / med))
    print("\nworst spread / bound (setup_s excluded): %.2f" % worst)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
