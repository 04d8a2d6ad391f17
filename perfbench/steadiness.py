#!/usr/bin/env python3
"""Runs two alternating sets of the benchmark and compares them.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--first-seed 1] [--sets 2]

Run i of set A uses seed FIRST+i, run i of set B seed FIRST+RUNS+i; the
runs alternate A, B, A, B within each workload so slow drifts of the
host hit both sets alike. For every workload and end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance
over median, the figure BENCHMARK.json's bound applies to) and how far
set B's median moved from set A's in the worse direction. Next to them
it prints the raw host figures of the same runs: raw ops/s and raw
set-up seconds before normalization, and the mean reference-slice time.
With --sets 1 it makes a single set (the ten-run spread check).

Exit code 0 when every spread but setup_s's is within its bound and no
median moved by more than its bound; 1 otherwise.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    raw = {}
    for line in lines:
        m = re.match(r"# \S+ seed=\d+ (.*)", line)
        if m:
            raw = {k: float(v) for k, v in
                   (kv.split("=") for kv in m.group(1).split())}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["host.raw_ops_per_s"] = raw["ops"] / raw["raw_s"]
    values["host.raw_setup_s"] = raw["raw_setup_s"]
    values["host.ref_slice_ms"] = raw["ref_slice_ms"]
    values["wall_s"] = time.monotonic() - start
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = bench["run_seconds"]
    ok = True
    for wl in names:
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                seed = args.first_seed + s * args.runs + i
                sets[s].append(run_once(wl, seed, seconds))
                print(f"  {wl} set {'AB'[s]} seed {seed} done",
                      file=sys.stderr, flush=True)
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"\n{wl}: {args.runs} runs per set, {seconds} s each, "
              f"{statistics.mean(walls):.1f} s wall per run "
              f"(max {max(walls):.1f} s)")
        print(f"  {'metric':22} {'set':3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6} {'moved':>8}")
        for metric in bench["end_to_end"] + [
                {"name": "host.raw_ops_per_s", "better": "higher"},
                {"name": "host.raw_setup_s", "better": "lower"},
                {"name": "host.ref_slice_ms", "better": "lower"}]:
            name = metric["name"]
            bound = metric.get("bound")
            medians = []
            for s, runs in enumerate(sets):
                q1, med, q3 = quartiles([r[name] for r in runs])
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                moved = ""
                if s == 1:
                    worse = (med - medians[0]) / medians[0]
                    if metric["better"] == "higher":
                        worse = -worse
                    moved = f"{100 * worse:+7.2f}%"
                    if bound is not None and worse > bound:
                        ok = False
                if bound is not None and name != "setup_s" and spread > bound:
                    ok = False
                print(f"  {name:22} {'AB'[s]:3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {100 * spread:7.2f}% "
                      f"{'' if bound is None else bound:>6} {moved:>8}")
    print("\nverdict:", "steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
