#!/usr/bin/env python3
"""Repeat the benchmark and report each metric's spread beside its bound.

Runs every workload (or those named) several times with consecutive seeds,
round-robin so that drift on the host spreads evenly over the workloads,
and prints for each end-to-end metric the median, the first and third
quartiles (as Python's statistics.quantiles(values, n=4) gives them), the
spread (third minus first quartile, as a share of the median) and the
metric's bound from BENCHMARK.json. With --traced it then makes one traced
run per workload, prints the per-layer metrics, and reports the tracing
overhead: the traced txn_p50_us minus the median untraced one.

Run from the repository root:

    python3 perfbench/repeat.py --runs 10
    python3 perfbench/repeat.py --runs 5 --workloads async_hot --traced

By default each run uses the command in BENCHMARK.json; --bin runs an
already built ntx-perfbench binary instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no result (exit {p.returncode})\n"
                 f"{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if p.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}, "
                 f"correct={result['correct']}\n{p.stderr[-2000:]}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.load(open(SPEC))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--bin", help="prebuilt ntx-perfbench binary")
    a = ap.parse_args()
    cmd = [a.bin] if a.bin else spec["command"]
    names = [w["name"] for w in spec["workloads"]]
    if a.workloads != "all":
        names = a.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in names}
    for i in range(a.runs):
        for w in names:
            r = run_once(cmd, w, a.seed0 + i, a.seconds, 0)
            results[w].append(r)
            print(f"# {w} seed {a.seed0 + i}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                file=sys.stderr, flush=True)

    print(f"runs={a.runs} seconds={a.seconds} seeds={a.seed0}..{a.seed0 + a.runs - 1}")
    print()
    print("| workload | metric | unit | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    medians = {}
    for w in names:
        runs = results[w]
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            unit = runs[0]["metrics"][m["name"]]["unit"]
            if len(vals) >= 2:
                med, q1, q3, s = spread(vals)
            else:
                med = q1 = q3 = vals[0]
                s = 0.0
            medians[(w, m["name"])] = med
            b = bounds[m["name"]]
            print(f"| {w} | {m['name']} | {unit} | {med:.6g} | {q1:.6g} | "
                  f"{q3:.6g} | {s:.3f} | {b} | {s / b:.2f} |")
        att = sum(r["attempted"] for r in runs)
        fail = sum(r["failed"] for r in runs)
        print(f"| {w} | failed/attempted | - | {fail}/{att} | | | | | |")

    if not a.traced:
        return
    print()
    print("| workload | per-layer metric | unit | value |")
    print("|---|---|---|---|")
    overhead = {}
    for w in names:
        r = run_once(cmd, w, a.seed0, a.seconds, 1)
        for k, v in r["metrics"].items():
            print(f"| {w} | {k} | {v['unit']} | {v['value']:.6g} |")
        overhead[w] = r["metrics"]["trace.txn_p50_us"]["value"] - medians[(w, "txn_p50_us")]
    print()
    print("| workload | tracing overhead on txn_p50_us (us) |")
    print("|---|---|")
    for w in names:
        print(f"| {w} | {overhead[w]:.4g} |")


if __name__ == "__main__":
    main()
