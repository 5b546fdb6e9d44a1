#!/usr/bin/env python3
"""Measures the benchmark's end-to-end metrics over several seeds.

    python3 perfbench/trajectory.py [--layers] [--record LABEL]

Runs perfbench/run.py once per workload of BENCHMARK.json and seed 1..10
(end-to-end mode, the run length from BENCHMARK.json) and prints, per
workload and metric, the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median.
A spread above a third of the metric's bound is flagged as too noisy to
resolve a change of that size.
With --layers, one traced run per workload (seed 1) adds every
per-layer metric, printed by name with its unit. With --record, the
summary is appended to perfbench/trajectory.json under LABEL (for example
the commit it measured), so that a later change can be compared against a
measured parent.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--layers", action="store_true")
    p.add_argument("--record", default="")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    summary = {}
    ok = True
    for w in workloads:
        values = {m: [] for m in bounds}
        failed = attempted = 0
        for seed in SEEDS:
            r = run(w, seed, spec["run_seconds"], 0)
            ok = ok and r["correct"]
            failed += r["failed"]
            attempted += r["attempted"]
            for m in bounds:
                values[m].append(r["metrics"][m]["value"])
        summary[w] = {"attempted": attempted, "failed": failed, "metrics": {}}
        print("%s  (%d runs, failed %d of %d operations)"
              % (w, len(SEEDS), failed, attempted))
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "  NOISY" if spread > bounds[m] / 3 else ""
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound %.2f)%s" % (m, med, q1, q3, spread, bounds[m], flag))
            summary[w]["metrics"][m] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "unit": units[m]}
        if args.layers:
            r = run(w, SEEDS[0], spec["run_seconds"], 1)
            ok = ok and r["correct"]
            summary[w]["layers"] = r["metrics"]
            print("  traced run, seed %d:" % SEEDS[0])
            for m, v in r["metrics"].items():
                print("    %-34s %.6g %s" % (m, v["value"], v["unit"]))

    if args.record:
        path = os.path.join(ROOT, "perfbench", "trajectory.json")
        entries = []
        if os.path.exists(path):
            with open(path) as f:
                entries = json.load(f)
        entries.append({
            "label": args.record,
            "machine": "%s, %d CPUs" % (platform.machine(), os.cpu_count()),
            "seeds": [SEEDS[0], SEEDS[-1]],
            "run_seconds": spec["run_seconds"],
            "workloads": summary,
        })
        with open(path, "w") as f:
            json.dump(entries, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
