#!/usr/bin/env python3
"""Builds and runs the iShare end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The benchmark binary is built from
the checkout's sources into $CARGO_TARGET_DIR (default .bench_build), then
runs one workload (see BENCHMARK.json and perfbench/README.md). The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; everything else goes to stderr.

Around the binary this script checks that the printed metrics are exactly
the ones BENCHMARK.json lists for the mode, and keeps the determinism
guard across runs of the same binary: the guard values of every run of a
workload and seed (work units, execution counts, epochs, rounds,
arrangements) are stored in the build directory under a hash of the
binary, and a later run of that binary that reads differently is marked
incorrect. A rebuilt binary starts a fresh record, so a change that
legitimately moves a guarded value is not flagged. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path."""
    subprocess.run(
        ["cmake", "-S", SOURCE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "ishare_perfbench"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ishare_perfbench")


def binary_digest(binary):
    """Hash of the built binary, which scopes the stored guard values."""
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_guards(guard_dir, workload, seed, current):
    """Compares this run's guard values with earlier runs of the same
    workload and seed, then stores the union. Returns the drifted keys."""
    path = os.path.join(guard_dir, "%s-seed%d.json" % (workload, seed))
    earlier = {}
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
    drift = sorted(k for k in current
                   if k in earlier and earlier[k] != current[k])
    for k in drift:
        log("DETERMINISM DRIFT: %s was %r in an earlier run, now %r"
            % (k, earlier[k], current[k]))
    earlier.update({k: v for k, v in current.items() if k not in earlier})
    with open(path, "w") as f:
        json.dump(earlier, f, sort_keys=True)
    return drift


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    guard_dir = os.path.join(build_dir, "guards", binary_digest(binary))
    os.makedirs(guard_dir, exist_ok=True)
    guard_file = os.path.join(
        guard_dir, "last-%s-trace%d.json" % (args.workload, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--guard-out", guard_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark exited with %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])

    names = list(result["metrics"])
    if sorted(names) != sorted(expected):
        log("metrics %s do not match BENCHMARK.json %s" % (names, expected))
        return 1
    with open(guard_file) as f:
        guards = json.load(f)
    if check_guards(guard_dir, args.workload, args.seed, guards):
        result["correct"] = False

    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
