#!/usr/bin/env python3
"""Builds and runs the end-to-end BIRCH benchmark (see README.md).

    python3 e2e_bench/run.py --workload paper_2d --seed 1 --seconds 20 --trace 0
    python3 e2e_bench/run.py --self-check

Run from the repository root. The first form builds the benchmark into
.bench_build/ (a no-op once built), runs one workload and passes the
binary's output and exit code through: the last line of stdout is the
JSON result, and a failed correctness gate exits 1 without it.

--self-check runs every workload at 2% size in a few seconds each. It
asserts that every metric BENCHMARK.json names is emitted with its unit,
and that each correctness gate rejects a deliberately corrupted answer.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORKDIR, "e2e")
BINARY = os.path.join(BUILD_DIR, "birch_e2e")

# (workload, corruption, trace): each must make the run fail its gate.
CORRUPTIONS = [
    ("paper_2d", "labels", "0"),     # label_accuracy gate
    ("blobs_16d", "centroids", "0"),  # consistent-answer gate
    ("paper_2d", "trace", "1"),      # traced == untraced gate
    ("serve_2d", "epoch", "0"),      # pinned-epoch gate
    ("csv_2d_t3", "csv", "0"),       # CSV round-trip gate
]


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    os.makedirs(WORKDIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree; do not search parent repos
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_args(args):
    return [BINARY] + args + ["--workdir", WORKDIR, "--commit", commit()]


def run_capture(args):
    out = subprocess.run(bench_args(args), capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return out.returncode, result, out.stderr


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    small = ["--seed", "1", "--seconds", "0.5", "--scale", "0.02"]
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, err = run_capture(
                ["--workload", w["name"], "--trace", trace] + small)
            where = "%s trace %s" % (w["name"], trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, %s" % (where, code, err.strip()))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: wrong result keys" % where)
            if result.get("correct") is not True or result["attempted"] < 1:
                problems.append("%s: not correct or nothing attempted" % where)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append("%s: metrics differ: missing %s, extra %s" % (
                    where, sorted(set(want) - set(got)),
                    sorted(set(got) - set(want))))
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append("%s: %s has unit %r, want %r" % (
                        where, name, m.get("unit"), unit))
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append("%s: %s = %r" % (where, name, v))
                elif key == "end_to_end" and v == 0:
                    problems.append("%s: %s is 0" % (where, name))
            print("ok   %s: %d metrics" % (where, len(got)))
    for workload, corrupt, trace in CORRUPTIONS:
        code, result, err = run_capture(
            ["--workload", workload, "--trace", trace, "--corrupt", corrupt]
            + small)
        where = "%s --corrupt %s" % (workload, corrupt)
        if code == 0 or result is not None:
            problems.append("%s: the gate accepted a corrupted answer" % where)
        else:
            reason = err.strip().splitlines()[-1]
            print("ok   %s rejected: %s" % (where, reason))
    for p in problems:
        print("FAIL " + p)
    print("self-check %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    args = sys.argv[1:]
    if not build():
        return 2
    if args == ["--self-check"]:
        return self_check()
    sys.stdout.flush()
    return subprocess.run(bench_args(args)).returncode


if __name__ == "__main__":
    sys.exit(main())
