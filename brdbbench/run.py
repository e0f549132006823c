#!/usr/bin/env python3
"""Build and run the blockchain relational database benchmark.

Usage, from the root of a source tree:

    python3 brdbbench/run.py --workload oe-simple-tcp --seed 1 --seconds 10 --trace 0
    python3 brdbbench/run.py --selftest

The first call configures and builds brdbbench/ (which compiles src/) into
.bench_build/brdbbench. Each run gets a fresh directory under
.bench_build/runs for its file-backed ledgers, removed when the run ends; a
traced run's spans are kept in .bench_build/spans/<workload>-seed<N>.jsonl.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the metrics
BENCHMARK.json declares (end_to_end with --trace 0, per_layer with
--trace 1). A failed build, a failed correctness gate or a declared metric
that was not measured exits non-zero without printing a result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "brdbbench")
WORKLOADS = ("oe-simple-tcp", "eop-join", "htap-orders")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; build output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "node.h")):
        log("brdbbench: no system sources under %s/src" % ROOT)
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("brdbbench: build step failed: %s" % " ".join(cmd))
                return False
    # Flush what the build wrote, so its write-back does not land on the
    # measured run's fsyncs.
    os.sync()
    return True


def source_rev():
    """The git commit when there is one, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def select_result(measured, trace):
    """The result with exactly the metrics BENCHMARK.json declares for this
    mode, and the problems found on the way."""
    problems = []
    if set(measured) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(measured))
    if measured.get("correct") is not True:
        problems.append("result is not marked correct")
    if not isinstance(measured.get("attempted"), int) or measured["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(measured.get("failed"), int) or measured["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = {}
    for name, unit in declared_metrics(trace):
        m = measured.get("metrics", {}).get(name)
        if m is None or not isinstance(m.get("value"), (int, float)):
            problems.append("%s was not measured" % name)
        elif m.get("unit") != unit:
            problems.append("%s has unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), unit))
        else:
            metrics[name] = m
    result = {"correct": measured.get("correct"),
              "attempted": measured.get("attempted"),
              "failed": measured.get("failed"), "metrics": metrics}
    return result, problems


def run(args):
    if not build():
        return 1
    exe = os.path.join(BUILD_DIR, "brdbbench")
    work = os.path.join(BUILD_ROOT, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--source-rev", source_rev()]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("brdbbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            kept = os.path.join(BUILD_ROOT, "spans", "%s-seed%d.jsonl" % (
                args.workload, args.seed))
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            shutil.move(spans, kept)
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        log("brdbbench: %s exited with %d" % (args.workload, proc.returncode))
        return 1
    try:
        measured = json.loads(lines[-1])
    except ValueError:
        log("brdbbench: the last output line is not a JSON result")
        return 1
    result, problems = select_result(measured, args.trace == 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print("# wall_s: %.1f" % (time.time() - started))
    if problems:
        for p in problems:
            log("brdbbench: " + p)
        return 1
    print(json.dumps(result), flush=True)
    return 0


def selftest():
    if not build():
        return 1
    return subprocess.run([os.path.join(BUILD_DIR, "brdbbench_selftest")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
