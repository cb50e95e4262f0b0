#!/usr/bin/env python3
"""Build and run one workload of the vnoise benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --regen-golden

--all runs every workload untraced (end-to-end metrics) and traced
(per-layer metrics) and prints each run's report. The first call configures and builds perfbench/ (which compiles src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset. Every run
gets a fresh directory under <build>/runs for its result caches, kit
memo and span file. The last line of standard output is the JSON
result; the lines before it name every metric with its unit and sample
count, and the run's metadata (build type, flags, CPU, nproc, seed,
commit).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ["sweep_cold", "margin_cold", "serve_mixed", "fleet_mixed"]
RUN_TIMEOUT_S = 170

# Counts that must repeat exactly for a fixed seed (traced runs).
EXACT_COUNTS = [
    "runtime.executed",
    "measure.vmin_steps",
    "circuit.fact_misses",
    "service.stream_chunks",
    "router.forwarded",
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(REPO, path)


def build():
    """Configure once, then build; returns the vnbench binary path."""
    cmake_dir = os.path.join(build_dir(), "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "vnbench")


def commit():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def src_digest():
    """sha256 over src/: identifies the code when git is unavailable."""
    h = hashlib.sha256()
    root = os.path.join(REPO, "src")
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def validate(result, trace):
    """Problems with a result line; an empty list means it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    want = expected_metrics(trace)
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append("metric %s missing" % name)
    for name in sorted(set(got) - set(want)):
        problems.append("metric %s not declared in BENCHMARK.json" % name)
    for name, metric in got.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s has no finite value" % name)
        elif name in want and metric.get("unit") != want[name]:
            problems.append("metric %s unit %s, declared %s"
                            % (name, metric.get("unit"), want[name]))
        elif not trace and value == 0:
            problems.append("end-to-end metric %s is 0" % name)
    return problems


def run(binary, workload, seed, seconds, trace):
    """One run; returns (stdout text, parsed result) or exits nonzero."""
    run_dir = os.path.join(build_dir(), "runs",
                           "%s-s%d-t%d-%d" % (workload, seed, trace,
                                              os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ)
    env["VNOISE_OUT_DIR"] = run_dir
    env["VNOISE_CACHE_DIR"] = os.path.join(run_dir, "cache")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--run-dir", run_dir,
           "--golden", os.path.join(HERE, "golden.json"),
           "--commit", commit(), "--src-digest", src_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        sys.exit(1)
    finally:
        # Keep only the span file of a traced run; caches go.
        for entry in os.listdir(run_dir):
            if entry != "spans.jsonl":
                path = os.path.join(run_dir, entry)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)
        if not os.listdir(run_dir):
            os.rmdir(run_dir)
    if proc.returncode != 0:
        log("run.py: vnbench exited with %d" % proc.returncode)
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: no result line")
        sys.exit(1)
    problems = validate(result, trace)
    if problems:
        log(proc.stdout)
        for p in problems:
            log("run.py: " + p)
        sys.exit(1)
    return proc.stdout, result


def self_test(binary):
    """Every declared metric is emitted with its unit (validate() on each
    run), and the exact counts repeat for a fixed seed."""
    ok = True
    for workload in WORKLOADS:
        run(binary, workload, 7, 2, 0)
        _, first = run(binary, workload, 7, 2, 1)
        _, second = run(binary, workload, 7, 2, 1)
        for name in EXACT_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                log("self-test: %s %s differs across runs: %s vs %s"
                    % (workload, name, a, b))
                ok = False
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                log("self-test: %s run was not correct" % workload)
                ok = False
        log("self-test: %s %s" % (workload, "ok" if ok else "FAILED"))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--regen-golden", action="store_true",
                        help="recompute golden.json (only after a change "
                             "meant to alter simulated values)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("run.py: build failed: %s" % e)
        return 1

    if args.self_test:
        return self_test(binary)
    if args.regen_golden:
        run_dir = os.path.join(build_dir(), "runs", "golden")
        shutil.rmtree(run_dir, ignore_errors=True)
        rc = subprocess.run([binary, "--regen-golden",
                             os.path.join(HERE, "golden.json"),
                             "--run-dir", run_dir]).returncode
        shutil.rmtree(run_dir, ignore_errors=True)
        return rc
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.all:
        for workload in WORKLOADS:
            for trace in (0, 1):
                text, _ = run(binary, workload, args.seed, args.seconds, trace)
                print("== %s trace=%d" % (workload, trace))
                sys.stdout.write(text)
        return 0
    if args.workload is None:
        parser.error("--workload or --all is required")

    text, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
