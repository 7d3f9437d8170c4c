#!/usr/bin/env python3
"""Builds and runs the OMNC benchmark binary (perfbench) on one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper_det|mux64_warp|fig2_sim \
        [--seed N] [--seconds S] [--trace 0|1]

The binary is built from ../src with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) on first use.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (and
writes the run's spans next to the build).  The last stdout line is one JSON
object {correct, attempted, failed, metrics}; the exit status is nonzero on
any build or correctness failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def describe():
    """git describe of the checkout, confined to it; 'unknown' outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_result(result, wanted, end_to_end):
    """Validates the binary's result line against BENCHMARK.json."""
    problems = []
    if not isinstance(result.get("correct"), bool):
        problems.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"'{key}' is not an integer")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics", {})
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"metric {spec['name']} missing")
            continue
        value = got.get("value")
        if got.get("unit") != spec["unit"]:
            problems.append(f"metric {spec['name']} has unit {got.get('unit')}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {spec['name']} is not a finite number")
        elif end_to_end and value <= 0:
            problems.append(f"metric {spec['name']} measured nothing ({value})")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, PERFBENCH_DESCRIBE=describe())
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: no result line (exit {run.returncode})")
        return 1

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    problems = check_result(result, wanted, end_to_end=not args.trace)
    for problem in problems:
        print(f"ERROR: {problem}")
    correct = result.get("correct") is True and run.returncode == 0 and \
        not problems
    metrics = {m["name"]: result["metrics"][m["name"]] for m in wanted
               if m["name"] in result.get("metrics", {})}
    print(json.dumps({"correct": correct,
                      "attempted": result.get("attempted", 0),
                      "failed": result.get("failed", 0),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
