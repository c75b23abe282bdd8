#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (library sources plus the C++ program in this directory) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Every run then

  1. primes the benchmark's own kernel disk cache with one untimed set-up,
  2. times set-up in SETUP_PROBES fresh processes and keeps the median,
  3. runs the workload (gates, timed closed loop) and relays its result.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The lines before it give every metric with its unit
and sample count, the host record and the gate outcomes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("resnet50", "gemmd_mixed")
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (always: cheap, and it notices new library sources) and
    builds the benchmark; returns the binary path or None."""
    cmake_dir = os.path.join(build_dir, "cmake")
    configure = ["cmake", "-S", HERE, "-B", cmake_dir]
    if (not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", cmake_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "perfbench")


def bench_env(build_dir):
    """The benchmark's isolated environment: every EXO_* knob of the caller
    is dropped (EXO_GEMM_PLAN_PRIOR included), and the kernel disk cache,
    the tuned-prior database and JIT scratch live in directories the
    benchmark owns, so plans come from the analytical model."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EXO_")}
    dirs = {
        "EXO_JIT_CACHE_DIR": os.path.join(build_dir, "kernel-cache"),
        "EXO_GEMM_PRIOR_DB": os.path.join(build_dir, "prior-db"),
        "TMPDIR": os.path.join(build_dir, "tmp"),
    }
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env.update(dirs)
    env.update({
        "EXO_GEMM_THREADS": "1",        # GEMM team size 1 everywhere
        "EXO_GEMM_GOVERNOR_MAX": "1",   # the daemon's governed Engine too
        "EXO_OBS_COUNTERS": "off",      # spans time only; no perf syscalls
    })
    return env


def run_binary(cmd, env):
    """Runs the benchmark program; returns (exit code, parsed last line)."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def required_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, when present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    if not binary:
        return 2
    env = bench_env(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            # Relative, so the daemon's socket path stays short.
            "--out", os.path.relpath(out_dir)]

    # Untimed priming set-up, then the set-up samples.
    setup = []
    for i in range(SETUP_PROBES + 1):
        rc, res = run_binary(base + ["--trace", "0", "--setup-only"], env)
        if rc or not res:
            log("set-up failed")
            return 2
        if i:
            setup.append(res["metrics"]["setup_s"]["value"])

    rc, res = run_binary(base + ["--trace", str(args.trace)], env)
    if not res:
        log(f"workload run failed (exit {rc})")
        return 2
    metrics = res["metrics"]
    if not args.trace:
        res["report"]["setup_s_main_process"] = metrics["setup_s"]["value"]
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s",
                              "samples": len(setup)}

    print("perfbench-report " + json.dumps(res["report"], sort_keys=True))
    for name, m in list(metrics.items()) + list(
            res["report"].get("extra_metrics", {}).items()):
        print(f"perfbench-metric {name} {m['value']:.6g} {m['unit']} "
              f"(n={m['samples']})")

    names = required_metrics(args.trace) or list(metrics)
    missing = [n for n in names if n not in metrics]
    if missing:
        log("metrics missing from the result: " + ", ".join(missing))
        return 2
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }))
    return 0 if rc == 0 and res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
