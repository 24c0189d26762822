#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload idps_clean --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e), results and traces to
.bench_out/. The bench's own "workload metric value unit" lines are
passed through; the last line printed is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json with --trace 0, or its
per_layer metrics with --trace 1. Exits non-zero, without that line,
when the build or the run fails; exits non-zero after printing it when
an output was wrong.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds bench_e2e; returns its path or None."""
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build_dir = target_dir / "e2e"
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(build_dir), "--target", "bench_e2e", "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return None
    return build_dir / "bench_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1

    binary = build()
    if binary is None:
        return 1

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    if result_path.exists():
        result_path.unlink()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out_dir), "--json", str(result_path)]
    try:
        done = subprocess.run(command, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"bench_e2e did not finish: {e}")
        return 1
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError) as e:
        log(f"bench_e2e (exit {done.returncode}) left no result: {e}")
        return 1

    metrics = {}
    correct = bool(result.get("correct")) and done.returncode == 0
    for entry in wanted:
        measured = result.get("metrics", {}).get(entry["name"])
        if measured is None or not math.isfinite(measured["value"]):
            log(f"metric {entry['name']} missing from the result")
            correct = False
            continue
        if measured["unit"] != entry["unit"]:
            log(f"metric {entry['name']} is in {measured['unit']}, not {entry['unit']}")
            correct = False
        metrics[entry["name"]] = {"value": measured["value"], "unit": entry["unit"]}
    for problem in result.get("problems", []):
        log(f"incorrect output: {problem}")
    print(json.dumps({"correct": correct, "attempted": int(result.get("attempted", 0)),
                      "failed": int(result.get("failed", 0)), "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
