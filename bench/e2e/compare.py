#!/usr/bin/env python3
"""Compares two sets of untraced bench_e2e results against BENCHMARK.json.

    python3 bench/e2e/compare.py SET_A SET_B [--benchmark BENCHMARK.json]

A set is a directory (every result_*.json in it) or a quoted glob of
result files, e.g. 'runs/a/result_*.json'. For every workload and
end_to_end metric it
prints each side's median and quartiles (statistics.quantiles, n=4),
the change of B against A, and a verdict:

  agree       medians within the metric's bound
  worse       B worse than A by more than the bound
  better      B better than A by more than the bound
  unresolved  a side's quartile spread exceeds the bound (setup_s exempt)

Exits non-zero on any verdict other than agree, or on a result whose
outputs were incorrect.
"""
import argparse
import glob
import json
import statistics
import sys
from pathlib import Path


def load(pattern):
    """Untraced results of one set, grouped by workload."""
    path = Path(pattern)
    files = sorted(path.glob("result_*.json")) if path.is_dir() else sorted(
        Path(p) for p in glob.glob(pattern))
    runs = {}
    for f in files:
        result = json.loads(f.read_text())
        if result.get("trace"):
            continue
        runs.setdefault(result["workload"], []).append(result)
    if not runs:
        sys.exit(f"compare.py: no untraced results in {pattern}")
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    parser.add_argument("--benchmark", default=str(Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    args = parser.parse_args()
    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    a, b = load(args.set_a), load(args.set_b)

    failures = 0
    for side, runs in (("A", a), ("B", b)):
        for workload, results in runs.items():
            for r in results:
                if not r.get("correct"):
                    failures += 1
                    print(f"{side} {workload} seed {r.get('seed')}: incorrect: {r.get('problems')}")

    print(f"{'workload':14} {'metric':24} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30}"
          f" {'B vs A':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print(f"{workload:14} only in one set")
            failures += 1
            continue
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            sides = []
            for runs in (a[workload], b[workload]):
                values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                sides.append(summary(values) + (len(values),) if values else None)
            if None in sides:
                print(f"{workload:14} {name:24} missing")
                failures += 1
                continue
            (qa1, ma, qa3, na), (qb1, mb, qb3, nb) = sides
            change = (mb - ma) / ma if ma else 0.0
            worse = change if lower else -change
            spread = max((qa3 - qa1) / ma if ma else 0.0, (qb3 - qb1) / mb if mb else 0.0)
            if spread > bound and name != "setup_s":  # as the benchmark's acceptance rule
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "agree"
            failures += verdict != "agree"
            cell = lambda q1, med, q3, n: f"{med:.5g} [{q1:.4g}, {q3:.4g}] n={n}"
            print(f"{workload:14} {name:24} {cell(qa1, ma, qa3, na):>30} {cell(qb1, mb, qb3, nb):>30}"
                  f" {change:+8.1%} {bound:6.2f}  {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
