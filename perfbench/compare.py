#!/usr/bin/env python3
"""Compares benchmark result files of two commits, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Result files are the ones run.py leaves under .bench_build/results/. All
files must come from one workload, from untraced runs, from the same host
and build (the fingerprint: nproc, CPU model, compiler, build type) and
from builds without sanitizers; otherwise the comparison is refused.
For each end-to-end metric it prints both medians and quartiles and flags
a regression when the new median is worse than the base median by more
than the metric's bound in BENCHMARK.json.

Exit 0 = no regression, 1 = regression, 2 = refused.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def refuse(why):
    print(f"compare: refused: {why}", file=sys.stderr)
    sys.exit(2)


def load(paths):
    results = []
    for path in paths:
        with open(path) as f:
            results.append((path, json.load(f)))
    return results


def check_comparable(results):
    first_path, first = results[0]
    host = {k: first["fingerprint"].get(k) for k in HOST_KEYS}
    for path, r in results:
        fp = r["fingerprint"]
        if fp.get("sanitizers"):
            refuse(f"{path} comes from a sanitized build "
                   f"({fp['sanitizers']})")
        if r.get("trace"):
            refuse(f"{path} is a traced run; compare untraced runs")
        if r["workload"] != first["workload"]:
            refuse(f"{path} is workload {r['workload']}, "
                   f"{first_path} is {first['workload']}")
        other = {k: fp.get(k) for k in HOST_KEYS}
        if other != host:
            refuse(f"{path} ran on another host or build: {other} vs {host}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(args.base), load(args.new)
    check_comparable(base + new)

    regressed = False
    for m in metrics:
        name, bound = m["name"], m["bound"]
        b = [r["metrics"][name]["value"] for _, r in base]
        n = [r["metrics"][name]["value"] for _, r in new]
        bm, nm = statistics.median(b), statistics.median(n)
        change = (nm - bm) / bm if bm else 0.0
        worse = -change if m["better"] == "higher" else change
        verdict = "REGRESSION" if worse > bound else "ok"
        regressed |= worse > bound
        bq, nq = quartiles(b), quartiles(n)
        print(f"{name:18s} base {bm:.6g} [{bq[0]:.6g}, {bq[1]:.6g}] n={len(b)}"
              f"  new {nm:.6g} [{nq[0]:.6g}, {nq[1]:.6g}] n={len(n)}"
              f"  change {change:+.2%} bound {bound:.0%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
