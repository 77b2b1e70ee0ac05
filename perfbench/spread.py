#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as acceptance measures it.

    python3 perfbench/spread.py --runs 10 --seconds 20 [--workload NAME ...]

For each workload, runs the benchmark once per seed (seeds 1..runs, one
after another, never in parallel) and prints, per end-to-end metric, the
median of the runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound from BENCHMARK.json. A spread under a third of its
bound is steady. Exits 1 if any run failed or any spread other than
setup_s's exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or result is None or not result["correct"]:
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics = run_once(workload, seed, args.seconds)
            if metrics is None:
                print(f"{workload}: seed {seed} failed")
                ok = False
                continue
            runs.append(metrics)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
            if spread > bound and name != "setup_s":
                ok = False
            print(f"  {workload:16s} {name:18s} median={med:<12.6g} "
                  f"spread={spread:.4f} bound={bound} {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
