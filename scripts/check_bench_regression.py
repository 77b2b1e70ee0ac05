#!/usr/bin/env python3
"""Compare fresh bench artifacts against committed baselines.

Usage: check_bench_regression.py BASELINE_DIR FRESH_DIR [--tolerance T]

For every ``BENCH_*.json`` in BASELINE_DIR the same-named fresh artifact
(written by the bench-smoke ctest tier into the build directory) is
checked on two axes:

* **Functional invariants are exact**: misprediction counts are
  deterministic replays, so any difference is a correctness regression,
  never noise.
* **Speedups are bounded, not pinned**: a fresh speedup may not fall
  below ``tolerance`` (default 0.85) times the committed baseline. The
  committed numbers come from an idle CI-sized machine; the slack
  absorbs scheduler noise while still catching a real fast-path
  regression (the fused kernels sit at 2x+, so a 15% ratio drop is a
  code change, not weather). The arena artifact's single cold-vs-warm
  wall-clock ratio is far noisier than the kernels' rows (each the
  median ratio of at least 9 adjacent virtual/fused run pairs, timed in
  thread CPU time), so it uses the wider ``ARENA_SPEEDUP_TOLERANCE``
  floor instead.
* **Speeds compare only on the same host**: every artifact records the
  host and build it ran on (its ``fingerprint``: nproc, CPU model,
  compiler, build type, sanitizers). When the baseline's fingerprint
  differs from the fresh artifact's, or either lacks one, the speed
  checks are skipped; the misprediction checks still run.

Exit codes: 0 all checks pass, 1 regression, 77 skip (fresh artifacts or
baselines absent — e.g. the benches were not built or not yet run — or
a baseline recorded on another host, with no functional regression).
"""

import argparse
import json
import pathlib
import sys

SKIP = 77

# The arena artifact's speedup is one cold-decode / warm-map wall-clock
# pair, not a median of paired throughput ratios like the kernels rows,
# so it swings hard when the suite runs ctest-parallel alongside it. The
# guard exists to catch the sidecar no longer serving the warm path by
# mapping (which collapses the ratio to ~1x), so it gets its own wide
# floor instead of the kernels tolerance.
ARENA_SPEEDUP_TOLERANCE = 0.5

# The fingerprint fields that must match for speeds to be comparable.
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "sanitizers")


def host_of(artifact):
    """The artifact's host identity, or None when it records none."""
    fingerprint = artifact.get("fingerprint")
    if not isinstance(fingerprint, dict):
        return None
    return tuple(fingerprint.get(key) for key in HOST_KEYS)


def fail(messages, text):
    messages.append(text)


def check_kernels(base, fresh, tolerance, messages, same_host):
    """BENCH_kernels.json: rows keyed by (predictor, collect flag)."""
    fresh_rows = {
        (r["predictor"], r["collect_most_failed"]): r
        for r in fresh.get("rows", [])
    }
    for row in base.get("rows", []):
        key = (row["predictor"], row["collect_most_failed"])
        got = fresh_rows.get(key)
        label = "kernels %s collect=%d" % (key[0], key[1])
        if got is None:
            fail(messages, "%s: row missing from fresh artifact" % label)
            continue
        if got["mispredictions"] != row["mispredictions"]:
            fail(
                messages,
                "%s: mispredictions %d != baseline %d"
                % (label, got["mispredictions"], row["mispredictions"]),
            )
        floor = tolerance * row["speedup"]
        if same_host and got["speedup"] < floor:
            fail(
                messages,
                "%s: speedup %.2fx below %.2fx (%.0f%% of baseline %.2fx)"
                % (
                    label,
                    got["speedup"],
                    floor,
                    100 * tolerance,
                    row["speedup"],
                ),
            )
    if not fresh.get("checks_passed", False):
        fail(messages, "kernels: fresh artifact has checks_passed false")


def check_arena(base, fresh, tolerance, messages, same_host):
    """BENCH_arena.json: one global speedup + per-predictor counts."""
    fresh_counts = {
        p["predictor"]: p["mispredictions"]
        for p in fresh.get("predictors", [])
    }
    for entry in base.get("predictors", []):
        name = entry["predictor"]
        if name not in fresh_counts:
            fail(messages, "arena %s: missing from fresh artifact" % name)
        elif fresh_counts[name] != entry["mispredictions"]:
            fail(
                messages,
                "arena %s: mispredictions %d != baseline %d"
                % (name, fresh_counts[name], entry["mispredictions"]),
            )
    del tolerance  # the arena ratio uses its own floor; see module docstring
    floor = ARENA_SPEEDUP_TOLERANCE * base["speedup"]
    if same_host and fresh["speedup"] < floor:
        fail(
            messages,
            "arena: map-vs-decode speedup %.2fx below %.2fx"
            % (fresh["speedup"], floor),
        )
    if not fresh.get("checks_passed", False):
        fail(messages, "arena: fresh artifact has checks_passed false")


CHECKERS = {
    "BENCH_kernels.json": check_kernels,
    "BENCH_arena.json": check_arena,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir", type=pathlib.Path)
    parser.add_argument("fresh_dir", type=pathlib.Path)
    parser.add_argument("--tolerance", type=float, default=0.85)
    args = parser.parse_args()

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print("skip: no baselines under %s" % args.baseline_dir)
        return SKIP

    messages = []
    compared = 0
    other_host = 0
    for baseline_path in baselines:
        checker = CHECKERS.get(baseline_path.name)
        if checker is None:
            print("skip: no checker for %s" % baseline_path.name)
            continue
        fresh_path = args.fresh_dir / baseline_path.name
        if not fresh_path.exists():
            print("skip: %s not present (bench not run?)" % fresh_path)
            continue
        with open(baseline_path) as f:
            base = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
        same_host = host_of(base) is not None and host_of(base) == host_of(
            fresh
        )
        checker(base, fresh, args.tolerance, messages, same_host)
        compared += 1
        if same_host:
            print("compared %s against baseline" % baseline_path.name)
        else:
            other_host += 1
            print(
                "%s: baseline host %s differs from fresh host %s; "
                "checked mispredictions only"
                % (baseline_path.name, host_of(base), host_of(fresh))
            )

    if compared == 0:
        print("skip: no fresh artifacts to compare")
        return SKIP
    for text in messages:
        print("REGRESSION: %s" % text)
    if messages:
        return 1
    if other_host:
        print("skip: %d artifact(s) from another host" % other_host)
        return SKIP
    print("ok: %d artifact(s) within tolerance" % compared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
