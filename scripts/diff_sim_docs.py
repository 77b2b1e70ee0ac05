#!/usr/bin/env python3
"""Diffs the mbp_sim and mbp_sweep documents of two builds over a
directory of traces.

Runs BUILD_A/src/tools/mbp_sim and BUILD_B/src/tools/mbp_sim with the
same arguments on every regular file of TRACE_DIR, and both builds'
src/tools/mbp_sweep over all of them, and compares what they print,
modulo the keys that time the run (simulation_time,
branches_per_second, prefetch_stall_seconds, trace_load_seconds and
wall_time_seconds, at any depth). The runs cover:

  - every predictor x {default, --in-memory, --no-fused, --streaming}
    x every warm-up/limit window;
  - every `compare` pair in the same modes and windows;
  - every predictor with --frontend, in the same modes and windows, with
    the default front end and with a small non-default one
    (FRONTEND_SPECS);
  - one sweep of every predictor over every trace on one worker, in
    --in-memory and --streaming, each plain and with each of
    FRONTEND_SPECS.

The predictors are the whole roster, as BUILD_A's `mbp_sim list` names
it; the two builds must list the same names. The `compare` pairs are
neighbours in that list (compare_pairs), so every predictor runs in
one. The windows (WINDOWS) are the whole trace, a warm-up ending
mid-trace and two limits that cut it, the second long enough to cross
several of TAGE's useful resets on a trace of a million conditional
branches.

A run's exit code is compared too, so a run both builds reject matches
only when both reject it with the same output; a build's own tool path
in that output is read as the tool's plain name.

Usage: diff_sim_docs.py BUILD_A BUILD_B TRACE_DIR

Exit status: 0 when every document matches, 1 when any differs or the
builds list different predictors, 2 on a usage error (a missing mbp_sim,
mbp_sweep or trace directory, no traces, or an mbp_sim whose `list`
fails).
"""

import argparse
import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys

TIMING_KEYS = frozenset({
    "simulation_time",
    "branches_per_second",
    "prefetch_stall_seconds",
    "trace_load_seconds",
    "wall_time_seconds",
})
MODES = ["", "--in-memory", "--no-fused", "--streaming"]
# mbp_sim's [warmup_instr] [sim_instr] tail of each window.
WINDOWS = [[], ["1000000"], ["200000", "1500000"], ["500000", "5000000"]]
# The --frontend flags: the default front end, and a small one with every
# non-default policy, so that its BTB, RAS and indirect table overflow.
FRONTEND_SPECS = [
    "--frontend",
    "--frontend=btb-sets=16,btb-ways=3,btb-banks=2,btb-tag=6,btb-repl=fifo,"
    "ras=4,ras-overflow=discard,ras-underflow=reuse,"
    "ind-bits=5,ind-tag=4,ind-hist=7,corrupt=on",
]


def strip_timing(value):
    """@p value without TIMING_KEYS, at any depth."""
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items()
                if k not in TIMING_KEYS}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def first_difference(a, b, path=""):
    """The path of the first place @p a and @p b differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return f"{path}/{key}"
            found = first_difference(a[key], b[key], f"{path}/{key}")
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} != {len(b)})"
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        return None
    return None if a == b else (path or "/")


def run(build, tool, args):
    """(exit code, document modulo timing keys, or raw output) of
    @p build's @p tool.

    The tools name themselves by their path in usage and rejection
    messages; the raw output reads that path as the tool's name, so
    that both builds rejecting a run the same way match.
    """
    binary = str(build / "src" / "tools" / tool)
    proc = subprocess.run([binary] + args, capture_output=True,
                          text=True, check=False)
    try:
        doc = strip_timing(json.loads(proc.stdout))
    except json.JSONDecodeError:
        doc = (proc.stdout + proc.stderr).replace(binary, tool)
    return proc.returncode, doc


def roster(sim):
    """The predictor names @p sim lists, or None when `list` fails."""
    proc = subprocess.run([str(sim), "list"], capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        return None
    return proc.stdout.split()


def compare_pairs(predictors):
    """Neighbouring pairs of @p predictors, the last paired with the
    first when their number is odd, so that each is in one pair."""
    return list(zip(predictors[0::2], predictors[1::2] + predictors[:1]))


def runs(traces, predictors):
    """Every (tool, argument list) to run on both builds."""
    pairs = compare_pairs(predictors)
    for trace in traces:
        for mode in MODES:
            flags = [mode] if mode else []
            for window in WINDOWS:
                for predictor in predictors:
                    yield "mbp_sim", flags + [predictor, str(trace)] + window
                for a, b in pairs:
                    yield "mbp_sim", (flags + ["compare", a, b, str(trace)]
                                      + window)
                for spec in FRONTEND_SPECS:
                    for predictor in predictors:
                        yield "mbp_sim", (flags + [spec, predictor,
                                                   str(trace)] + window)
    sweep = ["--jobs", "1", "--no-arena-cache",
             "--predictors", ",".join(predictors),
             "--traces", ",".join(str(trace) for trace in traces)]
    for mode in ["--in-memory", "--streaming"]:
        for spec in [[]] + [[spec] for spec in FRONTEND_SPECS]:
            yield "mbp_sweep", sweep + [mode] + spec


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("build_a", type=pathlib.Path)
    parser.add_argument("build_b", type=pathlib.Path)
    parser.add_argument("trace_dir", type=pathlib.Path)
    args = parser.parse_args(argv)

    builds = [args.build_a, args.build_b]
    for build in builds:
        for tool in ("mbp_sim", "mbp_sweep"):
            if not (build / "src" / "tools" / tool).is_file():
                parser.error(f"no {tool} in {build}/src/tools")
    sims = [build / "src" / "tools" / "mbp_sim" for build in builds]
    if not args.trace_dir.is_dir():
        parser.error(f"{args.trace_dir} is not a directory")
    traces = sorted(p for p in args.trace_dir.iterdir()
                    if p.is_file() and not p.name.startswith("."))
    if not traces:
        parser.error(f"no traces in {args.trace_dir}")

    rosters = [roster(sim) for sim in sims]
    for sim, names in zip(sims, rosters):
        if names is None:
            parser.error(f"{sim} list failed")
    if set(rosters[0]) != set(rosters[1]):
        only_a = sorted(set(rosters[0]) - set(rosters[1]))
        only_b = sorted(set(rosters[1]) - set(rosters[0]))
        print(f"the builds list different predictors: only in A "
              f"{only_a}, only in B {only_b}")
        return 1

    all_runs = list(runs(traces, rosters[0]))

    def both(tool_args):
        return [run(build, *tool_args) for build in builds]

    differing = 0
    with concurrent.futures.ThreadPoolExecutor(os.cpu_count()) as pool:
        for (tool, run_args), (a, b) in zip(all_runs,
                                            pool.map(both, all_runs)):
            if a == b:
                continue
            differing += 1
            where = ("exit code" if a[0] != b[0] else
                     first_difference(a[1], b[1]) or "output")
            print(f"DIFF {tool} {' '.join(run_args)}: {where}")
    print(f"{len(all_runs)} runs over {len(traces)} traces, "
          f"{differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
