#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload arena-tage --seed 7 --trace 0

Run from the root of the source tree. The first run configures and builds
perfbench/CMakeLists.txt (which pulls in the library) under .bench_build/;
later runs only re-check the build. The benchmark's last stdout line is
the result object; its exit code is passed through (0 = every cell
correct, 1 = a cell failed, 2 = usage, build or set-up error). See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "mbp_perfbench")
WORKLOADS = ("stream-virtual", "arena-tage", "arena-cheap", "mapped-frontend")
# Hard stop below the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Configures once and builds the benchmark target; logs go to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(
            os.path.exists(os.path.join(CMAKE_DIR, f))
            for f in ("build.ninja", "Makefile"))
        if not configured:
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", CMAKE_DIR, "--target", "mbp_perfbench",
             "-j", "4"],
            stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out-seed", type=int,
        help="the seed kept out of tuning; recorded here so that "
             "BENCHMARK.json carries it, and not otherwise used")
    parser.add_argument(
        "--plant",
        choices=("wrong-reference", "truncated-trace", "missing-trace"),
        help="break the run on purpose (the benchmark's own tests)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=BUILD)
    env = dict(os.environ, TMPDIR=work)
    env.pop("MBP_ARENA_CACHE", None)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--reference", os.path.join(HERE, "reference.json"),
           "--results", os.path.join(BUILD, "results")]
    if args.plant:
        cmd += ["--plant", args.plant]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 2
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    # SIGTERM unwinds through main's finally, which stops the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
