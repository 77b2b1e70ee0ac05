#!/usr/bin/env python3
"""Script-level tests for check_bench_regression.py's exit codes.

Runs the guard on small hand-built BENCH_kernels.json pairs and checks
that speeds are compared only between artifacts of the same host: a
baseline from another host skips (77) unless a misprediction count
differs, which fails (1) on any host.

Usage: test_check_bench_regression.py
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).with_name("check_bench_regression.py")

HOST = {
    "nproc": 4,
    "cpu_model": "Example CPU @ 2.00GHz",
    "compiler": "gcc 12.2.0",
    "build_type": "Release",
    "sanitizers": "",
}

BASELINE = {
    "fingerprint": HOST,
    "rows": [
        {
            "predictor": "bimodal",
            "collect_most_failed": True,
            "speedup": 4.0,
            "mispredictions": 1000,
        }
    ],
    "checks_passed": True,
}


def artifact(speedup=4.0, mispredictions=1000, host=HOST):
    doc = copy.deepcopy(BASELINE)
    doc["rows"][0]["speedup"] = speedup
    doc["rows"][0]["mispredictions"] = mispredictions
    if host is None:
        del doc["fingerprint"]
    else:
        doc["fingerprint"] = host
    return doc


class HostFingerprintTest(unittest.TestCase):
    def guard(self, fresh):
        """Exit code of the guard on BASELINE against @p fresh."""
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = pathlib.Path(tmp, "baselines")
            fresh_dir = pathlib.Path(tmp, "fresh")
            base_dir.mkdir()
            fresh_dir.mkdir()
            (base_dir / "BENCH_kernels.json").write_text(json.dumps(BASELINE))
            (fresh_dir / "BENCH_kernels.json").write_text(json.dumps(fresh))
            run = subprocess.run(
                [sys.executable, str(SCRIPT), str(base_dir), str(fresh_dir)],
                capture_output=True,
                text=True,
            )
            return run.returncode

    def test_same_host_within_tolerance_passes(self):
        self.assertEqual(self.guard(artifact(speedup=3.9)), 0)

    def test_same_host_slow_row_fails(self):
        self.assertEqual(self.guard(artifact(speedup=2.0)), 1)

    def test_other_host_skips_the_speed_check(self):
        other = dict(HOST, cpu_model="Another CPU")
        self.assertEqual(self.guard(artifact(speedup=2.0, host=other)), 77)

    def test_other_build_type_skips_too(self):
        other = dict(HOST, build_type="Debug")
        self.assertEqual(self.guard(artifact(host=other)), 77)

    def test_missing_fingerprint_skips(self):
        self.assertEqual(self.guard(artifact(host=None)), 77)

    def test_other_host_still_checks_mispredictions(self):
        other = dict(HOST, nproc=64)
        fresh = artifact(mispredictions=1001, host=other)
        self.assertEqual(self.guard(fresh), 1)


if __name__ == "__main__":
    unittest.main()
