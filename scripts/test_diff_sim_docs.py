#!/usr/bin/env python3
"""Script-level tests for diff_sim_docs.py's exit codes.

Builds two fake build directories whose src/tools/mbp_sim answers
`list` with a fixed roster and prints a fixed document, or rejects every
run naming itself by its path, and whose src/tools/mbp_sweep does the
same (it is the same fake), and checks that documents differing only
in timing keys match (0), that a differing misprediction count is
reported (1), that both builds rejecting a run the same way match (0),
that builds listing different predictors differ (1), and that a missing
binary is a usage error (2).

Usage: test_diff_sim_docs.py
"""

import copy
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).with_name("diff_sim_docs.py")

DOC = {
    "metadata": {"trace": "t.sbbt.flz", "predictor": {"name": "TAGE"}},
    "metrics": {
        "mispredictions": 889,
        "dynamic_branches": 13574,
        "simulation_time": 0.25,
        "branches_per_second": 54296.0,
        "prefetch_stall_seconds": 0.01,
        "trace_load_seconds": 0.0,
    },
    "predictor_statistics": {"allocations": 921},
    "aggregate": {"wall_time_seconds": 1.5},
}

ROSTER = ["tage", "batage", "gshare"]

# Answers `list` with roster.txt beside it; otherwise prints doc.json
# beside it, or, without one, rejects the run the way mbp_sim rejects
# an unknown predictor.
FAKE_SIM = """#!{python}
import pathlib, sys
here = pathlib.Path(__file__).parent
if sys.argv[1:] == ["list"]:
    sys.stdout.write((here / "roster.txt").read_text())
    sys.exit(0)
doc = here / "doc.json"
if not doc.is_file():
    sys.exit(f"unknown predictor (try '{{sys.argv[0]}} list')")
sys.stdout.write(doc.read_text())
"""


class DiffSimDocsTest(unittest.TestCase):
    def diff(self, doc_a, doc_b, with_sim_b=True, roster_b=ROSTER):
        """Exit code and output of the script on fake builds printing
        the docs (None: rejecting every run), build B listing
        @p roster_b."""
        with tempfile.TemporaryDirectory() as tmp:
            builds = []
            for name, doc, names in (("a", doc_a, ROSTER),
                                     ("b", doc_b, roster_b)):
                tools = pathlib.Path(tmp, name, "src", "tools")
                tools.mkdir(parents=True)
                builds.append(str(tools.parent.parent))
                if name == "b" and not with_sim_b:
                    continue
                for tool in ("mbp_sim", "mbp_sweep"):
                    fake = tools / tool
                    fake.write_text(FAKE_SIM.format(python=sys.executable))
                    os.chmod(fake, 0o755)
                (tools / "roster.txt").write_text("\n".join(names) + "\n")
                if doc is not None:
                    (tools / "doc.json").write_text(json.dumps(doc))
            traces = pathlib.Path(tmp, "traces")
            traces.mkdir()
            (traces / "t.sbbt.flz").write_bytes(b"")
            proc = subprocess.run(
                [sys.executable, str(SCRIPT), *builds, str(traces)],
                capture_output=True, text=True, check=False)
            return proc.returncode, proc.stdout

    def test_timing_keys_only_match(self):
        other = copy.deepcopy(DOC)
        other["metrics"]["simulation_time"] = 9.5
        other["metrics"]["branches_per_second"] = 1.0
        other["metrics"]["prefetch_stall_seconds"] = 3.0
        other["metrics"]["trace_load_seconds"] = 2.0
        other["aggregate"]["wall_time_seconds"] = 7.0
        code, out = self.diff(DOC, other)
        self.assertEqual(code, 0, out)
        self.assertIn("0 differ", out)

    def test_mispredictions_differ(self):
        other = copy.deepcopy(DOC)
        other["metrics"]["mispredictions"] += 1
        code, out = self.diff(DOC, other)
        self.assertEqual(code, 1, out)
        self.assertIn("/metrics/mispredictions", out)

    def test_the_same_rejection_matches(self):
        code, out = self.diff(None, None)
        self.assertEqual(code, 0, out)
        self.assertIn("0 differ", out)

    def test_every_listed_predictor_runs(self):
        code, out = self.diff(DOC, DOC)
        self.assertEqual(code, 0, out)
        # Per trace, in each of 4 modes x 4 windows: 3 predictors, 2
        # compare pairs, and 3 predictors under each of 2 --frontend
        # specs; then 2 sweep modes x {plain, 2 --frontend specs}.
        self.assertIn(f"{4 * 4 * (3 + 2 + 2 * 3) + 2 * 3} runs", out)

    def test_different_rosters_differ(self):
        code, out = self.diff(DOC, DOC, roster_b=["tage", "perceptron"])
        self.assertEqual(code, 1, out)
        self.assertIn("list different predictors", out)
        self.assertIn("perceptron", out)

    def test_missing_binary_is_a_usage_error(self):
        code, _ = self.diff(DOC, DOC, with_sim_b=False)
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
