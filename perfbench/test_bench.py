#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Each test runs the benchmark briefly (about a minute in all, plus the
first build): a planted wrong reference count must fail the run; a
truncated or missing trace must become failed cells, not a crash; the
traced run must emit a span for every layer and every per-layer metric;
the benchmark must refuse to run outside its source tree; compare.py must
refuse results from different hosts or sanitized builds.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build")

# The spans a traced run must record: one per layer call of the README's
# layer table.
LAYER_SPANS = {
    "tracegen.generate", "compress.openInput", "compress.PrefetchSource",
    "sbbt.SbbtReader", "sbbt.MemTrace::load", "sbbt.MemTrace::writeArena",
    "sbbt.ArenaStore::acquire", "sim.simulate", "predictors.fusedRunner",
    "frontend.simulate", "sweep.run", "json.json_t::dump", "json.write",
}


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, *extra, seed="1", seconds="0.5", trace="0", cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", seed, "--seconds", seconds,
         "--trace", trace, *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    result_file = None
    for line in lines:
        if line.strip().startswith("result: "):
            result_file = line.strip()[len("result: "):]
    return proc, result, result_file


class PlantedFaults(unittest.TestCase):
    def assert_failed_cells(self, proc, result):
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIsNotNone(result, "no result line")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["correct_share"]["value"], 1.0)

    def test_wrong_reference_fails_the_run(self):
        proc, result, _ = run("arena-cheap", "--plant", "wrong-reference")
        self.assert_failed_cells(proc, result)
        # Only the planted (predictor, trace) cell is wrong in each pass.
        passes = result["attempted"] // 12
        self.assertEqual(result["failed"], passes)

    def test_truncated_trace_is_a_failed_cell(self):
        proc, result, _ = run("mapped-frontend", "--plant",
                              "truncated-trace")
        self.assert_failed_cells(proc, result)

    def test_missing_trace_is_a_failed_cell(self):
        proc, result, _ = run("stream-virtual", "--plant", "missing-trace")
        self.assert_failed_cells(proc, result)


class Outputs(unittest.TestCase):
    def test_untraced_run_prints_every_end_to_end_metric(self):
        proc, result, result_file = run("mapped-frontend")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        want = {m["name"]: m["unit"] for m in bench()["end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        self.assertTrue(result["correct"])
        with open(result_file) as f:
            doc = json.load(f)
        for key in ("nproc", "cpu_model", "compiler", "build_type",
                    "sanitizers"):
            self.assertIn(key, doc["fingerprint"])
        passes = doc["samples"]["pass_s"]
        self.assertGreaterEqual(passes["count"], 5)
        self.assertLessEqual(passes["q1"], passes["median"])
        self.assertLessEqual(passes["median"], passes["q3"])
        # Every timed pass sits between two calibration rounds, and the
        # memory probe's peak is the reported one.
        for key in ("calibration_s", "host_scale", "raw_branches_per_s",
                    "branches_per_s"):
            self.assertEqual(doc["samples"][key]["count"], passes["count"])
        self.assertGreater(doc["samples"]["host_scale"]["median"], 0)
        self.assertAlmostEqual(doc["peak_rss"]["probe_mb"],
                               result["metrics"]["peak_rss_mb"]["value"],
                               places=3)

    def test_traced_run_spans_every_layer(self):
        want = {m["name"]: m["unit"] for m in bench()["per_layer"]}
        for w in bench()["workloads"]:
            with self.subTest(workload=w["name"]):
                # A seed without stored counts: every probe is checked
                # against a freshly computed reference.
                proc, result, result_file = run(w["name"], seed="2",
                                                seconds="1", trace="1")
                self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                self.assertTrue(result["correct"])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                with open(result_file) as f:
                    spans = {s["name"] for s in json.load(f)["spans"]}
                self.assertEqual(LAYER_SPANS - spans, set())

    def test_refuses_to_run_outside_the_source_tree(self):
        os.makedirs(SCRATCH, exist_ok=True)
        lone = tempfile.mkdtemp(prefix="lone-", dir=SCRATCH)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result, _ = run("arena-cheap", cwd=lone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


class Compare(unittest.TestCase):
    def compare(self, base_fp, new_fp):
        os.makedirs(SCRATCH, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="compare-", dir=SCRATCH)
        try:
            paths = []
            for i, fp in enumerate((base_fp, new_fp)):
                doc = {"workload": "arena-tage", "trace": False,
                       "fingerprint": fp,
                       "metrics": {m["name"]: {"value": 1.0,
                                               "unit": m["unit"]}
                                   for m in bench()["end_to_end"]}}
                paths.append(os.path.join(tmp, f"{i}.json"))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            return subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"),
                 "--base", paths[0], "--new", paths[1]],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE).returncode
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    FP = {"nproc": 4, "cpu_model": "cpu", "compiler": "gcc 12",
          "build_type": "Release", "sanitizers": ""}

    def test_same_host_compares(self):
        self.assertEqual(self.compare(self.FP, dict(self.FP)), 0)

    def test_refuses_other_host(self):
        self.assertEqual(self.compare(self.FP, dict(self.FP, nproc=1)), 2)

    def test_refuses_sanitized_build(self):
        self.assertEqual(
            self.compare(self.FP, dict(self.FP, sanitizers="address")), 2)


if __name__ == "__main__":
    unittest.main()
