#!/usr/bin/env python3
"""Tests of the plan-and-serve benchmark itself.

Run from the repository root:
    python3 -m unittest perfbench/test_perfbench.py

They check that the output checks are not vacuous (a corrupted requery
answer and one flipped bit in one served logit each make the run fail with
that check named), that every workload BENCHMARK.json lists passes every
check, that every metric it names is emitted with its unit on every
workload, and that a run in a directory without the
library sources exits nonzero without printing a result.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py: builds the benchmark binary)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "1"


def bench(workload, trace=0, *extra, seed=7):
    """Runs one workload; returns (exit code, parsed result or None, stderr)."""
    cmd = [str(run.build()), "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace),
           "--trace-out", str(run.BUILD / f"test-trace-{workload}.json"), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stderr


def failed_checks(stderr):
    return [l for l in stderr.splitlines() if l.startswith("CHECK FAILED: ")]


class MetricsEmitted(unittest.TestCase):
    def check_names(self, result, section):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    _, result, stderr = bench(w["name"], trace)
                    self.assertIsNotNone(result, stderr)
                    self.check_names(result, section)
                    if trace:
                        self.assertNotIn("trace ring dropped", "\n".join(failed_checks(stderr)))


class ChecksAreNotVacuous(unittest.TestCase):
    WORKLOAD = "nin-plan"

    def test_clean_run_passes_every_check(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, stderr = bench(w["name"])
                self.assertEqual(failed_checks(stderr), [])
                self.assertEqual(code, 0, stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_corrupted_plan_answer_fails(self):
        code, result, stderr = bench(self.WORKLOAD, 0, "--inject", "plan")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertTrue(any("requery answer equals the cold answer" in l
                            for l in failed_checks(stderr)), stderr)

    def test_flipped_logit_bit_fails(self):
        code, result, stderr = bench(self.WORKLOAD, 0, "--inject", "logit")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertTrue(any("sampled served rows equal the row run alone" in l
                            for l in failed_checks(stderr)), stderr)


class NoSourcesNoResult(unittest.TestCase):
    def test_exits_nonzero_without_library_sources(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(SPEC["command"] + ["--workload", "nin-plan", "--seed", "1",
                                                  "--seconds", SECONDS, "--trace", "0"],
                               cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
