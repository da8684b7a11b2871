#!/usr/bin/env python3
"""Tests for the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds perfbench (as run.py does) and runs short invocations of it: about a
minute on four cores.
"""

import json
import pathlib
import re
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_py(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=HERE.parent, timeout=run.RUN_TIMEOUT_S * 2)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def report(self, workload, seed):
        code, rep = run.run_once(self.exe, workload, seed, 1, False)
        self.assertEqual(code, 0, rep["checks"])
        return rep

    def test_declared_metric_names_and_units(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertLessEqual(len(m["name"]), 64)
            self.assertTrue(m["unit"], m["name"])
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["paper_layouts", "fleet_zipf", "fleet_churn_100k"])

    def test_reported_metrics_match_the_declaration(self):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, out = run_py("fleet_zipf", 3, trace)
            self.assertEqual(code, 0)
            self.assertTrue(out["correct"])
            self.assertEqual(
                {k: v["unit"] for k, v in out["metrics"].items()},
                {m["name"]: m["unit"] for m in declared})
            for k, v in out["metrics"].items():
                self.assertIsInstance(v["value"], (int, float), k)
                if trace == 0:
                    self.assertNotEqual(v["value"], 0, k)

    def test_same_seed_gives_identical_modeled_metrics(self):
        for workload in ("paper_layouts", "fleet_zipf"):
            a = self.report(workload, 5)["modeled"]
            b = self.report(workload, 5)["modeled"]
            self.assertEqual(a, b, workload)

    def test_seed_changes_the_fleet_sample_digest(self):
        a = self.report("fleet_zipf", 1)["modeled"]["fleet_digest"]
        b = self.report("fleet_zipf", 2)["modeled"]["fleet_digest"]
        self.assertNotEqual(a, b)

    def test_unknown_workload_is_refused(self):
        p = subprocess.run([str(self.exe), "--workload", "nope", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, b"")


if __name__ == "__main__":
    unittest.main()
