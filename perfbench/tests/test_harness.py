#!/usr/bin/env python3
"""Self-test of the perfbench harness at toy size (well under a minute).

    python3 perfbench/tests/test_harness.py     # from the repository root

Runs every workload of run.py untraced and traced with
--scale tiny and checks the result line against the declaration: every
declared metric is emitted for its mode, with the declared unit and a
well-formed name, and nothing undeclared is emitted.  Also checks that
run.py refuses to run outside a source checkout, and compare.py's
verdicts and host check.
"""

import json
import math
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".bench_build" / "selftest"
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402


def bench(workload, trace, cwd=ROOT):
    OUT.mkdir(parents=True, exist_ok=True)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
         "--out", str(OUT / f"{workload}-{trace}.json")],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class DeclaredMetrics(unittest.TestCase):
    def check_mode(self, trace):
        declared = {m["name"]: m["unit"]
                    for m in SPEC["per_layer" if trace else "end_to_end"]}
        for wl in run.WORKLOADS:
            with self.subTest(workload=wl, trace=trace):
                r = bench(wl, trace)
                self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                result = json.loads(r.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(declared))
                for name, m in result["metrics"].items():
                    self.assertRegex(name, NAME)
                    self.assertEqual(m["unit"], declared[name], name)
                    self.assertTrue(math.isfinite(m["value"]), name)
                record = json.loads((OUT / f"{wl}-{trace}.json").read_text())
                for key in ("host", "compiler", "build_type", "git_describe", "seed",
                            "repetitions"):
                    self.assertIn(key, record["provenance"])

    def test_untraced_emits_end_to_end(self):
        self.check_mode(0)

    def test_traced_emits_per_layer(self):
        self.check_mode(1)


class Harness(unittest.TestCase):
    def test_declaration_is_well_formed(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertIn("setup_s", names)

    def test_min_time_accepts_both_forms(self):
        self.assertEqual(run.parse_min_time("0.5"), 0.5)
        self.assertEqual(run.parse_min_time("0.5s"), 0.5)

    def test_refuses_outside_a_checkout(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = bench("partition", 0, cwd=bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")
        shutil.rmtree(bare)


class Compare(unittest.TestCase):
    def compare(self, base, change):
        paths = {"base": [], "change": []}
        for side, recs in (("base", base), ("change", change)):
            for i, rec in enumerate(recs):
                path = OUT / f"compare-{side}-{i}.json"
                path.write_text(json.dumps(rec))
                paths[side].append(str(path))
        return subprocess.run([sys.executable, "perfbench/compare.py", "--base", *paths["base"],
                               "--change", *paths["change"]],
                              capture_output=True, text=True, timeout=60)

    @staticmethod
    def record(wall, model="cpu", parallelism=3.0):
        return {"workload": "slot", "trace": 0,
                "provenance": {"host": {"cpu_model": model, "nproc": 4,
                                        "effective_parallelism": parallelism}},
                "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}}}

    def setUp(self):
        OUT.mkdir(parents=True, exist_ok=True)

    def test_refuses_different_hosts(self):
        r = self.compare([self.record(1.0)] * 3, [self.record(1.0, model="other")] * 3)
        self.assertEqual(r.returncode, 2, r.stderr)
        r = self.compare([self.record(1.0)] * 3, [self.record(1.0, parallelism=1.0)] * 3)
        self.assertEqual(r.returncode, 2, r.stderr)

    def test_verdicts(self):
        base = [self.record(w) for w in (1.00, 1.01, 0.99, 1.02, 0.98)]
        r = self.compare(base, [self.record(w * 1.5) for w in (1.00, 1.01, 0.99, 1.02, 0.98)])
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("regression", r.stdout)
        r = self.compare(base, [self.record(w * 0.8) for w in (1.00, 1.01, 0.99, 1.02, 0.98)])
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("gain", r.stdout)


if __name__ == "__main__":
    unittest.main()
