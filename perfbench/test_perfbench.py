#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py

They pin the output contract of BENCHMARK.json, show that each output
check fires on a corrupted expected value (checksum, survivor set,
digest), that the traced run's counts repeat exactly, and that the
benchmark refuses to run without the project sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Counts the traced run must reproduce exactly for one seed.
EXACT_COUNTS = ("mexec.minstr_per_op", "diversity.nops_per_variant",
                "codegen.text_kb_per_variant", "verify.attempts_per_variant",
                "serve.hit_samples", "serve.fill_samples")


def run(workload, seed=7, seconds=1, trace=0, corrupt=None, cwd=ROOT,
        env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        self.assertEqual(BENCH["paths"], ["perfbench"])
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        self.assertTrue(2 <= len(WORKLOADS) <= 8)
        names = []
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))
        self.assertLessEqual(len(json.dumps(BENCH)), 64 * 1024)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                proc = run(wl)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result(proc)
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertIs(res["correct"], True)
                self.assertGreaterEqual(res["attempted"], 1)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in res["metrics"].items():
                    self.assertNotEqual(v["value"], 0, k)


class OutputCheckTest(unittest.TestCase):
    """Each check must end the run with exit code 3 and no result."""

    def expect_fire(self, workload, corrupt):
        proc = run(workload, corrupt=corrupt)
        self.assertEqual(proc.returncode, 3, proc.stderr[-2000:])
        self.assertIn("output check failed", proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:]
        self.assertFalse(last and last[0].startswith("{"))

    def test_fig4_checksum(self):
        self.expect_fire("fig4_runtime", "checksum")

    def test_batch_checksum(self):
        self.expect_fire("batch_verified", "checksum")

    def test_gadget_survivor_set(self):
        self.expect_fire("gadget_tables", "survivors")

    def test_serve_digest(self):
        self.expect_fire("serve_mixed", "digest")


class TracedRunTest(unittest.TestCase):
    def test_counts_repeat_and_every_layer_metric_is_printed(self):
        want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                a, b = (result(run(wl, trace=1)) for _ in range(2))
                for res in (a, b):
                    self.assertIs(res["correct"], True)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                self.assertEqual(a["attempted"], b["attempted"])
                for k in EXACT_COUNTS:
                    self.assertEqual(a["metrics"][k]["value"],
                                     b["metrics"][k]["value"], k)
                if wl != "gadget_tables":  # Bypasses the interpreter.
                    self.assertGreater(
                        a["metrics"]["mexec.minstr_per_op"]["value"], 0)
                self.assertGreater(
                    a["metrics"]["codegen.text_kb_per_variant"]["value"], 0)


class StrippedCheckoutTest(unittest.TestCase):
    def test_refuses_without_project_sources(self):
        tmp = ROOT / ".bench_build" / "stripped-checkout"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = run(WORKLOADS[0], cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(result(proc), None)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
