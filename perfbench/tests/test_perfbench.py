"""Tests of the JXP benchmark itself (not of the program it measures).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds the benchmark (about a minute); every run uses the small
input size, so the whole file takes a few minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("converge", "recrawl", "serve", "cluster")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, trace=0, seconds=1, extra=()):
    """Runs one small benchmark run; returns (exit code, parsed last line)."""
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--size", "small",
               *extra]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result, proc.stderr


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in s["workloads"]], list(WORKLOADS))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_names_use_only_allowed_characters(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)


class WorkloadTest(unittest.TestCase):
    def check_metrics(self, result, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertRegex(m["name"], NAME)

    def test_each_workload_prints_every_metric(self):
        s = spec()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, err = run(workload)
                self.assertEqual(code, 0, err)
                self.check_metrics(result, s["end_to_end"])
                for m in s["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
                code, result, err = run(workload, trace=1)
                self.assertEqual(code, 0, err)
                self.check_metrics(result, s["per_layer"])
                self.assertGreater(result["metrics"]["trace.overhead"]["value"], 0)

    def test_seed_changes_inputs_but_not_metric_set(self):
        _, first, _ = run("converge", seed=1)
        _, again, _ = run("converge", seed=1)
        _, other, _ = run("converge", seed=2)
        # Bytes to target are a pure function of the inputs.
        mb = lambda r: r["metrics"]["mb_to_target"]["value"]
        self.assertEqual(mb(first), mb(again))
        self.assertNotEqual(mb(first), mb(other))
        self.assertEqual(set(first["metrics"]), set(other["metrics"]))

    def test_wrong_oracle_answer_counts_as_failure(self):
        for workload in ("converge", "serve", "cluster"):
            with self.subTest(workload=workload):
                code, result, err = run(workload, extra=("--wrong-oracle",))
                self.assertEqual(code, 0, err)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
