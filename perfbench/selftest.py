#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about half a minute):

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is printed with its unit in
both modes, that the output checks catch deliberately corrupted runs, that
the traced run attributes work to the right layers and leaves a non-negative
unattributed remainder, that counters repeat exactly for a seed, and that
the benchmark fails without the program's sources.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


class Outputs(unittest.TestCase):
    results: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in run.WORKLOAD_NAMES:
            for trace in (0, 1):
                out = bench(workload, trace)
                if out.returncode != 0:
                    raise AssertionError(f"{workload} trace={trace} failed:\n{out.stderr}")
                cls.results[workload, trace] = out.stdout.splitlines()

    def test_every_metric_prints_with_its_unit(self):
        for (workload, trace), lines in self.results.items():
            last = json.loads(lines[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"], (workload, trace, lines))
            self.assertEqual(last["failed"], 0)
            self.assertGreaterEqual(last["attempted"], 1)
            spec = SPEC["per_layer" if trace else "end_to_end"]
            self.assertEqual(list(last["metrics"]), [m["name"] for m in spec])
            table = "\n".join(lines[:-2])
            for m in spec:
                self.assertEqual(last["metrics"][m["name"]]["unit"], m["unit"])
                self.assertIn(m["name"], table)
            env = json.loads(lines[-2])["environment"]
            for key in ("python", "numpy", "backend", "nproc", "git_revision", "seed"):
                self.assertIn(key, env)

    def test_traced_run_attributes_layers(self):
        per = {w: json.loads(self.results[w, 1][-1])["metrics"] for w in run.WORKLOAD_NAMES}
        value = {w: {k: v["value"] for k, v in m.items()} for w, m in per.items()}
        for w, v in value.items():
            self.assertGreaterEqual(v["trace.unattributed_s"], 0.0, w)
        self.assertGreater(value["pole-sweep"]["kernels.fuzzy_force.calls"], 0)
        self.assertEqual(value["sfc-rk4-export"]["kernels.fuzzy_force.calls"], 0)
        self.assertGreater(value["sfc-rk4-export"]["plant.advance.rk4.calls"], 0)
        for w in ("pole-sweep", "sfc-rk4-export"):
            self.assertEqual(value[w]["rulelang.parse_knowledge_base.calls"], 0, w)
            self.assertEqual(value[w]["hierarchy.audit_hierarchy.calls"], 0, w)
        self.assertGreater(value["kb-authoring"]["rulelang.parse_knowledge_base.calls"], 0)
        self.assertGreater(value["kb-authoring"]["hierarchy.audit_hierarchy.calls"], 0)
        self.assertEqual(value["kb-authoring"]["hierarchy.audit_violations"], 0)

    def test_counters_repeat_for_a_seed(self):
        first = json.loads(self.results["kb-authoring", 1][-1])["metrics"]
        again = json.loads(bench("kb-authoring", 1).stdout.splitlines()[-1])["metrics"]
        other = json.loads(bench("kb-authoring", 1, seed=2).stdout.splitlines()[-1])["metrics"]
        exact = [n for n, m in first.items() if m["unit"] == "count" or n.startswith("fuzzy.")]
        for name in exact:
            self.assertEqual(first[name]["value"], again[name]["value"], name)
        self.assertEqual(list(first), list(other))


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.import_program()
        import checks
        import workloads

        cls.checks = checks
        cls.workloads = workloads

    def records(self, workload: str):
        inputs = self.workloads.WORKLOADS[workload].build(1, "tiny")
        return inputs, self.workloads.WORKLOADS[workload].run_pass(inputs)

    def problems(self, workload, inputs, rec):
        reference = self.checks.load_reference(workload, "tiny")
        return self.checks.check_run(rec, reference, random.Random(0), inputs.compiled)

    def with_data(self, rec, data):
        from fuzzpole import harness

        bad = copy.copy(rec)
        bad.traj = harness.Trajectory(data, rec.traj.termination)
        return bad

    def test_clean_runs_pass(self):
        for workload in run.WORKLOAD_NAMES:
            inputs, records = self.records(workload)
            for rec in records:
                self.assertEqual(self.problems(workload, inputs, rec), [], rec.key)
                self.assertEqual(self.checks.backend_agreement(rec), [], rec.key)

    def test_corrupted_trajectories_are_caught(self):
        inputs, records = self.records("pole-sweep")
        for rec in records:
            data = rec.traj.data
            interior = slice(1, data.shape[0] - 1)
            final, forces, states = data.copy(), data.copy(), data.copy()
            final[-1, 1] += 1e-6
            forces[interior, 5] += 1e-9
            states[interior, 2] += 1e-9
            corrupted = {
                "final state": final,
                "row count": data[:-1],
                "forces": forces,
                "states": states,
            }
            for what, bad in corrupted.items():
                found = self.problems("pole-sweep", inputs, self.with_data(rec, bad))
                self.assertNotEqual(found, [], f"{rec.key}: corrupted {what} passed")

    def test_corrupted_csv_and_lint_are_caught(self):
        inputs, records = self.records("sfc-rk4-export")
        rec = copy.copy(records[0])
        rec.csv = rec.csv.replace("\n", "\n\n", 1)
        self.assertNotEqual(self.problems("sfc-rk4-export", inputs, rec), [])
        inputs, records = self.records("kb-authoring")
        rec = copy.copy(records[0])
        rec.lint = dict(rec.lint, audit_violations=1)
        self.assertNotEqual(self.problems("kb-authoring", inputs, rec), [])

    def test_seed_changes_variants_not_names(self):
        build = self.workloads.WORKLOADS["kb-authoring"].build
        keys = [sorted(v.key for v, _, _ in build(seed, "full").items) for seed in (1, 1, 2)]
        self.assertEqual(keys[0], keys[1])
        self.assertNotEqual(keys[0], keys[2])


class Standalone(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = bench("pole-sweep", 0, cwd=Path(tmp))
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
