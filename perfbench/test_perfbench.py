#!/usr/bin/env python3
"""Tests of the benchmark itself: the result line, metric names and units,
per-layer coverage of the timed wall time, and the no-sources failure.

    python3 perfbench/test_perfbench.py

Builds the harness on first use (as run.py does) and runs every workload
briefly, traced and untraced.
"""
import json
import pathlib
import re
import shutil
import subprocess
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SECONDS = "1"


def bench(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "62",
                             "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class ResultLine(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                p = bench(workload, trace)
                if p.returncode != 0:
                    raise AssertionError(f"{workload} --trace {trace} exited "
                                         f"{p.returncode}:\n{p.stderr[-3000:]}")
                cls.results[workload, trace] = json.loads(
                    p.stdout.strip().splitlines()[-1])

    def test_every_metric_printed_with_its_unit(self):
        for (workload, trace), result in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
                want = {m["name"]: m["unit"] for m in declared}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_names_are_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for key in ("end_to_end", "per_layer"):
            names += [m["name"] for m in SPEC[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_outputs_correct(self):
        for (workload, trace), result in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

    def test_self_times_cover_timed_wall(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.results[workload, 1]["metrics"]
                coverage = metrics["bench.self_time_coverage"]["value"]
                self.assertAlmostEqual(coverage, 1.0, delta=0.05)

    def test_end_to_end_metrics_are_nonzero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                for name, m in self.results[workload, 0]["metrics"].items():
                    self.assertGreater(m["value"], 0, name)


class WithoutSources(unittest.TestCase):
    def test_fails_without_a_result(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        p = bench(WORKLOADS[0], 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
