"""Self-tests of the scheduler benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The tests that run the program build it first, as run.py does.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (the module under test lives one directory up)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=1200,
                          check=False)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = []
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            names.append(workload["name"])
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
            names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)), "names are used once")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_readme_documents_every_metric_and_workload(self):
        readme = (BENCH / "README.md").read_text()
        spec = load_spec()
        for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
            name = entry["name"]
            if name.startswith("alloc.allocate_ms."):
                name = name.rsplit(".", 1)[1]  # documented as <allocator>
            self.assertIn(f"`{name}`", readme)

    def test_table1_ratios_match_experiments_md(self):
        """The seed-0 check's expected values are EXPERIMENTS.md's."""
        source = (BENCH / "src" / "workloads.cpp").read_text()
        embedded = {
            m.group(1): [m.group(2), m.group(3), m.group(4)]
            for m in re.finditer(
                r'\{"([a-z0-9-]+)", \{([\d.]+), ([\d.]+), ([\d.]+)\}\}', source)}
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        table = experiments[experiments.index("## Table 1"):]
        published = {
            m.group(1): [m.group(2), m.group(3), m.group(4)]
            for m in re.finditer(
                r"^\| ([a-z0-9-]+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|",
                table, re.MULTILINE)}
        self.assertEqual(len(published), 12)
        self.assertEqual(embedded, published)


class RunnerTest(unittest.TestCase):
    def test_result_line_keeps_exactly_the_declared_metrics(self):
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"a_ms": {"value": 1.5, "unit": "ms",
                                       "samples": 4},
                              "extra": {"value": 0, "unit": "ratio",
                                        "samples": 1}}}
        line = run.result_line(result, [{"name": "a_ms", "unit": "ms"}])
        self.assertEqual(line, {"correct": True, "attempted": 3, "failed": 0,
                                "metrics": {"a_ms": {"value": 1.5,
                                                     "unit": "ms"}}})
        with self.assertRaises(run.BenchError):
            run.result_line(result, [{"name": "b_ms", "unit": "ms"}])
        with self.assertRaises(run.BenchError):
            run.result_line(result, [{"name": "a_ms", "unit": "s"}])

    def test_arguments_are_validated(self):
        ok = run.parse_args(["--workload", "zoo_batch", "--seed", "7",
                             "--seconds", "3", "--trace", "1"])
        self.assertEqual((ok.seed, ok.seconds, ok.trace), (7, 3.0, 1))
        for bad in (["--workload", "nope"],
                    ["--workload", "zoo_batch", "--seed", "-1"],
                    ["--workload", "zoo_batch", "--seconds", "0"],
                    ["--workload", "zoo_batch", "--trace", "2"]):
            with self.assertRaises(SystemExit):
                run.parse_args(bad)


class ProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(ROOT, time.monotonic() + run.BUILD_LIMIT_S)

    def test_program_self_test(self):
        done = subprocess.run([str(self.binary), "self-test"],
                              capture_output=True, text=True, timeout=60,
                              check=False)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(result["errors"], [])
        self.assertEqual(done.returncode, 0)

    def test_usage_errors_exit_2(self):
        for argv in (["measure", "--workload", "nope"], ["bogus-mode"],
                     ["measure", "--workload", "zoo_batch", "--seconds"]):
            done = subprocess.run([str(self.binary), *argv],
                                  capture_output=True, text=True, timeout=60,
                                  check=False)
            self.assertEqual(done.returncode, 2, argv)
            self.assertEqual(done.stdout, "")

    def test_both_runs_print_exactly_the_declared_metrics(self):
        spec = load_spec()
        for trace, wanted in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            done = run_bench("--workload", "zoo_batch", "--seed", "5",
                             "--seconds", "1", "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            line = json.loads(done.stdout.splitlines()[-1])
            self.assertEqual(set(line),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"])
            self.assertEqual(line["failed"], 0)
            self.assertGreaterEqual(line["attempted"], 1)
            self.assertEqual(list(line["metrics"]),
                             [m["name"] for m in wanted])
            if trace == "0":
                self.assertIn("failed_frac", done.stdout)
                self.assertIn('"graph_seed_note"', done.stdout)

    def test_fails_without_the_sources(self):
        bare = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run_bench("--workload", "zoo_batch", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
