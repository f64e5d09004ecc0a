"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds into the same tree as run.py, runs the C++ unit tests of the runner's
statistics and schedule, then a one-second smoke run of every workload in
both modes, checking that each metric BENCHMARK.json names is printed with
its unit and that outputs check out.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SelfTest(unittest.TestCase):
    def test_statistics_and_schedule(self):
        binary = run.build("perfbench_selftest")
        subprocess.run([binary], check=True, stdout=subprocess.DEVNULL)


class SmokeRun(unittest.TestCase):
    def run_benchmark(self, workload, trace):
        cmd = spec()["command"] + ["--workload", workload, "--seed", "7",
                                   "--seconds", "1", "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_every_metric_prints_with_its_unit(self):
        s = spec()
        # echo-rate is not in BENCHMARK.json but stays runnable (NOTES.md).
        for workload in [w["name"] for w in s["workloads"]] + ["echo-rate"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_benchmark(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in s[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_refuses_to_run_without_the_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: nothing to build.
        isolated = os.path.join(run.build_dir(), "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(HERE, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(isolated, "build"))
            done = subprocess.run(spec()["command"] + ["--workload", "py-calls",
                                                       "--seed", "1", "--seconds", "1",
                                                       "--trace", "0"],
                                  cwd=isolated, env=env, capture_output=True,
                                  text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
