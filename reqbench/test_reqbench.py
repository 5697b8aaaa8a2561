#!/usr/bin/env python3
"""The benchmark's own tests: tiny-data smoke runs of every workload.

Run from the repository root:

    python3 reqbench/test_reqbench.py

Each run uses --tiny data and one second of measurement, so the whole
file takes well under a minute once reqbench/run.py has built the binary.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, seed=11, cwd=REPO):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "reqbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed_metrics(stdout):
    """{name: (value, unit)} from the `metric <name> <value> <unit>` lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


class SmokeTest(unittest.TestCase):

    def check_run(self, proc, specs):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {s["name"] for s in specs})
        printed = printed_metrics(proc.stdout)
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIn(spec["name"], printed)
            self.assertEqual(printed[spec["name"]][1], spec["unit"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(printed["failed_frac"][0], 0.0)
        return result

    def test_untraced_run_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_run(run(workload, 0), SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(run(workload, 1), SPEC["per_layer"])

    def test_corrupted_expected_answer_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--corrupt-oracle")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(printed_metrics(proc.stdout)["failed_frac"][0], 0)

    def test_stream_is_a_function_of_workload_and_seed(self):
        def digest(seed):
            proc = run("adhoc_distinct", 0, seed=seed)
            lines = [l for l in proc.stdout.splitlines()
                     if l.startswith("stream ")]
            return lines[0]
        self.assertEqual(digest(5), digest(5))
        self.assertNotEqual(digest(5).split("digest=")[1],
                            digest(6).split("digest=")[1])

    def test_fails_without_the_library_sources(self):
        scratch = os.path.join(REPO, ".bench_build", "bare-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "reqbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("oltp_point", 0, cwd=scratch)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
