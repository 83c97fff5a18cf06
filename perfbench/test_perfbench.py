#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size pass of every workload.

Run from the root of a checkout (builds into .bench_build/ like run.py):

    python3 perfbench/test_perfbench.py

Checks that every metric of BENCHMARK.json has its mapping in
perfbench/metrics.json, that every workload reports exactly the metric
names and units of BENCHMARK.json, that a traced run reproduces the
untraced fingerprint at 1 and 4 shards, that per-layer counts repeat
exactly, that a corrupted expected output is reported as a failure, that
an unoptimized library build is refused, and that the benchmark fails
cleanly where there are no sources to build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ("stat-20k", "synth-bd-2k", "live-rpc")
SIM_WORKLOADS = ("stat-20k", "synth-bd-2k")
TMP_DIR = os.path.join(run.BUILD_ROOT, "test-tmp")


def bench(*args):
    """Runs run.py; returns (exit code, parsed last line or None, stdout)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stdout + proc.stderr


def binary(*args):
    """Runs the benchmark program directly; returns its full report."""
    proc = subprocess.run([run.BINARY, *args], capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(workload, trace, *extra):
    return ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny", *extra)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(os.getcwd())
        run.check_optimized(os.getcwd())
        cls.spec = run.load_metric_spec()

    def test_every_metric_has_a_mapping(self):
        # load_metric_spec refuses a name either file lacks.
        for name, m in self.spec["end_to_end"].items():
            self.assertTrue(m["definition"], name)
        for name, m in self.spec["per_layer"].items():
            self.assertTrue(m["workloads"], name)
            self.assertTrue(set(m["workloads"]) <= set(self.spec["workloads"]), name)
            self.assertTrue(set(m["on"]) <= set(m["workloads"]), name)
            self.assertTrue(name.startswith(m["layer"] + "."), name)

    def test_every_workload_reports_exact_names_and_units(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = bench(*tiny(workload, trace))
                    self.assertEqual(code, 0, out)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = run.expected_metrics(self.spec, workload, bool(trace))
                    self.assertEqual(set(result["metrics"]), set(want))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], want[name][0], name)

    def test_traced_fingerprint_equals_untraced_at_1_and_4_shards(self):
        for workload in SIM_WORKLOADS:
            prints = set()
            for shards in ("1", "4"):
                with self.subTest(workload=workload, shards=shards):
                    report = binary(*tiny(workload, 1, "--shards", shards))
                    checks = {c["name"]: c for c in report["checks"]}
                    self.assertTrue(checks["traced.fingerprint"]["passed"], checks)
                    self.assertTrue(report["correct"], report["checks"])
                    prints.add(report["info"]["fingerprint"])
            # Shard counts change wall clock only, never results.
            self.assertEqual(len(prints), 1, prints)

    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = binary(*tiny(workload, 1))["metrics"]
                second = binary(*tiny(workload, 1))["metrics"]
                counts = [n for n, m in first.items() if m["unit"] == "count"]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_corrupted_expected_output_is_a_failure(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = bench(*tiny(workload, trace, "--corrupt-expected"))
                    self.assertEqual(code, 0, out)
                    self.assertFalse(result["correct"], out)
                    self.assertGreater(result["failed"], 0)

    def test_unoptimized_build_is_refused(self):
        os.makedirs(TMP_DIR, exist_ok=True)
        real = os.path.join(run.BUILD_DIR, "compile_commands.json")
        with open(real) as f:
            commands = json.load(f)
        for entry in commands:
            key = "command" if "command" in entry else "arguments"
            if key == "command":
                entry[key] += " -O0"
            else:
                entry[key].append("-O0")
        saved = real + ".saved"
        shutil.copy(real, saved)
        try:
            with open(real, "w") as f:
                json.dump(commands, f)
            with self.assertRaises(run.BenchError):
                run.check_optimized(os.getcwd())
        finally:
            shutil.move(saved, real)
        run.check_optimized(os.getcwd())

    def test_fails_cleanly_without_sources(self):
        empty = os.path.abspath(os.path.join(TMP_DIR, "bare"))
        shutil.rmtree(empty, ignore_errors=True)
        os.makedirs(empty)
        shutil.copy("BENCHMARK.json", empty)
        shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", *tiny("live-rpc", 0)],
                              cwd=empty, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        shutil.rmtree(empty)


if __name__ == "__main__":
    unittest.main(verbosity=2)
