"""Tests of the benchmark itself: the output gate, the speed probe, the
exact counts of the tracer, and the refusal to run without the program.

    python3 perfbench/selftest.py

Takes about a minute on a 2-core box: the count check runs every
workload twice with the tracer installed.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
from child import Probe, run_one
from workloads import POOLS, key

sys.path.insert(0, str(run.SRC))
import padicheights.cli as cli  # noqa: E402

CERTIFIES = ["hpoly", "--m", "3", "--k", "2", "--check", "recur"]
REJECTED = ["hpoly", "--m", "0", "--k", "2", "--check", "recur"]


def _raise(argv):
    raise ZeroDivisionError("planted")


class OutputGate(unittest.TestCase):
    def setUp(self):
        self.good = run_one(cli.run, CERTIFIES)
        self.digests = {key(CERTIFIES): self.good["sha256"]}

    def test_certified_report_passes(self):
        self.assertTrue(run.gate(self.good, self.digests))

    def test_failed_verdict_fails(self):
        self.assertFalse(run.gate(dict(self.good, **{"pass": False}),
                                  self.digests))

    def test_tampered_digest_fails(self):
        tampered = {key(CERTIFIES): "0" * 64}
        self.assertFalse(run.gate(self.good, tampered))

    def test_nonzero_exit_fails(self):
        rec = run_one(cli.run, REJECTED)
        self.assertEqual(rec["exit"], 2)
        self.assertFalse(run.gate(rec, {key(REJECTED): rec["sha256"]}))
        # the exit code counts even when the report itself looks right
        self.assertFalse(run.gate(dict(self.good, exit=1), self.digests))

    def test_escaped_exception_fails(self):
        rec = run_one(_raise, CERTIFIES)
        self.assertEqual(rec["error"], "ZeroDivisionError: planted")
        self.assertFalse(run.gate(rec, self.digests))
        self.assertFalse(run.gate(dict(self.good, error=rec["error"]),
                                  self.digests))

    def test_each_failure_counts_in_the_ratio(self):
        tampered = dict(self.good, sha256="0" * 64)
        rejected = dict(run_one(cli.run, REJECTED), argv=CERTIFIES)
        raised = run_one(_raise, CERTIFIES)
        records = [dict(r, probe_s=1e-4)
                   for r in (self.good, tampered, rejected, raised)]
        plain = {"passes": [{"records": records[:2]},
                            {"records": records[2:]}],
                 "peak_rss_mb": 1.0}
        metrics = run.end_to_end(plain, 0.5, self.digests)
        self.assertEqual(metrics["ok_ratio"], 0.25)
        records, failed = run.failures(plain, self.digests)
        self.assertEqual((len(records), len(failed)), (4, 3))


class ProbeUnits(unittest.TestCase):
    def test_probe_samples_while_python_runs(self):
        probe = Probe()
        probe.install()
        try:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
            mean = probe.take()
        finally:
            probe.uninstall()
        self.assertIsNotNone(mean)
        self.assertGreater(mean, 0)
        self.assertIsNone(probe.take())

    def test_wall_probes_divides_each_call_by_its_probe(self):
        fast = {"argv": ["a"], "seconds": 2.0, "probe_s": 1e-4}
        slow = {"argv": ["a"], "seconds": 3.0, "probe_s": 1.5e-4}
        other = {"argv": ["b"], "seconds": 0.5, "probe_s": 1e-4}
        self.assertAlmostEqual(run.wall_probes([fast, slow]), 20000)
        # each member weighs the same, whatever its number of calls
        self.assertAlmostEqual(run.wall_probes([fast, slow, other]),
                               (20000 + 5000) / 2)
        with self.assertRaises(run.BenchError):
            run.wall_probes([fast, dict(other, probe_s=None)])


class TracerCounts(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        for workload in sorted(POOLS):
            with self.subTest(workload=workload):
                first, second = (run.run_child(workload, 11, 0, True)
                                 for _ in range(2))
                counts = [{name: res["passes"][0]["layers"][name]
                           for name in run.COUNT_METRICS}
                          for res in (first, second)]
                self.assertEqual(counts[0], counts[1])
                self.assertTrue(all(counts[0][name] > 0 for name in
                                    ("padic.log_calls", "heights.scan_calls",
                                     "heights.sigma_calls")))


class NoProgram(unittest.TestCase):
    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix=".selftest-",
                                         dir=run.HERE) as tmp:
            root = Path(tmp)
            shutil.copy(run.HERE.parent / "BENCHMARK.json", root)
            shutil.copytree(run.HERE, root / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          ".selftest-*"))
            bench = json.loads((root / "BENCHMARK.json").read_text())
            proc = subprocess.run(
                [*bench["command"], "--workload", "scan-wide", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
