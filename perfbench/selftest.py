"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload (and failed_ratio besides), that a deliberately wrong
reference verdict aborts the run without a result, and that two processes
tracing the same seed report identical size counts.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest
from unittest import mock

import run
import workloads

TINY = {
    "sweep": {"quota": {"0": 1, "1": 2, "2": 1}, "programs": {"0": 2, "1": 3, "2": 2}, "rounds": 3,
              "max_atoms": 4, "max_rules": 5, "corpus_seed": 1},
    "chain": {"sizes": [3, 5], "rounds": 2},
    "blocks": {"ks": [1, 2], "pairs": 2, "ballasts": [2, 3], "rounds": 2},
    "detect": {"graphs": {"matching": [3], "path": [5, 6], "cycle": [5],
                          "star": [4], "clique": [4]}, "rounds": 2},
}
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(workload: str, trace: int, seed: int = 7) -> tuple[int, str]:
    out = io.StringIO()
    with mock.patch.dict(run.SPEC[workload], generator=TINY[workload]), \
            contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.2", "--trace", str(trace)])
    return code, out.getvalue()


class MetricsPrinted(unittest.TestCase):
    def check_run(self, trace: int, section: str):
        wanted = {m["name"]: m["unit"] for m in BENCH[section]}
        for workload in BENCH["workloads"]:
            with self.subTest(workload=workload["name"]):
                code, out = run_tiny(workload["name"], trace)
                self.assertEqual(code, 0, out)
                result = json.loads(out.splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual({name: m["unit"] for name, m
                                  in result["metrics"].items()}, wanted)
                table = out.splitlines()[:-1]
                printed = dict(wanted, failed_ratio="ratio") if not trace \
                    else wanted
                for name, unit in printed.items():
                    self.assertTrue(any(line.split()[:1] == [name]
                                        and line.split()[-1] == unit
                                        for line in table), name)

    def test_end_to_end(self):
        self.check_run(0, "end_to_end")

    def test_per_layer(self):
        self.check_run(1, "per_layer")


class WrongReferenceFails(unittest.TestCase):
    def assert_aborts(self, workload: str):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_tiny(workload, 0)
        self.assertEqual(code, 3)
        self.assertNotIn('"correct"', out)
        self.assertIn("wrong verdict", err.getvalue())

    def test_flipped_query_verdict(self):
        flipped = lambda op: {10: 20, 20: 10}[expected(op)]
        expected = workloads.Op.expected_exit
        with mock.patch.object(workloads.Op, "expected_exit", flipped):
            self.assert_aborts("sweep")

    def test_wrong_cover_size(self):
        family = workloads._family

        def off_by_one(name, n):
            edges, cover = family(name, n)
            return edges, cover + 1
        with mock.patch.object(workloads, "_family", off_by_one):
            self.assert_aborts("detect")


class SizeCountsRepeat(unittest.TestCase):
    def test_same_seed_same_counts_across_processes(self):
        for workload in ("sweep", "blocks"):
            digests = []
            for hash_seed in ("1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                child = subprocess.run(
                    [sys.executable, __file__, "--child", workload],
                    capture_output=True, text=True, env=env, timeout=120,
                    check=True)
                digests += [line for line in child.stdout.splitlines()
                            if line.startswith("determinism")]
            self.assertEqual(len(digests), 2, digests)
            self.assertEqual(digests[0], digests[1])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(run_tiny(sys.argv[2], 1)[1])
    else:
        unittest.main()
