#!/usr/bin/env python3
"""Self-test for bench_compare.py on synthetic BENCH_engine documents:
identical files pass, a cell at half speed that pulls the geomean under
the gate fails and is named (worst first when several are), and a
differing host_cpus SKIPs. Run directly or via CTest
(bench_compare_selftest, tier1)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def engine_block(minstr_per_sec):
    return {"minstr_per_sec": minstr_per_sec, "calib_seconds": 0.007}


def document():
    """Two cells x {polled, auto}: four calibrated pairs."""
    return {
        "host_cpus": 4,
        "scale": 0.25,
        "warmup_instructions": 1000,
        "sim_instructions": 4000,
        "cells": [
            {"workload": "mcf", "prefetcher": "gaze",
             "polled": engine_block(2.0), "auto": engine_block(4.0)},
            {"workload": "leslie3d", "prefetcher": "none",
             "polled": engine_block(10.0), "auto": engine_block(11.0)},
        ],
    }


def scale_rate(doc, workload, engine, factor):
    for cell in doc["cells"]:
        if cell["workload"] == workload:
            cell[engine]["minstr_per_sec"] *= factor


class BenchCompare(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def compare(self, baseline, fresh):
        paths = []
        for name, doc in (("baseline", baseline), ("fresh", fresh)):
            path = os.path.join(self.tmp.name, name + ".json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            paths.append(path)
        return subprocess.run([sys.executable, SCRIPT] + paths,
                              capture_output=True, text=True, check=False)

    def fail_line(self, result):
        lines = [line for line in result.stderr.splitlines()
                 if line.startswith("bench_compare: FAIL")]
        self.assertEqual(len(lines), 1, result.stderr)
        return lines[0]

    def test_identical_files_pass(self):
        result = self.compare(document(), document())
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("bench_compare: OK", result.stdout)

    def test_half_speed_cell_fails_and_is_named(self):
        fresh = document()
        scale_rate(fresh, "mcf", "auto", 0.5)
        scale_rate(fresh, "leslie3d", "polled", 0.95)
        result = self.compare(document(), fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        line = self.fail_line(result)
        self.assertIn("mcf/gaze/auto 0.50x", line)
        # A cell above the floor is not a named regression.
        self.assertNotIn("leslie3d", line)

    def test_regressions_are_named_worst_first(self):
        fresh = document()
        scale_rate(fresh, "leslie3d", "auto", 0.8)
        scale_rate(fresh, "mcf", "polled", 0.5)
        result = self.compare(document(), fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        line = self.fail_line(result)
        worst = line.index("mcf/gaze/polled 0.50x")
        self.assertLess(worst, line.index("leslie3d/none/auto 0.80x"))

    def test_differing_host_cpus_skips(self):
        fresh = document()
        fresh["host_cpus"] = 1
        scale_rate(fresh, "mcf", "auto", 0.5)
        result = self.compare(document(), fresh)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("SKIPPED", result.stdout)
        self.assertIn("host_cpus", result.stdout)


if __name__ == "__main__":
    unittest.main()
