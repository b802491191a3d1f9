#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They check that one seed always yields byte-identical generated inputs,
that a seed not used while the benchmark was tuned runs every workload
with no failed item, and that the exact-count digest is the same in two
runs and at --jobs 1 and --jobs 2. One pass of each workload is run per
check; the whole file takes a few minutes, most of it in static-spec.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
WORKLOADS = ["static-spec", "simulate-suites", "attack-catalog"]
HELD_OUT_SEED = "424242"


def bench(*args):
    out = subprocess.run(
        RUN + list(args), stdout=subprocess.PIPE, check=True, timeout=600
    ).stdout.decode()
    return out.splitlines()


def one_pass(workload, seed, jobs):
    lines = bench("--workload", workload, "--seed", seed, "--seconds", "1",
                  "--trace", "0", "--passes", "1", "--jobs", str(jobs))
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return digest, json.loads(lines[-1])


class Inputs(unittest.TestCase):
    def digest(self, workload, seed):
        lines = bench("--workload", workload, "--seed", seed, "--setup-only")
        return next(l for l in lines if l.startswith("inputs "))

    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.digest(w, "7"), self.digest(w, "7"))

    def test_seed_drives_generated_sources(self):
        self.assertNotEqual(self.digest("static-spec", "7"),
                            self.digest("static-spec", "8"))


class HeldOutSeed(unittest.TestCase):
    def test_every_workload_correct_and_count_digest_stable(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                d1, r1 = one_pass(w, HELD_OUT_SEED, 1)
                d2, r2 = one_pass(w, HELD_OUT_SEED, 1)
                d3, r3 = one_pass(w, HELD_OUT_SEED, 2)
                for r in (r1, r2, r3):
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(d1, d2, "digest differs between two runs")
                self.assertEqual(d1, d3, "digest differs at --jobs 1 vs 2")


if __name__ == "__main__":
    unittest.main()
