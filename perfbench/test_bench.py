#!/usr/bin/env python3
"""Tests of the benchmark itself (see README.md).

    python3 perfbench/test_bench.py

Each test runs the benchmark through run.py on a small cut of a
workload (--limit) for a fraction of a second, so the whole file takes
about two minutes after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs")

# Per-layer fields that are pure functions of the inputs.
DETERMINISTIC = [
    "uarch.core_calls", "uarch.sim_cycles", "uarch.sim_insts",
    "profile.train_calls", "check.findings", "minigraph.candidates",
    "minigraph.kept_frac", "minigraph.instances", "dse.hits",
    "dse.misses", "mg_speedup_mean", "bench.cell_samples",
]

SMALL = {"paper-matrix": ["--limit", "3"],
         "static-front": ["--limit", "9"],
         "sweep-replay": []}


def bench(workload, *extra, trace=0, seed=1):
    """Run the benchmark; return (exit code, stdout lines, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace)]
    cmd += SMALL[workload] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result


def value(result, name):
    return result["metrics"][name]["value"]


class CorruptedReference(unittest.TestCase):
    def test_bad_reference_line_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            refs = os.path.join(tmp, "refs")
            shutil.copytree(REFS, refs)
            path = os.path.join(refs, "paper_matrix.0.txt")
            with open(path) as f:
                lines = f.readlines()
            # Corrupt the simulated cycles of one cell the cut runs.
            idx = next(i for i, l in enumerate(lines)
                       if l.startswith("mcf_like.0 reduced slack-profile"))
            fields = lines[idx].split()
            fields[3] = str(int(fields[3]) + 1)
            lines[idx] = " ".join(fields) + "\n"
            with open(path, "w") as f:
                f.writelines(lines)

            code, out, result = bench("paper-matrix", "--refs", refs)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(value(result, "ok_frac"), 1.0)
        self.assertTrue(any("FAILED mcf_like.0 reduced slack-profile" in l
                            for l in out), out)

    def test_clean_references_pass(self):
        code, _, result = bench("paper-matrix")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(value(result, "ok_frac"), 1.0)


class Determinism(unittest.TestCase):
    def test_two_runs_give_identical_deterministic_fields(self):
        for workload in SMALL:
            with self.subTest(workload=workload), \
                    tempfile.TemporaryDirectory() as tmp:
                runs = []
                for seed in (1, 2):
                    dump = os.path.join(tmp, "dump%d" % seed)
                    code, _, result = bench(workload, "--dump", dump,
                                            trace=1, seed=seed)
                    self.assertEqual(code, 0)
                    with open(dump) as f:
                        runs.append((f.read(),
                                     {k: value(result, k)
                                      for k in DETERMINISTIC}))
                self.assertEqual(runs[0], runs[1])
                self.assertTrue(runs[0][0])


class TracedRun(unittest.TestCase):
    def test_layer_spans_fit_in_the_pass_cpu(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                code, _, result = bench(workload, trace=1)
                self.assertEqual(code, 0)
                frac = value(result, "bench.layer_cpu_frac")
                self.assertGreater(frac, 0.0)
                self.assertLessEqual(frac, 1.0)

    def test_held_out_variants_reproduce(self):
        for variant in ("1", "2"):
            with self.subTest(variant=variant):
                code, _, result = bench("paper-matrix", "--variant",
                                        variant, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])


class Calibration(unittest.TestCase):
    def test_calibration_keeps_the_fastest_reference_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            fastest = []
            for seed in (1, 2):
                code, out, _ = bench("static-front", "--calibration", tmp,
                                     seed=seed)
                self.assertEqual(code, 0)
                line = next(l for l in out
                            if l.strip().startswith("reference front-"))
                fastest.append(float(line.split("fastest ")[1].split()[0]))
            (name,) = os.listdir(tmp)
            with open(os.path.join(tmp, name)) as f:
                kept = 1e3 * float(f.read())
        self.assertAlmostEqual(kept, min(fastest), places=5)


class References(unittest.TestCase):
    def test_bless_rewrites_the_checked_in_references(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, _, _ = bench("static-front", "--bless", "--refs", tmp)
            self.assertEqual(code, 0)
            with open(os.path.join(tmp, "static_front_cells.txt")) as f:
                blessed = f.read().splitlines()
        with open(os.path.join(REFS, "static_front_cells.txt")) as f:
            checked_in = set(f.read().splitlines())
        self.assertEqual(len(blessed), 1 + 3 * 9)
        self.assertTrue(set(blessed) <= checked_in)

    def test_bench6_cells_reproduce(self):
        path = os.path.join(ROOT, "BENCH_6.json")
        if not os.path.exists(path):
            self.skipTest("no BENCH_6.json")
        with open(path) as f:
            bench6 = json.load(f)
        refs = {}
        with open(os.path.join(REFS, "paper_matrix.0.txt")) as f:
            for line in f:
                if not line.startswith("#"):
                    w, c, s, cycles, h = line.split()
                    refs[(w, c, s)] = (int(cycles), h)
        runs = bench6["runs"]
        self.assertEqual(len(runs), 130)
        for r in runs:
            key = (r["workload"], r["config"], r["selector"])
            self.assertEqual(refs.get(key),
                             (r["simCycles"], r["statsHash"]), key)

    def test_analyze_reference_is_the_golden_snapshot(self):
        golden = os.path.join(ROOT, "tests", "golden",
                              "golden_analyze.jsonl")
        if not os.path.exists(golden):
            self.skipTest("no golden snapshot")
        with open(golden, "rb") as a, \
                open(os.path.join(REFS, "static_front_analyze.jsonl"),
                     "rb") as b:
            self.assertEqual(a.read(), b.read())


if __name__ == "__main__":
    unittest.main()
