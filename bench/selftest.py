"""Tests of the benchmark harness itself (not of tribos).

    python3 bench/selftest.py

Kept out of the repository's pytest collection (the name does not match
test_*.py) because it starts worker interpreters; it takes about 15 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER, Tracer  # noqa: E402


def bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_workload_runs_and_passes_its_checks(self):
        result = bench("--workload", "all", "--smoke", "--seconds", "0")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["workloads"]), set(workloads.WORKLOADS))

    def test_traced_scans_count_refinement_solves(self):
        # 25 sweep points over 8 decades: 27 bisection solves per crossing.
        ladder = bench("--workload", "efimov_ladder", "--smoke", "--seconds", "0",
                       "--trace", "1")
        sweep = bench("--workload", "positivity_sweep", "--smoke", "--seconds", "0",
                      "--trace", "1")
        self.assertTrue(ladder["correct"] and sweep["correct"])
        self.assertEqual(ladder["metrics"]["stm.refine_solves"]["value"], 81)
        self.assertEqual(ladder["metrics"]["stm.solves_per_crossing"]["value"], 27)
        self.assertEqual(sweep["metrics"]["stm.refine_solves"]["value"], 0)
        self.assertEqual(sweep["metrics"]["stm.eigensolve_calls"]["value"], 7)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_every_metric_is_reported_with_its_unit(self):
        for trace, spec in (("0", run.END_TO_END), ("1", PER_LAYER)):
            result = bench("--workload", "verify_suite", "--smoke", "--seconds", "0",
                           "--trace", trace)
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, spec)


class Failures(unittest.TestCase):
    def test_wrong_expected_value_counts_as_failure(self):
        cli = worker.import_cli()
        commands = workloads.commands("efimov_ladder", 0, smoke=True)
        wrong = [workloads.Command(c.argv, lambda text: workloads.check_ladder_scan(text, 4))
                 for c in commands]
        with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH) as out_dir:
            record = {**worker.run_commands(cli, wrong, Path(out_dir)),
                      "env": dict.fromkeys(run.THREAD_VARS)}
        attempted, failures = run.tally([record])
        self.assertEqual((attempted, len(failures)), (1, 1))
        self.assertIn("3 crossings, expected 4", failures[0])

    def test_thomas_residual_near_a_degenerate_set_is_bounded(self):
        # s1 = (0.1, 0, 0) lies 0.1 from the set s1 = 0: the bound is 0.1296.
        head = "s1x,s1y,s1z,s2x,s2y,s2z,psi,pde_residual,bc_estimate,bc_reference"
        for residual, ok in (("0.1", True), ("0.2", False), ("nan", False)):
            row = f"0.1,0,0,1,1,1,1,{residual},1,1"
            self.assertIs(workloads.check_thomas(f"{head}\n{row}\n", 1)[0], ok)

    def test_output_that_changes_between_passes_counts_as_failure(self):
        def record(digest):
            return {"env": dict.fromkeys(run.THREAD_VARS),
                    "commands": [{"argv": ["s0"], "ok": True, "sha256": digest,
                                  "facts": {}}]}

        attempted, failures = run.tally([record("a"), record("a"), record("b")])
        self.assertEqual((attempted, len(failures)), (3, 1))


class TracerThreads(unittest.TestCase):
    def test_no_lost_updates_under_threads(self):
        tracer = Tracer()
        counted = tracer._timed("x", lambda: None)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: [counted() for _ in range(2000)])
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            self.assertFalse(any(t.is_alive() for t in threads))
        finally:
            sys.setswitchinterval(previous)
        self.assertEqual(tracer.calls["x"], 16000)

    def test_uninstall_restores_every_binding(self):
        cli = worker.import_cli()
        import numpy as np
        from tribos import specfun, symbols, thomas

        before = (np.linalg.eigvalsh, cli.k0, thomas.k0, symbols.sinh_ratio, specfun.k0)
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(thomas.k0, before[2])
        self.assertIs(thomas.k0, cli.k0)
        tracer.uninstall()
        self.assertEqual(before, (np.linalg.eigvalsh, cli.k0, thomas.k0,
                                  symbols.sinh_ratio, specfun.k0))


if __name__ == "__main__":
    unittest.main()
