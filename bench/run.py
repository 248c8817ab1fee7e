"""The tribos benchmark: end-to-end and per-layer metrics of the `tribos` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the package is imported from its src/.
Every measurement runs in a fresh interpreter, as a `tribos` user pays it,
with the program's default threading (TRIBOS_THREADS, OPENBLAS_NUM_THREADS
and OMP_NUM_THREADS removed from the environment, values recorded):

* setup_s: the import of tribos.cli, in `worker.py --setup` children taken
  after each pass, at least one and for at least 15% of the pass's time;
* wall_s, peak_rss_mb: one worker child per pass over the workload's
  commands, repeated (at least twice) until --seconds have passed.

Every command's output is checked and hashed; a non-zero exit code, a failed
check or an output that differs between passes with the same threading
variables counts as a failed command.
--trace 1 measures the per-layer metrics instead: traced and untraced passes
alternate (their median difference is the tracing overhead), and one traced
positivity_sweep pass runs single-threaded as a reference.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  The line before it holds the details:
sample counts, accuracy figures, per-command times and hashes, environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Reported with the end-to-end metrics but not compared between commits:
# fail_share is 0 when the program is correct, and the accuracy figures
# exist on one workload each.
ACCURACY = {"fail_share": "share", "ladder_ratio_err": "ratio", "residual_max": "ratio"}

SETUP_SHARE = 0.15   # setup samples after each pass fill this share of its wall_s
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170.0
RUN_LIMIT_S = 150.0   # a run must end within 180 s
THREAD_VARS = ("TRIBOS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SERIAL = {"TRIBOS_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed command)."""


def _env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(extra or {})
    return env


def _child(argv: list[str], env: dict) -> str:
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S:.0f} s: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {argv}\n{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def setup_sample() -> float:
    return float(_child([str(BENCH / "worker.py"), "--setup"], _env()))


def worker_pass(workload: str, seed: int, smoke: bool, trace: bool = False,
                extra_env: dict | None = None) -> dict:
    argv = [str(BENCH / "worker.py"), workload, str(seed)]
    argv += ["--smoke"] * smoke + ["--trace"] * trace
    return json.loads(_child(argv, _env(extra_env)))


def tally(passes: list[dict]) -> tuple[int, list[str]]:
    """Attempted commands and failure reasons over all passes.  A command
    fails if its output differs from the first pass with the same argv and
    the same threading variables."""
    first_hash: dict[tuple, str] = {}
    attempted, failures = 0, []
    for record in passes:
        threads = tuple(record["env"][var] for var in THREAD_VARS)
        for cmd in record["commands"]:
            attempted += 1
            expected = first_hash.setdefault((*cmd["argv"], threads), cmd["sha256"])
            if not cmd["ok"]:
                failures.append(f"{' '.join(cmd['argv'])}: {cmd['facts'].get('reason')}")
            elif cmd["sha256"] != expected:
                failures.append(f"{' '.join(cmd['argv'])}: output differs between passes")
    return attempted, failures


def _accuracy(passes: list[dict], failed: int, attempted: int) -> dict:
    out = {"fail_share": failed / attempted}
    cmds = [c for p in passes for c in p["commands"]]
    ratio = [c["facts"]["ladder_ratio_err"] for c in cmds if "ladder_ratio_err" in c["facts"]]
    residual = [c["facts"]["residual"] for c in cmds
                if c["argv"][0] == "residual" and "residual" in c["facts"]]
    if ratio:
        out["ladder_ratio_err"] = max(ratio)
    if residual:
        out["residual_max"] = max(residual)
    return out


def _command_table(passes: list[dict]) -> list[dict]:
    rows: dict[tuple, dict] = {}
    for record in passes:
        for cmd in record["commands"]:
            row = rows.setdefault(tuple(cmd["argv"]), {"argv": cmd["argv"], "seconds": [],
                                                        "sha256": cmd["sha256"]})
            row["seconds"].append(cmd["seconds"])
    return [{**r, "seconds": statistics.median(r["seconds"])} for r in rows.values()]


def _repeat(step, seconds: float, minimum: int) -> None:
    """Call step() at least `minimum` times, then again while `seconds` last
    and another call would still end well before RUN_LIMIT_S."""
    started = time.perf_counter()
    longest, done = 0.0, 0
    while True:
        elapsed = time.perf_counter() - started
        if done >= minimum and (elapsed >= seconds or elapsed + 1.5 * longest > RUN_LIMIT_S):
            return
        t0 = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - t0)
        done += 1


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run: (metrics as {name: (value, unit, samples)}, details)."""
    if not (SRC / "tribos" / "cli.py").is_file():
        raise BenchError(f"no tribos package under {SRC}")
    started = time.perf_counter()
    plain: list[dict] = []
    details: dict = {"workload": workload, "seed": seed, "trace": int(trace)}
    if not trace:
        setup: list[float] = []

        def step() -> None:
            # Interleaved, so that setup_s sees the same machine load as
            # wall_s; by time share, so that every workload gets about as
            # many setup samples.
            plain.append(worker_pass(workload, seed, smoke))
            until = time.perf_counter() + SETUP_SHARE * plain[-1]["wall_s"]
            setup.append(setup_sample())
            while time.perf_counter() < until:
                setup.append(setup_sample())

        _repeat(step, seconds, MIN_PASSES)
        passes = plain
        details["samples"] = {"setup_s": setup, "wall_s": [p["wall_s"] for p in plain],
                              "peak_rss_mb": [p["peak_rss_mb"] for p in plain]}
        metrics = {
            "setup_s": (statistics.median(setup), len(setup)),
            "wall_s": (statistics.median(p["wall_s"] for p in plain), len(plain)),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), len(plain)),
        }
        units = END_TO_END
    else:
        traced: list[dict] = []

        def step() -> None:
            plain.append(worker_pass(workload, seed, smoke))
            traced.append(worker_pass(workload, seed, smoke, trace=True))

        _repeat(step, seconds, 1)
        serial = worker_pass("positivity_sweep", seed, smoke, trace=True, extra_env=SERIAL)
        passes = plain + traced + [serial]
        metrics = {name: (statistics.median(p["layers"][name] for p in traced), len(traced))
                   for name in traced[0]["layers"]}
        metrics["stm.eigensolve_ms_per_call_serial"] = (
            serial["layers"]["stm.eigensolve_ms_per_call"], 1)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain), len(traced))
        details["env_serial"] = serial["env"]
        if workload == "positivity_sweep":
            # Not a failure (the threading differs), but worth knowing: BLAS
            # threading changes the last digits of the eigenvalues.
            details["serial_output_identical"] = (
                [c["sha256"] for c in serial["commands"]]
                == [c["sha256"] for c in plain[0]["commands"]])
        units = PER_LAYER
    attempted, failures = tally(passes)
    details.update({
        "seconds": time.perf_counter() - started,
        "attempted": attempted,
        "failures": failures,
        "accuracy": _accuracy(passes, len(failures), attempted),
        "commands": _command_table(plain),
        "env": plain[0]["env"],
    })
    return {name: (value, units[name], n) for name, (value, n) in metrics.items()}, details


def _print_table(rows: list[tuple]) -> None:
    for workload, name, value, unit, n in rows:
        print(f"{workload:18s} {name:36s} {value:14.6g} {unit:14s} n={n}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the harness (not for timing)")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = {w: measure(w, args.seed, args.seconds, bool(args.trace), args.smoke)
                for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(d["attempted"] for _, d in runs.values())
    failed = sum(len(d["failures"]) for _, d in runs.values())
    rows = []
    for workload, (metrics, details) in runs.items():
        rows += [(workload, name, v, unit, n) for name, (v, unit, n) in metrics.items()]
        rows += [(workload, name, v, ACCURACY[name], details["attempted"])
                 for name, v in details["accuracy"].items()]
    _print_table(rows)
    for workload, (_, details) in runs.items():
        print(json.dumps({"details": details}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.workload == "all":
        result["workloads"] = {w: {name: {"value": v, "unit": u, "samples": n}
                                   for name, (v, u, n) in m.items()}
                               for w, (m, _) in runs.items()}
    else:
        metrics = runs[args.workload][0]
        result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u, _) in
                             metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
