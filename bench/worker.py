"""Run one workload's commands in this (fresh) interpreter and print a JSON
record of what happened.

    python3 bench/worker.py WORKLOAD SEED [--smoke] [--trace]
    python3 bench/worker.py --setup

Each command goes through tribos.cli.main(argv) with `--out` naming a file
in a temporary directory under bench/, removed when the pass ends; the
record holds, per command, the exit code, the time inside main, the SHA-256
of the written file and the verdict of the workload's check, plus the
process's peak RSS, the environment and, with --trace, the per-layer
metrics.  With --setup it prints only the time the import of tribos.cli
takes.  The package is imported from the checkout's src/ directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_cli():
    """Import tribos.cli from the checkout, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import tribos.cli

    if Path(tribos.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"tribos imported from {tribos.cli.__file__}, not from {SRC}")
    return tribos.cli


def run_commands(cli, commands, out_dir: Path, tracer=None) -> dict:
    """Run each command through cli.main, writing to a file in out_dir, and
    check what it wrote."""
    records = []
    seconds: dict[str, float] = {}
    if tracer is not None:
        tracer.install()
    try:
        for i, command in enumerate(commands):
            path = out_dir / f"{i}-{command.argv[0]}.out"
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*command.argv, "--out", str(path)])
            dt = time.perf_counter() - t0
            seconds[command.argv[0]] = seconds.get(command.argv[0], 0.0) + dt
            text = path.read_text(encoding="utf-8") if path.is_file() else ""
            ok, facts = False, {"reason": f"exit code {code}: {err.getvalue().strip()}"}
            if code == 0 and out.getvalue():
                facts = {"reason": "wrote to stdout despite --out"}
            elif code == 0:
                try:
                    ok, facts = command.check(text)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    ok, facts = False, {"reason": f"unreadable output: {exc!r}"}
            records.append({"argv": list(command.argv), "exit_code": code, "seconds": dt,
                            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                            "ok": ok, "facts": facts})
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"commands": records, "wall_s": sum(r["seconds"] for r in records)}
    if tracer is not None:
        result["layers"] = tracer.metrics(seconds)
    return result


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through ctypes (no threadpoolctl)."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import importlib.metadata
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in
           ("TRIBOS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


def main(argv: list[str]) -> int:
    if argv == ["--setup"]:
        t0 = time.perf_counter()
        import_cli()
        print(repr(time.perf_counter() - t0))
        return 0
    workload, seed = argv[0], int(argv[1])
    cli = import_cli()
    sys.path.insert(0, str(BENCH))
    from layers import Tracer
    from workloads import commands

    tracer = Tracer() if "--trace" in argv else None
    with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH) as out_dir:
        result = run_commands(cli, commands(workload, seed, smoke="--smoke" in argv),
                              Path(out_dir), tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
