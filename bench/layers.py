"""Per-layer tracing: timed, counted wrappers around the public functions of
each tribos module, installed in a worker process for a traced run.

Two pitfalls shape the wrapping:

* A function imported by name (``from .specfun import k0``) is a separate
  binding in the importing module, so each function is replaced at every
  binding in the tribos package, not only in its home module.
* ``numpy.polynomial.legendre.leggauss`` computes its nodes with
  ``numpy.linalg.eigvalsh``; calls made while ``stm.build_grid`` runs are
  left out of the eigen-solve counters (they are grid work).

Counters are updated under a lock because ``scan_spectrum`` runs its sweep
on worker threads; the "inside build_grid" and "inside emit" states are
thread-local.  Times are inclusive (a wrapper's time contains the wrapped
calls beneath it).
"""

from __future__ import annotations

import collections
import inspect
import sys
import threading
import time

COMMANDS = ("s0", "delta0", "ladder", "symbol", "scan", "residual", "thomas", "oracle")

# Every per-layer metric, with its unit.  The first block comes from one
# traced worker; the last two are measured by run.py across workers.
PER_LAYER = {
    "stm.eigensolve_calls": "count",
    "stm.eigensolve_s": "s",
    "stm.eigensolve_ms_per_call": "ms",
    "stm.refine_solves": "count",
    "stm.solves_per_crossing": "count",
    "stm.solve_concurrency": "ratio",
    "stm.assemble_calls": "count",
    "stm.assemble_s": "s",
    "stm.grid_s": "s",
    "stm.leggauss_calls": "count",
    "stm.residual_s": "s",
    "stm.kernel_bytes": "bytes_computed",
    "symbols.find_s0_calls": "count",
    "symbols.find_s0_s": "s",
    "symbols.certify_s": "s",
    "symbols.symbol_evals": "count",
    "specfun.k0_calls": "count",
    "specfun.k0_s": "s",
    "specfun.ratio_calls": "count",
    "specfun.ratio_s": "s",
    "ladder.xi_mu_points": "count",
    "ladder.xi_mu_s": "s",
    "thomas.psi_calls": "count",
    "thomas.psi_s": "s",
    "thomas.pde_s": "s",
    "oracle.integrate_calls": "count",
    "oracle.integrate_s": "s",
    "oracle.kernel_evals": "count",
    "cli.emit_s": "s",
    "cli.emit_bytes": "bytes",
    **{f"cli.cmd_s.{c}": "s" for c in COMMANDS},
    "stm.eigensolve_ms_per_call_serial": "ms",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs the wrappers, accumulates calls/seconds/amounts per key, and
    restores every original binding on uninstall."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: collections.Counter = collections.Counter()
        self.seconds: collections.Counter = collections.Counter()
        self.amount: collections.Counter = collections.Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _record(self, key: str, dt: float, amounts: dict | None = None) -> None:
        with self._lock:
            self.calls[key] += 1
            self.seconds[key] += dt
            if amounts:
                self.amount.update(amounts)

    def _timed(self, key: str, fn, amounts=None):
        """fn timed and counted under key; amounts(bound_args, result) gives
        extra quantities to add, keyed by name."""
        signature = inspect.signature(fn) if amounts else None

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            extra = None
            if amounts:
                extra = amounts(signature.bind(*args, **kwargs).arguments, result)
            self._record(key, dt, extra)
            return result

        return wrapper

    def _flagged(self, flag: str, fn):
        """fn(outer, *args) run with a thread-local flag set; outer is false
        when the flag was already set, i.e. for nested calls."""
        def wrapper(*args, **kwargs):
            outer = not getattr(self._local, flag, False)
            setattr(self._local, flag, True)
            try:
                return fn(outer, *args, **kwargs)
            finally:
                if outer:
                    setattr(self._local, flag, False)

        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace(self, original, wrapper) -> None:
        """Rebind every tribos-module name bound to original."""
        for modname, module in list(sys.modules.items()):
            if modname == "tribos" or modname.startswith("tribos."):
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)

    def install(self) -> None:
        import numpy as np
        import numpy.polynomial.legendre

        from tribos import cli, ladder, oracle, specfun, stm, symbols, thomas

        eigvalsh = np.linalg.eigvalsh
        timed_eig = self._timed("stm.eigensolve", eigvalsh)

        def eig(*args, **kwargs):
            if getattr(self._local, "in_grid", False):
                return eigvalsh(*args, **kwargs)
            return timed_eig(*args, **kwargs)

        self._set(np.linalg, "eigvalsh", eig)
        self._set(numpy.polynomial.legendre, "leggauss",
                  self._timed("stm.leggauss", numpy.polynomial.legendre.leggauss))

        timed_grid = self._timed("stm.grid", stm.build_grid)
        self._replace(stm.build_grid, self._flagged(
            "in_grid", lambda outer, *a, **k: timed_grid(*a, **k)))
        self._replace(stm.assemble, self._timed("stm.assemble", stm.assemble))
        self._replace(stm._kernel_matrix, self._timed(
            "stm.kernel", stm._kernel_matrix,
            lambda a, r: {"stm.kernel_bytes":
                          a["p"].size ** 2 * 8 * (2 if a["params"].delta != 0.0 else 1)}))
        self._replace(stm.scan_spectrum, self._timed(
            "stm.scan", stm.scan_spectrum,
            lambda a, r: {"stm.scan_n_mu": a["n_mu"], "stm.crossings": len(r.crossings)}))
        self._replace(stm.residual, self._timed("stm.residual", stm.residual))

        self._replace(symbols.find_s0, self._timed("symbols.find_s0", symbols.find_s0))
        self._replace(symbols.certify_positivity,
                      self._timed("symbols.certify", symbols.certify_positivity))
        for fn in (symbols.eval_g, symbols.eval_reg_symbol):
            self._replace(fn, self._timed("symbols.symbol_eval", fn))

        self._replace(specfun.k0, self._timed("specfun.k0", specfun.k0))
        for fn in (specfun.sinh_ratio, specfun.tanh_over_s):
            self._replace(fn, self._timed("specfun.ratio", fn))

        self._replace(ladder.xi_mu, self._timed(
            "ladder.xi_mu", ladder.xi_mu,
            lambda a, r: {"ladder.xi_mu_points": int(np.size(a["p"]))}))

        self._replace(thomas.thomas_psi, self._timed("thomas.psi", thomas.thomas_psi))
        self._replace(thomas.pde_residual, self._timed("thomas.pde", thomas.pde_residual))

        self._replace(oracle.integrate, self._timed("oracle.integrate", oracle.integrate))
        for fn in (oracle.m_log_kernel, oracle.coth_log_kernel):
            self._replace(fn, self._timed("oracle.kernel", fn))

        # emit_csv / emit_json call _write_atomic; time only the outermost.
        for fn in (cli.emit_csv, cli.emit_json, cli._write_atomic):
            self._replace(fn, self._flagged("in_emit", self._emit(fn)))

    def _emit(self, fn):
        def call(outer, *args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            if fn.__name__ == "_write_atomic":
                with self._lock:
                    self.amount["cli.emit_bytes"] += len(args[1].encode("utf-8"))
            if outer:
                self._record("cli.emit", time.perf_counter() - t0)
            return result

        return call

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def metrics(self, command_seconds: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics of everything traced so far; command_seconds maps
        a command name to its time inside tribos.cli.main."""
        c, s, a = self.calls, self.seconds, self.amount
        solves = c["stm.eigensolve"]
        refine = solves - a["stm.scan_n_mu"]
        out = {
            "stm.eigensolve_calls": solves,
            "stm.eigensolve_s": s["stm.eigensolve"],
            "stm.eigensolve_ms_per_call": 1e3 * s["stm.eigensolve"] / solves if solves else 0.0,
            "stm.refine_solves": refine,
            "stm.solves_per_crossing": refine / a["stm.crossings"] if a["stm.crossings"] else 0.0,
            "stm.solve_concurrency": (s["stm.eigensolve"] / s["stm.scan"]
                                      if s["stm.scan"] else 0.0),
            "stm.assemble_calls": c["stm.assemble"],
            "stm.assemble_s": s["stm.assemble"],
            "stm.grid_s": s["stm.grid"],
            "stm.leggauss_calls": c["stm.leggauss"],
            "stm.residual_s": s["stm.residual"],
            "stm.kernel_bytes": a["stm.kernel_bytes"],
            "symbols.find_s0_calls": c["symbols.find_s0"],
            "symbols.find_s0_s": s["symbols.find_s0"],
            "symbols.certify_s": s["symbols.certify"],
            "symbols.symbol_evals": c["symbols.symbol_eval"],
            "specfun.k0_calls": c["specfun.k0"],
            "specfun.k0_s": s["specfun.k0"],
            "specfun.ratio_calls": c["specfun.ratio"],
            "specfun.ratio_s": s["specfun.ratio"],
            "ladder.xi_mu_points": a["ladder.xi_mu_points"],
            "ladder.xi_mu_s": s["ladder.xi_mu"],
            "thomas.psi_calls": c["thomas.psi"],
            "thomas.psi_s": s["thomas.psi"],
            "thomas.pde_s": s["thomas.pde"],
            "oracle.integrate_calls": c["oracle.integrate"],
            "oracle.integrate_s": s["oracle.integrate"],
            "oracle.kernel_evals": c["oracle.kernel"],
            "cli.emit_s": s["cli.emit"],
            "cli.emit_bytes": a["cli.emit_bytes"],
        }
        for command in COMMANDS:
            out[f"cli.cmd_s.{command}"] = command_seconds.get(command, 0.0)
        return out
