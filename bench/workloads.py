"""Workloads of the tribos benchmark: the CLI commands each one runs and the
checks their outputs must pass.

A workload is a list of commands built from a seed.  The seed changes the
inputs (scan window edges, the Thomas sampler seed) but never the amount of
work, so runs with different seeds are comparable.  This module is stdlib
only: the checks parse the CLI's CSV/JSON text, independently of the
package's own data structures.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("efimov_ladder", "positivity_sweep", "verify_suite")

# Acceptance tolerances (README / acceptance suite).
RATIO_TOL = 0.02            # cutoff ladder ratio against exp(2 pi / s0)
RESIDUAL_TOL = 1e-6         # closed-form density residual
PDE_TOL = 1e-4              # Thomas finite-difference residual, far from the degenerate sets
PDE_NEAR = 0.6              # distance below which the PDE bound grows like (PDE_NEAR/d)^4
BC_TOL = 0.01               # Thomas boundary coefficient, relative
S0_REF = 1.0062378251027815  # Efimov constant, mpmath root of g at 30 digits
SQRT5 = math.sqrt(5.0)

Check = Callable[[str], "tuple[bool, dict]"]


@dataclass(frozen=True)
class Command:
    """One `tribos` invocation and the check its output text must pass.

    check(text) returns (ok, facts): facts holds the measured quantities the
    check looked at (and a "reason" when ok is false).
    """

    argv: tuple[str, ...]
    check: Check


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))


def _header(text: str, key: str) -> str:
    prefix = f"# {key}: "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise ValueError(f"no '{key}' header line")


def _fail(reason: str, **facts) -> tuple[bool, dict]:
    return False, {"reason": reason, **facts}


def check_ladder_scan(text: str, crossings: int = 3) -> tuple[bool, dict]:
    """Exactly `crossings` refined crossings, consecutive ratios near exp(2 pi/s0)."""
    target = math.exp(2.0 * math.pi / float(_header(text, "s0")))
    found = [float(c) for row in _rows(text) for c in row["crossing"].split(";") if c]
    facts: dict = {"crossings": len(found)}
    ratios = [b / a for a, b in zip(found, found[1:])]
    if ratios:
        facts["ladder_ratio_err"] = max(abs(r / target - 1.0) for r in ratios)
    if len(found) != crossings:
        return _fail(f"{len(found)} crossings, expected {crossings}", **facts)
    if facts.get("ladder_ratio_err", 0.0) > RATIO_TOL:
        return _fail("ladder ratio off exp(2 pi/s0)", **facts)
    return True, facts


def check_positive_scan(text: str) -> tuple[bool, dict]:
    """No crossing and a positive smallest eigenvalue at every sweep point."""
    rows = _rows(text)
    smallest = [float(r["smallest_eigenvalue"]) for r in rows]
    facts = {"min_eigenvalue": min(smallest), "points": len(rows)}
    if any(r["crossing"] for r in rows) or any(int(r["negative_count"]) for r in rows):
        return _fail("operator has a negative eigenvalue", **facts)
    if not min(smallest) > 0.0:
        return _fail("smallest eigenvalue not positive", **facts)
    return True, facts


def check_residual(text: str) -> tuple[bool, dict]:
    """Closed-form density residual at most RESIDUAL_TOL."""
    value = json.loads(text)["result"]["residual"]
    if not value <= RESIDUAL_TOL:
        return _fail(f"residual {value:.3e} > {RESIDUAL_TOL:.0e}", residual=value)
    return True, {"residual": value}


def check_symbol(text: str) -> tuple[bool, dict]:
    """No sign change and a positive minimum of the regularized symbol."""
    scan = dict(item.split("=") for item in _header(text, "scan").split())
    rows = _rows(text)
    facts = {"symbol_min": float(scan["min_value"]), "points": len(rows)}
    if int(scan["n_sign_changes"]) or any(r["sign_change_bracket"] != "0" for r in rows):
        return _fail("symbol changes sign", **facts)
    if not (facts["symbol_min"] > 0.0 and all(float(r["reg_symbol"]) > 0.0 for r in rows)):
        return _fail("symbol not positive", **facts)
    return True, facts


def _min_separation(s1: list[float], s2: list[float]) -> float:
    # Same four degenerate sets as tribos.thomas.ThomasPoint.min_separation.
    return min(math.dist(s1, (0.0, 0.0, 0.0)), math.dist(s2, (0.0, 0.0, 0.0)),
               math.dist(s1, [2.0 * x for x in s2]) / SQRT5,
               math.dist(s2, [2.0 * x for x in s1]) / SQRT5)


def pde_bound(d: float) -> float:
    """Largest accepted Thomas PDE residual at distance d from the degenerate
    sets: PDE_TOL from PDE_NEAR outwards, growing like d^-4 inside it.

    The second-order stencil's truncation error grows roughly like d^-4, and
    the CLI sampler accepts points down to d = 12 h.  Fitted on 32000 rows
    (160 sampler seeds, h = 1e-3): the largest residual/bound was 0.45.
    """
    return PDE_TOL * max(1.0, (PDE_NEAR / d) ** 4)


def check_thomas(text: str, n_points: int) -> tuple[bool, dict]:
    """Every row: positive psi, PDE residual within pde_bound of its distance
    to the degenerate sets, boundary coefficient within BC_TOL of its
    reference."""
    rows = _rows(text)
    worst_pde = worst_bc = 0.0
    for r in rows:
        s1 = [float(r[k]) for k in ("s1x", "s1y", "s1z")]
        s2 = [float(r[k]) for k in ("s2x", "s2y", "s2z")]
        pde = float(r["pde_residual"]) / pde_bound(_min_separation(s1, s2))
        bc = abs(float(r["bc_estimate"]) / float(r["bc_reference"]) - 1.0)
        if not (float(r["psi"]) > 0.0 and pde <= 1.0 and bc <= BC_TOL):
            return _fail("Thomas row out of tolerance", row=r)
        worst_pde, worst_bc = max(worst_pde, pde), max(worst_bc, bc)
    facts = {"rows": len(rows), "pde_over_bound_max": worst_pde, "bc_rel_err_max": worst_bc}
    if len(rows) != n_points:
        return _fail(f"{len(rows)} rows, expected {n_points}", **facts)
    return True, facts


def check_oracle(text: str, n_rows: int) -> tuple[bool, dict]:
    """n_rows rows, every one marked pass."""
    status = [r["status"] for r in _rows(text)]
    facts = {"rows": len(status), "passed": status.count("pass")}
    if len(status) != n_rows or facts["passed"] != n_rows:
        return _fail("oracle rows missing or failed", **facts)
    return True, facts


def check_s0(text: str) -> tuple[bool, dict]:
    """s0 matches the reference value and its residual meets its tolerance."""
    result = json.loads(text)["result"]
    facts = {"s0": result["s0"], "residual": result["residual"]}
    if abs(result["s0"] - S0_REF) > 1e-11 or not result["residual"] <= result["tol"]:
        return _fail("s0 off its reference", **facts)
    return True, facts


def check_delta0(text: str) -> tuple[bool, dict]:
    """delta0 = 4/3 - sqrt(3)/pi and the gamma bound maps onto the delta bound."""
    result = json.loads(text)["result"]
    if (abs(result["delta0"] - (4.0 / 3.0 - math.sqrt(3.0) / math.pi)) > 1e-15
            or abs(result["gamma_bound_mapped"] - result["delta_bound"]) > 1e-14):
        return _fail("threshold constants inconsistent", **result)
    return True, {"delta0": result["delta0"]}


def check_ladder(text: str, n_levels: int) -> tuple[bool, dict]:
    """Consecutive levels obey mu_{n+1}/mu_n = ratio; quantization residual ~0."""
    rows = _rows(text)
    mus = [float(r["mu"]) for r in rows]
    law = max(abs(b / a / float(r["ratio"]) - 1.0) for a, b, r in zip(mus, mus[1:], rows))
    quant = max(abs(float(r["quantization_residual"])) for r in rows)
    facts = {"law_err": law, "quantization_residual": quant}
    if len(rows) != n_levels or law > 1e-12 or quant > 1e-9:
        return _fail("exact ladder law violated", **facts)
    return True, facts


def _num(x: float) -> str:
    return repr(float(x))


def _scan(delta: float, mu_lo: float, mu_hi: float, n_mu: int, grid: int) -> tuple[str, ...]:
    return ("scan", "--delta", _num(delta), "--mu-lo", _num(mu_lo), "--mu-hi", _num(mu_hi),
            "--n-mu", str(n_mu), "--grid", str(grid))


def commands(workload: str, seed: int, smoke: bool = False) -> list[Command]:
    """The commands of a workload for a seed; smoke=True is a tiny version
    (small grids and samples) for testing the harness, not for timing."""
    rng = random.Random(seed)
    # Both window edges move by one factor, so the log spacing (and with it
    # the bisection depth per crossing) is the same for every seed; within
    # 10^(+-0.1) the crossings near 0.0227, 11.69 and 6021 stay inside.
    shift = 10.0 ** rng.uniform(-0.1, 0.1)
    grid = 150 if smoke else 1000
    if workload == "efimov_ladder":
        return [Command(_scan(0.0, 1e-4 * shift, 1e4 * shift, 25, grid), check_ladder_scan)]
    if workload == "positivity_sweep":
        n_mu = 7 if smoke else 31
        return [Command(_scan(1.0, 1e-3 * shift, 1e3 * shift, n_mu, grid), check_positive_scan)]
    if workload != "verify_suite":
        raise ValueError(f"unknown workload {workload!r}")
    thomas_seed = rng.randrange(2**31)
    residuals = ([(1.0, 2000)] if smoke
                 else [(0.5, 2000), (1.0, 2000), (3.0, 2000), (1.0, 4000)])
    s_values = "0.5,1" if smoke else "0.1,0.25,0.5,0.75,1,1.5,2,2.5,3,4,5,7.5,10"
    x_values = "1" if smoke else "0.25,0.5,1,2,3"
    n_s, n_x = len(s_values.split(",")), len(x_values.split(","))
    n_thomas = 10 if smoke else 200
    n_symbol = 2000 if smoke else 100000
    out = [Command(("residual", "--mu", _num(mu), "--n", str(n)), check_residual)
           for mu, n in residuals]
    out += [
        Command(("symbol", "--delta", "0.79", "--s-max", "200", "--n", str(n_symbol)),
                check_symbol),
        Command(("thomas", "--n-points", str(n_thomas), "--seed", str(thomas_seed)),
                lambda text: check_thomas(text, n_thomas)),
        Command(("oracle", "--s", s_values, "--x", x_values),
                lambda text: check_oracle(text, 2 * n_s + 1 + 2 * n_x)),
        Command(("s0",), check_s0),
        Command(("delta0",), check_delta0),
        Command(("ladder", "--n=-3..3"), lambda text: check_ladder(text, 7)),
    ]
    return out
