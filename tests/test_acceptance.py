"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are fixed here, nothing is calibrated at run time.
"""

import math
import time

import numpy as np

from tribos import stm
from tribos.ladder import mu_n, quantization_residual
from tribos.oracle import (convolution_balance, cosine_transform, coth_log_kernel,
                           coth_transform_analytic, m_log_kernel, m_transform_analytic)
from tribos.specfun import k0
from tribos.stm import (ModelParams, assemble, build_grid, closed_form_residual,
                        scan_bound_states, smallest_eigenvalue)
from tribos.symbols import (certify_positivity, delta0, delta_bound, eval_g,
                            eval_reg_symbol, find_s0, gamma_bound, gamma_to_delta)
from tribos.thomas import boundary_coefficient, pde_residual

from test_specfun import k0_integral_oracle
from test_thomas import random_admissible_point

SQRT3 = math.sqrt(3.0)


def report(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {index:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {index} ({name}) failed{suffix}"


def test_criterion_01_efimov_constant():
    t0 = time.perf_counter()
    found = find_s0(1e-12)
    elapsed = time.perf_counter() - t0
    for _ in range(10):
        t1 = time.perf_counter()
        find_s0(1e-12)
        elapsed = min(elapsed, time.perf_counter() - t1)
    lo, hi = 0.5, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if eval_g(lo) * eval_g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    ok = (abs(eval_g(found.s0)) <= 1e-12
          and 1.000 < found.s0 < 1.010
          and abs(found.s0 - oracle) <= 1e-10
          and elapsed < 1e-3)
    report(1, "Efimov constant", ok,
           f"s0={found.s0:.12f} residual={found.residual:.2e} t={elapsed*1e6:.0f}us")


def test_criterion_02_exact_ladder_law(s0):
    ratio = math.exp(2.0 * math.pi / s0)
    worst_ratio = 0.0
    worst_quant = 0.0
    for beta in (-2.0, 0.0, 1.0):
        for n in range(-3, 4):
            if n < 3:
                r = mu_n(beta, n + 1, s0) / mu_n(beta, n, s0)
                worst_ratio = max(worst_ratio, abs(r / ratio - 1.0))
            worst_quant = max(worst_quant, abs(quantization_residual(mu_n(beta, n, s0),
                                                                     beta, s0)))
    ok = worst_ratio <= 1e-14 and worst_quant <= 1e-13
    report(2, "exact geometric ladder", ok,
           f"ratio err={worst_ratio:.2e} quantization={worst_quant:.2e}")


def test_criterion_03_closed_form_solves_radial_equation():
    t0 = time.perf_counter()
    worst = 0.0
    for mu in (0.5, 1.0, 3.0):
        worst = max(worst, closed_form_residual(mu, n=2000))
    r_half = closed_form_residual(1.0, n=2000)
    r_full = closed_form_residual(1.0, n=4000)
    order = math.log2(r_half / r_full)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and order >= 2.0 and elapsed < 30.0
    report(3, "closed-form charge density solves the radial equation", ok,
           f"max residual={worst:.2e} doubling order={order:.1f} t={elapsed:.1f}s")


def test_criterion_04_cutoff_efimov_ratio(s0):
    t0 = time.perf_counter()
    target = math.exp(2.0 * math.pi / s0)
    grid_a = build_grid(1e-4, 1e4, 1000)
    cross_a = scan_bound_states(grid_a, 0.0, 1e-4, 1e4, 25)
    ratios_a = [b / a for a, b in zip(cross_a, cross_a[1:])]
    grid_b = build_grid(1e-4, 1e5, 1000)
    cross_b = scan_bound_states(grid_b, 0.0, 1e-4, 1e4, 25)
    ratios_b = [b / a for a, b in zip(cross_b, cross_b[1:])]
    elapsed = time.perf_counter() - t0

    enough = len(cross_a) >= 2 and len(cross_b) >= 2
    within = all(abs(r / target - 1.0) <= 0.02 for r in ratios_a + ratios_b)
    shift = abs(np.mean(ratios_a) / np.mean(ratios_b) - 1.0)
    moved = all(min(abs(cb / ca - 1.0) for cb in cross_b) > 0.10 for ca in cross_a)
    ok = enough and within and shift < 0.01 and moved and elapsed < 300.0
    report(4, "cutoff ladder ratio and Thomas-effect signature", ok,
           f"crossings={len(cross_a)}/{len(cross_b)} ratios={ratios_a}+{ratios_b} "
           f"shift={shift:.2e} t={elapsed:.0f}s")


def test_criterion_05_symbol_positivity():
    t0 = time.perf_counter()
    ok = True
    for delta in (0.79, 1.0, 2.0):
        scan = certify_positivity(delta, 50.0, 5000)
        ok = ok and scan.sign_changes == [] and scan.min_value > 0.0
    for delta in (0.0, 0.7):
        scan = certify_positivity(delta, 50.0, 5000)
        ok = ok and (scan.sign_changes != [] or scan.min_value < 0.0)
        ok = ok and scan.min_value < 0.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(5, "regularized symbol positivity across the threshold", ok,
           f"t={elapsed*1e3:.0f}ms")


def test_criterion_06_operator_positivity():
    # each matrix is also proven positive definite: LDL^T of M - (lam/2) I,
    # with its rounding bounded, shows no eigenvalue below the bound
    t0 = time.perf_counter()
    grid = build_grid(1e-4, 1e4, 1000)
    smallest, bounds = [], []
    for mu in np.geomspace(1e-3, 1e3, 60):
        op = assemble(grid, ModelParams(mu=float(mu), delta=1.0))
        lam = smallest_eigenvalue(op)
        smallest.append(lam)
        bounds.append(stm._certified_lower_bound(op.copy(), lam / 2.0, 0.0))
    elapsed = time.perf_counter() - t0
    ok = (all(v > 0.0 for v in smallest) and all(b is not None and b > 0.0 for b in bounds)
          and elapsed < 180.0)
    proven = min((b for b in bounds if b is not None), default=math.nan)
    report(6, "operator positivity for delta above threshold", ok,
           f"min eigenvalue={min(smallest):.3e} min proven bound={proven:.3e} "
           f"proven {sum(b is not None for b in bounds)}/{len(bounds)} t={elapsed:.0f}s")


def test_criterion_07_threshold_identity():
    limit = eval_reg_symbol(0.0, delta0())
    exact = delta0() == 4.0 / 3.0 - SQRT3 / math.pi
    mapped = gamma_to_delta(gamma_bound())
    bound_ok = (abs(mapped / delta_bound() - 1.0) <= 1e-15
                and abs(delta_bound()
                        - (2.0 / math.pi) * (4.0 * math.pi / (3.0 * SQRT3) - 1.0)) <= 1e-15)
    ok = abs(limit) <= 1e-12 and exact and bound_ok
    report(7, "threshold constants and gamma/delta mapping", ok,
           f"limit={limit:.2e} delta0={delta0():.15f}")


def test_criterion_08_thomas_solution():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    residuals = []
    ratios = []
    for _ in range(10):
        pt = random_admissible_point(rng)
        r = pde_residual(pt, 1e-3)
        residuals.append(r)
        ratios.append(r / pde_residual(pt, 5e-4))
    bc_ok = True
    for _ in range(10):
        direction = rng.normal(size=3)
        s2 = direction / np.linalg.norm(direction) * rng.uniform(0.5, 5.0)
        eta = float(rng.choice([0.5, 1.0, 2.0]))
        est = boundary_coefficient(s2, eta, 1e-3)
        r2 = float(np.linalg.norm(s2))
        exact = (math.pi / SQRT3) * k0(eta * r2) / r2
        bc_ok = bc_ok and abs(est - exact) <= 0.01 * exact
    elapsed = time.perf_counter() - t0
    order_ratio = float(np.median(ratios))
    ok = (max(residuals) <= 1e-4 and 3.2 <= order_ratio <= 4.8 and bc_ok
          and elapsed < 10.0)
    report(8, "Thomas singular solution", ok,
           f"max residual={max(residuals):.2e} median h-ratio={order_ratio:.2f} "
           f"t={elapsed:.1f}s")


def test_criterion_09_fourier_oracle(s0):
    t0 = time.perf_counter()
    worst_transform = 0.0
    for s in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        worst_transform = max(
            worst_transform,
            abs(cosine_transform(m_log_kernel, s) - m_transform_analytic(s)),
            abs(cosine_transform(coth_log_kernel, s) - coth_transform_analytic(s)))
    worst_balance = 0.0
    for s in (0.5, s0, 2.0):
        for x in (0.5, 1.0, 2.0):
            worst_balance = max(worst_balance,
                                abs(convolution_balance(s, x)
                                    - eval_g(s) * math.sin(s * x)))
    elapsed = time.perf_counter() - t0
    ok = worst_transform <= 1e-8 and worst_balance <= 1e-6 and elapsed < 30.0
    report(9, "Fourier-transform oracle", ok,
           f"transform err={worst_transform:.2e} balance err={worst_balance:.2e} "
           f"t={elapsed:.1f}s")


def test_criterion_10_special_functions():
    worst = 0.0
    for x in np.geomspace(1e-4, 50.0, 100):
        ref = k0_integral_oracle(float(x))
        worst = max(worst, abs(k0(float(x)) - ref) / abs(ref))
    ok = worst <= 1e-10
    report(10, "Macdonald function versus integral representation", ok,
           f"max rel err={worst:.2e}")
