import math
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from tribos import stm
from tribos.ladder import quantization_residual, xi_mu
from tribos.stm import (ModelParams, assemble, build_grid, closed_form_residual,
                        coulomb_kernel, residual,
                        scan_bound_states, scan_spectrum, smallest_eigenvalue,
                        tms_kernel)


def test_build_grid_log_exact_integrand():
    # integrand 1/p is constant in log p: the rule is exact for it
    g = build_grid(1.0, math.e, 16)
    assert np.dot(g.weights, 1.0 / g.nodes) == pytest.approx(1.0, abs=1e-10)


def test_build_grid_exponential_integrand():
    # int_{1e-3}^{50} p e^{-p} dp = (1+a)e^{-a} - (1+b)e^{-b}, frozen at 25 digits
    g = build_grid(1e-3, 50.0, 160)
    val = np.dot(g.weights, g.nodes * np.exp(-g.nodes))
    assert abs(val - 0.9999995003332083666498868) < 1e-8


def test_build_grid_structure():
    g = build_grid(1e-3, 1e3, 100)
    assert np.all(np.diff(g.nodes) > 0.0)
    assert np.all(g.weights > 0.0)
    assert len(g) == 100


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(1.0, 0.5, 100)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 100)
    with pytest.raises(ValueError):
        build_grid(1e-3, 1e3, 4)


def test_tms_kernel_symmetry_and_values():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p, q, mu = rng.uniform(0.01, 100.0, size=3)
        assert tms_kernel(p, q, mu) == tms_kernel(q, p, mu)
    assert tms_kernel(1.0, 1.0, 1.0) == pytest.approx(-(2.0 / math.pi) * math.log(2.0),
                                                      rel=1e-15)
    # vanishes linearly as q -> 0
    for q in (1e-6, 1e-8):
        assert tms_kernel(1.0, q, 1.0) / q == pytest.approx(-2.0 / math.pi, rel=1e-5)
    with pytest.raises(ValueError):
        tms_kernel(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        tms_kernel(1.0, 1.0, 0.0)
    # a 2-D broadcast call equals the scalar calls, which return floats
    p, q = rng.uniform(0.01, 100.0, size=5), rng.uniform(0.01, 100.0, size=7)
    table = tms_kernel(p[:, None], q, 0.3)
    assert table.shape == (5, 7)
    for (i, k), value in np.ndenumerate(table):
        scalar = tms_kernel(float(p[i]), float(q[k]), 0.3)
        assert type(scalar) is float and scalar == value


def test_coulomb_kernel_values_and_errors():
    assert coulomb_kernel(2.0, 1.0, 1.0) == pytest.approx(math.log(3.0) / math.pi, rel=1e-15)
    assert coulomb_kernel(2.0, 1.0, 0.7) == pytest.approx(0.7 * math.log(3.0) / math.pi,
                                                          rel=1e-15)
    rng = np.random.default_rng(37)
    for _ in range(20):
        p, q = rng.uniform(0.01, 100.0, size=2)
        assert coulomb_kernel(p, q, 1.3) == coulomb_kernel(q, p, 1.3)
        assert coulomb_kernel(p, q, 1.3) > 0.0
    with pytest.raises(ValueError):
        coulomb_kernel(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        coulomb_kernel(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        coulomb_kernel(np.array([2.0, 3.0]), np.array([[1.0], [3.0]]), 1.0)
    # a 2-D broadcast call equals the scalar calls, which return floats
    p, q = rng.uniform(0.01, 100.0, size=6), rng.uniform(0.01, 100.0, size=4)
    table = coulomb_kernel(p[:, None], q, 0.7)
    assert table.shape == (6, 4)
    for (i, k), value in np.ndenumerate(table):
        scalar = coulomb_kernel(float(p[i]), float(q[k]), 0.7)
        assert type(scalar) is float and scalar == value


def test_coulomb_kernel_integrable_singularity():
    # int_0^inf coulomb_kernel(1, q, 1) e^{-q} dq is finite; mpmath oracle
    from tribos.oracle import _graded_breakpoints, integrate

    with mp.workdps(25):
        ref = float(mp.quad(lambda q: (1 / mp.pi) * mp.log((1 + q) / abs(1 - q)) * mp.exp(-q),
                            [0, 1, 2, 10, 60]))
    assert math.isfinite(ref)
    pts = (_graded_breakpoints(0.0, 1.0, toward=1.0)
           + _graded_breakpoints(1.0, 2.0, toward=1.0)[1:] + [10.0, 60.0])

    # Kronrod nodes are interior, so no node is the breakpoint q = 1
    value = integrate(lambda q, k: coulomb_kernel(1.0, q, 1.0) * np.exp(-q), [pts])[0]
    assert value == pytest.approx(ref, abs=1e-8)


def _near_corrections(grid, i):
    # row i of the product rule's relative corrections e_ij (zero beyond the
    # neighbour panels), log(2/H) included on the diagonal
    starts = np.cumsum((0,) + grid.panels)
    a = int(np.searchsorted(starts, i, side="right")) - 1
    row = np.zeros(len(grid))
    for b in range(max(a - 1, 0), min(a + 2, len(grid.panels))):
        row[starts[b]:starts[b + 1]] = stm._relative_correction(
            grid.panels[a], grid.panels[b], b - a)[i - starts[a]]
    row[i] += math.log(2.0 / grid.half_width)
    return row


def test_coulomb_row_against_mpmath():
    # Row i of the product rule, sum_j w_j [C(p_i, q_j) + (delta/pi) e_ij] f(q_j),
    # on 16 decades at n = 512, against int_a^b C(p_i, q) f(q) dq for a
    # log-normal f centred on p_i, at p_i/b from 1e-16 to 1: measured within
    # 1.9e-14 relative (4.1e-14 at n = 384, 2.1e-11 at 256).  The
    # singularity subtraction it replaced, whose closed-form row integral
    # also ran from the first node to the last instead of from a to b, read
    # 3.6e-3 inside and 5.0e-2 at the ends.  (assemble holds these rows
    # symmetrized, which keeps their quadratic form.)
    a, b, delta = 1e-8, 1e8, 1.3
    grid = build_grid(a, b, 512)
    p, w = grid.nodes, grid.weights
    for k in range(16, -1, -1):
        i = int(np.argmin(np.abs(np.log(p * 10.0 ** k / b))))
        others = np.arange(len(p)) != i
        row = np.zeros(len(p))
        row[others] = coulomb_kernel(p[i], p[others], delta)
        row += (delta / math.pi) * _near_corrections(grid, i)
        value = float(np.dot(w * row, np.exp(-np.log(p / p[i]) ** 2)))
        with mp.workdps(30):
            P = mp.mpf(p[i])
            ref = mp.quad(lambda q: delta / mp.pi * mp.log((P + q) / abs(P - q))
                          * mp.exp(-mp.log(q / P) ** 2),
                          sorted({a, b, P} | {P * 10.0 ** j for j in range(-16, 17)
                                              if a < p[i] * 10.0 ** j < b}))
        assert value == pytest.approx(float(ref), rel=4e-14, abs=0.0), k


def test_scan_above_threshold_on_a_wide_window_has_no_bound_state():
    # delta = 1 > delta0 on 16 decades of momenta: the cancellation above
    # gave counts 15, 14, 3, 0, 0 and 15 crossings
    result = scan_spectrum(build_grid(1e-8, 1e8, 640), 1.0, 1e-16, 1e-12, 5)
    assert result.negative_counts.tolist() == [0] * 5
    assert result.crossings == []


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(mu=0.0)
    with pytest.raises(ValueError):
        ModelParams(mu=1.0, delta=-0.1)


def test_assemble_symmetry_and_diagonal():
    mu = 1.0
    for delta in (0.0, 1.0):
        m = assemble(build_grid(1e-4, 1e4, 400), ModelParams(mu=mu, delta=delta))
        assert np.max(np.abs(m - m.T)) <= 1e-12
        diag = np.diag(m)
        assert np.all(diag > 0.0)
        assert diag.min() >= 0.9 * math.sqrt(mu)


@pytest.mark.parametrize("n", [160, 400])
def test_assemble_is_scale_covariant(n):
    # p -> lambda p with mu -> lambda^2 mu scales the operator by lambda: the
    # kernels are homogeneous of degree 0 in (p, q, sqrt(mu)) and the diagonal
    # term of degree 1, the weights of the scaled window scale by lambda.
    # Measured worst relative 2-norm error 5.4e-15 (n = 400, delta = 1,
    # mu = 1e-3, lambda = 1e4); the bound keeps a factor of about 4
    for delta in (0.0, 0.37, 1.0):
        for mu in (1e-3, 1.0, 1e3):
            m = assemble(build_grid(1e-4, 1e4, n), ModelParams(mu=mu, delta=delta))
            norm = np.abs(np.linalg.eigvalsh(m)).max()
            for lam in (1e-3, 0.5, 8.0, 1e3, 1e4):
                scaled = assemble(build_grid(lam * 1e-4, lam * 1e4, n),
                                  ModelParams(mu=lam * lam * mu, delta=delta))
                error = np.abs(np.linalg.eigvalsh(scaled - lam * m)).max() / (lam * norm)
                assert error <= 2e-14, (delta, mu, lam)

def test_assemble_applied_to_closed_form_density(s0):
    # residual vector of the matrix on p*xi_mu samples: sup-norm over the
    # interior window, relative to the diagonal-term scale (grid-limited)
    mu = 1.0
    grid = build_grid(1e-6, 1e10, 2000)
    op = assemble(grid, ModelParams(mu=mu))
    p, w = grid.nodes, grid.weights
    phi = p * xi_mu(p, mu, s0)
    r = op @ (np.sqrt(w) * phi) / np.sqrt(w)
    d = np.sqrt(0.75 * p * p + mu) * phi
    mask = (p >= 1e-4) & (p <= 1e3)
    assert np.max(np.abs(r[mask])) / np.max(np.abs(d[mask])) <= 1e-4


def test_smallest_eigenvalue_shift_identity():
    mu = 2.0
    root = math.sqrt(mu)
    op = assemble(build_grid(1e-4 * root, 1e4 * root, 200), ModelParams(mu=mu))
    base = smallest_eigenvalue(op)
    shifted = op + 0.375 * np.eye(len(op))
    assert smallest_eigenvalue(shifted) == pytest.approx(base + 0.375, abs=1e-10)
    # deterministic
    assert smallest_eigenvalue(op) == base


def test_smallest_eigenvalue_positive_above_threshold():
    grid = build_grid(1e-4, 1e4, 400)
    for mu in (0.1, 1.0, 10.0):
        op = assemble(grid, ModelParams(mu=mu, delta=1.0))
        assert smallest_eigenvalue(op) > 0.0


@pytest.mark.parametrize("shape", [(0, 0), (3, 4), (4,)])
def test_smallest_eigenvalue_rejects_a_matrix_that_is_not_square_or_empty(shape):
    with pytest.raises(ValueError, match="nonempty square"):
        smallest_eigenvalue(np.zeros(shape))


def test_residual_of_closed_form_density():
    value = closed_form_residual(1.0, n=2000)
    assert value <= 1e-6


def test_residual_trivial_solution_and_errors(s0):
    mu = 1.0
    grid = build_grid(1e-4, 1e4, 200)
    values = xi_mu(grid.nodes, mu, s0)
    zero = np.zeros(len(grid))
    assert residual(grid, zero, ModelParams(mu=mu), eval_lo=1e-2, eval_hi=1e2) == 0.0
    with pytest.raises(ValueError):
        residual(grid, np.zeros(17), ModelParams(mu=mu), eval_lo=1e-2, eval_hi=1e2)
    with pytest.raises(ValueError):
        residual(grid, values, ModelParams(mu=mu), eval_lo=1e5, eval_hi=1e6)


def test_residual_rejects_a_nonzero_delta(s0):
    # the closed-form density solves only the delta = 0 equation, the one
    # residual checks
    grid = build_grid(1e-6, 1e10, 200)
    values = xi_mu(grid.nodes, 1.0, s0)
    with pytest.raises(ValueError, match="delta = 0 equation"):
        residual(grid, values, ModelParams(mu=1.0, delta=1.0), eval_lo=1e-4, eval_hi=1e3)


def _dense_residual(grid, values, mu, eval_lo, eval_hi):
    # the full tms_kernel product, the reference for the row-blocked residual
    p, w = grid.nodes, grid.weights
    phi = p * values
    d = np.sqrt(0.75 * p * p + mu)
    r = d * phi + tms_kernel(p[:, None], p, mu) @ (w * phi)
    mask = (p >= eval_lo) & (p <= eval_hi)
    return float(np.linalg.norm(r[mask]) / np.linalg.norm((d * phi)[mask]))


@pytest.mark.parametrize("n, log10_mu, window", [
    (2000, 0.0, (1e-4, 1e3)),  # rows 249..1125
    (2000, 0.37, (1e-4, 1e3)),
    # rows 161..999: the first row and n are not multiples of the block
    # size, and the last block is clipped at n
    (1000, 1.0, (3e-4, 1e10)),
])
def test_residual_matches_dense_product(s0, n, log10_mu, window):
    mu = 10.0 ** log10_mu
    grid = build_grid(1e-6, 1e10, n)
    values = xi_mu(grid.nodes, mu, s0)
    expected = _dense_residual(grid, values, mu, *window)
    assert residual(grid, values, ModelParams(mu=mu), *window) == expected


def test_residual_memory_is_linear_in_n():
    closed_form_residual(1.0, n=500)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        closed_form_residual(1.0, n=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6  # the dense n x n kernel alone is 128 MB


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_residual_rejects_non_finite_samples(s0, bad):
    grid = build_grid(1e-6, 1e10, 200)
    values = xi_mu(grid.nodes, 1.0, s0)
    values[-1] = bad  # outside the evaluation window, but every column counts
    with pytest.raises(ValueError):
        residual(grid, values, ModelParams(mu=1.0), eval_lo=1e-4, eval_hi=1e3)


def test_residual_is_scale_free(s0):
    # a relative residual: samples scaled by 1e-300 ... 1e300 give the unscaled
    # value, silently.  Unscaled norms overflowed from 1e155 on (a false 0.0,
    # then warnings and OverflowError) and underflowed below 1e-150 (0.0)
    grid = build_grid(1e-6, 1e10, 2000)
    values = xi_mu(grid.nodes, 1.0, s0)
    params = ModelParams(mu=1.0)
    base = residual(grid, values, params, eval_lo=1e-4, eval_hi=1e3)
    assert base == pytest.approx(2.1924e-8, rel=1e-4)
    for exponent in (-300, -250, -200, -150, -100, -50, 50, 100, 150, 155, 160, 200, 250, 300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = residual(grid, values * 10.0 ** exponent, params, eval_lo=1e-4, eval_hi=1e3)
        # measured: within 2.1e-9 relative; at 1e-300, 2.5e-5, where the
        # samples themselves lose bits to subnormals
        assert scaled == pytest.approx(base, rel=1e-4 if exponent == -300 else 1e-8), exponent


def test_scan_validation():
    grid = build_grid(1e-4, 1e4, 64)
    with pytest.raises(ValueError):
        scan_bound_states(grid, 0.0, 10.0, 1.0, 8)
    with pytest.raises(ValueError):
        scan_bound_states(grid, 0.0, 1.0, 10.0, 1)


def test_scan_empty_above_threshold():
    grid = build_grid(1e-4, 1e4, 200)
    result = scan_spectrum(grid, 1.0, 0.1, 10.0, 5)
    assert result.crossings == []
    assert np.all(result.negative_counts == 0)
    assert np.all(result.smallest > 0.0)


def test_coulomb_part_on_the_default_grid_has_no_negative_eigenvalue():
    # M(delta = 1) - M(delta = 0) discretizes the positive kernel of delta/|y|.
    # At n = 1000 its lowest eigenvalue is 1.97e-7; the singularity
    # subtraction gave -3.52, on the nodes near p = 1e4, and scans read a
    # false bound state from delta = 2500
    grid = build_grid(1e-4, 1e4, 1000)
    coulomb = assemble(grid, ModelParams(mu=1.0, delta=1.0)) - assemble(grid, ModelParams(mu=1.0))
    assert np.linalg.eigvalsh(coulomb)[0] >= 0.0


def test_delta0_scan_levels_lie_on_one_minlos_faddeev_ladder(s0):
    # The sharp window acts as one self-adjoint extension: with beta* fitted
    # on the first crossing, cot((s0/2) log(3/mu*)) = -1.2257223, the next
    # three solve the exact quantization condition to 2.7e-9, -2.2e-10 and
    # 4.3e-9 (grid 320 gives the same).  The fifth reads -6.5e-8 and the
    # sixth, nearest p_max, 3.2e-5.
    crossings = scan_bound_states(build_grid(1e-8, 1e4, 160), 0.0, 1e-12, 1e6, 37)
    assert len(crossings) == 6
    beta = 1.0 / math.tan(0.5 * s0 * math.log(3.0 / crossings[0]))
    assert beta == pytest.approx(-1.2257223, abs=1e-7)
    for mu in crossings[:4]:
        assert abs(quantization_residual(mu, beta, s0)) <= 1e-8


def _regularized_s0(delta):
    # the positive root of the delta/|y|-regularized symbol, from mpmath
    def symbol(s):
        return 1 + 2 / mp.sqrt(3) * (delta * mp.tanh(mp.pi * s / 2) / s
                                     - 4 * mp.sinh(mp.pi * s / 6) / (s * mp.cosh(mp.pi * s / 2)))
    return float(mp.findroot(symbol, (0.1, 1.0), solver="anderson"))


@pytest.mark.parametrize("delta", [0.3, 0.6])
def test_crossing_ratios_follow_the_regularized_efimov_exponent(delta):
    # Successive crossings, leaving out the pair nearest p_max, over
    # exp(2 pi / s0(delta)): within 1.24e-6 of 1 at delta = 0.3 and 1.8e-9 at
    # 0.6; the singularity subtraction gave 0.98783 and 0.92123
    crossings = scan_bound_states(build_grid(1e-8, 1e4, 320), delta, 1e-14, 1e6, 41)
    target = math.exp(2.0 * math.pi / _regularized_s0(delta))
    ratios = [b / a / target for a, b in zip(crossings, crossings[1:])][:-1]
    assert ratios and all(abs(r - 1.0) <= 1e-4 for r in ratios)


def test_scan_independent_of_thread_count(monkeypatch):
    # every sweep path: on this grid delta = 0 certifies Lanczos values,
    # delta = 0.6 gives up on Lanczos and takes the band solve, and delta = 1
    # certifies the leading block's Ritz pair
    grid = build_grid(*_LADDER_GRID)
    for delta in (0.0, 0.6, 1.0):
        results = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("TRIBOS_THREADS", threads)
            results.append(scan_spectrum(grid, delta, 1e-4, 1e4, 7))
        for other in results[1:]:
            assert other.crossings == results[0].crossings
            assert np.array_equal(other.smallest, results[0].smallest)
            assert np.array_equal(other.negative_counts, results[0].negative_counts)
    monkeypatch.setenv("TRIBOS_THREADS", "0")
    with pytest.raises(ValueError):
        scan_spectrum(grid, 0.0, 1e-2, 1e2, 3)


def test_scan_finds_known_crossing():
    # coarse grid: bracket a singular mu by hand, then let the scan refine it
    grid = build_grid(1e-2, 1e2, 300)
    result = scan_spectrum(grid, 0.0, 1e-2, 1e2, 9)
    assert len(result.crossings) >= 1
    for c in result.crossings:
        lo = assemble(grid, ModelParams(mu=c * (1.0 - 1e-6)))
        hi = assemble(grid, ModelParams(mu=c * (1.0 + 1e-6)))
        assert smallest_eigenvalue(lo) != smallest_eigenvalue(hi)
        counts_lo = int(np.sum(np.linalg.eigvalsh(lo) < 0.0))
        counts_hi = int(np.sum(np.linalg.eigvalsh(hi) < 0.0))
        assert counts_lo == counts_hi + 1


def _uncached_gl_grid(p_min, p_max, n):
    # reference: the panel loop with a fresh leggauss call per panel
    a, b = math.log(p_min), math.log(p_max)
    k = max(1, round(n / 16))
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    edges = np.linspace(a, b, k + 1)
    ps, ws = [], []
    for i, m in enumerate(sizes):
        x, gw = np.polynomial.legendre.leggauss(m)
        half = 0.5 * (edges[i + 1] - edges[i])
        t = half * x + 0.5 * (edges[i + 1] + edges[i])
        ps.append(np.exp(t))
        ws.append(half * gw * np.exp(t))
    return np.concatenate(ps), np.concatenate(ws)


def test_build_grid_caches_panel_rule(monkeypatch):
    cases = [(1e-4, 1e4, 1000), (1e-3, 50.0, 160), (1.0, math.e, 16), (1e-2, 1e2, 23)]
    references = [_uncached_gl_grid(*args) for args in cases]
    stm._panel_rule.cache_clear()
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda m: calls.append(m) or leggauss(m))
    for args, (ref_nodes, ref_weights) in zip(cases, references):
        g = build_grid(*args)
        assert np.array_equal(g.nodes, ref_nodes)
        assert np.array_equal(g.weights, ref_weights)
    # one leggauss call per distinct panel size, not one per panel
    assert sorted(calls) == sorted(set(calls))
    x, w = stm._panel_rule(16)
    assert not x.flags.writeable and not w.flags.writeable


# p in [1e-4, 1e4] on 250 nodes has three crossings in [1e-4, 1e4]; with
# n_mu = 3 the second sweep bracket holds two of them (levels 2 and 3).
_LADDER_GRID = (1e-4, 1e4, 250)
# delta = 1: the ground state spreads past the leading block, whose residual
# misses the tolerance at every mu in [1e-3, 1e3]
_FALLBACK_GRID = (1e-1, 1e1, 300)


def _bisect_crossing(grid, lo, hi, level, refine_rel):
    # plain bisection on the negative-eigenvalue count, the reference
    while hi / lo - 1.0 > refine_rel:
        mid = math.sqrt(lo * hi)
        ev = np.linalg.eigvalsh(assemble(grid, ModelParams(mu=mid)))
        if np.sum(ev < 0.0) >= level:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


@pytest.mark.parametrize("n_mu", [3, 9])
def test_scan_refinement_matches_bisection(n_mu):
    grid = build_grid(*_LADDER_GRID)
    refine_rel = stm._REFINE_REL
    result = scan_spectrum(grid, 0.0, 1e-4, 1e4, n_mu)
    counts = result.negative_counts
    reference = sorted(
        _bisect_crossing(grid, result.mus[i], result.mus[i + 1], level, refine_rel)
        for i in range(n_mu - 1) for level in range(counts[i + 1] + 1, counts[i] + 1))
    assert len(result.crossings) == 3
    for c, ref in zip(result.crossings, reference):
        assert abs(c / ref - 1.0) <= 2.0 * refine_rel


def test_scan_crossing_brackets_level_sign_change():
    grid = build_grid(*_LADDER_GRID)
    refine_rel = stm._REFINE_REL
    result = scan_spectrum(grid, 0.0, 1e-4, 1e4, 3)
    # counts 4 -> 3 -> 1: the crossings, ascending, are those of levels 4, 3, 2
    assert list(result.negative_counts) == [4, 3, 1]
    for c, level in zip(result.crossings, (4, 3, 2)):
        below = np.linalg.eigvalsh(assemble(grid, ModelParams(mu=c * (1 - refine_rel))))
        above = np.linalg.eigvalsh(assemble(grid, ModelParams(mu=c * (1 + refine_rel))))
        assert below[level - 1] < 0.0 <= above[level - 1]


def _record_calls(monkeypatch, names, record=lambda: None):
    # {name: [record() at each call]} of the stm functions named, which stay
    # in place; list.append is atomic, so pool threads may call them
    calls = {name: [] for name in names}
    for name in names:
        original, seen = getattr(stm, name), calls[name]
        monkeypatch.setattr(stm, name,
                            lambda *a, _f=original, _s=seen: _s.append(record()) or _f(*a))
    return calls


def _factored_points(counts):
    # the sweep points that factor for their count when every point with
    # bound states is pending or takes the band solve: the scan's ends and
    # those whose span ends in bisection order have different counts
    return sum(counts[i] > 0 and not (span and counts[span[0]] == counts[span[1]])
               for i, span in stm._bisection_order(len(counts)))


def test_scan_refinement_solve_budget(monkeypatch):
    # delta = 0 on one pool thread: each sweep point is a Lanczos iteration,
    # an LDL^T inertia only where its neighbours' counts do not settle it,
    # one proof certificate for the whole scan, no band solve, and the
    # refinement factorizes only; delta >= delta0: one block solve and one
    # certificate per point, no band solve and no inertia
    monkeypatch.setenv("TRIBOS_THREADS", "1")
    grid = build_grid(*_LADDER_GRID)
    calls = _record_calls(monkeypatch, ("_lowest_eigenvalue", "_ldlt", "_certified_lower_bound",
                                        "_block_ritz", "_inertia_logdet"))
    steps, brent = [], stm._brent_crossing
    monkeypatch.setattr(stm, "_brent_crossing", lambda f, *a: brent(
        lambda t: steps.append(t) or f(t), *a))
    n_mu = 9
    result = scan_spectrum(grid, 0.0, 1e-4, 1e4, n_mu)
    assert len(result.crossings) == 3
    assert len(calls["_lowest_eigenvalue"]) == 0
    assert len(calls["_certified_lower_bound"]) == 1
    factored = _factored_points(result.negative_counts)
    assert factored == 8  # counts 4 4 4 3 3 3 2 2 1: only the second point is settled
    assert 0 < len(steps) <= 8 * len(result.crossings)
    assert len(calls["_inertia_logdet"]) == factored + len(steps)
    assert len(calls["_ldlt"]) == 1 + factored + len(steps)
    for seen in calls.values():
        seen.clear()
    n_mu = 5
    assert not scan_spectrum(grid, 1.0, 1e-2, 1e2, n_mu).crossings
    assert len(calls["_block_ritz"]) == len(calls["_certified_lower_bound"]) == n_mu
    assert len(calls["_ldlt"]) == n_mu  # the certificates'
    assert len(calls["_lowest_eigenvalue"]) == len(calls["_inertia_logdet"]) == 0


def test_scan_unreachable_refine_rel_raises(monkeypatch):
    # a bracket narrower than the spacing of doubles cannot be reached
    grid = build_grid(*_LADDER_GRID)
    monkeypatch.setattr(stm, "_REFINE_REL", 1e-300)
    with pytest.raises(RuntimeError):
        scan_spectrum(grid, 0.0, 1e-4, 1e4, 3)


def test_brent_crossing_on_known_root():
    evals = []

    def f(t):
        evals.append(t)
        return math.exp(t) - 3.0

    width = 1e-12
    t = stm._brent_crossing(f, 0.0, f(0.0), 5.0, f(5.0), width)
    assert abs(t - math.log(3.0)) <= width
    assert f(t - width) < 0.0 < f(t + width)
    assert len(evals) <= 2 + 15


def test_brent_crossing_when_interpolation_underflows():
    # f of order 1e-200: the inverse-quadratic denominator underflows to 0
    def f(t):
        return 1e-200 * (math.exp(t) - 3.0)

    width = 1e-12
    t = stm._brent_crossing(f, 0.0, f(0.0), 5.0, f(5.0), width)
    assert abs(t - math.log(3.0)) <= width


def _symmetric(n, seed, zero_block=0):
    # a zero leading block makes the first pivots 2x2 blocks
    a = np.random.default_rng(seed).standard_normal((n, n))
    a += a.T
    a[:zero_block, :zero_block] = 0.0
    return a


@pytest.mark.parametrize("n", [7, 8, 61, 200])
@pytest.mark.parametrize("zero_block", [0, 1, 3, "diagonal"])
def test_inertia_logdet_matches_eigvalsh(n, zero_block):
    for seed in range(3):
        if zero_block == "diagonal":
            a = _symmetric(n, seed)
            np.fill_diagonal(a, 0.0)
        else:
            a = _symmetric(n, seed, zero_block)
        ev = np.linalg.eigvalsh(a)
        count, logdet = stm._inertia_logdet(a.copy())
        assert count == np.count_nonzero(ev < 0.0)
        assert logdet == pytest.approx(np.sum(np.log(np.abs(ev))), rel=1e-10)


def test_inertia_logdet_of_singular_and_nan_matrices():
    a = _symmetric(40, 5, zero_block=4)
    a[17, :] = a[:, 17] = 0.0  # a zero pivot
    ev = np.linalg.eigvalsh(a)
    count, logdet = stm._inertia_logdet(a.copy())
    assert count == np.count_nonzero(ev < -1e-12)
    assert logdet == -math.inf
    a[3, 29] = a[29, 3] = math.nan
    with pytest.raises(np.linalg.LinAlgError):
        stm._inertia_logdet(a)


def test_scan_without_dsytrf_takes_inertia_from_eigvalsh(monkeypatch):
    grid = build_grid(*_LADDER_GRID)
    refine_rel = stm._REFINE_REL
    factored = scan_spectrum(grid, 0.0, 1e-4, 1e4, 9)
    monkeypatch.setattr(stm, "_dsytrf", lambda: None)
    solved = [scan_spectrum(grid, 0.0, 1e-4, 1e4, 9)]
    _hide_band_routines(monkeypatch)  # and then from eigvalsh itself
    solved.append(scan_spectrum(grid, 0.0, 1e-4, 1e4, 9))
    for scan in solved:
        assert len(factored.crossings) == len(scan.crossings) == 3
        for a, b in zip(factored.crossings, scan.crossings):
            assert abs(a / b - 1.0) <= 2.0 * refine_rel


def _hide_band_routines(monkeypatch):
    # numpy's LAPACK as on builds that export neither band routine
    lookup = stm._lapack_routine
    monkeypatch.setattr(stm, "_lapack_routine", lambda name, arguments: None if name in (
        "dsytrd_sy2sb", "dpbtrf") else lookup(name, arguments))
    assert stm._dsytrd_sy2sb() is stm._dpbtrf() is None


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_eigen_solve_fallback_rejects_non_finite_matrices(monkeypatch, bad):
    # without the band routines and dsytrf both solves run eigvalsh, which
    # reads only the C lower triangle: one bad entry above it gave finite
    # eigenvalues
    _hide_band_routines(monkeypatch)
    monkeypatch.setattr(stm, "_dsytrf", lambda: None)
    a = _symmetric(5, 1)
    a[1, 3] = bad
    for solve in (stm._lowest_eigenvalue, stm._inertia_logdet):
        with pytest.raises(np.linalg.LinAlgError):
            solve(a.copy())


def test_eigen_solve_fallback_reads_the_upper_triangle(monkeypatch):
    # as the band solve and the inertia do: a spent (here NaN) lower
    # triangle changes nothing for b"L", the C upper one, and a spent upper
    # triangle nothing for b"U"
    _hide_band_routines(monkeypatch)
    monkeypatch.setattr(stm, "_dsytrf", lambda: None)
    a = _symmetric(40, 4)
    spent = a.copy()
    spent[np.tril_indices(40, -1)] = math.nan
    assert stm._lowest_eigenvalue(spent.copy(), b"L") == stm._lowest_eigenvalue(a.copy(), b"L")
    assert stm._inertia_logdet(spent) == stm._inertia_logdet(a)
    assert stm._lowest_eigenvalue(spent.T.copy(), b"U") == stm._lowest_eigenvalue(a.copy(), b"U")
    with pytest.raises(np.linalg.LinAlgError, match="non-finite matrix"):
        stm._lowest_eigenvalue(spent.copy(), b"U")


def test_level_value_keeps_its_sign_when_it_underflows():
    below = stm._level_value(3, 2, -1e6)
    assert isinstance(below, float) and below < 0.0
    assert stm._level_value(2, 2, -1e6) > 0.0
    assert stm._level_value(3, 2, math.inf) == -1e300
    assert stm._level_value(3, 2, -math.inf) < 0.0


def _near_matrix(grid):
    # the n x n symmetrized product-integration corrections (e_ij + e_ji)/2
    # from the panel blocks of _relative_correction, and the mask of the
    # panel pairs they cover
    starts = np.cumsum((0,) + grid.panels)
    near, mask = np.zeros((2, len(grid), len(grid)))
    for a, m in enumerate(grid.panels):
        for b in range(max(a - 1, 0), min(a + 2, len(grid.panels))):
            k, block = grid.panels[b], np.s_[starts[a]:starts[a + 1], starts[b]:starts[b + 1]]
            near[block] = 0.5 * (stm._relative_correction(m, k, b - a)
                                 + stm._relative_correction(k, m, a - b).T)
            mask[block] = 1.0
    return near, mask.astype(bool)


def _reference_assembly(grid, params):
    # the out-of-place formulas, the reference for the in-place kernel build
    # and for the near-panel entries added to it
    p, w = grid.nodes, grid.weights
    P, Q = p[:, None], p[None, :]
    s = P * P + Q * Q + params.mu
    K = -(2.0 / math.pi) * np.log((s + P * Q) / (s - P * Q))
    diag_kernel = np.diag(K).copy()
    if params.delta != 0.0:
        with np.errstate(divide="ignore"):
            C = (params.delta / math.pi) * np.log((P + Q) / np.abs(P - Q))
        np.fill_diagonal(C, 0.0)
        K = K + C
    sw = np.sqrt(w)
    M = np.outer(sw, sw) * K
    d = np.sqrt(0.75 * p * p + params.mu)
    coincident = params.delta / math.pi * math.log(2.0 / grid.half_width)
    np.fill_diagonal(M, d + w * (diag_kernel + coincident))
    if params.delta != 0.0:
        near, mask = _near_matrix(grid)
        M[mask] += (params.delta / math.pi) * (np.outer(sw, sw) * near)[mask]
    return M


# n below the row block, between one and two blocks without being a
# multiple of it, and several blocks and panels
@pytest.mark.parametrize("n", [26, 61, 300])
@pytest.mark.parametrize("delta", [0.0, 0.37, 1.0])
def test_assemble_is_bit_identical_across_row_blocks(n, delta):
    grid = build_grid(1e-4, 1e4, n)
    for mu in (1e-3, 0.7, 1e3):
        params = ModelParams(mu=mu, delta=delta)
        assert np.array_equal(assemble(grid, params), _reference_assembly(grid, params))


def _peak_bytes(fn):
    # tracemalloc's peak over the call, which sees every numpy array allocated
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("delta", [0.0, 1.0])
def test_assemble_holds_no_second_matrix(delta):
    n = 1000
    grid = build_grid(1e-4, 1e4, n)
    params = ModelParams(mu=0.7, delta=delta)
    assemble(grid, params)  # warm caches outside the measurement
    assert _peak_bytes(lambda: assemble(grid, params)) < 1.1 * n * n * 8


def test_scan_holds_one_matrix_per_pool_thread(monkeypatch):
    # two pool threads, each assembling and solving its own matrix, and no
    # Coulomb matrix: two n x n arrays (three with a cached Coulomb matrix,
    # seven when assembly built three n x n temporaries)
    n = 500
    grid = build_grid(1e-4, 1e4, n)
    monkeypatch.setenv("TRIBOS_THREADS", "2")
    scan_spectrum(grid, 1.0, 1e-2, 1e2, 2)  # warm caches outside the measurement
    assert _peak_bytes(lambda: scan_spectrum(grid, 1.0, 1e-2, 1e2, 6)) < 3 * n * n * 8
    # delta = 0: no Coulomb part; the check and the inertia factor the two
    # triangles of one matrix, and the Lanczos basis is at most 100 rows
    scan_spectrum(grid, 0.0, 1e-2, 1e2, 2)
    assert _peak_bytes(lambda: scan_spectrum(grid, 0.0, 1e-2, 1e2, 6)) < 3 * n * n * 8


_U = np.finfo(float).eps / 2.0


def _assert_near_eigvalsh(smallest, matrix):
    # smallest within 4 u ||M||_2 of eigvalsh's; returns (spectrum, that bound)
    ev = np.linalg.eigvalsh(matrix)
    tolerance = 4.0 * _U * max(abs(ev[0]), abs(ev[-1]))
    assert abs(smallest - ev[0]) <= tolerance
    return ev, tolerance


def _assert_band_solve_matches_eigvalsh(matrix, smallest, inertia):
    # and the pair when M is positive definite: log|det| within
    # 4 u ||M||_2 sum 1/lambda_i (measured: at most 0.18 of it)
    ev, tolerance = _assert_near_eigvalsh(smallest, matrix)
    if ev[0] > 0.0:
        assert inertia[0] == 0
        assert abs(inertia[1] - np.sum(np.log(ev))) <= tolerance * np.sum(1.0 / ev)
    else:
        assert inertia is None


@pytest.mark.parametrize("n", [26, 250, 1000])
@pytest.mark.parametrize("delta", [0.0, 0.37, 1.0])
def test_in_place_eigenvalues_equal_eigvalsh(n, delta):
    grid = build_grid(1e-4, 1e4, n)
    for mu in (1e-3, 0.7, 1e3):
        matrix = assemble(grid, ModelParams(mu=mu, delta=delta))
        with stm._single_threaded_blas():
            smallest, inertia = stm._lowest_eigenvalue(matrix.copy())
        _assert_band_solve_matches_eigvalsh(matrix, smallest, inertia)


def test_in_place_eigenvalues_reject_non_finite_matrices():
    a = _symmetric(30, 2)
    for value in (math.inf, -math.inf, math.nan):
        a[4, 9] = a[9, 4] = value
        with pytest.raises(np.linalg.LinAlgError, match="non-finite matrix"):
            stm._lowest_eigenvalue(a.copy())
        with pytest.raises(np.linalg.LinAlgError, match="non-finite matrix"):
            smallest_eigenvalue(a)
        # the public solve checks both triangles, also at the scan's size
        for b in (_symmetric(30, 2), assemble(build_grid(*_LADDER_GRID), ModelParams(mu=1.0))):
            b[-1, 3] = value  # below the diagonal and, at n 250, the leading block
            with pytest.raises(np.linalg.LinAlgError, match="non-finite matrix"):
                smallest_eigenvalue(b)
    # finite entries whose reduction overflows
    with pytest.raises(np.linalg.LinAlgError, match="non-finite band"):
        stm._lowest_eigenvalue(np.full((40, 40), 1e308))


def _mp_smallest(matrix):
    # (smallest eigenvalue, ||matrix||_2) of the float matrix, to 30 digits
    with mp.workdps(30):
        ev = mp.eigsy(mp.matrix(matrix.tolist()), eigvals_only=True)
        return min(ev), max(abs(min(ev)), abs(max(ev)))


def _assert_near_mp_reference(matrix, bound, uplo):
    smallest = stm._lowest_eigenvalue(matrix.copy(), uplo)[0]
    reference, norm = _mp_smallest(matrix)
    error = float(abs(mp.mpf(smallest) - reference) / norm) / np.finfo(float).eps
    assert error <= bound


# The band value lay within 0.20 eps ||M||_2 of a 30-digit reference on these
# assembled matrices from the upper triangle (lower: 0.06; eigvalsh: within
# 1.1) and within 0.99 eps ||A||_2 on the random ones (lower: 1.14;
# eigvalsh: 6.5); n = 1 reports the double below the entry.
_BAND_BOUND = 1.25


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
def test_band_smallest_eigenvalue_against_mpmath(delta):
    grid = build_grid(1e-4, 1e4, 40)
    for mu in (1e-3, 1.0, 1e3):
        for uplo in (b"L", b"U"):
            _assert_near_mp_reference(assemble(grid, ModelParams(mu=mu, delta=delta)),
                                      _BAND_BOUND, uplo)


@pytest.mark.parametrize("n", [1, 2, 7, 33, 34, 50])
def test_band_smallest_eigenvalue_of_indefinite_matrices_against_mpmath(n):
    # n <= 33 = _BAND + 1 is a band already, copied without a reduction
    for seed in range(2):
        for uplo in (b"L", b"U"):
            _assert_near_mp_reference(_symmetric(n, seed), _BAND_BOUND, uplo)


def test_finiteness_check_reads_every_row_block():
    # n = 70: three row blocks, the last one clipped; the check reads the C
    # upper triangle and the diagonal, all that the solves read
    a = _symmetric(70, 2)
    assert stm._finite(a)
    for i, j in ((4, 9), (3, 50), (40, 45), (50, 66), (69, 69)):
        for value in (math.inf, -math.inf, math.nan):
            b = a.copy()
            b[i, j] = value
            assert not stm._finite(b)
            if i != j:  # the mirror entry, below the diagonal, is not read
                b[i, j], b[j, i] = a[i, j], value
                assert stm._finite(b)


def _assert_matching_scan(a, b, grid, delta):
    # counts, crossings (to 1e-13) and smallest eigenvalues (to 4 u ||M||_2)
    assert np.array_equal(a.mus, b.mus)
    assert np.array_equal(a.negative_counts, b.negative_counts)
    assert a.crossings == pytest.approx(b.crossings, rel=1e-13, abs=0.0)
    for mu, x, y in zip(a.mus, a.smallest, b.smallest):
        ev = np.linalg.eigvalsh(assemble(grid, ModelParams(mu=float(mu), delta=delta)))
        assert abs(x - y) <= 4.0 * _U * max(abs(ev[0]), abs(ev[-1]))


def test_scan_without_band_routines_matches(monkeypatch):
    # without dsytrd_sy2sb and dpbtrf the band solve is eigvalsh; at
    # delta = 0.6 every point gives up on Lanczos and has bound states
    grid = build_grid(*_LADDER_GRID)
    cases = [(0.0, 1e-4, 1e4, 9), (0.6, 1e-4, 1e4, 5), (1.0, 1e-2, 1e2, 5)]
    scans = [scan_spectrum(grid, *case) for case in cases]
    _hide_band_routines(monkeypatch)
    for case, scan in zip(cases, scans):
        _assert_matching_scan(scan_spectrum(grid, *case), scan, grid, case[0])


def test_give_up_points_with_bound_states_count_by_inertia(monkeypatch):
    # delta = 0.6: Lanczos gives up in the calling thread and at every point,
    # so no certificate spends the lower triangle and the band reduces it;
    # where the band is not positive definite the count and log|det| come
    # from LDL^T on the upper triangle it left.  Counts and crossings as with
    # the full eigen-solve.
    grid = build_grid(*_LADDER_GRID)
    gave_up, pairs, triangles = [], [], []
    lanczos, lowest = stm._lanczos, stm._lowest_eigenvalue
    monkeypatch.setattr(stm, "_lanczos", lambda *a: (lambda r: gave_up.append(r is None) or r)(
        lanczos(*a)))
    monkeypatch.setattr(stm, "_lowest_eigenvalue", lambda m, uplo: triangles.append(uplo) or (
        lambda r: pairs.append(r[1]) or r)(lowest(m, uplo)))
    scan = scan_spectrum(grid, 0.6, 1e-4, 1e4, 5)
    assert gave_up == [True] * 6 and len(pairs) == 5 and triangles == [b"U"] * 5
    assert list(scan.negative_counts) == [2, 1, 1, 1, 0]
    assert sum(pair is None for pair in pairs) == 4
    # the crossings of an eigvalsh bisection to 1e-13, to the refinement's width
    assert scan.crossings == pytest.approx([0.0016289026030433397, 1916.4981185473384],
                                           rel=2.0 * stm._REFINE_REL)
    for mu, smallest in zip(scan.mus, scan.smallest):
        _assert_near_eigvalsh(smallest, assemble(grid, ModelParams(mu=float(mu), delta=0.6)))


def test_give_up_points_assemble_their_matrix_once(monkeypatch):
    # delta = 0.6: the band solve on the C lower triangle spends it and the
    # diagonal; with the diagonal put back, the upper triangle the inertia
    # reads is bit for bit a fresh assembly's, so no sweep point assembles
    # twice
    grid = build_grid(*_LADDER_GRID)
    for mu in (1e-4, 0.7):
        matrix = assemble(grid, ModelParams(mu=mu, delta=0.6))
        spent, diagonal = matrix.copy(), matrix.diagonal().copy()
        assert stm._lowest_eigenvalue(spent, b"U")[1] is None
        np.fill_diagonal(spent, diagonal)
        assert np.array_equal(np.triu(spent).view(np.uint64), np.triu(matrix).view(np.uint64))
        assert stm._inertia_logdet(spent) == stm._inertia_logdet(matrix.copy())
    builds, sweep_point = [], stm._sweep_point

    def counted(build, start, ends):
        calls = []
        builds.append(calls)
        return sweep_point(lambda: calls.append(1) or build(), start, ends)

    monkeypatch.setattr(stm, "_sweep_point", counted)
    scan = scan_spectrum(grid, 0.6, 1e-4, 1e4, 5)
    assert list(scan.negative_counts) == [2, 1, 1, 1, 0]
    assert [len(calls) for calls in builds] == [1] * 5


def test_a_proven_bracket_end_is_factored_once(monkeypatch):
    # delta = 1: every point is proven (count 0, log|det| left out).  The
    # first point is forced to count 2, with its own LDL^T log|det|, so the
    # first bracket's upper end is a proven point: the calling thread factors
    # it once for both levels, and the crossings equal the band path's.
    grid = build_grid(*_LADDER_GRID)
    mus = np.geomspace(1e-2, 1e2, 5)
    sweep_point, assemble_matrix, built = stm._sweep_point, stm.assemble, []

    def forced(build, start, ends):  # build is partial(build, mu)
        smallest, count, logdet, pending = sweep_point(build, start, ends)
        if build.args[0] == mus[0]:
            return smallest, 2, stm._inertia_logdet(build())[1], pending
        return smallest, count, logdet, pending

    monkeypatch.setattr(stm, "_sweep_point", forced)
    monkeypatch.setattr(stm, "assemble", lambda g, params, *a: built.append(params.mu)
                        or assemble_matrix(g, params, *a))
    scan = scan_spectrum(grid, 1.0, 1e-2, 1e2, 5)
    assert list(scan.negative_counts) == [2, 0, 0, 0, 0] and len(scan.crossings) == 2
    assert [built.count(mu) for mu in mus] == [2, 2, 1, 1, 1]
    band = stm._lowest_eigenvalue
    monkeypatch.setattr(stm, "_block_ritz", lambda matrix: None)
    monkeypatch.setattr(stm, "_lowest_eigenvalue", lambda *a: built.append("band") or band(*a))
    reference = scan_spectrum(grid, 1.0, 1e-2, 1e2, 5)
    assert built.count("band") == 5
    assert scan.crossings == reference.crossings


def test_a_failed_certificate_counts_on_a_matrix_built_again(monkeypatch, failed_certificates):
    # The ground state (eigenvalue -0.5) lies past the leading block, whose
    # lowest eigenpair (2, e_0) is exact: the certificate fails and the band
    # solve runs on the upper triangle, which it spends; the count then comes
    # from a second build, not from the triangle the certificate spent.
    n = stm._BLOCK + 60
    matrix = np.diag(np.linspace(2.0, 3.0, n))
    matrix[n - 1, n - 1] = -0.5
    assert stm._block_ritz(matrix) == (2.0, 0.0)
    builds, triangles, band = [], [], stm._lowest_eigenvalue
    monkeypatch.setattr(stm, "_lowest_eigenvalue",
                        lambda m, uplo: triangles.append(uplo) or band(m, uplo))
    smallest, count, logdet, pending = stm._sweep_point(
        lambda: builds.append(1) or matrix.copy(), None)
    assert failed_certificates == [None] and len(builds) == 2 and triangles == [b"L"]
    assert smallest == pytest.approx(-0.5, abs=4.0 * _U * 3.0) and count == 1 and pending is None
    assert logdet == pytest.approx(np.sum(np.log(np.abs(matrix.diagonal()))), rel=1e-12)


@pytest.mark.parametrize("n", [26, 250, 1000])
def test_lanczos_value_lies_in_its_certified_interval(n):
    grid = build_grid(1e-4, 1e4, n)
    for mu in (1e-3, 0.7, 1e3):
        matrix = assemble(grid, ModelParams(mu=mu))
        lowest = np.linalg.eigvalsh(matrix)[0]
        with stm._single_threaded_blas():
            theta, r = stm._lanczos(matrix)
        factored = matrix.copy()
        low = stm._certified_lower_bound(factored, theta, r)
        assert low is not None and abs(theta - lowest) <= theta - low
        assert abs(theta / lowest - 1.0) <= 1e-13
        # the C upper triangle and the diagonal are left for _inertia_logdet
        assert np.array_equal(np.triu(factored), np.triu(matrix))


def test_check_rejects_a_start_vector_orthogonal_to_the_ground_state():
    # The ground state (e_0 - e_1)/sqrt(2), eigenvalue -1, is orthogonal to
    # the start vector of ones, and every Lanczos vector keeps its first two
    # entries exactly equal, so the iteration converges to the next
    # eigenvalue, -0.5: the check rejects it and the sweep point falls back.
    n = 60
    matrix = np.diag(np.linspace(2.0, 3.0, n))
    matrix[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    matrix[2, 2] = -0.5
    theta, r = stm._lanczos(matrix)
    assert abs(theta + 0.5) <= 1e-12
    assert stm._certified_lower_bound(matrix.copy(), theta, r) is None
    smallest, count, _, pending = stm._sweep_point(matrix.copy, np.ones(len(matrix)))
    _assert_near_eigvalsh(smallest, matrix)
    assert count == 2 and pending is None


def test_clustered_spectrum_falls_back_to_the_eigen_solve():
    # delta = 1 > delta0: the smallest eigenvalue lies about 1e-7 below a
    # cluster at sqrt(mu), against a spread of about 1e4
    grid = build_grid(1e-4, 1e4, 1000)
    matrix = assemble(grid, ModelParams(mu=0.7, delta=1.0))
    with stm._single_threaded_blas():
        assert stm._lanczos(matrix) is None
        smallest, count, _, pending = stm._sweep_point(matrix.copy, np.ones(len(matrix)))
    _assert_near_eigvalsh(smallest, matrix)
    assert count == 0 and pending is None


def test_lanczos_sweep_point_is_bitwise_repeatable():
    grid = build_grid(1e-4, 1e4, 250)
    matrix = assemble(grid, ModelParams(mu=0.7))
    with stm._single_threaded_blas():
        ritz = {stm._lanczos(np.array(matrix)) for _ in range(3)}
        bounds = {stm._certified_lower_bound(matrix.copy(), *next(iter(ritz))) for _ in range(3)}
        points = {stm._sweep_point(matrix.copy, np.ones(len(matrix))) for _ in range(3)}
    assert len(ritz) == len(bounds) == len(points) == 1 and None not in bounds
    assert next(iter(points))[0] == next(iter(ritz))[0]


@pytest.mark.parametrize("delta, max_products", [(0.0, 200), (0.3, 300)])
def test_sweep_points_start_from_the_head_ground_state(monkeypatch, delta, max_products):
    # Every point starts Lanczos from the middle point's Ritz vector, which
    # the calling thread computes first: 186 (delta = 0) and 278 (delta =
    # 0.3) matrix-vector products in all, against 268 and 364 when each
    # point started from ones, and one more a point for its residual bound.
    # The one proof of the scan covers every value, each within 1e-13 of
    # eigvalsh: the second eigenvalue at the lowest mu, proven above every
    # theta + rho, lies below the true one.
    products, proofs, bounds = [], [], {}
    grid = build_grid(*_LADDER_GRID)
    prove, ritz_bound, dot = stm._second_eigenvalue_bound, stm._ritz_bound, np.dot

    def counted_dot(a, *args, **kwargs):
        # the Lanczos products: np.dot of the matrix and a vector
        if np.ndim(a) == 2:
            products.append(1)
        return dot(a, *args, **kwargs)

    def counted_bound(matrix, theta, *args):
        products.append(1)  # its product with the Ritz vector
        return bounds.setdefault(theta, ritz_bound(matrix, theta, *args))

    def proof(matrix, x, theta, target):
        second = np.linalg.eigvalsh(matrix)[1]
        proofs.append((second, target, prove(matrix, x, theta, target)))
        return proofs[-1][2]

    monkeypatch.setattr(np, "dot", counted_dot)
    monkeypatch.setattr(stm, "_second_eigenvalue_bound", proof)
    monkeypatch.setattr(stm, "_ritz_bound", counted_bound)
    certify = _record_calls(monkeypatch, ("_certified_lower_bound",))["_certified_lower_bound"]
    n_mu = 9
    scan = scan_spectrum(grid, delta, 1e-4, 1e4, n_mu)
    assert len(bounds) == n_mu and len(products) <= max_products
    [(second, target, bound)] = proofs
    assert len(certify) == 1 and target < bound <= second
    for mu, theta in zip(scan.mus, scan.smallest):
        ev = np.linalg.eigvalsh(assemble(grid, ModelParams(mu=float(mu), delta=delta)))
        assert abs(theta / ev[0] - 1.0) <= 1e-13 and theta + bounds[theta] < bound < ev[1]


def test_ground_state_comes_first_then_every_point_at_once(monkeypatch):
    # The calling thread runs the middle point's Lanczos iteration before
    # the pool exists; then every sweep point is submitted, ends first in
    # bisection order and before any refinement, each with its own copy of
    # that Ritz vector; the proof comes last, once every point is done.
    grid = build_grid(*_LADDER_GRID)
    monkeypatch.setenv("TRIBOS_THREADS", "2")
    reference = scan_spectrum(grid, 0.0, 1e-4, 1e4, 5)
    events, starts, lanczos = [], [], stm._lanczos

    def run(matrix, start):
        ritz = lanczos(matrix, start)
        events.append(("lanczos", threading.get_ident(), start.copy()))
        return ritz

    class Pool(stm.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            events.append(("pool", threading.get_ident(), None))
            super().__init__(*args, **kwargs)

        def submit(self, fn, *args):
            if fn is stm._sweep_point:
                starts.append(args[1])
            events.append(("submit", fn, (args[0].args[0], np.array(args[1]))
                           if fn is stm._sweep_point else None))
            return super().submit(fn, *args)

    monkeypatch.setattr(stm, "_lanczos", run)
    monkeypatch.setattr(stm, "ThreadPoolExecutor", Pool)
    _assert_same_scan(scan_spectrum(grid, 0.0, 1e-4, 1e4, 5), reference)
    caller = threading.get_ident()
    assert [kind for kind, _, _ in events[:2]] == ["lanczos", "pool"]
    assert events[0][1] == events[1][1] == caller
    submitted = [(fn, point) for kind, fn, point in events if kind == "submit"]
    assert [fn for fn, _ in submitted[:5]] == [stm._sweep_point] * 5
    assert [mu for _, (mu, _) in submitted[:5]] == [reference.mus[i] for i in (0, 4, 2, 1, 3)]
    assert stm._sweep_point not in [fn for fn, _ in submitted[5:]]
    assert submitted[-1][0].__name__ == "prove"
    assert all(np.array_equal(start, events[0][2]) for _, (_, start) in submitted[:5])
    assert len({id(start) for start in starts}) == 5
    assert sum(thread != caller for kind, thread, _ in events if kind == "lanczos") == 5


def test_a_failing_head_point_ends_the_scan(monkeypatch):
    # the middle point's build raises in the calling thread, before the
    # pool exists: the scan raises it
    grid = build_grid(*_LADDER_GRID)
    monkeypatch.setenv("TRIBOS_THREADS", "2")
    builds, build = [], stm.assemble

    def fail_first(*args):
        if not builds:  # the middle point builds first
            builds.append(1)
            raise MemoryError("head")
        return build(*args)

    monkeypatch.setattr(stm, "assemble", fail_first)
    outcome = []

    def scan():
        try:
            scan_spectrum(grid, 0.0, 1e-4, 1e4, 5)
        except MemoryError as exc:
            outcome.append(exc)

    runner = threading.Thread(target=scan, daemon=True)
    runner.start()
    runner.join(timeout=60.0)
    assert not runner.is_alive() and len(outcome) == 1 and str(outcome[0]) == "head"


def test_every_routine_binds_on_scipy_openblas():
    # a routine that did not resolve would fall back to eigvalsh
    # silently, at a fraction of the speed
    if np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"] != "scipy-openblas":
        pytest.skip("numpy is not built with scipy-openblas")
    for routine in (stm._dsytrf, stm._dsytrd_sy2sb, stm._dpbtrf):
        assert routine() is not None, routine.__name__


def test_scan_counts_graded_matrices_by_their_inertia():
    # p_max / sqrt(mu) >= 1e24: eigvalsh miscounts these matrices (22, 21,
    # 21, 21 negative eigenvalues against an LDL^T inertia of 21, 19, 18, 16)
    # and a crossing then landed on its bracket end
    grid = build_grid(5.469619792349482e+71, 1.1859129431602765e+98, 51)
    refine_rel = stm._REFINE_REL
    result = scan_spectrum(grid, 0.0, 2.1391946536246157e+143, 2.094710887806818e+154, 4)
    counts = result.negative_counts
    for mu, count in zip(result.mus, counts):
        assert count == stm._inertia_logdet(assemble(grid, ModelParams(mu=float(mu))))[0]
    brackets = [(result.mus[i], result.mus[i + 1]) for i in range(len(counts) - 1)
                for _ in range(counts[i + 1], counts[i])]
    assert len(brackets) == len(result.crossings) > 0
    for (lo, hi), crossing in zip(brackets, result.crossings):
        assert lo * (1.0 + refine_rel) < crossing < hi / (1.0 + refine_rel)


def _blas_controls():
    controls = stm._openblas_thread_controls()
    if controls is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    return controls


def _assert_same_scan(a, b):
    assert np.array_equal(a.mus, b.mus)
    assert np.array_equal(a.smallest, b.smallest)
    assert np.array_equal(a.negative_counts, b.negative_counts)
    assert a.crossings == b.crossings


def test_scan_independent_of_blas_and_pool_threads(monkeypatch):
    get, put = _blas_controls()
    grid = build_grid(*_LADDER_GRID)
    previous = get()
    results = []
    try:
        for blas in (1, 2):
            for threads in ("1", "4"):
                put(blas)
                monkeypatch.setenv("TRIBOS_THREADS", threads)
                results.append((scan_spectrum(grid, 0.0, 1e-4, 1e4, 3),
                                scan_spectrum(grid, 1.0, 1e-2, 1e2, 3)))
    finally:
        put(previous)
    assert len(results[0][0].crossings) == 3
    for ladder, positive in results[1:]:
        _assert_same_scan(ladder, results[0][0])
        _assert_same_scan(positive, results[0][1])


def test_scan_is_identical_under_fast_thread_switching(monkeypatch):
    # pool threads share the sweep results the refinements read: more
    # threads than cores, switching every microsecond
    grid = build_grid(*_LADDER_GRID)
    monkeypatch.setenv("TRIBOS_THREADS", "1")
    reference = scan_spectrum(grid, 0.0, 1e-4, 1e4, 9)
    monkeypatch.setenv("TRIBOS_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _assert_same_scan(scan_spectrum(grid, 0.0, 1e-4, 1e4, 9), reference)
    finally:
        sys.setswitchinterval(interval)


def test_scan_solves_single_threaded_and_restores_blas_threads(monkeypatch):
    # every Lanczos iteration (its matrix-vector products), LDL^T
    # factorization (delta = 0, and the certificate), block solve and
    # certificate (delta >= delta0) and band solve (where the block's
    # residual misses the tolerance) sees one BLAS thread
    get, put = _blas_controls()
    grid = build_grid(*_LADDER_GRID)
    calls = _record_calls(monkeypatch, ("_lowest_eigenvalue", "_lanczos", "_ldlt", "_block_ritz",
                                        "_certified_lower_bound"), record=get)
    previous = get()
    try:
        put(2)
        scan_spectrum(grid, 0.0, 1e-4, 1e4, 3)
        assert get() == 2
        scan_spectrum(grid, 1.0, 1e-2, 1e2, 3)
        assert get() == 2
        scan_spectrum(build_grid(*_FALLBACK_GRID), 1.0, 1e-2, 1e2, 3)
        assert get() == 2
        with monkeypatch.context() as patch, pytest.raises(RuntimeError):
            patch.setattr(stm, "_REFINE_REL", 1e-300)
            scan_spectrum(grid, 0.0, 1e-4, 1e4, 3)
        assert get() == 2
    finally:
        put(previous)
    for seen in calls.values():
        assert seen and set(seen) == {1}


@pytest.mark.parametrize("field", ["mu", "delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_params_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        ModelParams(**{"mu": 1.0, field: value})


@pytest.mark.parametrize("bounds", [(1e-4, math.inf), (math.nan, 1.0), (1e-4, math.nan),
                                    (math.inf, math.inf)])
def test_build_grid_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError):
        build_grid(*bounds, 16)


def _assert_same_bits(a, b):
    assert a.mus.tobytes() == b.mus.tobytes()
    assert a.smallest.tobytes() == b.smallest.tobytes()
    assert a.negative_counts.tobytes() == b.negative_counts.tobytes()
    assert np.array(a.crossings).tobytes() == np.array(b.crossings).tobytes()


def _tms_derivative(p, q, mu):
    # K'(p, q) = (4/pi) pq / ((p^2 + q^2 + mu)^2 - p^2 q^2), tms_kernel's mu-derivative
    s = p * p + q * q + mu
    return (4.0 / math.pi) * p * q / (s * s - (p * q) ** 2)


def test_tms_kernel_derivative_against_a_finite_difference():
    p, q = np.exp(np.random.default_rng(3).uniform(-6.0, 6.0, (2, 300)))
    for mu in (1e-3, 1.0, 1e3):
        h = 1e-4 * mu
        central = (tms_kernel(p, q, mu + h) - tms_kernel(p, q, mu - h)) / (2.0 * h)
        assert np.allclose(central, _tms_derivative(p, q, mu), rtol=1e-6, atol=1e-14 / h)
    # and its integral form (4/pi) int_0^inf exp(-t (p^2+q^2+mu)) sinh(t pq) dt
    for pk, qk, mu in ((0.3, 0.5, 0.1), (2.0, 7.0, 1.0), (1.0, 1.0, 1e-3)):
        s, pq = pk * pk + qk * qk + mu, pk * qk  # exp(-t s) sinh(t pq), without overflow
        value = float(mp.quad(lambda t: 0.5 * (mp.exp(-t * (s - pq)) - mp.exp(-t * (s + pq))),
                              [0, mp.inf]))
        assert (4.0 / math.pi) * value == pytest.approx(_tms_derivative(pk, qk, mu), rel=1e-9)


@pytest.mark.parametrize("delta", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("window, n", [((1e-2, 1e2), 160), ((1e-4, 1e4), 1000)])
def test_matrix_increases_with_mu(delta, window, n):
    # M(mu2) - M(mu1), mu2 > mu1, proven positive definite by the LDL^T
    # certificate, with room for the rounding of both assemblies and of the
    # difference: the scan's monotonicity holds for the exact matrices.
    # Its smallest eigenvalue is about (mu2 - mu1) / (2 max d): 5.8e-6 on
    # [1e-2, 1e2] and 5.8e-8 on [1e-4, 1e4].
    grid = build_grid(*window, n)
    lower, upper = (assemble(grid, ModelParams(mu=mu, delta=delta)) for mu in (1.0, 1.001))
    difference = upper - lower
    smallest = np.linalg.eigvalsh(difference)[0]
    assert 0.5e-3 / (2.0 * math.sqrt(0.75) * window[1]) < smallest
    bound = stm._certified_lower_bound(difference.copy(), smallest / 2.0, 0.0)
    weights = math.fsum(grid.weights)
    rounding = sum(stm._assembly_error(float(np.linalg.norm(m)), stm._diagonal_term(
        grid.nodes, mu), weights) for m, mu in ((lower, 1.0), (upper, 1.001)))
    assert bound is not None and bound > rounding + _U * float(np.linalg.norm(difference))


def _long_double_assembly(grid, params):
    # _reference_assembly's formulas in long double on the same nodes,
    # weights and mu, with the Coulomb entries and the near-panel entries
    # in double, as assemble computes them
    ld = np.longdouble
    p, w = grid.nodes, grid.weights
    P, Q = p[:, None].astype(ld), p[None, :].astype(ld)
    s = P * P + Q * Q + ld(params.mu)
    K = -(2.0 / (4.0 * np.arctan(ld(1.0)))) * np.log((s + P * Q) / (s - P * Q))
    diag_kernel = np.diag(K).copy()
    if params.delta != 0.0:
        with np.errstate(divide="ignore"):
            C = (params.delta / math.pi) * np.log((p[:, None] + p) / np.abs(p[:, None] - p))
        np.fill_diagonal(C, 0.0)
        K = K + C
    sw = np.sqrt(w.astype(ld))
    M = sw[:, None] * sw * K
    pi = 4.0 * np.arctan(ld(1.0))
    diag_kernel += ld(params.delta) / pi * np.log(2.0 / ld(grid.half_width))
    np.fill_diagonal(M, np.sqrt(0.75 * P[:, 0] ** 2 + ld(params.mu)) + w * diag_kernel)
    if params.delta != 0.0:
        upper, lower, near = grid._near
        M.reshape(-1)[upper] += ld(params.delta) / pi * near
        M.reshape(-1)[lower] = M.reshape(-1)[upper]
    return M


@pytest.mark.parametrize("delta", [0.0, 1.0])
def test_assembly_error_bounds_the_rounding_of_assemble(delta):
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double here")
    grid = build_grid(1e-4, 1e4, 120)
    weights = math.fsum(grid.weights)
    for mu in (1e-3, 0.7, 1e3):
        params = ModelParams(mu=mu, delta=delta)
        built = assemble(grid, params)
        error = np.linalg.norm((built - _long_double_assembly(grid, params)).astype(float), 2)
        eps = stm._assembly_error(float(np.linalg.norm(built)), stm._diagonal_term(grid.nodes, mu),
                                  weights)
        assert 0.0 < error <= eps


def test_ritz_bound_covers_the_exact_residual():
    # rho against ||M x - theta x|| / ||x|| in 40 digits, for a Lanczos pair
    # and for a rough one; an eigenvalue lies within rho of theta
    matrix = assemble(build_grid(1e-4, 1e4, 60), ModelParams(mu=0.7))
    x = np.ones(60)
    theta, _ = stm._lanczos(matrix, x)
    norm = float(np.linalg.norm(matrix))
    ev = np.linalg.eigvalsh(matrix)
    for vector, value in ((x, theta), (np.linspace(1.0, 2.0, 60), -3.0)):
        rho = stm._ritz_bound(matrix, value, vector, norm)
        with mp.workdps(40):
            m, v = mp.matrix(matrix.tolist()), mp.matrix(vector.tolist())
            exact = float(mp.norm(m * v - mp.mpf(value) * v) / mp.norm(v))
        assert exact <= rho <= exact + 4.0 * (60 + 2) * _U * (norm + abs(value))
        assert np.min(np.abs(ev - value)) <= rho


def test_second_eigenvalue_bound_proves_only_what_holds():
    matrix = assemble(build_grid(*_LADDER_GRID), ModelParams(mu=0.7))
    ev = np.linalg.eigvalsh(matrix)
    x = np.ones(len(matrix))
    theta, _ = stm._lanczos(matrix, x)
    for target in (ev[0] + 1.0, 0.5 * (ev[0] + ev[1]), ev[1] - 1e-6 * abs(ev[1])):
        bound = stm._second_eigenvalue_bound(matrix.copy(), x, theta, target)
        assert bound is not None and target < bound <= ev[1]
    for target in (ev[1], ev[1] + 1.0):  # not true: no proof
        assert stm._second_eigenvalue_bound(matrix.copy(), x, theta, target) is None
    # a vector far from the ground state proves nothing false either
    bound = stm._second_eigenvalue_bound(matrix.copy(), np.ones(len(matrix)), theta, ev[0] + 1.0)
    assert bound is None or bound <= ev[1]


@pytest.mark.parametrize("n", [2, 3, 5, 9, 25, 31])
def test_bisection_order_puts_the_ends_first(n):
    order = stm._bisection_order(n)
    points = [i for i, _ in order]
    assert sorted(points) == list(range(n)) and order[:2] == [(0, ()), (n - 1, ())]
    for k, (i, span) in enumerate(order[2:], 2):  # the midpoint of the span it falls in
        placed = points[:k]
        assert span == (max(j for j in placed if j < i), min(j for j in placed if j > i))
        assert i == (span[0] + span[1]) // 2


def _recorded_sweep_points(monkeypatch):
    # the results of every sweep point, in the order they finish
    points, sweep_point = [], stm._sweep_point
    monkeypatch.setattr(stm, "_sweep_point",
                        lambda *a: points.append(sweep_point(*a)) or points[-1])
    return points


@pytest.mark.parametrize("delta, n_mu", [(0.0, 25), (0.3, 13)])
def test_scan_counts_match_a_factorization_of_every_point(monkeypatch, delta, n_mu):
    grid = build_grid(*_LADDER_GRID)
    points = _recorded_sweep_points(monkeypatch)
    scan = scan_spectrum(grid, delta, 1e-4, 1e4, n_mu)
    reference = [stm._inertia_logdet(assemble(grid, ModelParams(mu=float(mu), delta=delta)))[0]
                 for mu in scan.mus]
    assert list(scan.negative_counts) == reference
    assert any(logdet is None for _, _, logdet, _ in points)  # some count came from its span ends


class _ReversePool(stm.ThreadPoolExecutor):
    # starts the n sweep points in submission order, each on a thread of its
    # own, and holds each back for a time that shrinks with its submission
    # index, so that the last submitted finishes first unless it waits on
    # another; everything else as submitted
    def __init__(self, n):
        super().__init__(max_workers=n + 4)
        self.n, self.points = n, 0

    def submit(self, fn, *args):
        if fn is not stm._sweep_point:
            return super().submit(fn, *args)
        delay, self.points = 0.01 * (self.n - self.points), self.points + 1
        return super().submit(lambda: time.sleep(delay) or fn(*args))


class _SleepyEndsPool(stm.ThreadPoolExecutor):
    # the scan's two end points, submitted first, sleep inside their task
    # once started, so the other points start before they finish
    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers)
        self.points = 0

    def submit(self, fn, *args):
        if fn is stm._sweep_point:
            self.points += 1
            if self.points <= 2:
                return super().submit(lambda: time.sleep(0.2) or fn(*args))
        return super().submit(fn, *args)


def test_span_ends_settle_counts_whatever_finishes_first(monkeypatch):
    # delta = 0: every point is pending, and each waits for its span ends,
    # so the points that factor for their count, and every bit, are those
    # of one thread, also while the ends are still running
    grid = build_grid(*_LADDER_GRID)
    monkeypatch.setenv("TRIBOS_THREADS", "1")
    reference = scan_spectrum(grid, 0.0, 1e-4, 1e4, 25)
    points = _recorded_sweep_points(monkeypatch)
    monkeypatch.setattr(stm, "ThreadPoolExecutor", _SleepyEndsPool)
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("TRIBOS_THREADS", threads)
        points.clear()
        scan = scan_spectrum(grid, 0.0, 1e-4, 1e4, 25)
        _assert_same_bits(scan, reference)
        assert len(points) == 25 and all(point[3] is not None for point in points)
        factored = sum(point[2] is not None for point in points)
        assert factored == _factored_points(scan.negative_counts) < 25


def test_band_points_take_the_count_their_span_ends_agree_on(monkeypatch):
    # delta = 0.6: Lanczos gives up at every point, which takes the band
    # solve; where that is not positive definite, a point whose span ends
    # agree takes their count, so only _factored_points pay an inertia, and
    # every count is that of a factorization
    grid = build_grid(1e-4, 1e4, 150)
    gave_up, lanczos = [], stm._lanczos
    monkeypatch.setattr(stm, "_lanczos", lambda *a: (lambda r: gave_up.append(r is None) or r)(
        lanczos(*a)))
    points = _recorded_sweep_points(monkeypatch)
    inertias = _record_calls(monkeypatch, ("_inertia_logdet",))["_inertia_logdet"]
    steps, brent = [], stm._brent_crossing
    monkeypatch.setattr(stm, "_brent_crossing", lambda f, *a: brent(
        lambda t: steps.append(t) or f(t), *a))
    scan = scan_spectrum(grid, 0.6, 1e-4, 1e4, 25)
    counts = scan.negative_counts
    assert gave_up == [True] * 26 and len(points) == 25
    assert all(point[3] is None for point in points)  # none pending
    factored = sum(point[1] > 0 and point[2] is not None for point in points)
    assert factored == _factored_points(counts) < sum(counts > 0)
    assert len(inertias) == factored + len(steps)
    assert list(counts) == [stm._inertia_logdet(assemble(grid, ModelParams(mu=float(mu),
                                                                           delta=0.6)))[0]
                            for mu in scan.mus]


def test_a_failing_span_end_ends_the_scan_with_its_error(monkeypatch):
    # the first point's build raises in its pool task while the other points
    # run; every point waits on it through its span ends, so the scan raises
    # that error, no point factors but the other end, and nothing hangs
    grid = build_grid(*_LADDER_GRID)
    monkeypatch.setenv("TRIBOS_THREADS", "4")
    first, build = np.geomspace(1e-4, 1e4, 25)[0], stm.assemble

    def fail_first(g, params, *args):
        if params.mu == first:
            time.sleep(0.2)
            raise MemoryError("span end")
        return build(g, params, *args)

    monkeypatch.setattr(stm, "assemble", fail_first)
    inertias = _record_calls(monkeypatch, ("_inertia_logdet",))["_inertia_logdet"]
    outcome = []

    def scan():
        try:
            scan_spectrum(grid, 0.0, 1e-4, 1e4, 25)
        except MemoryError as exc:
            outcome.append(exc)

    runner = threading.Thread(target=scan, daemon=True)
    runner.start()
    runner.join(timeout=60.0)
    assert not runner.is_alive() and len(outcome) == 1 and str(outcome[0]) == "span end"
    assert len(inertias) == 1


def test_scan_bits_independent_of_threads_and_finishing_order(monkeypatch):
    grid = build_grid(*_LADDER_GRID)
    cases = [(0.0, 1e-4, 1e4, 25), (0.3, 1e-4, 1e4, 13), (0.0, 1e-2, 1e2, 6)]
    monkeypatch.setenv("TRIBOS_THREADS", "1")
    references = [scan_spectrum(grid, *case) for case in cases]
    for threads in ("2", "4"):
        monkeypatch.setenv("TRIBOS_THREADS", threads)
        for case, reference in zip(cases, references):
            _assert_same_bits(scan_spectrum(grid, *case), reference)
    for case, reference in zip(cases, references):
        monkeypatch.setattr(stm, "ThreadPoolExecutor",
                            lambda max_workers, n=case[3]: _ReversePool(n))
        _assert_same_bits(scan_spectrum(grid, *case), reference)


def test_a_failed_proof_falls_back_with_the_same_bytes(monkeypatch):
    # the one proof fails: all nine points take the certificate again
    grid = build_grid(*_LADDER_GRID)
    reference = scan_spectrum(grid, 0.0, 1e-4, 1e4, 9)
    attempts = []

    def attempt(*args):
        attempts.append(1)

    monkeypatch.setattr(stm, "_second_eigenvalue_bound", attempt)
    checks = _record_calls(monkeypatch, ("_checked_value",))["_checked_value"]
    _assert_same_bits(scan_spectrum(grid, 0.0, 1e-4, 1e4, 9), reference)
    assert len(attempts) == 1 and len(checks) == 9


@pytest.mark.parametrize("fill", [1e3, math.nan])
def test_a_spent_lower_triangle_keeps_the_band_fallback(monkeypatch, fill):
    # Every certificate fails and leaves fill below the diagonal (NaN gave
    # a non-finite-matrix error, exit 3): the band solve and the inertia read
    # only the upper triangle, so each point gets the band value of its
    # fresh matrix and the count of its inertia.
    grid = build_grid(*_LADDER_GRID)
    certify = stm._certified_lower_bound

    def fail(matrix, theta, r):
        certify(matrix, theta, r)
        matrix[np.tril_indices(len(matrix), -1)] = fill

    monkeypatch.setattr(stm, "_certified_lower_bound", fail)
    for delta, mu_lo, mu_hi in ((1.0, 1e-2, 1e2), (0.0, 1e-4, 1e4)):
        scan = scan_spectrum(grid, delta, mu_lo, mu_hi, 5)
        for mu, smallest, count in zip(scan.mus, scan.smallest, scan.negative_counts):
            matrix = assemble(grid, ModelParams(mu=float(mu), delta=delta))
            with stm._single_threaded_blas():  # as the scan solves
                assert smallest == stm._lowest_eigenvalue(matrix.copy())[0]
            assert count == stm._inertia_logdet(matrix)[0]
        assert len(scan.crossings) == (0 if delta else 3)
    op = assemble(grid, ModelParams(mu=0.7, delta=1.0))
    assert smallest_eigenvalue(op) == stm._lowest_eigenvalue(op.copy())[0]


def test_smallest_eigenvalue_pays_for_no_count(monkeypatch):
    # test_smallest_eigenvalue_shift_identity's matrix: the block's residual
    # misses, and the value is the band solve's, with no inertia; at n <=
    # _BLOCK the block is the whole matrix and its negative Ritz value is
    # certified, again without an inertia
    root = math.sqrt(2.0)
    band = {}
    for n in (200, 150):
        op = assemble(build_grid(1e-4 * root, 1e4 * root, n), ModelParams(mu=2.0))
        band[n] = stm._lowest_eigenvalue(op.copy())[0]
        calls = _record_calls(monkeypatch, ("_inertia_logdet", "_lowest_eigenvalue"))
        value = smallest_eigenvalue(op)
        assert not calls["_inertia_logdet"]
        assert len(calls["_lowest_eigenvalue"]) == (n > stm._BLOCK)
        if n > stm._BLOCK:
            assert value == band[n]
        else:
            assert value < 0.0
            _assert_near_eigvalsh(value, op)
        monkeypatch.undo()
