import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from tribos import stm
from tribos.ladder import sample_charge_density, xi_mu
from tribos.stm import (ModelParams, assemble, build_grid, closed_form_residual,
                        coulomb_kernel, coulomb_row_integral, residual,
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

    def integrand(q):
        return coulomb_kernel(1.0, q, 1.0) * math.exp(-q) if q != 1.0 else 0.0

    assert integrate(integrand, pts) == pytest.approx(ref, abs=1e-8)


def test_coulomb_row_integral_closed_form():
    with mp.workdps(30):
        for p in (0.013, 1.0, 37.0):
            ref = float(mp.quad(lambda q: (1.3 / mp.pi) * mp.log((p + q) / abs(p - q)),
                                [0.01, p, 80.0] if 0.01 < p < 80.0 else [0.01, 80.0]))
            val = coulomb_row_integral(p, 0.01, 80.0, 1.3)
            assert val == pytest.approx(ref, rel=1e-12)
    # endpoint nodes hit the x log x -> 0 continuation
    assert math.isfinite(float(coulomb_row_integral(0.01, 0.01, 80.0, 1.3)))


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


def test_residual_of_closed_form_density():
    value = closed_form_residual(1.0, n=2000)
    assert value <= 1e-6


def test_residual_trivial_solution_and_errors(s0):
    mu = 1.0
    grid = build_grid(1e-4, 1e4, 200)
    xi = sample_charge_density(grid, mu, s0)
    zero = type(xi)(grid=grid, values=np.zeros(len(grid)), mu=mu)
    assert residual(zero, ModelParams(mu=mu), eval_lo=1e-2, eval_hi=1e2) == 0.0
    bad = type(xi)(grid=grid, values=np.zeros(17), mu=mu)
    with pytest.raises(ValueError):
        residual(bad, ModelParams(mu=mu))
    with pytest.raises(ValueError):
        residual(xi, ModelParams(mu=2.0))
    with pytest.raises(ValueError):
        residual(xi, ModelParams(mu=mu), eval_lo=1e5, eval_hi=1e6)


def test_residual_regularized_is_bounded_away_from_zero(s0):
    # the closed-form density does not solve the delta > 0 equation
    mu = 1.0
    grid = build_grid(1e-6, 1e10, 1000)
    xi = sample_charge_density(grid, mu, s0)
    off = residual(xi, ModelParams(mu=mu, delta=1.0), eval_lo=1e-4, eval_hi=1e3)
    on = residual(xi, ModelParams(mu=mu), eval_lo=1e-4, eval_hi=1e3)
    assert off > 1e3 * on
    assert off > 0.01


def _dense_residual(xi, params, eval_lo, eval_hi):
    # the full-matrix product, the reference for the row-blocked residual
    p, w = xi.grid.nodes, xi.grid.weights
    phi = p * xi.values
    K, _, diag_extra = stm._kernel_matrix(p, w, params)
    d = np.sqrt(0.75 * p * p + params.mu) + params.alpha
    r = d * phi + K @ (w * phi) + diag_extra * phi
    mask = (p >= eval_lo) & (p <= eval_hi)
    return float(np.linalg.norm(r[mask]) / np.linalg.norm((d * phi)[mask]))


@pytest.mark.parametrize("n, delta, window", [
    (2000, 0.0, (1e-4, 1e3)),  # rows 249..1125
    (2000, 0.37, (1e-4, 1e3)),
    # rows 161..999: the first row and n are not multiples of the block
    # size, and the last block is clipped at n
    (1000, 1.0, (3e-4, 1e10)),
])
def test_residual_matches_dense_product(s0, n, delta, window):
    grid = build_grid(1e-6, 1e10, n)
    xi = sample_charge_density(grid, 1.0, s0)
    params = ModelParams(mu=1.0, delta=delta, alpha=0.1)
    assert residual(xi, params, *window) == _dense_residual(xi, params, *window)


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
    xi = sample_charge_density(grid, 1.0, s0)
    values = xi.values.copy()
    values[-1] = bad  # outside the evaluation window, but every column counts
    with pytest.raises(ValueError):
        residual(type(xi)(grid=grid, values=values, mu=1.0), ModelParams(mu=1.0),
                 eval_lo=1e-4, eval_hi=1e3)


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


def test_scan_independent_of_thread_count(monkeypatch):
    grid = build_grid(1e-2, 1e2, 200)
    results = []
    for threads in ("1", "4"):
        monkeypatch.setenv("TRIBOS_THREADS", threads)
        results.append(scan_spectrum(grid, 0.0, 1e-2, 1e2, 7))
    assert results[0].crossings == results[1].crossings
    assert np.array_equal(results[0].smallest, results[1].smallest)
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
    refine_rel = 1e-8
    result = scan_spectrum(grid, 0.0, 1e-4, 1e4, n_mu, refine_rel)
    counts = result.negative_counts
    reference = sorted(
        _bisect_crossing(grid, result.mus[i], result.mus[i + 1], level, refine_rel)
        for i in range(n_mu - 1) for level in range(counts[i + 1] + 1, counts[i] + 1))
    assert len(result.crossings) == 3
    for c, ref in zip(result.crossings, reference):
        assert abs(c / ref - 1.0) <= 2.0 * refine_rel


def test_scan_crossing_brackets_level_sign_change():
    grid = build_grid(*_LADDER_GRID)
    refine_rel = 1e-8
    result = scan_spectrum(grid, 0.0, 1e-4, 1e4, 3, refine_rel)
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


def test_scan_refinement_solve_budget(monkeypatch):
    # delta = 0: each sweep point is a Lanczos iteration and two LDL^T
    # factorizations (the check and the inertia), no eigen-solve, and the
    # refinement factorizes only; delta >= delta0: one eigen-solve per point
    grid = build_grid(*_LADDER_GRID)
    calls = _record_calls(monkeypatch, ("_eigenvalues", "_ldlt", "_certified_lower_bound"))
    n_mu = 9
    result = scan_spectrum(grid, 0.0, 1e-4, 1e4, n_mu)
    assert len(result.crossings) == 3
    assert len(calls["_eigenvalues"]) == 0
    assert len(calls["_certified_lower_bound"]) == n_mu
    refinement = len(calls["_ldlt"]) - 2 * n_mu
    assert 0 < refinement <= 8 * len(result.crossings)
    for seen in calls.values():
        seen.clear()
    n_mu = 5
    assert not scan_spectrum(grid, 1.0, 1e-2, 1e2, n_mu).crossings
    assert len(calls["_eigenvalues"]) == n_mu
    assert len(calls["_ldlt"]) == len(calls["_certified_lower_bound"]) == 0


@pytest.mark.parametrize("refine_rel", [0.0, -1.0, math.nan, math.inf, 1.0])
def test_scan_rejects_bad_refine_rel(refine_rel):
    grid = build_grid(1e-4, 1e4, 64)
    with pytest.raises(ValueError):
        scan_spectrum(grid, 0.0, 1e-2, 1e2, 3, refine_rel=refine_rel)
    with pytest.raises(ValueError):
        scan_bound_states(grid, 0.0, 1e-2, 1e2, 3, refine_rel=refine_rel)


def test_scan_unreachable_refine_rel_raises():
    # a bracket narrower than the spacing of doubles cannot be reached
    grid = build_grid(*_LADDER_GRID)
    with pytest.raises(RuntimeError):
        scan_spectrum(grid, 0.0, 1e-4, 1e4, 3, refine_rel=1e-300)


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
    refine_rel = 1e-8
    factored = scan_spectrum(grid, 0.0, 1e-4, 1e4, 9, refine_rel)
    monkeypatch.setattr(stm, "_dsytrf", lambda: None)
    solved = scan_spectrum(grid, 0.0, 1e-4, 1e4, 9, refine_rel)
    assert len(factored.crossings) == len(solved.crossings) == 3
    for a, b in zip(factored.crossings, solved.crossings):
        assert abs(a / b - 1.0) <= 2.0 * refine_rel


def test_level_value_keeps_its_sign_when_it_underflows():
    below = stm._level_value(3, 2, -1e6)
    assert isinstance(below, float) and below < 0.0
    assert stm._level_value(2, 2, -1e6) > 0.0
    assert stm._level_value(3, 2, math.inf) == -1e300
    assert stm._level_value(3, 2, -math.inf) < 0.0


def _reference_assembly(grid, params):
    # the out-of-place formulas, the reference for the in-place kernel build
    p, w = grid.nodes, grid.weights
    P, Q = p[:, None], p[None, :]
    s = P * P + Q * Q + params.mu
    K = -(2.0 / math.pi) * np.log((s + P * Q) / (s - P * Q))
    diag_kernel = np.diag(K).copy()
    diag_extra = np.zeros_like(p)
    if params.delta != 0.0:
        with np.errstate(divide="ignore"):
            C = (params.delta / math.pi) * np.log((P + Q) / np.abs(P - Q))
        np.fill_diagonal(C, 0.0)
        diag_extra = coulomb_row_integral(p, p[0], p[-1], params.delta) - C @ w
        K = K + C
    sw = np.sqrt(w)
    M = np.outer(sw, sw) * K
    d = np.sqrt(0.75 * p * p + params.mu) + params.alpha
    np.fill_diagonal(M, d + w * diag_kernel + diag_extra)
    return M


def _assert_assembly_matches_reference(n, delta):
    grid = build_grid(1e-4, 1e4, n)
    coulomb = stm._coulomb_part(grid.nodes, grid.weights, delta) if delta else None
    for mu in (1e-3, 0.7, 1e3):
        params = ModelParams(mu=mu, delta=delta, alpha=0.25)
        built = assemble(grid, params)
        assert np.array_equal(built, _reference_assembly(grid, params))
        assert np.array_equal(assemble(grid, params, coulomb), built)


@pytest.mark.parametrize("delta", [0.0, 0.37, 1.0])
def test_assemble_with_precomputed_coulomb_part_is_bit_identical(delta):
    _assert_assembly_matches_reference(300, delta)


# n below the row block, and between one and two blocks without being a multiple of it
@pytest.mark.parametrize("n", [26, 61])
@pytest.mark.parametrize("delta", [0.0, 0.37, 1.0])
def test_assemble_is_bit_identical_across_row_blocks(n, delta):
    _assert_assembly_matches_reference(n, delta)


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
    coulomb = stm._coulomb_part(grid.nodes, grid.weights, delta) if delta else None
    params = ModelParams(mu=0.7, delta=delta)
    assemble(grid, params, coulomb)  # warm caches outside the measurement
    assert _peak_bytes(lambda: assemble(grid, params, coulomb)) < 1.1 * n * n * 8


def test_scan_holds_one_matrix_per_pool_thread(monkeypatch):
    # two pool threads, each assembling and solving its own matrix, plus the
    # shared Coulomb part: three n x n arrays (seven when assembly built
    # three n x n temporaries)
    n = 500
    grid = build_grid(1e-4, 1e4, n)
    monkeypatch.setenv("TRIBOS_THREADS", "2")
    scan_spectrum(grid, 1.0, 1e-2, 1e2, 2)  # warm caches outside the measurement
    assert _peak_bytes(lambda: scan_spectrum(grid, 1.0, 1e-2, 1e2, 6)) < 4 * n * n * 8
    # delta = 0: no Coulomb part; the check and the inertia factor the two
    # triangles of one matrix, and the Lanczos basis is at most 100 rows
    scan_spectrum(grid, 0.0, 1e-2, 1e2, 2)
    assert _peak_bytes(lambda: scan_spectrum(grid, 0.0, 1e-2, 1e2, 6)) < 3 * n * n * 8


@pytest.mark.parametrize("n", [26, 250, 1000])
@pytest.mark.parametrize("delta", [0.0, 0.37, 1.0])
def test_in_place_eigenvalues_equal_eigvalsh(n, delta):
    grid = build_grid(1e-4, 1e4, n)
    for mu in (1e-3, 0.7, 1e3):
        matrix = assemble(grid, ModelParams(mu=mu, delta=delta))
        expected = np.linalg.eigvalsh(matrix)
        assert np.array_equal(stm._eigenvalues(matrix), expected)


def test_in_place_eigenvalues_reject_non_finite_matrices():
    a = _symmetric(30, 2)
    a[4, 9] = a[9, 4] = math.inf
    with pytest.raises(np.linalg.LinAlgError):
        stm._eigenvalues(a)
    a[4, 9] = a[9, 4] = math.nan
    with pytest.raises(np.linalg.LinAlgError):
        stm._eigenvalues(a)


def test_scan_without_dsyevd_is_identical(monkeypatch):
    grid = build_grid(*_LADDER_GRID)
    solved = [scan_spectrum(grid, 0.0, 1e-4, 1e4, 9), scan_spectrum(grid, 1.0, 1e-2, 1e2, 5)]
    monkeypatch.setattr(stm, "_dsyevd", lambda: None)
    _assert_same_scan(scan_spectrum(grid, 0.0, 1e-4, 1e4, 9), solved[0])
    _assert_same_scan(scan_spectrum(grid, 1.0, 1e-2, 1e2, 5), solved[1])


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
    smallest, count, _ = stm._sweep_point(matrix.copy, True)
    assert smallest == np.linalg.eigvalsh(matrix)[0] and count == 2


def test_clustered_spectrum_falls_back_to_the_eigen_solve():
    # delta = 1 > delta0: the smallest eigenvalue lies about 1e-7 below a
    # cluster at sqrt(mu), against a spread of about 1e4
    grid = build_grid(1e-4, 1e4, 1000)
    matrix = assemble(grid, ModelParams(mu=0.7, delta=1.0))
    with stm._single_threaded_blas():  # the eigen-solve's bits depend on the BLAS threads
        assert stm._lanczos(matrix) is None
        smallest, count, _ = stm._sweep_point(matrix.copy, True)
        assert smallest == np.linalg.eigvalsh(matrix)[0] and count == 0


def test_lanczos_sweep_point_is_bitwise_repeatable():
    grid = build_grid(1e-4, 1e4, 250)
    matrix = assemble(grid, ModelParams(mu=0.7))
    with stm._single_threaded_blas():
        ritz = {stm._lanczos(np.array(matrix)) for _ in range(3)}
        bounds = {stm._certified_lower_bound(matrix.copy(), *next(iter(ritz))) for _ in range(3)}
        points = {stm._sweep_point(matrix.copy, True) for _ in range(3)}
    assert len(ritz) == len(bounds) == len(points) == 1 and None not in bounds
    assert next(iter(points))[0] == next(iter(ritz))[0]


def test_scan_counts_graded_matrices_by_their_inertia():
    # p_max / sqrt(mu) >= 1e24: eigvalsh miscounts these matrices (22, 21,
    # 21, 21 negative eigenvalues against an LDL^T inertia of 21, 19, 18, 16)
    # and a crossing then landed on its bracket end
    grid = build_grid(5.469619792349482e+71, 1.1859129431602765e+98, 51)
    refine_rel = 1e-8
    result = scan_spectrum(grid, 0.0, 2.1391946536246157e+143, 2.094710887806818e+154, 4,
                           refine_rel)
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


def test_scan_solves_single_threaded_and_restores_blas_threads(monkeypatch):
    # every Lanczos iteration (its matrix-vector products), LDL^T
    # factorization (delta = 0) and eigen-solve (delta >= delta0) sees one
    # BLAS thread
    get, put = _blas_controls()
    grid = build_grid(*_LADDER_GRID)
    calls = _record_calls(monkeypatch, ("_eigenvalues", "_lanczos", "_ldlt"), record=get)
    previous = get()
    try:
        put(2)
        scan_spectrum(grid, 0.0, 1e-4, 1e4, 3)
        assert get() == 2
        scan_spectrum(grid, 1.0, 1e-2, 1e2, 3)
        assert get() == 2
        with pytest.raises(RuntimeError):
            scan_spectrum(grid, 0.0, 1e-4, 1e4, 3, refine_rel=1e-300)
        assert get() == 2
    finally:
        put(previous)
    for seen in calls.values():
        assert seen and set(seen) == {1}


@pytest.mark.parametrize("field", ["mu", "delta", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_params_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        ModelParams(**{"mu": 1.0, field: value})


@pytest.mark.parametrize("bounds", [(1e-4, math.inf), (math.nan, 1.0), (1e-4, math.nan),
                                    (math.inf, math.inf)])
def test_build_grid_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError):
        build_grid(*bounds, 16)
