import math

import numpy as np
import pytest

from tribos import oracle
from tribos.oracle import (_G7_WEIGHTS, _K15_NODES, _K15_WEIGHTS, _TAIL_CUT,
                           QuadratureBudgetError, _graded_breakpoints, check_transforms,
                           convolution_balance, cosine_transform, coth_log_kernel,
                           coth_transform_analytic, factorization_check, integrate,
                           m_log_kernel, m_transform_analytic, mirror_bound,
                           odd_extension_check)
from tribos.symbols import eval_g


def test_cosine_transform_textbook():
    for s in (0.0, 0.5, 1.0, 3.0):
        val = cosine_transform(lambda x: np.exp(-x), s)
        assert val == pytest.approx(1.0 / (1.0 + s * s), abs=1e-10)


def test_cosine_transform_kernels_match_symbols():
    for s in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        num = cosine_transform(m_log_kernel, s)
        assert abs(num - m_transform_analytic(s)) <= 1e-8
        num = cosine_transform(coth_log_kernel, s)
        assert abs(num - coth_transform_analytic(s)) <= 1e-8


def test_cosine_transform_frozen_values():
    # 25-digit references at s = 1
    assert cosine_transform(m_log_kernel, 1.0) == pytest.approx(
        0.6859346449244211699866724, abs=1e-12)
    assert cosine_transform(coth_log_kernel, 1.0) == pytest.approx(
        1.440659519977514592658933, abs=1e-12)


def test_cosine_transform_budget_error():
    # the integrator behind cosine_transform: an oscillatory integrand on one
    # wide panel cannot meet the tolerance within a two-split budget
    with pytest.raises(QuadratureBudgetError):
        integrate(lambda x, k: np.exp(-x) * np.sin(40.0 * x) ** 2, [[0.0, 80.0]], budget=2)


def test_check_transforms_table():
    rows = check_transforms([0.5, 2.0])
    assert len(rows) == 4
    for name, check in rows:
        assert name in ("contact", "regularization")
        assert check.abs_err == abs(check.numeric - check.analytic)
        assert check.abs_err <= 1e-8


def test_factorization_identity_origin():
    plus, minus = factorization_check(0.0, 0.0)
    assert plus == 0.0 and minus == 0.0


def test_factorization_identity_random():
    rng = np.random.default_rng(67)
    for _ in range(1000):
        x, y = rng.uniform(-5.0, 5.0, size=2)
        plus, minus = factorization_check(float(x), float(y))
        scale = max(1.0, math.cosh(x + y) * math.cosh(x - y))
        assert plus <= 1e-10 * scale
        assert minus <= 1e-10 * scale
        # tighter relative form
        assert plus <= 1e-12 * 4.0 * (math.cosh(x + y) + 1.0) * (math.cosh(x - y) + 1.0)


def test_factorization_parity():
    plus_a, minus_a = factorization_check(1.0, 1.0)
    plus_b, minus_b = factorization_check(1.0, -1.0)
    assert plus_a == minus_b
    assert minus_a == plus_b


def test_odd_extension_half_vs_full_line(s0):
    for x in (0.5, 1.0, 2.0):
        assert odd_extension_check(lambda y: np.sin(s0 * y), x) <= 1e-8
    assert odd_extension_check(lambda y: 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        odd_extension_check(lambda y: 0.0, -1.0)


def test_balance_vanishes_at_s0(s0):
    for x in (0.5, 1.0, 2.0):
        assert abs(convolution_balance(s0, x)) <= 1e-6


def test_balance_reproduces_symbol_off_s0(s0):
    # the convolution acts diagonally on sinusoids: balance = g(s) sin(s x)
    for s in (0.5, 2.0, 3.5):
        for x in (0.7, 1.3):
            assert convolution_balance(s, x) == pytest.approx(
                eval_g(s) * math.sin(s * x), abs=1e-6)


def test_kernels_positive_and_decaying():
    xs = np.geomspace(0.01, 40.0, 50)
    mv = [m_log_kernel(float(x)) for x in xs]
    cv = [coth_log_kernel(float(x)) for x in xs]
    assert all(v > 0.0 for v in mv)
    assert all(v > 0.0 for v in cv)
    assert all(a > b for a, b in zip(mv, mv[1:]))
    assert all(a > b for a, b in zip(cv, cv[1:]))


def test_kernels_past_the_range_of_cosh(s0):
    # from x = 700 on m_log_kernel is 2 e^-x, its log1p form's value to
    # rounding there; the odd-extension check then runs where cosh and sinh
    # of its nodes overflow, and stops where x + _TAIL_CUT rounds by more
    # than the quadrature tolerance
    assert m_log_kernel(700.0) == pytest.approx(2.0 * math.exp(-700.0), rel=4e-16)
    assert m_log_kernel(math.nextafter(700.0, math.inf)) < m_log_kernel(700.0)
    assert m_log_kernel(1e4) == 0.0
    for x in (320.0, 640.0):
        assert odd_extension_check(lambda y: np.sin(s0 * y), x) <= 1e-8
    odd_extension_check(lambda y: 0.0, math.nextafter(2.0 ** 23 - _TAIL_CUT, 0.0))
    with pytest.raises(RuntimeError, match="8388528"):
        odd_extension_check(lambda y: 0.0, 2.0 ** 23 - _TAIL_CUT)


@pytest.mark.parametrize("x", [0.05, 1.0, 3.0, 14.5, 40.0])
def test_mirror_bound_bounds_both_mirror_integrals(x):
    # int_x^inf L and int_x^inf M against 30 digits, M = L - L(3 .) <= L:
    # 1/sinh(x) bounds both and is their limit as x grows
    import mpmath as mp
    with mp.workdps(30):
        big_l = lambda u: mp.log(mp.coth(u / 2))
        big_m = lambda u: big_l(u) - big_l(3 * u)
        assert float(big_m(mp.mpf(x))) == pytest.approx(m_log_kernel(x), rel=1e-14)
        for kernel in (big_l, big_m):
            exact = float(mp.quad(kernel, [x, x + 1, mp.inf]))
            assert exact <= mirror_bound(x)
            if x >= 14.5:
                assert exact == pytest.approx(mirror_bound(x), rel=1e-6)
    assert mirror_bound(x) == pytest.approx(1.0 / math.sinh(x), rel=1e-15)
    assert mirror_bound(1e5) == 0.0


# The one-integral depth-first recursion that integrate replaced, on scalar
# integrands: the reference for the array passes' values, bit for bit, and
# for their budget errors.
def _gk15_scalar(f, a, b):
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    fk = fg = 0.0
    for i, x in enumerate(_K15_NODES[:-1]):
        pair = f(mid - half * x) + f(mid + half * x)
        fk += _K15_WEIGHTS[i] * pair
        if i % 2 == 1:
            fg += _G7_WEIGHTS[i // 2] * pair
    fk += _K15_WEIGHTS[-1] * f(mid)
    fg += _G7_WEIGHTS[-1] * f(mid)
    return half * fk, abs(half * (fk - fg))


def _recursive(f, a, b, tol, budget):
    value, err = _gk15_scalar(f, a, b)
    if err <= tol or b - a < 1e-14 * (abs(a) + abs(b) + 1.0):
        return value
    budget[0] -= 1
    if budget[0] <= 0:
        raise QuadratureBudgetError("adaptive refinement exceeded its panel budget")
    mid = 0.5 * (a + b)
    return (_recursive(f, a, mid, 0.5 * tol, budget)
            + _recursive(f, mid, b, 0.5 * tol, budget))


def _recursive_integral(f, pts, budget):
    state, tol = [budget], 1e-9 / max(1, len(pts) - 1)
    return sum(_recursive(f, pts[i], pts[i + 1], tol, state) for i in range(len(pts) - 1))


# (integrand, its scalar form, breakpoints), bisected 26, 300, 38, 3 and 0
# times: numpy's cos, sin and sqrt and the kernels give libm's bits, so each
# pair agrees bit for bit
_GRADED = _graded_breakpoints(0.0, 1.0, toward=0.0) + [float(t) for t in range(2, 81)]
_INTEGRALS = [
    (lambda x: np.cos(12.0 * x) * coth_log_kernel(x),
     lambda x: math.cos(12.0 * x) * coth_log_kernel(x), _GRADED),
    (lambda x: np.sin(40.0 * x) ** 2 * m_log_kernel(x),
     lambda x: math.sin(40.0 * x) ** 2 * m_log_kernel(x), [0.0, 80.0]),
    (np.sqrt, math.sqrt, [0.0, 1.0, 3.0]),
    # the first panel runs backwards: accepted at once, as in the recursion
    (lambda x: m_log_kernel(np.abs(x)), lambda x: m_log_kernel(abs(x)), [5.0, -3.0, 0.0, 2.0]),
    (lambda x: np.cos(x), lambda x: math.cos(x), [1.0]),  # no panel: 0
]


def _batch(fns):
    def f(x, k):
        out = np.empty_like(x)
        for j, fn in enumerate(fns):
            out[k == j] = fn(x[k == j])
        return out
    return f


def test_integrate_keeps_the_recursions_bits():
    values = integrate(_batch([f for f, _, _ in _INTEGRALS]), [pts for _, _, pts in _INTEGRALS])
    expected = [_recursive_integral(g, pts, 20000) for _, g, pts in _INTEGRALS]
    assert values.tolist() == expected
    assert integrate(_batch([]), []).tolist() == []


@pytest.mark.parametrize("budget", [1, 3, 4, 26, 27, 38, 39, 300, 301])
def test_integrate_raises_where_the_recursion_runs_out_of_budget(budget):
    fails = []
    for f, g, pts in _INTEGRALS:
        try:
            expected = _recursive_integral(g, pts, budget)
        except QuadratureBudgetError:
            fails.append(True)
            with pytest.raises(QuadratureBudgetError):
                integrate(_batch([f]), [pts], budget=budget)
        else:
            fails.append(False)
            assert integrate(_batch([f]), [pts], budget=budget).tolist() == [expected]
    # each integral of a batch has its own budget; any one overrun raises
    batch = (_batch([f for f, _, _ in _INTEGRALS]), [pts for _, _, pts in _INTEGRALS])
    if any(fails):
        with pytest.raises(QuadratureBudgetError):
            integrate(*batch, budget=budget)
    else:
        integrate(*batch, budget=budget)


def test_integrate_evaluates_a_large_pass_in_parts(monkeypatch):
    calls = []
    f = _batch([f for f, _, _ in _INTEGRALS])
    expected = integrate(f, [pts for _, _, pts in _INTEGRALS]).tolist()
    monkeypatch.setattr(oracle, "_PASS_PANELS", 7)
    counted = lambda x, k: calls.append(x.size) or f(x, k)
    assert integrate(counted, [pts for _, _, pts in _INTEGRALS]).tolist() == expected
    assert max(calls) == 7 * 15


def test_kernels_broadcast_with_the_scalar_bits():
    x = np.concatenate([np.geomspace(1e-9, 1.0, 40), np.linspace(1.0, 40.0, 41),
                        [699.0, 700.0, 700.5, 710.0, 711.0, 1e4]])
    libm_m = [math.log1p(2.0 / (2.0 * math.cosh(v) - 1.0)) if v <= 700.0
              else 2.0 * math.exp(-v) for v in x.tolist()]
    libm_l = [-math.log(math.tanh(0.5 * v)) if v < 1.0
              else math.log1p(math.exp(-v)) - math.log1p(-math.exp(-v)) for v in x.tolist()]
    for kernel, reference in ((m_log_kernel, libm_m), (coth_log_kernel, libm_l)):
        assert kernel(x).tolist() == reference
        assert kernel(x.reshape(3, -1)).tolist() == np.reshape(reference, (3, -1)).tolist()
        values = [kernel(v) for v in x.tolist()]
        assert all(type(v) is float for v in values) and values == reference


def test_batched_checks_equal_one_at_a_time_calls(s0):
    s_values = [0.1, 0.75, 2.5, 7.5]
    rows = check_transforms(s_values)
    assert rows == [row for s in s_values for row in check_transforms([s])]
    assert check_transforms([]) == []
    xs = np.array([0.3, 1.0, 2.5, 40.0])
    theta = lambda y: np.sin(s0 * y)
    for check in (lambda x: convolution_balance(s0, x), lambda x: odd_extension_check(theta, x)):
        one_at_a_time = [check(x) for x in xs.tolist()]
        assert all(type(v) is float for v in one_at_a_time)
        assert check(xs).tolist() == one_at_a_time
        assert check(xs.reshape(2, 2)).tolist() == np.reshape(one_at_a_time, (2, 2)).tolist()
        assert check(np.zeros(0)).tolist() == []


def test_a_batch_with_one_integral_over_budget_raises(s0):
    # alone, x = 1 passes and x = 4e6 exceeds the budget of its balance
    convolution_balance(s0, 1.0)
    with pytest.raises(QuadratureBudgetError):
        convolution_balance(s0, 4e6)
    with pytest.raises(QuadratureBudgetError):
        convolution_balance(s0, [1.0, 4e6])
    with pytest.raises(QuadratureBudgetError):
        check_transforms([1.0, 1e5])


def test_odd_extension_check_validates_every_x_first():
    # the invalid x raises before the budget overrun of an earlier one
    theta = lambda y: np.sin(y)
    with pytest.raises(ValueError, match="positive"):
        odd_extension_check(theta, [1.0, 4e6, 0.0])
    with pytest.raises(RuntimeError, match="8388528"):
        odd_extension_check(theta, [1.0, 4e6, 2.0 ** 23])
