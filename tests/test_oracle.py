import math

import numpy as np
import pytest

from tribos.oracle import (_TAIL_CUT, QuadratureBudgetError, check_transforms,
                           convolution_balance, cosine_transform, coth_log_kernel,
                           coth_transform_analytic, factorization_check, integrate,
                           m_log_kernel, m_transform_analytic, mirror_bound,
                           odd_extension_check)
from tribos.symbols import eval_g


def test_cosine_transform_textbook():
    for s in (0.0, 0.5, 1.0, 3.0):
        val = cosine_transform(lambda x: math.exp(-x), s)
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
        integrate(lambda x: math.exp(-x) * math.sin(40.0 * x) ** 2, [0.0, 80.0], budget=2)


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
        assert odd_extension_check(lambda y: math.sin(s0 * y), x) <= 1e-8
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
        assert odd_extension_check(lambda y: math.sin(s0 * y), x) <= 1e-8
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
