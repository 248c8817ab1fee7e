import math

import mpmath as mp
import numpy as np
import pytest

from tribos.specfun import EULER_GAMMA, k0, sinh_ratio, tanh_over_s


def k0_integral_oracle(x: float, dps: int = 25) -> float:
    """K0(x) = int_0^inf exp(-x cosh t) dt by high-order quadrature.

    Independent of the series/Chebyshev split used by the implementation.
    The integrand is below exp(-x)*1e-30 beyond t_max = acosh(1 + 70/x).
    """
    with mp.workdps(dps):
        xm = mp.mpf(x)
        t_max = mp.acosh(1 + 70 / xm)
        pts = [t for t in (0, 1, 3, 8) if t < t_max] + [t_max]
        return float(mp.quad(lambda t: mp.exp(-xm * mp.cosh(t)), pts))


def test_k0_domain_error():
    for bad in (0.0, -1.0, -1e-300):
        with pytest.raises(ValueError):
            k0(bad)


def test_k0_at_one_matches_integral_oracle():
    # oracle value 0.42102443824070833334 (25-digit quadrature, frozen)
    assert abs(k0(1.0) - 0.42102443824070833334) < 1e-13
    assert abs(k0(1.0) - k0_integral_oracle(1.0)) < 1e-13


def test_k0_small_argument_logarithmic_limit():
    # k0(x) + log(x/2) + gamma -> 0; the defect is O(x^2 log x)
    for x in (1e-3, 1e-5, 1e-8):
        defect = k0(x) + math.log(0.5 * x) + EULER_GAMMA
        assert abs(defect) < 2.0 * x * x * (1.0 + abs(math.log(x)))


def test_k0_large_argument_asymptote():
    # k0(x) sqrt(2x/pi) e^x -> 1 with leading correction -1/(8x)
    prev = 1.0
    for x in (30.0, 100.0, 700.0):
        scaled = k0(x) * math.sqrt(2.0 * x / math.pi) * math.exp(x)
        assert abs(scaled - 1.0) < 0.2 / x
        assert abs(scaled - 1.0) < prev
        prev = abs(scaled - 1.0)


def test_k0_underflows_to_zero():
    assert k0(800.0) == 0.0


def test_k0_against_integral_oracle_on_log_grid():
    # the split implementation versus the integral representation, 1e-10 relative
    for x in np.geomspace(1e-4, 50.0, 100):
        ref = k0_integral_oracle(float(x))
        assert abs(k0(float(x)) - ref) <= 1e-10 * abs(ref)


def test_k0_branch_seam_and_spot_values():
    from tribos.specfun import _k0_cheb, _k0_series

    # mpmath besselk reference values frozen at 25 digits
    assert abs(k0(2.0) - 0.1138938727495334356527196) < 1e-15
    assert abs(k0(650.0) / 2.512502884662839176899081e-284 - 1.0) < 1e-12
    # both branches agree at the switch point
    two = np.array([2.0])
    assert abs(_k0_series(two) - _k0_cheb(two))[0] < 2e-16


def _k0_scalar_reference(x):
    # k0 as a scalar loop, before it broadcast: the series stops at each
    # argument's own term; math.log and math.exp throughout
    if x <= 2.0:
        q = 0.25 * x * x
        term, i0, acc, hk = 1.0, 1.0, 0.0, 0.0
        for k in range(1, 40):
            term *= q / (k * k)
            hk += 1.0 / k
            i0 += term
            acc += term * hk
            if term * max(1.0, hk) < 1e-18 * (i0 + abs(acc)):
                break
        return -(math.log(0.5 * x) + EULER_GAMMA) * i0 + acc
    from tribos.specfun import _K0_CHEB

    t = 4.0 / x - 1.0
    b0 = b1 = 0.0
    for c in reversed(_K0_CHEB[1:]):
        b0, b1 = 2.0 * t * b0 - b1 + c, b0
    return math.exp(-x) * (t * b0 - b1 + 0.5 * _K0_CHEB[0]) / math.sqrt(x)


def test_k0_array_is_the_scalar_loop_bitwise():
    # both branches, the seam, and arguments where exp(-x) underflows
    rng = np.random.default_rng(5)
    x = np.concatenate([np.geomspace(1e-300, 2.0, 40000), rng.uniform(0.0, 2.0, 20000),
                        rng.uniform(2.0, 800.0, 30000), np.geomspace(2.0, 1e300, 10000),
                        [2.0, np.nextafter(2.0, 3.0), np.nextafter(2.0, 1.0), 745.0, 746.0]])
    x = rng.permutation(x[x > 0.0]).reshape(-1, 5)
    expected = np.array([_k0_scalar_reference(v) for v in x.ravel().tolist()])
    assert np.array_equal(k0(x).ravel().view(np.int64), expected.view(np.int64))
    for v in x.ravel()[:200].tolist():
        assert k0(v) == _k0_scalar_reference(v) and type(k0(v)) is float
    with pytest.raises(ValueError, match="got -2.0"):
        k0(np.array([1.0, -2.0, 0.0]))


def test_k0_positive_and_monotone_decreasing():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = float(rng.uniform(1e-4, 60.0))
        b = a + float(rng.uniform(1e-3, 10.0))
        assert k0(a) > k0(b) > 0.0


def test_hyperbolic_ratio_limits():
    assert tanh_over_s(0.0) == 0.5 * math.pi
    assert sinh_ratio(0.0) == pytest.approx(math.pi / 6.0, rel=0, abs=0)


def test_hyperbolic_ratios_even():
    rng = np.random.default_rng(11)
    for s in rng.uniform(-50.0, 50.0, size=20):
        assert tanh_over_s(float(s)) == tanh_over_s(-float(s))
        assert sinh_ratio(float(s)) == sinh_ratio(-float(s))


def test_sinh_ratio_decays_monotonically():
    # frozen 25-digit values
    assert abs(sinh_ratio(10.0) / 2.831825717605056758388038e-06 - 1.0) < 1e-12
    assert abs(sinh_ratio(100.0) / 3.31732640256081466901501e-48 - 1.0) < 1e-12
    grid = np.geomspace(0.5, 200.0, 60)
    vals = [sinh_ratio(float(s)) for s in grid]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_hyperbolic_ratios_no_overflow_at_1e4():
    for s in (1e3, 1e4, -1e4):
        assert math.isfinite(tanh_over_s(s))
        assert math.isfinite(sinh_ratio(s))
    assert sinh_ratio(1e4) == 0.0 or sinh_ratio(1e4) > 0.0


def test_hyperbolic_ratio_taylor_seam():
    # values just inside and outside the |s| < 1e-6 Taylor branch agree
    for f in (tanh_over_s, sinh_ratio):
        assert abs(f(9.99e-7) - f(1.01e-6)) < 1e-12
