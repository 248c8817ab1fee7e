import math
import warnings

import numpy as np
import pytest

from tribos import symbols
from tribos.specfun import sinh_ratio, tanh_over_s
from tribos.symbols import (SQRT3, certify_positivity, delta0, delta_bound,
                            delta_to_gamma, eval_g, eval_reg_symbol, find_s0,
                            gamma_bound, gamma_to_delta)


def test_g_at_zero_closed_form():
    expected = 1.0 - 4.0 * math.pi / (3.0 * SQRT3)
    assert eval_g(0.0) == pytest.approx(expected, rel=1e-14)
    # 25-digit value -1.418399152312290467458771
    assert eval_g(0.0) == pytest.approx(-1.4183991523122905, abs=2e-15)


def test_g_even():
    rng = np.random.default_rng(3)
    for s in rng.uniform(-40.0, 40.0, size=20):
        assert eval_g(float(s)) - eval_g(-float(s)) == 0.0


def test_g_monotone_increasing_and_tends_to_one():
    # strictly increasing while the correction is resolvable in doubles,
    # non-decreasing through the saturated tail
    grid = np.geomspace(1e-3, 20.0, 160)
    vals = [eval_g(float(s)) for s in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    tail = [eval_g(float(s)) for s in np.geomspace(20.0, 50.0, 40)]
    assert all(b >= a for a, b in zip(tail, tail[1:]))
    # correction is O(exp(-pi s / 3)): 1.3e-5 at s=10 (frozen), 1.9e-10 at s=20
    assert eval_g(10.0) == pytest.approx(0.999986920357277140922625, abs=1e-14)
    assert abs(eval_g(20.0) - 1.0) < 1e-8


def test_find_s0_basics():
    found = find_s0(1e-12)
    assert 1.000 < found.s0 < 1.010
    assert found.residual <= 1e-12
    assert abs(eval_g(found.s0)) <= 1e-12


def test_find_s0_against_bisection_oracle():
    # plain 60-step bisection from the bracket (0.5, 2)
    lo, hi = 0.5, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if eval_g(lo) * eval_g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    assert abs(find_s0(1e-12).s0 - oracle) < 1e-10


def test_find_s0_keeps_its_bits():
    # the coarse 0.1 k scan runs as one array, bit for bit the scalar calls
    # of its former loop, so the bracket and every bisection step are theirs
    assert find_s0(1e-12).s0 == 1.0062378251027444
    assert find_s0(1e-14).s0 == 1.006237825102782


def test_find_s0_errors():
    with pytest.raises(ValueError):
        find_s0(0.0)
    with pytest.raises(RuntimeError):
        find_s0(1e-300)  # below double-precision resolution


def test_delta0_identities():
    assert delta0() == 4.0 / 3.0 - SQRT3 / math.pi
    assert delta0() == pytest.approx(0.7820044379115413, abs=2e-16)


def test_reg_symbol_reduces_to_g_at_zero_delta():
    rng = np.random.default_rng(5)
    for s in rng.uniform(-30.0, 30.0, size=20):
        assert eval_reg_symbol(float(s), 0.0) == pytest.approx(eval_g(float(s)), abs=1e-15)


def test_g_keeps_the_bits_of_its_former_formula():
    # eval_g is eval_reg_symbol at delta = 0, which gives the bits of the
    # former 1 - (8/sqrt(3)) sinh_ratio(s): 8/sqrt(3) = 4 (2/sqrt(3)) exactly
    rng = np.random.default_rng(23)
    s = np.concatenate([np.linspace(-60.0, 60.0, 100001), [0.0, -0.0, 1e300, -1e300, math.inf],
                        np.nextafter(1e-6, [0.0, 1.0]), [1e-6, -1e-6, 1e-7, 5e-324],
                        rng.uniform(-1e-5, 1e-5, 10000), np.exp(rng.uniform(-700.0, 700.0, 10000))])
    former = 1.0 - (8.0 / math.sqrt(3.0)) * sinh_ratio(s)
    assert np.array_equal(eval_g(s).view(np.int64), former.view(np.int64))
    assert all(eval_g(float(x)) == f for x, f in zip(s[::97], former[::97]))


def test_reg_symbol_even():
    rng = np.random.default_rng(9)
    for s in rng.uniform(-30.0, 30.0, size=20):
        d = float(rng.uniform(0.0, 3.0))
        assert eval_reg_symbol(float(s), d) == eval_reg_symbol(-float(s), d)


def test_reg_symbol_threshold_limit():
    assert abs(eval_reg_symbol(0.0, delta0())) <= 1e-12
    # verify numerically just off s = 0 as well
    assert abs(eval_reg_symbol(1e-6, delta0())) <= 1e-11
    # the s=0 value is linear in delta and crosses zero exactly at delta0
    assert eval_reg_symbol(0.0, delta0() - 1e-6) < 0.0
    assert eval_reg_symbol(0.0, delta0() + 1e-6) > 0.0


def test_reg_symbol_spot_values():
    # 25-digit values: 1.050568055456869 at (1, 1); -0.1487395973483380 at (0, 0.7)
    assert eval_reg_symbol(1.0, 1.0) == pytest.approx(1.050568055456869, rel=1e-14)
    assert eval_reg_symbol(1.0, 1.0) > 0.0
    assert eval_reg_symbol(0.0, 0.7) == pytest.approx(-0.1487395973483380, rel=1e-13)


def test_reg_symbol_monotone_in_delta():
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = float(rng.uniform(0.01, 30.0))
        deltas = np.sort(rng.uniform(0.0, 3.0, size=4))
        vals = [eval_reg_symbol(s, float(d)) for d in deltas]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_certify_positivity_above_threshold():
    scan = certify_positivity(1.0, 50.0, 5000)
    assert scan.sign_changes == []
    assert scan.min_value > 0.0
    assert 0.0 <= scan.argmin <= 50.0


def test_certify_positivity_unregularized(s0):
    scan = certify_positivity(0.0, 50.0, 5000)
    assert len(scan.sign_changes) == 1
    lo, hi = scan.sign_changes[0]
    assert lo < s0 < hi
    assert eval_reg_symbol(lo, 0.0) * eval_reg_symbol(hi, 0.0) < 0.0
    assert scan.min_value == pytest.approx(eval_g(0.0), rel=1e-14)


def test_certify_positivity_below_threshold():
    scan = certify_positivity(0.7, 50.0, 5000)
    assert scan.min_value < 0.0
    assert scan.argmin < 1.0  # negative region sits near s = 0
    assert len(scan.sign_changes) >= 1


def _scan_reference(delta, s_max, n):
    # scalar loop: the first minimum and every sign-change bracket
    step = s_max / (n - 1)
    s_prev, v_prev = 0.0, eval_reg_symbol(0.0, delta)
    min_value, argmin, brackets = v_prev, 0.0, []
    for i in range(1, n):
        s = i * step
        v = eval_reg_symbol(s, delta)
        if v < min_value:
            min_value, argmin = v, s
        if v_prev * v < 0.0:
            brackets.append((s_prev, s))
        s_prev, v_prev = s, v
    return min_value, argmin, brackets


@pytest.mark.parametrize("delta", [1.0, 0.5])
def test_certify_positivity_matches_scalar_loop(delta):
    scan = certify_positivity(delta, 50.0, 5000)
    assert (scan.min_value, scan.argmin, scan.sign_changes) == _scan_reference(delta, 50.0, 5000)
    assert type(scan.min_value) is float and type(scan.argmin) is float
    assert len(scan.sign_changes) == int(delta < delta0())


@pytest.mark.parametrize("f", [sinh_ratio, tanh_over_s, eval_g,
                               lambda s: eval_reg_symbol(s, 0.5)],
                         ids=["sinh_ratio", "tanh_over_s", "eval_g", "eval_reg_symbol"])
def test_array_calls_match_scalar_calls(f):
    s = np.concatenate([np.linspace(-60.0, 60.0, 1001),
                        [0.0, 1e-7, 9.99e-7, 1.01e-6, 1e4, 1e300, math.inf]])
    values = f(s)
    scalars = [f(float(x)) for x in s]
    assert all(type(v) is float for v in scalars)
    assert type(f(np.float64(2.0))) is float
    assert np.array_equal(values, scalars)
    assert np.array_equal(f(s.reshape(-1, 7)), values.reshape(-1, 7))


def test_default_s0_is_find_s0_at_1e_14():
    assert symbols.default_s0() == find_s0(1e-14).s0 == symbols.default_s0()
    assert find_s0().s0 == symbols.default_s0()  # the library's default is the commands' s0


@pytest.mark.parametrize("delta", [0.0, 0.7, 1.0])
def test_table_reports_the_symbol_at_the_samples(delta):
    # the columns and report the symbol command prints, from one sinh_ratio pass
    columns, scan = symbols.table(delta, 50.0, 5000)
    s = columns["s"]
    assert list(columns) == ["s", "g", "reg_symbol", "sign_change_bracket"]
    assert np.array_equal(s, symbols.symbol_samples(50.0, 5000))
    assert columns["g"].tobytes() == eval_g(s).tobytes()
    assert columns["reg_symbol"].tobytes() == eval_reg_symbol(s, delta).tobytes()
    assert scan == certify_positivity(delta, 50.0, 5000)
    brackets = s[columns["sign_change_bracket"] == 1].tolist()
    assert brackets == [lo for lo, _ in scan.sign_changes] and len(brackets) == (delta < 1.0)


@pytest.mark.parametrize("delta", [1e308, -1e308])
def test_table_raises_where_the_symbol_leaves_double_range(delta):
    with pytest.raises(OverflowError) as exc:
        symbols.table(delta, 50.0, 3)
    assert str(exc.value) == f"reg_symbol leaves double range at delta = {delta:.17g}"


def test_certify_positivity_validation():
    with pytest.raises(ValueError):
        certify_positivity(1.0, -1.0, 100)
    with pytest.raises(ValueError):
        certify_positivity(1.0, 50.0, 1)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_certify_positivity_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError):
        certify_positivity(delta, 50.0, 100)


@pytest.mark.parametrize("s_max", [math.inf, math.nan])
def test_certify_positivity_rejects_non_finite_s_max(s_max):
    with pytest.raises(ValueError):
        certify_positivity(1.0, s_max, 100)


def test_gamma_delta_conversion():
    rng = np.random.default_rng(17)
    for x in rng.uniform(-5.0, 5.0, size=20):
        assert delta_to_gamma(gamma_to_delta(float(x))) == pytest.approx(float(x), rel=1e-15)
    assert gamma_to_delta(0.0) == 0.0
    # the momentum-space bound maps onto the position-space bound
    assert gamma_to_delta(gamma_bound()) == pytest.approx(delta_bound(), rel=1e-15)
    assert delta_bound() == pytest.approx((2.0 / math.pi) * (4.0 * math.pi / (3.0 * SQRT3) - 1.0),
                                          rel=1e-15)
    # the two published thresholds differ; both are exposed
    assert delta_bound() > delta0()


def test_reg_symbol_overflow_is_silent():
    # delta * tanh(pi s/2)/s leaves double range: the values are the scalar
    # path's, -inf included, and no RuntimeWarning is raised
    s = np.linspace(0.0, 1.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = eval_reg_symbol(s, -1e308)
        scalars = [eval_reg_symbol(float(x), -1e308) for x in s]
    assert values.tolist() == scalars
    assert values[0] == -math.inf and math.isfinite(values[-1])
