import math

import numpy as np
import pytest

from tribos.specfun import k0
from tribos.thomas import (ThomasPoint, boundary_coefficient, boundary_coefficients,
                           pde_residual, pde_residuals, psi, thomas_psi)

SQRT3 = math.sqrt(3.0)


def random_admissible_point(rng, eta=None, min_sep=0.05):
    while True:
        s1 = rng.uniform(-2.0, 2.0, size=3)
        s2 = rng.uniform(-2.0, 2.0, size=3)
        e = float(eta if eta is not None else rng.choice([0.5, 1.0, 2.0]))
        try:
            pt = ThomasPoint(s1=s1, s2=s2, eta=e)
        except ValueError:
            continue
        if pt.min_separation() > min_sep:
            return pt


def test_point_validation():
    with pytest.raises(ValueError):
        ThomasPoint(s1=[0.0, 0.0, 0.0], s2=[1.0, 0.0, 0.0], eta=1.0)
    with pytest.raises(ValueError):
        ThomasPoint(s1=[1.0, 0.0, 0.0], s2=[0.0, 0.0, 0.0], eta=1.0)
    with pytest.raises(ValueError):
        ThomasPoint(s1=[2.0, 4.0, -2.0], s2=[1.0, 2.0, -1.0], eta=1.0)  # s1 = 2 s2
    with pytest.raises(ValueError):
        ThomasPoint(s1=[1.0, 2.0, -1.0], s2=[2.0, 4.0, -2.0], eta=1.0)  # s2 = 2 s1
    with pytest.raises(ValueError):
        ThomasPoint(s1=[1.0, 0.0, 0.0], s2=[0.0, 1.0, 0.0], eta=0.0)
    with pytest.raises(ValueError):
        ThomasPoint(s1=[1.0, 0.0], s2=[0.0, 1.0, 0.0], eta=1.0)
    for s1 in ([1e200, 0.0, 0.0], [0.0, 1.2e154, 0.0], [math.nan, 1.0, 0.0]):
        # |s1|^2 or |s2 - 2 s1|^2 overflows (psi divided by zero), or is NaN
        with pytest.raises(ValueError):
            ThomasPoint(s1=s1, s2=[0.0, 0.0, 1.0], eta=1.0)


def test_swap_symmetry_and_positivity():
    rng = np.random.default_rng(41)
    for _ in range(100):
        pt = random_admissible_point(rng)
        swapped = ThomasPoint(s1=pt.s2, s2=pt.s1, eta=pt.eta)
        a, b = thomas_psi(pt), thomas_psi(swapped)
        assert a == pytest.approx(b, rel=1e-14)
        assert a > 0.0


def test_pde_residual_small_at_random_points():
    rng = np.random.default_rng(43)
    for _ in range(10):
        pt = random_admissible_point(rng)
        assert pde_residual(pt, 1e-3) <= 1e-4


def test_pde_residual_second_order():
    rng = np.random.default_rng(47)
    ratios = []
    for _ in range(10):
        pt = random_admissible_point(rng)
        ratios.append(pde_residual(pt, 1e-3) / pde_residual(pt, 5e-4))
    assert 3.2 <= float(np.median(ratios)) <= 4.8


def test_pde_residual_step_guard():
    pt = ThomasPoint(s1=[0.9, -0.4, 0.3], s2=[-0.5, 0.8, 0.6], eta=1.3)
    with pytest.raises(ValueError):
        pde_residual(pt, pt.min_separation())
    with pytest.raises(ValueError):
        pde_residual(pt, 0.0)


@pytest.mark.parametrize("h", [1e-200, 1e-160, 1e-12, 1e-8, 1e-7])
def test_pde_residual_rejects_steps_below_rounding(h):
    # 512 eps/(eta h)^2 > 1: rounding swamps the stencil; h = 1e-200 divided
    # by zero, and the other steps returned rounding noise as a residual
    pt = ThomasPoint(s1=[0.9, -0.4, 0.3], s2=[-0.5, 0.8, 0.6], eta=1.0)
    with pytest.raises(ValueError, match="too small"):
        pde_residual(pt, h)
    h_min = math.sqrt(512.0 * math.ulp(1.0))  # 3.4e-7
    assert math.isfinite(pde_residual(pt, 1.01 * h_min))
    assert math.isfinite(pde_residual(ThomasPoint(s1=pt.s1, s2=pt.s2, eta=2.5),
                                      1.01 * h_min / 2.5))


def test_scaling_identity():
    # lambda^3 Psi(lambda s1, lambda s2; eta) = lambda Psi(s1, s2; lambda eta)
    rng = np.random.default_rng(53)
    for lam in (0.5, 2.0):
        for _ in range(20):
            pt = random_admissible_point(rng, eta=1.1)
            scaled = ThomasPoint(s1=lam * pt.s1, s2=lam * pt.s2, eta=pt.eta)
            assert lam**3 * thomas_psi(scaled) == pytest.approx(
                lam * thomas_psi(ThomasPoint(s1=pt.s1, s2=pt.s2, eta=lam * pt.eta)),
                rel=1e-13)


def test_scaled_family_residual_same_magnitude():
    # corresponding points of the eta -> lambda eta member carry the same
    # relative finite-difference residual
    pt = ThomasPoint(s1=[0.9, -0.4, 0.3], s2=[-0.5, 0.8, 0.6], eta=1.3)
    lam = 2.0
    partner = ThomasPoint(s1=pt.s1 / lam, s2=pt.s2 / lam, eta=lam * pt.eta)
    r1 = pde_residual(pt, 1e-3)
    r2 = pde_residual(partner, 1e-3 / lam)
    assert 0.5 < r1 / r2 < 2.0


def test_boundary_coefficient_matches_charge_density():
    rng = np.random.default_rng(59)
    for _ in range(10):
        direction = rng.normal(size=3)
        s2 = direction / np.linalg.norm(direction) * rng.uniform(0.5, 5.0)
        eta = float(rng.choice([0.5, 1.0, 2.0]))
        estimate = boundary_coefficient(s2, eta, 1e-3)
        r = float(np.linalg.norm(s2))
        exact = (math.pi / SQRT3) * k0(eta * r) / r
        assert abs(estimate - exact) <= 0.01 * exact


def test_boundary_coefficient_symmetric_version():
    # exchanging the roles of s1 and s2 estimates the coefficient on the
    # other coincidence plane
    s1 = np.array([0.4, -1.1, 0.7])
    eta, eps = 1.0, 1e-3
    total = 0.0
    for i in range(3):
        for sign in (1.0, -1.0):
            s2 = np.zeros(3)
            s2[i] = sign * eps
            total += eps * thomas_psi(ThomasPoint(s1=s1, s2=s2, eta=eta))
    estimate = total / 6.0
    r = float(np.linalg.norm(s1))
    exact = (math.pi / SQRT3) * k0(eta * r) / r
    assert abs(estimate - exact) <= 0.01 * exact


def test_boundary_coefficient_decays_at_large_separation():
    near = boundary_coefficient(np.array([1.0, 0.0, 0.0]), 1.0, 1e-3)
    far = boundary_coefficient(np.array([30.0, 0.0, 0.0]), 1.0, 1e-3)
    assert far < 1e-12 * near


def test_boundary_coefficient_validation():
    with pytest.raises(ValueError):
        boundary_coefficient(np.array([1.0, 0.0, 0.0]), 1.0, 0.0)
    with pytest.raises(ValueError, match="double range"):
        boundary_coefficient(np.array([1.0, 0.0, 0.0]), 1.0, 1e200)


# The formulas as written before the unvalidated core: np.linalg.norm and a
# validated ThomasPoint for every stencil and boundary point.
def _ref_psi(s1, s2, eta):
    pt = ThomasPoint(s1=s1, s2=s2, eta=eta)
    a1 = float(np.linalg.norm(pt.s1))
    a2 = float(np.linalg.norm(pt.s2))
    s_sq = a1 * a1 + a2 * a2 - float(np.dot(pt.s1, pt.s2))
    xi1 = SQRT3 * a1 / float(np.linalg.norm(pt.s1 - 2.0 * pt.s2))
    xi2 = SQRT3 * a2 / float(np.linalg.norm(pt.s2 - 2.0 * pt.s1))
    term = lambda xi: math.atan(1.0 / xi) * (1.0 + xi * xi) / xi  # noqa: E731
    return k0(eta * math.sqrt(s_sq)) / s_sq * (term(xi1) + term(xi2))


def _ref_min_separation(s1, s2):
    return min(float(np.linalg.norm(s1)), float(np.linalg.norm(s2)),
               float(np.linalg.norm(s1 - 2.0 * s2)) / math.sqrt(5.0),
               float(np.linalg.norm(s2 - 2.0 * s1)) / math.sqrt(5.0))


def _ref_pde_residual(s1, s2, eta, h):
    f0 = _ref_psi(s1, s2, eta)
    lap = 0.0
    mix = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        lap += _ref_psi(s1 + e, s2, eta) - 2.0 * f0 + _ref_psi(s1 - e, s2, eta)
        lap += _ref_psi(s1, s2 + e, eta) - 2.0 * f0 + _ref_psi(s1, s2 - e, eta)
        mix += (_ref_psi(s1 + e, s2 + e, eta) - _ref_psi(s1 + e, s2 - e, eta)
                - _ref_psi(s1 - e, s2 + e, eta) + _ref_psi(s1 - e, s2 - e, eta))
    lhs = (4.0 / 3.0) * (lap / (h * h) + mix / (4.0 * h * h))
    return abs(lhs - eta * eta * f0) / (eta * eta * abs(f0))


def _ref_boundary_coefficient(s2, eta, eps):
    total = 0.0
    for i in range(3):
        for sign in (1.0, -1.0):
            s1 = np.zeros(3)
            s1[i] = sign * eps
            total += eps * _ref_psi(s1, s2, eta)
    return total / 6.0


def test_psi_stencil_and_boundary_bits_match_reference():
    # 100 points anywhere and 100 scaled to just outside the CLI sampler's
    # 12 h cut (min_separation is homogeneous of degree 1 in (s1, s2)); one
    # point at a time, then all points of an (eta, h) in one array pass
    rng = np.random.default_rng(61)
    batches = {}
    for k in range(200):
        pt = random_admissible_point(rng, eta=float(rng.choice([0.5, 1.0, 2.5])), min_sep=0.0)
        h = float(rng.choice([1e-3, 1e-4]))
        if k % 2:
            lam = rng.uniform(12.0, 13.0) * h / pt.min_separation()
            pt = ThomasPoint(s1=lam * pt.s1, s2=lam * pt.s2, eta=pt.eta)
        s1, s2, eta = pt.s1, pt.s2, pt.eta
        assert pt.min_separation() == _ref_min_separation(s1, s2)
        assert thomas_psi(pt) == _ref_psi(s1, s2, eta)
        if h <= 0.1 * pt.min_separation():
            assert pde_residual(pt, h) == _ref_pde_residual(s1, s2, eta, h)
            batches.setdefault((eta, h), []).append((s1, s2))
        assert boundary_coefficient(s2, eta, 1e-3) == _ref_boundary_coefficient(s2, eta, 1e-3)
    assert sum(map(len, batches.values())) == 200
    for (eta, h), points in batches.items():
        s1, s2 = (np.array(side) for side in zip(*points))
        assert psi(s1, s2, eta).tolist() == [_ref_psi(a, b, eta) for a, b in points]
        assert pde_residuals(s1, s2, eta, h).tolist() == [
            _ref_pde_residual(a, b, eta, h) for a, b in points]
        assert boundary_coefficients(s2, eta, 1e-3).tolist() == [
            _ref_boundary_coefficient(b, eta, 1e-3) for _, b in points]


def test_array_passes_raise_for_the_first_failing_row():
    ok = ([0.9, -0.4, 0.3], [-0.5, 0.8, 0.6])
    far = ([200.0, 0.0, 0.0], [0.0, 300.0, 0.0])  # psi underflows at eta = 4
    near = ([1e-3, 0.0, 0.0], [0.5, 0.5, 0.5])  # 1e-3 from s1 = 0
    for rows, message in (([ok, far, near], "underflows"), ([ok, near, far], "too large")):
        s1, s2 = (np.array(side) for side in zip(*rows))
        with pytest.raises(ValueError, match=message):
            pde_residuals(s1, s2, 4.0, 1e-3)
    for rows, message in (([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [math.nan] * 3], "degeneracy"),
                          ([[1.0, 0.0, 0.0], [math.nan] * 3, [0.0, 0.0, 0.0]], "double range")):
        with pytest.raises(ValueError, match=message):
            boundary_coefficients(np.array(rows), 1.0, 1e-3)


def test_boundary_coefficient_rejects_degenerate_boundary_points():
    eps = 1e-3
    for s2 in [np.zeros(3)] + [sign * 0.5 * eps * np.eye(3)[i]
                               for i in range(3) for sign in (1.0, -1.0)]:
        # s2 = 0, or a boundary point s1 = +-eps e_i landing on s1 = 2 s2
        with pytest.raises(ValueError, match="degeneracy"):
            boundary_coefficient(s2, 1.0, eps)
