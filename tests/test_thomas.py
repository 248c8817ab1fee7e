import math

import numpy as np
import pytest

from tribos.specfun import k0
from tribos.thomas import ThomasPoint, boundary_coefficient, pde_residual, thomas_psi

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


@pytest.mark.parametrize("h", [1e-200, 1e-160, 1e-12, 1e-8])
def test_pde_residual_rejects_steps_below_rounding(h):
    # 4 eps/(eta h)^2 > 1: rounding swamps the stencil; h = 1e-200 divided
    # by zero, and the other steps returned rounding noise as a residual
    pt = ThomasPoint(s1=[0.9, -0.4, 0.3], s2=[-0.5, 0.8, 0.6], eta=1.0)
    with pytest.raises(ValueError, match="too small"):
        pde_residual(pt, h)
    assert math.isfinite(pde_residual(pt, 1e-7))  # 4 eps/(eta h)^2 = 0.09


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
