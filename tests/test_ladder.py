import math

import numpy as np
import pytest

from tribos.ladder import (acot, build_ladder, mu_n, p_of_x, quantization_residual,
                           theta_from_xi, x_of_p, xi_from_theta, xi_mu)

SQRT3 = math.sqrt(3.0)


def test_acot_branch():
    assert acot(0.0) == 0.5 * math.pi
    assert 0.0 < acot(100.0) < 0.5 * math.pi
    assert 0.5 * math.pi < acot(-100.0) < math.pi
    betas = np.linspace(-50.0, 50.0, 101)
    vals = [acot(float(b)) for b in betas]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # continuous, decreasing


def test_exact_geometric_law(s0):
    ratio = math.exp(2.0 * math.pi / s0)
    for beta in (-2.0, 0.0, 1.0, 17.5):
        for n in range(-3, 3):
            assert mu_n(beta, n + 1, s0) / mu_n(beta, n, s0) == pytest.approx(ratio, rel=1e-14)


def test_mu_n_at_beta_zero(s0):
    assert mu_n(0.0, 0, s0) == pytest.approx(3.0 * math.exp(-math.pi / s0), rel=1e-15)
    # 25-digit value 0.1321913027328834492467902
    assert mu_n(0.0, 0, s0) == pytest.approx(0.13219130273288345, rel=1e-12)


def test_mu_n_validation(s0):
    with pytest.raises(ValueError):
        mu_n(0.0, 0, -1.0)


def test_build_ladder(s0):
    entries = build_ladder(-2.0, -3, 3, s0)
    assert [n for n, _, _ in entries] == list(range(-3, 4))
    for n, mu, energy in entries:
        assert energy == -mu
        assert mu > 0.0
    with pytest.raises(ValueError):
        build_ladder(0.0, 2, 1, s0)


def test_quantization_residual_vanishes_on_ladder(s0):
    for beta in (-2.0, 0.0, 1.0):
        for n in (-1, 0, 1):
            assert abs(quantization_residual(mu_n(beta, n, s0), beta, s0)) < 1e-13


def test_quantization_residual_at_mu_three(s0):
    # log(3/mu) = 0 there, so the residual is cos(0) - beta sin(0) = 1
    for beta in (-2.0, 0.0, 1.0):
        assert quantization_residual(3.0, beta, s0) == 1.0
    with pytest.raises(ValueError):
        quantization_residual(0.0, 0.0, s0)


def test_quantization_residual_sign_structure(s0):
    # exactly one sign change on a log grid spanning consecutive ladder points
    beta = 1.0
    lo = mu_n(beta, 0, s0) * 1.001
    hi = mu_n(beta, 1, s0) * 1.001
    grid = np.geomspace(lo, hi, 400)
    vals = [quantization_residual(float(m), beta, s0) for m in grid]
    flips = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0.0)
    assert flips == 1


def test_xi_mu_small_momentum_limit(s0):
    for mu in (0.5, 1.0, 3.0):
        limit = s0 * SQRT3 / (2.0 * mu)
        assert xi_mu(0.0, mu, s0) == pytest.approx(limit, rel=1e-12)
        assert xi_mu(1e-9, mu, s0) == pytest.approx(limit, rel=1e-6)
        # the stated form of the limit: p sqrt(...) xi / sin(s0 log(arg)) -> 1
        # (tolerance reflects the 1/log(arg) rounding amplification)
        for p, tol in ((1e-3, 1e-11), (1e-6, 1e-8)):
            arg = (SQRT3 * p / (2.0 * math.sqrt(mu))
                   + math.sqrt(0.75 * p * p + mu) / math.sqrt(mu))
            lhs = p * math.sqrt(0.75 * p * p + mu) * xi_mu(p, mu, s0)
            assert lhs / math.sin(s0 * math.log(arg)) == pytest.approx(1.0, rel=tol)


def test_xi_mu_envelope(s0):
    rng = np.random.default_rng(23)
    p = rng.uniform(1e-3, 1e3, size=200)
    for mu in (0.5, 2.0):
        bound = 1.0 / (p * np.sqrt(0.75 * p * p + mu))
        assert np.all(np.abs(xi_mu(p, mu, s0)) <= bound * (1.0 + 1e-15))
    with pytest.raises(ValueError):
        xi_mu(1.0, -1.0, s0)


def test_change_of_variables_inverse_pair():
    rng = np.random.default_rng(29)
    mu = 0.8
    p = rng.uniform(1e-6, 1e6, size=20)
    assert np.allclose(p_of_x(x_of_p(p, mu), mu), p, rtol=1e-13)
    x = rng.uniform(0.01, 20.0, size=20)
    assert np.allclose(x_of_p(p_of_x(x, mu), mu), x, rtol=1e-13)
    # sinh x = 1 at p = 2 sqrt(mu)/sqrt(3)
    assert x_of_p(2.0 * math.sqrt(mu) / SQRT3, mu) == pytest.approx(math.asinh(1.0), rel=1e-15)
    assert math.asinh(1.0) == pytest.approx(math.log(1.0 + math.sqrt(2.0)), rel=1e-15)
    with pytest.raises(ValueError):
        x_of_p(0.0, mu)


def test_theta_from_xi_gives_sine(s0):
    # the closed-form density maps to (sqrt(3)/2) sin(s0 x): a sinusoid ray
    mu = 1.7
    half = np.linspace(0.0, 8.0, 161)
    x = np.concatenate([-half[:0:-1], half])  # exactly symmetric grid
    theta = theta_from_xi(lambda p: xi_mu(p, mu, s0), x, mu)
    assert np.allclose(theta, 0.5 * SQRT3 * np.sin(s0 * x), atol=1e-12)
    # odd extension is exact by construction
    assert np.all(theta + theta[::-1] == 0.0)


def test_round_trip_xi_theta(s0):
    mu = 0.6
    p = np.geomspace(1e-4, 1e4, 200)
    xi_fn = lambda q: xi_mu(q, mu, s0)
    theta_fn = lambda x: theta_from_xi(xi_fn, x, mu)
    back = xi_from_theta(theta_fn, p, mu)
    assert np.max(np.abs(back / xi_fn(p) - 1.0)) < 1e-12


def test_asymptotic_decomposition(s0):
    # (sqrt(3)/2)(p^2+1) xi_mu minus the two-term log-periodic form is O(mu/p^2)
    for mu in (0.5, 1.0, 3.0):
        phase = 0.5 * s0 * math.log(3.0 / mu)
        for p in (1e3, 1e4):
            lead = (math.cos(phase) * math.sin(s0 * math.log(p))
                    + math.sin(phase) * math.cos(s0 * math.log(p)))
            value = 0.5 * SQRT3 * (p * p + 1.0) * xi_mu(p, mu, s0)
            assert abs(value - lead) < 5.0 * (1.0 + mu) / (p * p)
