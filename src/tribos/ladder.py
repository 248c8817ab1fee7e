"""Exact bound-state ladder of the three-boson contact model at unitarity.

For extension parameter beta the negative eigenvalues are E_n = -mu_n with

    mu_n = 3 exp(-(2/s0) acot(beta)) exp((2 pi/s0) n),   n in Z,

so consecutive levels obey the exact geometric law mu_{n+1}/mu_n =
exp(2 pi/s0).  The corresponding momentum-space charge density has the
closed form

    xihat_mu(p) = sin[s0 log((sqrt(3) p)/(2 sqrt(mu)) + sqrt(3 p^2/4 + mu)/sqrt(mu))]
                  / (p sqrt(3 p^2/4 + mu)),

valid for every mu > 0; the quantization condition only selects which mu
give densities in the extension domain.  The sinh substitution
p = (2 sqrt(mu)/sqrt(3)) sinh x and the odd extension turn xihat into
theta(x) proportional to sin(s0 x); both directions of that change of
variables are provided (they evaluate analytic maps pointwise, nothing is
interpolated).
"""

from __future__ import annotations

import math
import sys

import numpy as np

SQRT3 = math.sqrt(3.0)


def acot(beta: float) -> float:
    """Inverse cotangent on the branch (0, pi), so acot(0) = pi/2.

    This is the unique branch making mu_n continuous in beta and consistent
    with the quantization condition for every beta.
    """
    return math.atan2(1.0, beta)


def mu_n(beta: float, n: int, s0: float) -> float:
    """The n-th ladder eigenvalue parameter mu_n(beta).

    Raises ValueError when mu_n is not a normal positive double: about
    |n| > 113 levels lie outside that range.
    """
    if not s0 > 0.0:
        raise ValueError("s0 must be positive")
    try:
        mu = 3.0 * math.exp(-2.0 * acot(beta) / s0) * math.exp(2.0 * math.pi * n / s0)
    except OverflowError:
        mu = math.inf
    if not sys.float_info.min <= mu < math.inf:
        raise ValueError(f"level n = {n} is out of range: mu_n = {mu} is not a normal double")
    return mu


def build_ladder(beta: float, n_lo: int, n_hi: int, s0: float) -> list[tuple[int, float, float]]:
    """Ladder entries (n, mu_n, E_n = -mu_n) for n in [n_lo, n_hi], sorted by n."""
    if n_lo > n_hi:
        raise ValueError("need n_lo <= n_hi")
    return [(n, mu := mu_n(beta, n, s0), -mu) for n in range(n_lo, n_hi + 1)]


def quantization_residual(mu: float, beta: float, s0: float) -> float:
    """cos((s0/2) log(3/mu)) - beta sin((s0/2) log(3/mu)); zero exactly at mu_n."""
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    half_log = 0.5 * s0 * math.log(3.0 / mu)
    return math.cos(half_log) - beta * math.sin(half_log)


def xi_mu(p, mu: float, s0: float):
    """Closed-form charge density xihat_mu(p); p = 0 takes the limit s0 sqrt(3)/(2 mu).

    Broadcasts over arrays of momenta.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0):
        raise ValueError("momenta must be nonnegative")
    root = np.sqrt(0.75 * p * p + mu)
    arg = (SQRT3 * p / 2.0 + root) / math.sqrt(mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(p > 0.0, np.sin(s0 * np.log(arg)) / (p * root), s0 * SQRT3 / (2.0 * mu))
    return out if out.ndim else float(out)


def x_of_p(p, mu: float):
    """Log substitution x(p) = asinh(sqrt(3) p / (2 sqrt(mu))); requires p > 0."""
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("x_of_p requires p > 0")
    out = np.arcsinh(SQRT3 * p / (2.0 * math.sqrt(mu)))
    return out if out.ndim else float(out)


def p_of_x(x, mu: float):
    """Inverse substitution p(x) = (2 sqrt(mu)/sqrt(3)) sinh x."""
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    x = np.asarray(x, dtype=float)
    out = 2.0 * math.sqrt(mu) / SQRT3 * np.sinh(x)
    return out if out.ndim else float(out)


def theta_from_xi(xi_fn, x, mu: float):
    """theta(x) = mu sinh x cosh x xihat(p(x)) for x >= 0, odd-extended.

    xi_fn is a callable giving xihat at positive momenta; the transform is
    evaluated pointwise at the requested x values.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    p = p_of_x(np.where(ax > 0.0, ax, 1.0), mu)  # placeholder momentum at x = 0
    vals = mu * np.sinh(ax) * np.cosh(ax) * np.asarray(xi_fn(p), dtype=float)
    out = np.where(ax > 0.0, np.sign(x) * vals, 0.0)
    return out if out.ndim else float(out)


def xi_from_theta(theta_fn, p, mu: float):
    """xihat(p) = (2/sqrt(3)) theta(x(p)) / (p sqrt(3 p^2/4 + mu)), p > 0."""
    p = np.asarray(p, dtype=float)
    x = x_of_p(p, mu)
    out = (2.0 / SQRT3) * np.asarray(theta_fn(x), dtype=float) / (p * np.sqrt(0.75 * p * p + mu))
    return out if out.ndim else float(out)
