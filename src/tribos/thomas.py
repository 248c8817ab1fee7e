"""Thomas's singular eigenfunction of the free three-body operator.

With relative coordinates s1, s2 (two particles relative to the third) the
free eigenvalue problem at negative energy reads, constants absorbed,

    (4/3) (Lap_s1 + Lap_s2 + grad_s1 . grad_s2) Psi = eta^2 Psi ,

and a square-integrable solution, singular on the two-body coincidence
planes, is

    Psi = (1/s^2) K0(eta s) [ t(xi1) + t(xi2) ],
    t(xi) = (pi/2 - arctan xi) (1 + xi^2) / xi ,

with s^2 = |s1|^2 + |s2|^2 - s1.s2 and xi_i = sqrt(3) |s_i| / |s_i - 2 s_j|.
xi_i is the tangent of the hyperangle of pair i and eta is the radial decay
rate; the 4/3 in front of the kinetic operator is the Gram determinant of the
coordinate quadratic form, making eta exactly the K0 decay parameter.  Near
the plane s1 = 0 the solution behaves like

    Psi ~ (1/|s1|) (pi/sqrt(3)) K0(eta |s2|) / |s2| ,

i.e. the potential of a charge density living on the plane; symmetrically
for s2.  The scaling Psi -> lambda^3 Psi(lambda s1, lambda s2) maps
eigenfunctions to eigenfunctions with eta -> lambda eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import k0

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class ThomasPoint:
    """A configuration (s1, s2) with decay rate eta, off the coincidence sets."""

    s1: np.ndarray
    s2: np.ndarray
    eta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s1", np.asarray(self.s1, dtype=float))
        object.__setattr__(self, "s2", np.asarray(self.s2, dtype=float))
        if self.s1.shape != (3,) or self.s2.shape != (3,):
            raise ValueError("s1 and s2 must be 3-vectors")
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")
        if self.min_separation() == 0.0:
            raise ValueError("point lies on a coincidence/degeneracy set")

    def min_separation(self) -> float:
        """Euclidean distance to the nearest of the four degenerate sets
        s1 = 0, s2 = 0, s1 = 2 s2, s2 = 2 s1."""
        return min(
            float(np.linalg.norm(self.s1)),
            float(np.linalg.norm(self.s2)),
            float(np.linalg.norm(self.s1 - 2.0 * self.s2)) / SQRT5,
            float(np.linalg.norm(self.s2 - 2.0 * self.s1)) / SQRT5,
        )


def _pair_term(xi: float) -> float:
    # (pi/2 - arctan xi)(1 + xi^2)/xi, written with atan(1/xi) to stay
    # accurate for large xi (the term tends to 1 there).
    return math.atan(1.0 / xi) * (1.0 + xi * xi) / xi


def thomas_psi(pt: ThomasPoint) -> float:
    """Evaluate the singular solution at a configuration.

    Positive away from the coincidence sets and symmetric under s1 <-> s2.
    """
    a1 = float(np.linalg.norm(pt.s1))
    a2 = float(np.linalg.norm(pt.s2))
    s_sq = a1 * a1 + a2 * a2 - float(np.dot(pt.s1, pt.s2))
    xi1 = SQRT3 * a1 / float(np.linalg.norm(pt.s1 - 2.0 * pt.s2))
    xi2 = SQRT3 * a2 / float(np.linalg.norm(pt.s2 - 2.0 * pt.s1))
    return k0(pt.eta * math.sqrt(s_sq)) / s_sq * (_pair_term(xi1) + _pair_term(xi2))


def _psi(s1: np.ndarray, s2: np.ndarray, eta: float) -> float:
    return thomas_psi(ThomasPoint(s1=s1, s2=s2, eta=eta))


def pde_residual(pt: ThomasPoint, h: float) -> float:
    """Relative residual of the eigenvalue equation by central differences.

    Second-order stencils: three-point for each Laplacian axis, the
    four-point cross for the mixed gradient term.  Raises if the step is
    larger than a tenth of the distance to the nearest degeneracy set, or
    so small that rounding in the stencil, about 4 eps/(eta h)^2 relative
    (eps = 2^-52), exceeds 1; near that limit rounding still dominates.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    if (pt.eta * h) ** 2 < 4.0 * math.ulp(1.0):
        raise ValueError(f"step {h} too small: stencil rounding 4 eps/(eta h)^2 exceeds 1")
    if h > 0.1 * pt.min_separation():
        raise ValueError(
            f"step {h} too large: point is {pt.min_separation():.3g} from a coincidence set")
    s1, s2, eta = pt.s1, pt.s2, pt.eta
    f0 = _psi(s1, s2, eta)
    lap = 0.0
    mix = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        lap += _psi(s1 + e, s2, eta) - 2.0 * f0 + _psi(s1 - e, s2, eta)
        lap += _psi(s1, s2 + e, eta) - 2.0 * f0 + _psi(s1, s2 - e, eta)
        mix += (_psi(s1 + e, s2 + e, eta) - _psi(s1 + e, s2 - e, eta)
                - _psi(s1 - e, s2 + e, eta) + _psi(s1 - e, s2 - e, eta))
    lhs = (4.0 / 3.0) * (lap / (h * h) + mix / (4.0 * h * h))
    return abs(lhs - eta * eta * f0) / (eta * eta * abs(f0))


def boundary_coefficient(s2, eta: float, eps: float) -> float:
    """Estimate the charge-density coefficient on the plane s1 = 0.

    Returns eps * Psi averaged over the six axis directions of s1 at
    |s1| = eps; for small eps this approaches
    (pi/sqrt(3)) K0(eta |s2|) / |s2|.
    """
    s2 = np.asarray(s2, dtype=float)
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    total = 0.0
    for i in range(3):
        for sign in (1.0, -1.0):
            s1 = np.zeros(3)
            s1[i] = sign * eps
            total += eps * _psi(s1, s2, eta)
    return total / 6.0
