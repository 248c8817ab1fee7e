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
import sys
from dataclasses import dataclass, field

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
    _separation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "s1", np.ascontiguousarray(self.s1, dtype=float))
        object.__setattr__(self, "s2", np.ascontiguousarray(self.s2, dtype=float))
        if self.s1.shape != (3,) or self.s2.shape != (3,):
            raise ValueError("s1 and s2 must be 3-vectors")
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")
        s1, s2 = self.s1, self.s2
        with np.errstate(over="ignore", invalid="ignore"):
            distances = (_norm(s1), _norm(s2),
                         _norm(s1 - 2.0 * s2) / SQRT5, _norm(s2 - 2.0 * s1) / SQRT5)
        if not all(math.isfinite(d) for d in distances):
            # psi divides by these norms: |s1|^2 overflowing to inf gave xi2 = 0
            raise ValueError("point too far out or not finite: a squared distance to a "
                             "degenerate set leaves double range")
        object.__setattr__(self, "_separation", min(distances))
        if self._separation == 0.0:
            raise ValueError("point lies on a coincidence/degeneracy set")

    def min_separation(self) -> float:
        """Euclidean distance to the nearest of the four degenerate sets
        s1 = 0, s2 = 0, s1 = 2 s2, s2 = 2 s1."""
        return self._separation


def _norm(v: np.ndarray) -> float:
    # the BLAS ddot and sqrt that np.linalg.norm runs on a contiguous
    # 3-vector, without its dispatch cost: the same bits
    return math.sqrt(float(v.dot(v)))


def _pair_term(xi: float) -> float:
    # (pi/2 - arctan xi)(1 + xi^2)/xi, written with atan(1/xi) to stay
    # accurate for large xi (the term tends to 1 there).
    return math.atan(1.0 / xi) * (1.0 + xi * xi) / xi


def thomas_psi(pt: ThomasPoint) -> float:
    """Evaluate the singular solution at a configuration.

    Positive away from the coincidence sets and symmetric under s1 <-> s2.
    """
    return _psi(pt.s1, pt.s2, pt.eta)


def _psi(s1: np.ndarray, s2: np.ndarray, eta: float) -> float:
    # psi at contiguous 3-vectors the caller keeps off the degenerate sets
    a1 = _norm(s1)
    a2 = _norm(s2)
    s_sq = a1 * a1 + a2 * a2 - float(s1.dot(s2))
    xi1 = SQRT3 * a1 / _norm(s1 - 2.0 * s2)
    xi2 = SQRT3 * a2 / _norm(s2 - 2.0 * s1)
    return k0(eta * math.sqrt(s_sq)) / s_sq * (_pair_term(xi1) + _pair_term(xi2))


def pde_residual(pt: ThomasPoint, h: float) -> float:
    """Relative residual of the eigenvalue equation by central differences.

    Second-order stencils: three-point for each Laplacian axis, the
    four-point cross for the mixed gradient term.  Raises if the step is
    larger than a tenth of the distance to the nearest degeneracy set, if
    it is so small that rounding in the stencil exceeds 1 relative, and
    where psi, which the residual divides by, underflows the normal doubles
    (K0(eta s) below about 1e-308: eta s above about 705).  The stencil's
    coefficients sum in magnitude to (4/3)(24 + 12/4) = 36 over h^2, so an
    error of u ulps in each psi value gives a relative residual of up to
    36 u eps/(eta h)^2 (eps = 2^-52).  pde_residual (eta h)^2/eps
    measured up to 343 (median about 20) over 900 random points at
    h = 1e-6 and 1e-7, i.e. u up to about 10; the guard takes u = 14, a
    rounding estimate of 512 eps/(eta h)^2.  Near that limit rounding still
    dominates the residual.

    The 25 stencil points skip ThomasPoint's validation: with
    h <= 0.1 min_separation each lies at least 0.86 min_separation from the
    degenerate sets.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    if (pt.eta * h) ** 2 < 512.0 * math.ulp(1.0):
        raise ValueError(f"step {h} too small: stencil rounding 512 eps/(eta h)^2 exceeds 1")
    if h > 0.1 * pt.min_separation():
        raise ValueError(
            f"step {h} too large: point is {pt.min_separation():.3g} from a coincidence set")
    s1, s2, eta = pt.s1, pt.s2, pt.eta
    f0 = _psi(s1, s2, eta)
    if not abs(f0) >= sys.float_info.min:
        raise ValueError(f"psi = {f0:.3g} underflows the normal doubles at this point: "
                         f"eta = {eta:.17g} too large for its distance from the origin")
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
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    total = 0.0
    for i in range(3):
        for sign in (1.0, -1.0):
            s1 = np.zeros(3)
            s1[i] = sign * eps
            pt = ThomasPoint(s1=s1, s2=s2, eta=eta)  # raises on a degenerate set
            total += eps * _psi(pt.s1, pt.s2, eta)
    return total / 6.0
