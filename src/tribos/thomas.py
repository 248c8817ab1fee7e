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

from .specfun import _libm, k0

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
# The sampler gives up after this many rejected draws in a row.  No point is
# farther than 2 sqrt(3) from a coincidence set, so h >= sqrt(3)/6 rejects
# every draw; an h accepting one draw in 100 gives up with probability
# 0.99^10000 < 1e-43.
_MAX_MISSES = 10000
_BLOCK = 256  # candidates per draw and rows per array pass: memory bounded at any n_points


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
        separation = _min_separations(self.s1[None], self.s2[None])
        object.__setattr__(self, "_separation", float(separation[0]))

    def min_separation(self) -> float:
        """Euclidean distance to the nearest of the four degenerate sets
        s1 = 0, s2 = 0, s1 = 2 s2, s2 = 2 s1."""
        return self._separation


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row dot products of (m, 3) arrays, each the bits of the BLAS ddot that
    # a[i].dot(b[i]) and np.linalg.norm run (einsum and sum(1) differ)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(_dots(v, v))


def _separations(s1: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # min_separation of each row, and whether each row's four distances are finite
    with np.errstate(over="ignore", invalid="ignore"):
        distances = _norms(np.concatenate([s1, s2, s1 - 2.0 * s2, s2 - 2.0 * s1])).reshape(4, -1)
        distances[2:] /= SQRT5
    return distances.min(axis=0), distances.max(axis=0) < math.inf  # false for inf and NaN


def _min_separations(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    # min_separation of each row; raises for the first row on a degenerate set or
    # whose squared distances leave double range (|s1|^2 = inf gave psi xi2 = 0)
    separation, finite = _separations(s1, s2)
    if finite.all() and separation.all():
        return separation
    if not finite[np.flatnonzero(~finite | (separation == 0.0))[0]]:
        raise ValueError("point too far out or not finite: a squared distance to a "
                         "degenerate set leaves double range")
    raise ValueError("point lies on a coincidence/degeneracy set")


def _pair_term(xi: np.ndarray) -> np.ndarray:
    # (pi/2 - arctan xi)(1 + xi^2)/xi, written with atan(1/xi) to stay accurate for
    # large xi (the term tends to 1 there)
    return _libm(math.atan, 1.0 / xi) * (1.0 + xi * xi) / xi


def thomas_psi(pt: ThomasPoint) -> float:
    """Evaluate the singular solution at a configuration.

    Positive away from the coincidence sets and symmetric under s1 <-> s2.
    """
    return float(psi(pt.s1[None], pt.s2[None], pt.eta)[0])


def psi(s1: np.ndarray, s2: np.ndarray, eta: float) -> np.ndarray:
    """thomas_psi, with its bits, at each row of (m, 3) arrays s1, s2, which
    the caller keeps off the degenerate sets (unvalidated)."""
    a1, a2 = _norms(s1), _norms(s2)
    s_sq = a1 * a1 + a2 * a2 - _dots(s1, s2)
    xi1 = SQRT3 * a1 / _norms(s1 - 2.0 * s2)
    xi2 = SQRT3 * a2 / _norms(s2 - 2.0 * s1)
    with np.errstate(over="ignore"):  # eta s = inf gives K0 = 0, which pde_residuals rejects
        r = eta * np.sqrt(s_sq)
    return k0(r) / s_sq * (_pair_term(xi1) + _pair_term(xi2))


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
    return float(pde_residuals(pt.s1[None], pt.s2[None], pt.eta, h)[0])


def pde_residuals(s1: np.ndarray, s2: np.ndarray, eta: float, h: float) -> np.ndarray:
    """pde_residual, with its bits and errors, at each row of (m, 3) arrays
    s1, s2 off the degenerate sets; an error is the first failing row's."""
    if not h > 0.0:
        raise ValueError("h must be positive")
    if eta * h * (eta * h) < 512.0 * math.ulp(1.0):  # inf, not OverflowError, for a huge eta
        raise ValueError(f"step {h} too small: stencil rounding 512 eps/(eta h)^2 exceeds 1")
    separation = _min_separations(s1, s2)
    f0 = psi(s1, s2, eta)
    bad = np.flatnonzero((h > 0.1 * separation) | ~(np.abs(f0) >= sys.float_info.min))
    if bad.size and h > 0.1 * separation[bad[0]]:
        raise ValueError(
            f"step {h} too large: point is {separation[bad[0]]:.3g} from a coincidence set")
    if bad.size:
        raise ValueError(f"psi = {f0[bad[0]]:.3g} underflows the normal doubles at this point: "
                         f"eta = {eta:.17g} too large for its distance from the origin")
    # per axis: psi at (s1 +- e, s2), (s1, s2 +- e) and the four (s1 +- e, s2 +- e)
    rows1, rows2 = [], []
    for e in np.eye(3) * h:
        plus1, minus1, plus2, minus2 = s1 + e, s1 - e, s2 + e, s2 - e
        rows1 += [plus1, minus1, s1, s1, plus1, plus1, minus1, minus1]
        rows2 += [s2, s2, plus2, minus2, plus2, minus2, plus2, minus2]
    f = psi(np.concatenate(rows1), np.concatenate(rows2), eta).reshape(24, -1)
    lap = mix = 0.0
    for i in range(0, 24, 8):
        lap += f[i] - 2.0 * f0 + f[i + 1]
        lap += f[i + 2] - 2.0 * f0 + f[i + 3]
        mix += f[i + 4] - f[i + 5] - f[i + 6] + f[i + 7]
    lhs = (4.0 / 3.0) * (lap / (h * h) + mix / (4.0 * h * h))
    return np.abs(lhs - eta * eta * f0) / (eta * eta * np.abs(f0))


def boundary_coefficient(s2, eta: float, eps: float) -> float:
    """Estimate the charge-density coefficient on the plane s1 = 0.

    Returns eps * Psi averaged over the six axis directions of s1 at
    |s1| = eps; for small eps this approaches
    (pi/sqrt(3)) K0(eta |s2|) / |s2|.
    """
    return float(boundary_coefficients(np.asarray(s2, dtype=float)[None], eta, eps)[0])


def boundary_coefficients(s2: np.ndarray, eta: float, eps: float) -> np.ndarray:
    """boundary_coefficient, with its bits and errors, at each row of an
    (m, 3) array s2; an error is the first failing row's."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if eps * eps == 0.0:  # |s1| = sqrt(eps^2) would read 0, a point on the plane s1 = 0
        raise ValueError(f"eps = {eps} too small: eps^2 underflows to 0")
    axes = eps * np.kron(np.eye(3, dtype=int), [[1], [-1]])  # s1 = +-eps on each axis
    s1, s2 = np.tile(axes, (len(s2), 1)), np.repeat(s2, 6, axis=0)
    _min_separations(s1, s2)
    return sum(eps * psi(s1, s2, eta).reshape(-1, 6).T) / 6.0  # the six in order


def _draws(rng: np.random.Generator, h: float, n: int) -> np.ndarray:
    """The first n draws (s1, s2) farther than 12 h from the degenerate sets,
    as the rows (s1, s2) of a (k, 6) array, k < n if _MAX_MISSES draws in a
    row miss first.

    Candidates are drawn _BLOCK at a time, as rows of six uniform doubles on
    [-2, 2] (the doubles of two 3-vector draws per candidate, in order), and
    tested in one array pass; a candidate that ThomasPoint would reject is a
    miss."""
    rows, misses = [], 0  # misses: the rejected draws in a row before the block
    while n > 0 and misses < _MAX_MISSES:
        block = rng.uniform(-2.0, 2.0, size=(_BLOCK, 6))
        separation, finite = _separations(block[:, :3], block[:, 3:])
        hits = np.flatnonzero(finite & (separation != 0.0) & (separation > 12.0 * h))[:n]
        runs = np.diff(hits, prepend=-1 - misses) - 1  # the misses in a row before each hit
        hits = hits[np.logical_and.accumulate(runs < _MAX_MISSES)]
        rows.append(block[hits])
        n -= hits.size
        # after a cut the block's misses since the last hit kept span the cut run,
        # so the loop ends
        misses = _BLOCK - 1 - hits[-1] if hits.size else misses + _BLOCK
    return np.concatenate(rows)


def table(rng: np.random.Generator, n_points: int, eta: float, h: float,
          eps: float) -> dict[str, np.ndarray]:
    """The Thomas table: n_points points (s1, s2) drawn from rng uniformly on
    [-2, 2]^3 x [-2, 2]^3, keeping those farther than 12 h from the
    degenerate sets, each with psi, pde_residual at step h,
    boundary_coefficient of its s2 at eps and that coefficient's limit
    (pi/sqrt(3)) K0(eta |s2|) / |s2|, as {column name: values}.

    Rows are evaluated _BLOCK at a time.  An error is the first failing
    row's, its PDE check before its boundary check; after the rows drawn, a
    ValueError says h is too large if the sampler gave up before n_points."""
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    if not n_points > 0:
        raise ValueError("n_points must be positive")
    draws = _draws(rng, h, n_points)
    blocks = []
    for lo in range(0, len(draws), _BLOCK):
        rows = draws[lo:lo + _BLOCK]
        s1, s2 = rows[:, :3], rows[:, 3:]
        try:
            residual = pde_residuals(s1, s2, eta, h)
            estimate = boundary_coefficients(s2, eta, eps)
        except ValueError:  # the first failing row's error, its PDE check first
            for i in range(len(rows)):
                pde_residuals(s1[i:i + 1], s2[i:i + 1], eta, h)
                boundary_coefficients(s2[i:i + 1], eta, eps)
            raise
        r2 = _norms(s2)
        reference = (math.pi / SQRT3) * k0(eta * r2) / r2
        blocks.append(np.column_stack([rows, psi(s1, s2, eta), residual, estimate, reference]))
    if len(draws) < n_points:
        raise ValueError(
            f"h = {h} too large: {_MAX_MISSES} draws in a row found no point "
            f"of [-2, 2]^3 x [-2, 2]^3 farther than 12 h from a coincidence set")
    return dict(zip(["s1x", "s1y", "s1z", "s2x", "s2y", "s2z", "psi", "pde_residual",
                     "bc_estimate", "bc_reference"], np.concatenate(blocks).T))
