"""Analytic symbols of the diagonalized three-boson charge equations.

After the log substitution and Fourier transform, the radial
Skornyakov-Ter-Martirosian equation becomes multiplication by

    g(s) = 1 - (8/sqrt(3)) sinh(pi s/6) / (s cosh(pi s/2)),

whose positive root s0 is the Efimov constant.  The model regularized by a
delta/|y| three-body term has symbol

    1 + 2 (delta sinh(pi s/2) - 4 sinh(pi s/6)) / (sqrt(3) s cosh(pi s/2)),

which is strictly positive for delta above the threshold delta0.  This
module evaluates both symbols, locates s0, certifies positivity by direct
scan and converts between the momentum-space strength gamma and the
position-space strength delta (delta = 2 pi^2 gamma).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import sinh_ratio, tanh_over_s

SQRT3 = math.sqrt(3.0)
S0_TOL = 1e-14  # the residual |g(s0)| that default_s0 searches to


@dataclass(frozen=True)
class EfimovConstant:
    """Root of g(s) = 0 on s > 0, with the residual actually achieved."""

    s0: float
    residual: float
    tol: float


@dataclass(frozen=True)
class SymbolScan:
    """Result of scanning the regularized symbol on [0, s_max]."""

    min_value: float
    argmin: float
    sign_changes: list[tuple[float, float]] = field(default_factory=list)


def eval_g(s: float) -> float:
    """The TMS symbol g(s) = 1 - (8/sqrt(3)) sinh_ratio(s), eval_reg_symbol at
    delta = 0; even, g(0) = 1 - 4 pi/(3 sqrt(3)) < 0, g -> 1."""
    return eval_reg_symbol(s, 0.0)


def eval_reg_symbol(s: float, delta: float) -> float:
    """Symbol of the delta/|y|-regularized charge equation.

    Even in s; eval_g at delta = 0.  The s = 0 limit,
    1 + (delta pi - 4 pi/3)/sqrt(3), is built in analytically, so the
    threshold behaviour at delta0 is decided exactly.  Values beyond double
    range come out infinite, without a warning.
    """
    return _reg_symbol(s, delta, sinh_ratio(s))


def _reg_symbol(s, delta: float, ratio):  # eval_reg_symbol at ratio = sinh_ratio(s)
    with np.errstate(over="ignore"):
        regularization = delta * tanh_over_s(s) if delta else 0.0  # exactly 0 at delta = 0
        return 1.0 + (2.0 / SQRT3) * (regularization - 4.0 * ratio)


def delta0() -> float:
    """Positivity threshold (sqrt(3)/pi)(4 pi/(3 sqrt(3)) - 1) = 4/3 - sqrt(3)/pi."""
    return 4.0 / 3.0 - SQRT3 / math.pi


def gamma_to_delta(gamma: float) -> float:
    """Map the convolution-kernel strength gamma to delta = 2 pi^2 gamma."""
    return 2.0 * math.pi * math.pi * gamma


def delta_to_gamma(delta: float) -> float:
    """Inverse of gamma_to_delta."""
    return delta / (2.0 * math.pi * math.pi)


def gamma_bound() -> float:
    """Lower bound (1/pi^3)(4 pi/(3 sqrt(3)) - 1) quoted for gamma."""
    return (4.0 * math.pi / (3.0 * SQRT3) - 1.0) / math.pi**3


def delta_bound() -> float:
    """gamma_bound mapped through delta = 2 pi^2 gamma; equals (2/pi)(4 pi/(3 sqrt(3)) - 1).

    Note this classical bound is larger than delta0(); both constants are
    provided and neither is adjudicated here.
    """
    return (2.0 / math.pi) * (4.0 * math.pi / (3.0 * SQRT3) - 1.0)


def find_s0(tol: float = S0_TOL) -> EfimovConstant:
    """Locate the Efimov constant s0 by deterministic bisection on g.

    The bisection starts from the first sign change of g on the steps
    0.1 k, k = 0..200, evaluated as one array.  Raises RuntimeError if there
    is none (an implementation bug, not a data condition: g(0) < 0 < g(20)).
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    steps = 0.1 * np.arange(201)
    k = int(np.argmax(eval_g(steps) > 0.0))  # 0: no sign change, as g(0) < 0
    if not k:
        raise RuntimeError("no sign change of g on (0, 20]")
    lo, hi = float(steps[k - 1]), float(steps[k])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if eval_g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 0.25 * tol and abs(eval_g(0.5 * (lo + hi))) <= tol:
            break
    s0 = 0.5 * (lo + hi)
    residual = abs(eval_g(s0))
    if residual > tol:
        raise RuntimeError(f"bisection stalled at residual {residual:.3e} > tol {tol:.3e} "
                           "(tol is below double-precision resolution)")
    return EfimovConstant(s0=s0, residual=residual, tol=tol)


@functools.lru_cache(maxsize=None)
def default_s0() -> float:
    """The package's one s0: find_s0 at S0_TOL, found once per process."""
    return find_s0(S0_TOL).s0


def symbol_samples(s_max: float, n: int) -> np.ndarray:
    """The scan points s_i = i s_max/(n - 1), i = 0..n-1, of certify_positivity."""
    return np.arange(n) * (s_max / (n - 1))


def certify_positivity(delta: float, s_max: float, n: int) -> SymbolScan:
    """Scan the regularized symbol on [0, s_max] and report its sign structure.

    Returns the minimum, its location and every bracket [s_i, s_{i+1}] on
    which the symbol changes sign.  For delta > delta0() the contract is an
    empty bracket list together with min_value > 0; a negative minimum for
    smaller delta is a valid report, not an error.
    """
    return table(delta, s_max, n)[1]


def table(delta: float, s_max: float, n: int) -> tuple[dict[str, np.ndarray], SymbolScan]:
    """{column name: values} of s = symbol_samples(s_max, n), g and reg_symbol (the bits of
    eval_g and eval_reg_symbol, from one sinh_ratio pass) and sign_change_bracket (1 on the
    first sample of each sign change); certify_positivity's report; OverflowError at an inf."""
    if not (math.isfinite(delta) and 0.0 < s_max < math.inf):
        raise ValueError(f"need a finite delta and 0 < s_max < inf, got {delta}, {s_max}")
    if n < 2:
        raise ValueError("n must be at least 2")
    if s_max / (n - 1) == 0.0:
        raise ValueError(f"the sample step s_max/(n - 1) underflows to 0 at s_max = {s_max!r}, "
                         f"n = {n}")
    s = symbol_samples(s_max, n)
    ratio = sinh_ratio(s)
    v = _reg_symbol(s, delta, ratio)
    if not np.isfinite(v).all():  # eval_reg_symbol's inf beyond double range
        raise OverflowError(f"reg_symbol leaves double range at delta = {delta:.17g}")
    i = int(np.argmin(v))
    # signs, not values: a product of values can overflow or underflow
    lo = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0.0)
    return ({"s": s, "g": _reg_symbol(s, 0.0, ratio), "reg_symbol": v,
             "sign_change_bracket": np.bincount(lo, minlength=n)},
            SymbolScan(min_value=float(v[i]), argmin=float(s[i]),
                       sign_changes=list(zip(s[lo].tolist(), s[lo + 1].tolist()))))
