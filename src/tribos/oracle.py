"""Brute-force verification of the transform and factorization identities.

The position-space forms of the two radial kernels are

    M(x) = log[(2 cosh x + 1)/(2 cosh x - 1)]      (contact kernel)
    L(x) = log|coth(x/2)|                          (regularization kernel)

with cosine transforms

    int_0^inf cos(s x) M(x) dx = pi sinh(pi s/6) / (s cosh(pi s/2))
    int_0^inf cos(s x) L(x) dx = (pi/(2 s)) tanh(pi s/2) .

This module recomputes those transforms with its own adaptive
Gauss-Kronrod integrator (independent of the Nystrom quadrature used by
the solver), checks the hyperbolic factorization behind the odd-extension
trick, and verifies that the half-line two-kernel integrals equal the
full-line convolutions of the odd extension.  Sinusoids diagonalize the
convolutions, which ties the position-space balance back to the symbol
g(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import Accuracy, sinh_ratio, tanh_over_s

SQRT3 = math.sqrt(3.0)


class QuadratureBudgetError(RuntimeError):
    """Raised when adaptive refinement exceeds its panel budget."""


@dataclass(frozen=True)
class TransformCheck:
    """One numeric-versus-analytic comparison at a transform variable s."""

    s: float
    numeric: float
    analytic: float
    abs_err: float


# 15-point Kronrod extension of 7-point Gauss (positive nodes; mirror for x < 0).
_K15_NODES = (
    0.991455371120812639207, 0.949107912342758524526, 0.864864423359769072790,
    0.741531185599394439864, 0.586087235467691130295, 0.405845151377397166907,
    0.207784955007898467601, 0.0,
)
_K15_WEIGHTS = (
    0.022935322010529224964, 0.063092092629978553291, 0.104790010322250183839,
    0.140653259715525918745, 0.169004726639267902827, 0.190350578064785409913,
    0.204432940075298892414, 0.209482141084727828013,
)
_G7_WEIGHTS = (
    0.129484966168869693271, 0.279705391489276667901,
    0.381830050505118944950, 0.417959183673469387755,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """Gauss-Kronrod 7/15 rule on [a, b]: (K15 value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fk = 0.0
    fg = 0.0
    for i, x in enumerate(_K15_NODES[:-1]):
        lo = f(mid - half * x)
        hi = f(mid + half * x)
        fk += _K15_WEIGHTS[i] * (lo + hi)
        if i % 2 == 1:
            fg += _G7_WEIGHTS[i // 2] * (lo + hi)
    fc = f(mid)
    fk += _K15_WEIGHTS[-1] * fc
    fg += _G7_WEIGHTS[-1] * fc
    return half * fk, abs(half * (fk - fg))


def _adaptive(f, a: float, b: float, abs_tol: float, budget: list[int]) -> float:
    """Adaptive bisection of [a, b]; Kronrod nodes are interior, so endpoint
    log singularities are never sampled and just drive refinement."""
    value, err = _gk15(f, a, b)
    if err <= abs_tol or b - a < 1e-14 * (abs(a) + abs(b) + 1.0):
        return value
    budget[0] -= 1
    if budget[0] <= 0:
        raise QuadratureBudgetError("adaptive refinement exceeded its panel budget")
    mid = 0.5 * (a + b)
    return (_adaptive(f, a, mid, 0.5 * abs_tol, budget)
            + _adaptive(f, mid, b, 0.5 * abs_tol, budget))


def integrate(f, breakpoints, acc: Accuracy | None = None, budget: int = 20000) -> float:
    """Integrate f over the union of panels between sorted breakpoints."""
    acc = acc or Accuracy()
    state = [budget]
    pts = list(breakpoints)
    tol = acc.abs_tol / max(1, len(pts) - 1)
    return sum(_adaptive(f, pts[i], pts[i + 1], tol, state) for i in range(len(pts) - 1))


def _graded_breakpoints(a: float, b: float, toward: float, levels: int = 45) -> list[float]:
    """Panels of [a, b] geometrically graded toward one endpoint."""
    width = b - a
    if toward == a:
        return [a] + [a + width * 2.0 ** (-k) for k in range(levels, -1, -1)]
    return [b - width * 2.0 ** (-k) for k in range(0, levels + 1)] + [b]


def coth_log_kernel(x: float) -> float:
    """log|coth(x/2)| for x > 0, stable for both tiny and large x."""
    if x < 1.0:
        return -math.log(math.tanh(0.5 * x))
    e = math.exp(-x)
    return math.log1p(e) - math.log1p(-e)


def m_log_kernel(x: float) -> float:
    """log[(2 cosh x + 1)/(2 cosh x - 1)] for x >= 0."""
    return math.log1p(2.0 / (2.0 * math.cosh(x) - 1.0))


def cosine_transform(f, s: float, tail_cut: float = 80.0,
                     acc: Accuracy | None = None, budget: int = 20000) -> float:
    """int_0^inf cos(s x) f(x) dx by panelwise Gauss-Kronrod.

    [0, 1] is pre-split on a dyadic mesh graded toward 0 (the regularization
    kernel has an integrable log singularity there); [1, tail_cut] uses unit
    panels.  f must decay essentially exponentially so that truncation at
    tail_cut (default 80) is below 1e-30.
    """
    if not tail_cut > 1.0:
        raise ValueError("tail_cut must exceed 1")
    acc = acc or Accuracy()
    pts = _graded_breakpoints(0.0, 1.0, toward=0.0)
    pts += [float(t) for t in range(2, int(math.ceil(tail_cut)) + 1)]
    if pts[-1] < tail_cut:
        pts.append(tail_cut)
    return integrate(lambda x: math.cos(s * x) * f(x), pts, acc=acc, budget=budget)


def m_transform_analytic(s: float) -> float:
    """Closed form pi sinh(pi s/6)/(s cosh(pi s/2)) of the contact-kernel transform."""
    return math.pi * sinh_ratio(s)


def coth_transform_analytic(s: float) -> float:
    """Closed form (pi/(2 s)) tanh(pi s/2) of the regularization-kernel transform."""
    return 0.5 * math.pi * tanh_over_s(s)


def check_transforms(s_values, tail_cut: float = 80.0,
                     acc: Accuracy | None = None) -> list[tuple[str, TransformCheck]]:
    """Both kernel transforms versus their closed forms at each s."""
    out = []
    for s in s_values:
        num = cosine_transform(m_log_kernel, s, tail_cut=tail_cut, acc=acc)
        ana = m_transform_analytic(s)
        out.append(("contact", TransformCheck(s=s, numeric=num, analytic=ana,
                                              abs_err=abs(num - ana))))
        num = cosine_transform(coth_log_kernel, s, tail_cut=tail_cut, acc=acc)
        ana = coth_transform_analytic(s)
        out.append(("regularization", TransformCheck(s=s, numeric=num, analytic=ana,
                                                     abs_err=abs(num - ana))))
    return out


def factorization_check(x: float, y: float) -> tuple[float, float]:
    """Residuals of the hyperbolic factorization used by the odd extension.

    First entry: |4(sinh^2 x + sinh^2 y + sinh x sinh y + 3/4)
                  - (2 cosh(x+y) - 1)(2 cosh(x-y) + 1)|;
    second entry: the minus-sign counterpart.  Both vanish identically.
    """
    shx, shy = math.sinh(x), math.sinh(y)
    base = shx * shx + shy * shy + 0.75
    cp, cm = math.cosh(x + y), math.cosh(x - y)
    plus = abs(4.0 * (base + shx * shy) - (2.0 * cp - 1.0) * (2.0 * cm + 1.0))
    minus = abs(4.0 * (base - shx * shy) - (2.0 * cp + 1.0) * (2.0 * cm - 1.0))
    return plus, minus


def odd_extension_check(theta, x: float, tail_cut: float = 80.0,
                        acc: Accuracy | None = None, budget: int = 60000) -> float:
    """Half-line two-kernel integrals versus full-line convolutions.

    theta is a callable on y >= 0 and is extended oddly on the full line.
    Checks, at the evaluation point x > 0, that

        int_0^inf theta(y) [M(x-y) - M(x+y)] dy = int_R theta~(y) M(x-y) dy
        int_0^inf theta(y) log|sinh((x+y)/2)... | form = int_R theta~(y) L(x-y) dy

    and returns the larger of the two absolute discrepancies.  The
    regularization kernel is log-singular at y = x; panels are split there
    and graded toward the singular point.
    """
    if not x > 0.0:
        raise ValueError("x must be positive")
    acc = acc or Accuracy()
    hi = x + tail_cut
    theta_odd = lambda y: theta(y) if y >= 0.0 else -theta(-y)

    half_m = integrate(
        lambda y: theta(y) * (m_log_kernel(abs(x - y)) - m_log_kernel(x + y)),
        [0.0, x, hi], acc=acc, budget=budget)
    full_m = integrate(
        lambda y: theta_odd(y) * m_log_kernel(abs(x - y)),
        [x - tail_cut, 0.0, x, hi], acc=acc, budget=budget)

    # the log singularity at y = x sits on panel boundaries of a graded mesh;
    # a node colliding with it in floating point is a measure-zero accident
    def half_l_kernel(y: float) -> float:
        num = math.sinh(x) + math.sinh(y)
        den = math.sinh(x) - math.sinh(y)
        if den == 0.0:
            return 0.0
        return math.log(abs(num / den))

    def full_l_kernel(y: float) -> float:
        u = abs(x - y)
        if u == 0.0:
            return 0.0
        return coth_log_kernel(u)

    half_pts = _graded_breakpoints(0.0, x, toward=x) + _graded_breakpoints(x, hi, toward=x)[1:]
    half_l = integrate(lambda y: theta(y) * half_l_kernel(y), half_pts, acc=acc, budget=budget)
    full_l = integrate(lambda y: theta_odd(y) * full_l_kernel(y), [x - tail_cut] + half_pts,
                       acc=acc, budget=budget)
    return max(abs(half_m - full_m), abs(half_l - full_l))


def convolution_balance(s: float, x: float, tail_cut: float = 80.0,
                        acc: Accuracy | None = None, budget: int = 40000) -> float:
    """theta(x) - (4/(sqrt(3) pi)) (M * theta)(x) for theta = sin(s .).

    The convolution acts diagonally on sinusoids, so the returned value
    equals g(s) sin(s x) up to quadrature error; at s = s0 it vanishes.
    """
    acc = acc or Accuracy()
    pts = [float(t) for t in range(-int(math.ceil(tail_cut)), int(math.ceil(tail_cut)) + 1)]
    conv = integrate(lambda u: m_log_kernel(abs(u)) * math.sin(s * (x + u)), pts,
                     acc=acc, budget=budget)
    return math.sin(s * x) - 4.0 / (SQRT3 * math.pi) * conv
