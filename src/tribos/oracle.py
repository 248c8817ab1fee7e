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

A check integrates in array passes: `integrate` bisects all of its
integrals together, one level per pass, and each pass evaluates the
integrand once, as one array over the 15 Kronrod nodes of every open panel
of every integral.  Within a pass a check evaluates each kernel once per
distinct argument, so integrals that share panels share kernel values.  The
kernels broadcast with libm's bits at each element, and every panel is
accepted, split and summed as by a depth-first recursion over one integral
at a time, so every value keeps that recursion's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _libm, sinh_ratio, tanh_over_s

SQRT3 = math.sqrt(3.0)
_ABS_TOL = 1e-9  # of each integral of integrate, shared by its panels
# The kernels decay like e^(-x): cutting their integrals off at distance 80
# loses below 1e-30.
_TAIL_CUT = 80
# Halvings of the width toward the endpoint in _graded_breakpoints.
_GRADED_LEVELS = 45
_HYPERBOLIC_MAX = 700.0  # beyond it the kernels avoid cosh and sinh (overflow: 710.5)
# Panels per integrand call.  A level of an integral near its budget holds
# up to twice the budget in panels; a pass of more panels than this calls the
# integrand once per part of this size, which keeps its temporaries to a few
# tens of MB.
_PASS_PANELS = 4096


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


def _gk15(f, a: np.ndarray, b: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod 7/15 rule on each panel [a, b] of integral k: (K15
    values, error estimates), each panel's sums taken node by node."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    steps = np.multiply.outer(_K15_NODES[:-1], half)
    fx = f(np.concatenate([mid - steps, mid + steps, mid[None]]).ravel(),
           np.tile(k, 15)).reshape(15, -1)
    fk = fg = 0.0
    for i, weight in enumerate(_K15_WEIGHTS[:-1]):
        pair = fx[i] + fx[7 + i]
        fk = fk + weight * pair
        if i % 2 == 1:
            fg = fg + _G7_WEIGHTS[i // 2] * pair
    fk = fk + _K15_WEIGHTS[-1] * fx[14]
    fg = fg + _G7_WEIGHTS[-1] * fx[14]
    return half * fk, np.abs(half * (fk - fg))


def integrate(f, breakpoints, budget: int = 20000) -> np.ndarray:
    """The integral of f over the panels between each list of sorted
    breakpoints, each to within _ABS_TOL, in the order of the lists.

    f(x, k) is the integrand at the nodes x (a 1-D array) of the integrals
    k (indices into breakpoints, an int array of x's shape).  All integrals
    are bisected together, one level per pass, and each pass calls f once
    on the 15 Kronrod nodes of every open panel (a pass of more than
    _PASS_PANELS panels, once per part of that many).  A panel is accepted
    when its error estimate is within its tolerance (its integral's share
    per top-level panel, halved at each bisection) or its width is below
    1e-14 relative; Kronrod nodes are interior, so endpoint log singularities are
    never sampled and just drive refinement.  Each integral sums a bisected
    panel as left + right and its top-level panels left to right, as a
    depth-first recursion does.  QuadratureBudgetError when the bisections
    of one integral reach budget.
    """
    lists = [[float(t) for t in pts] for pts in breakpoints]
    counts = [max(0, len(pts) - 1) for pts in lists]
    k = np.repeat(np.arange(len(lists)), counts)
    a = np.array([t for pts in lists for t in pts[:-1]])
    b = np.array([t for pts in lists for t in pts[1:]])
    tol = np.repeat([_ABS_TOL / max(1, n) for n in counts], counts)
    splits = np.zeros(len(lists), dtype=int)
    levels = []  # per pass: each panel's value, and which panels were bisected
    while a.size:
        value, err = np.empty_like(a), np.empty_like(a)
        for lo in range(0, a.size, _PASS_PANELS):
            part = slice(lo, lo + _PASS_PANELS)
            value[part], err[part] = _gk15(f, a[part], b[part], k[part])
        split = ~(err <= tol) & ~(b - a < 1e-14 * (np.abs(a) + np.abs(b) + 1.0))
        splits += np.bincount(k[split], minlength=len(lists))
        if np.any(splits >= budget):
            raise QuadratureBudgetError("adaptive refinement exceeded its panel budget")
        levels.append((value, split))
        mid = 0.5 * (a + b)[split]
        a = np.stack([a[split], mid], axis=1).ravel()
        b = np.stack([mid, b[split]], axis=1).ravel()
        k = np.repeat(k[split], 2)
        tol = np.repeat(0.5 * tol[split], 2)
    below = np.zeros(0)
    for value, split in reversed(levels):  # the deepest pass bisected nothing
        value[split] = below[0::2] + below[1::2]
        below = value
    top = below.tolist()
    ends = np.cumsum(counts, dtype=int).tolist()
    return np.array([sum(top[end - n:end]) for n, end in zip(counts, ends)], dtype=float)


def _graded_breakpoints(a: float, b: float, toward: float) -> list[float]:
    """Panels of [a, b] geometrically graded toward one endpoint."""
    width = b - a
    if toward == a:
        return [a] + [a + width * 2.0 ** (-k) for k in range(_GRADED_LEVELS, -1, -1)]
    return [b - width * 2.0 ** (-k) for k in range(0, _GRADED_LEVELS + 1)] + [b]


def _once(kernel, *args: np.ndarray) -> list[np.ndarray]:
    """kernel at the 1-D arrays args, evaluated once per distinct element."""
    distinct, where = np.unique(np.concatenate(args), return_inverse=True)
    values = kernel(distinct)[where]
    return np.split(values, np.cumsum([arg.size for arg in args[:-1]], dtype=int))


def coth_log_kernel(x):
    """log|coth(x/2)| for x > 0, stable for both tiny and large x; broadcasts
    (a float for a scalar), with libm's bits at each element."""
    a = np.asarray(x, dtype=float)
    out = np.empty_like(a)
    near = a < 1.0
    out[near] = -_libm(math.log, _libm(math.tanh, 0.5 * a[near]))
    e = _libm(math.exp, -a[~near])
    out[~near] = _libm(math.log1p, e) - _libm(math.log1p, -e)
    return out if out.ndim else float(out)


def m_log_kernel(x):
    """log[(2 cosh x + 1)/(2 cosh x - 1)] for x >= 0 (2 e^-x beyond
    _HYPERBOLIC_MAX); broadcasts (a float for a scalar), with libm's bits at
    each element."""
    a = np.asarray(x, dtype=float)
    out = np.empty_like(a)
    far = a > _HYPERBOLIC_MAX
    out[far] = 2.0 * _libm(math.exp, -a[far])
    out[~far] = _libm(math.log1p, 2.0 / (2.0 * _libm(math.cosh, a[~far]) - 1.0))
    return out if out.ndim else float(out)


def cosine_transform(f, s):
    """int_0^inf cos(s x) f(x) dx by panelwise Gauss-Kronrod.

    [0, 1] is pre-split on a dyadic mesh graded toward 0 (the regularization
    kernel has an integrable log singularity there); [1, _TAIL_CUT] uses
    unit panels.  f must broadcast and decay essentially exponentially, so
    that truncation at _TAIL_CUT is below 1e-30.  Broadcasts over s (a
    float for a scalar): the transforms at all s are integrated together,
    with f evaluated once per distinct node of a pass.
    """
    pts = _graded_breakpoints(0.0, 1.0, toward=0.0)
    pts += [float(t) for t in range(2, _TAIL_CUT + 1)]
    s_arr = np.asarray(s, dtype=float)
    flat = s_arr.ravel()
    out = integrate(lambda x, k: np.cos(flat[k] * x) * _once(f, x)[0], [pts] * flat.size)
    return out.reshape(s_arr.shape) if s_arr.ndim else float(out[0])


def m_transform_analytic(s: float) -> float:
    """Closed form pi sinh(pi s/6)/(s cosh(pi s/2)) of the contact-kernel transform."""
    return math.pi * sinh_ratio(s)


def coth_transform_analytic(s: float) -> float:
    """Closed form (pi/(2 s)) tanh(pi s/2) of the regularization-kernel transform."""
    return 0.5 * math.pi * tanh_over_s(s)


def check_transforms(s_values) -> list[tuple[str, TransformCheck]]:
    """Both kernel transforms versus their closed forms at each s; each
    transform is integrated at all s together."""
    s_values = list(s_values)
    contact = cosine_transform(m_log_kernel, np.array(s_values, dtype=float)).tolist()
    regular = cosine_transform(coth_log_kernel, np.array(s_values, dtype=float)).tolist()
    out = []
    for s, m_num, l_num in zip(s_values, contact, regular):
        for name, num, ana in (("contact", m_num, m_transform_analytic(s)),
                               ("regularization", l_num, coth_transform_analytic(s))):
            out.append((name, TransformCheck(s=s, numeric=num, analytic=ana,
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


def odd_extension_check(theta, x):
    """Half-line two-kernel integrals versus full-line convolutions.

    theta is a broadcasting callable on y >= 0 and is extended oddly on the
    full line.  Checks, at the evaluation point x > 0, that

        int_0^inf theta(y) [M(x-y) - M(x+y)] dy = int_R theta~(y) M(x-y) dy
        int_0^inf theta(y) log|sinh((x+y)/2)... | form = int_R theta~(y) L(x-y) dy

    and returns the larger of the two absolute discrepancies, each integral
    truncated at distance _TAIL_CUT from x.  The regularization kernel is
    log-singular at y = x; panels are split there and graded toward the
    singular point.  Broadcasts over x (a float for a scalar): the four
    integrals at every x are integrated together, with each kernel evaluated
    once per distinct argument of a pass.  Every x is validated before any
    is integrated; the first invalid one raises: ValueError unless x > 0,
    RuntimeError from x = 2^23 - _TAIL_CUT on, where a node near x rounds
    by more than the quadrature tolerance.
    """
    x_arr = np.asarray(x, dtype=float)
    flat = x_arr.ravel()
    xs = flat.tolist()
    for x_i in xs:
        if not x_i > 0.0:
            raise ValueError("x must be positive")
        if math.ulp(x_i + _TAIL_CUT) > _ABS_TOL:
            raise RuntimeError(f"x = {x_i:.17g} is not below {2 ** 23 - _TAIL_CUT}: a quadrature "
                               f"node near x rounds by more than the tolerance {_ABS_TOL:g}")
    # the log singularity at y = x sits on panel boundaries of a graded mesh;
    # a node colliding with it in floating point is a measure-zero accident
    half_pts = [_graded_breakpoints(0.0, x_i, toward=x_i)
                + _graded_breakpoints(x_i, x_i + _TAIL_CUT, toward=x_i)[1:] for x_i in xs]
    # integral kind * n + i is at xs[i]: half-line M, full-line M, half-line L, full-line L
    breakpoints = ([[0.0, x_i, x_i + _TAIL_CUT] for x_i in xs]
                   + [[x_i - _TAIL_CUT, 0.0, x_i, x_i + _TAIL_CUT] for x_i in xs]
                   + half_pts + [[x_i - _TAIL_CUT] + pts for x_i, pts in zip(xs, half_pts)])

    def integrand(y: np.ndarray, j: np.ndarray) -> np.ndarray:
        kind, i = np.divmod(j, flat.size)
        xv = flat[i]
        u, v = np.abs(xv - y), xv + y
        half_m, full_m, half_l, full_l = (kind == c for c in range(4))
        out = np.empty_like(y)
        m_u, m_v, m_full = _once(m_log_kernel, u[half_m], v[half_m], u[full_m])
        out[half_m] = m_u - m_v
        out[full_m] = m_full
        # the half-line L kernel as log|(sinh x + sinh y)/(sinh x - sinh y)| up to
        # _HYPERBOLIC_MAX, beyond it as L(|x - y|) - L(x + y); L(0) is taken as 0
        far = half_l & (np.maximum(xv, y) > _HYPERBOLIC_MAX)
        near = half_l & ~far
        full_u = np.zeros_like(y)
        on_u = (full_l | far) & (u != 0.0)
        full_u[on_u], l_v = _once(coth_log_kernel, u[on_u], v[far])
        out[full_l] = full_u[full_l]
        out[far] = full_u[far] - l_v
        sinh_x, sinh_y = _once(lambda w: _libm(math.sinh, w), xv[near], y[near])
        num, den = sinh_x + sinh_y, sinh_x - sinh_y
        near_l = np.zeros_like(num)
        on = den != 0.0
        near_l[on] = _libm(math.log, np.abs(num[on] / den[on]))
        out[near] = near_l
        sign = np.where(y >= 0.0, 1.0, -1.0)  # theta~(y) = sign theta(sign y)
        return theta(sign * y) * sign * out

    half_m, full_m, half_l, full_l = integrate(integrand, breakpoints,
                                               budget=60000).reshape(4, flat.size)
    m_err, l_err = np.abs(half_m - full_m), np.abs(half_l - full_l)
    out = np.where(l_err > m_err, l_err, m_err).reshape(x_arr.shape)  # max(m_err, l_err)
    return out if out.ndim else float(out)


def mirror_bound(x: float) -> float:
    """1/sinh(x) for x > 0, overflow-free: a bound on each mirror integral
    int_0^inf |theta(y)| K(x + y) dy, K = M or L, for |theta| <= 1, which is all
    that tells odd_extension_check's half-line integrals from its full-line
    ones.  L(u) = 2 artanh(e^-u) = 2 sum_k e^(-(2k+1) u) / (2k+1) and
    M(u) = L(u) - L(3u) <= L(u), so both integrals are at most
    2 sum_k e^(-(2k+1) x) = 1/sinh(x)."""
    return -2.0 * math.exp(-x) / math.expm1(-2.0 * x)


def convolution_balance(s: float, x):
    """theta(x) - (4/(sqrt(3) pi)) (M * theta)(x) for theta = sin(s .).

    The convolution acts diagonally on sinusoids, so the returned value
    equals g(s) sin(s x) up to quadrature error; at s = s0 it vanishes.
    The convolution integral is truncated to |u| <= _TAIL_CUT.  Broadcasts
    over x (a float for a scalar): the convolutions at all x are integrated
    together, with M evaluated once per distinct |u| of a pass.
    """
    x_arr = np.asarray(x, dtype=float)
    flat = x_arr.ravel()
    pts = [float(t) for t in range(-_TAIL_CUT, _TAIL_CUT + 1)]
    conv = integrate(lambda u, k: _once(m_log_kernel, np.abs(u))[0] * np.sin(s * (flat[k] + u)),
                     [pts] * flat.size, budget=40000)
    out = (np.sin(s * flat) - 4.0 / (SQRT3 * math.pi) * conv).reshape(x_arr.shape)
    return out if out.ndim else float(out)


def table(s_values, x_values, s0: float) -> dict[str, tuple]:
    """{column name: values}, a row per check that passes within a bound: both
    transforms at each s (10 _ABS_TOL), the worst scaled factorization residual
    of 100 default_rng(2024) draws (1e-10), and at each x odd_extension_check of
    sin(s0 y) (1e-6; "vacuous" if mirror_bound is too) and the balance at s0 (1e-6)."""
    rows = [(f"transform_{name}", check.s, check.numeric, check.analytic, check.abs_err,
             "pass" if check.abs_err <= 10.0 * _ABS_TOL else "fail")
            for name, check in check_transforms(s_values)]
    rng, worst = np.random.default_rng(2024), 0.0
    for _ in range(100):
        x, y = rng.uniform(-5.0, 5.0, size=2)
        plus, minus = factorization_check(float(x), float(y))
        scale = max(1.0, math.cosh(x + y) * math.cosh(x - y))
        worst = max(worst, plus / scale, minus / scale)
    rows.append(("factorization", 0.0, worst, 0.0, worst,
                 "pass" if worst <= 1e-10 else "fail"))
    odd = odd_extension_check(lambda y: np.sin(s0 * y), x_values).tolist()
    balance = convolution_balance(s0, x_values).tolist()
    for x, err, bal in zip(x_values, odd, balance):
        # vacuous: the mirror terms cannot reach the tolerance, so no error could fail the row
        vacuous = mirror_bound(x) <= 1e-6
        rows.append(("odd_extension", x, err, 0.0, err,
                     "fail" if not err <= 1e-6 else "vacuous" if vacuous else "pass"))
        rows.append(("balance_at_s0", x, bal, 0.0, abs(bal),
                     "pass" if abs(bal) <= 1e-6 else "fail"))
    return dict(zip(["check", "param", "numeric", "analytic", "abs_err", "status"], zip(*rows)))
