"""Special functions used throughout the package.

Provides the Macdonald function K0 (modified Bessel function of the second
kind, order zero) and numerically stable hyperbolic ratios needed by the
symbol evaluations.  All broadcast, and all are pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286061

# Chebyshev coefficients of sqrt(x) * exp(x) * K0(x) against t = 4/x - 1,
# valid for x >= 2.  Generated by interpolation at 40 Chebyshev nodes in
# 50-digit arithmetic and truncated at the 1e-17 coefficient level; the
# resulting double-precision branch is accurate to ~3e-16 relative.
_K0_CHEB = (
    2.440303082065955454677,
    -0.03144810131196450054272,
    0.001569883885730053374913,
    -0.0001284954958162780263836,
    1.394981371887649936408e-05,
    -1.831755522719119484778e-06,
    2.76681363944501507614e-07,
    -4.660489897687947665561e-08,
    8.574034017414226085822e-09,
    -1.697534509389061515644e-09,
    3.577397281400328447163e-10,
    -7.957489244477397037735e-11,
    1.855949114954926554973e-11,
    -4.514597883374519175066e-12,
    1.140340588207344234725e-12,
    -2.980096923148178354833e-13,
    8.032890775068374369408e-14,
    -2.227513326746296360363e-14,
    6.340076476276645964234e-15,
    -1.848593377920907165124e-15,
    5.512055999404333267621e-16,
    -1.678231125754900416616e-16,
    5.210391777643549034961e-17,
    -1.647580593984251595611e-17,
)


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn at each element of the 1-D array x, with libm's bits, which numpy's
    exp, log, log1p, tanh, cosh, sinh and arctan do not always give."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _k0_series(x: np.ndarray) -> np.ndarray:
    # K0(x) = -(log(x/2) + gamma) I0(x) + sum_k H_k (x^2/4)^k / (k!)^2, each element
    # summed until its own term is below machine precision (< 20 terms for x <= 2)
    q = 0.25 * x * x
    term, i0, acc = np.ones_like(q), np.ones_like(q), np.zeros_like(q)
    live = np.arange(q.size)  # the elements still summing
    hk = 0.0
    for k in range(1, 40):
        if not live.size:
            break
        term[live] *= q[live] / (k * k)
        hk += 1.0 / k
        i0[live] += term[live]
        acc[live] += term[live] * hk
        live = live[~(term[live] * max(1.0, hk) < 1e-18 * (i0[live] + np.abs(acc[live])))]
    return -(_libm(math.log, 0.5 * x) + EULER_GAMMA) * i0 + acc


def _k0_cheb(x: np.ndarray) -> np.ndarray:
    # Clenshaw recurrence for sqrt(x) e^x K0(x) at t = 4/x - 1.
    t = 4.0 / x - 1.0
    b0 = b1 = 0.0
    for c in reversed(_K0_CHEB[1:]):
        b0, b1 = 2.0 * t * b0 - b1 + c, b0
    f = t * b0 - b1 + 0.5 * _K0_CHEB[0]
    return _libm(math.exp, -x) * f / np.sqrt(x)


def k0(x):
    """Macdonald function K0(x) for x > 0; broadcasts (a float for a scalar).

    Power series with log term for x <= 2, Chebyshev expansion of the
    exponentially scaled function for x > 2.  Relative error is below
    1e-10 on [1e-6, 700]; for x large enough that exp(-x) underflows the
    result is 0.0.  An array gives at each element the bits of a scalar call.
    """
    a = np.asarray(x, dtype=float)
    if not np.all(a > 0.0):
        raise ValueError(f"k0 requires x > 0, got {float(a[~(a > 0.0)].flat[0])!r}")
    out = np.empty_like(a)
    for branch, where in ((_k0_series, a <= 2.0), (_k0_cheb, a > 2.0)):
        if where.any():
            out[where] = branch(a[where])
    return out if out.ndim else float(out)


def tanh_over_s(s):
    """tanh(pi s / 2) / s, extended by the limit pi/2 at s = 0.  Even in s."""
    a = np.abs(np.asarray(s, dtype=float))
    with np.errstate(all="ignore"):  # both branches see s = 0 and huge |s|
        u = 0.5 * math.pi * a
        out = np.where(a < 1e-6, 0.5 * math.pi * (1.0 - u * u / 3.0), np.tanh(u) / a)
    return out if out.ndim else float(out)


def sinh_ratio(s):
    """sinh(pi s / 6) / (s cosh(pi s / 2)), extended by pi/6 at s = 0.

    Evaluated in exponential-difference form so that there is no overflow
    for |s| up to 1e4 and beyond.  Even in s.
    """
    a = np.abs(np.asarray(s, dtype=float))
    # sinh(pi a/6)/cosh(pi a/2) = e^{-pi a/3} (1 - e^{-pi a/3}) / (1 + e^{-pi a})
    with np.errstate(all="ignore"):  # both branches see s = 0 and huge |s|
        x = math.pi * a / 3.0
        out = np.where(a < 1e-6,
                       (math.pi / 6.0) * (1.0 - (13.0 * math.pi * math.pi / 108.0) * a * a),
                       np.exp(-x) * -np.expm1(-x) / (a * (1.0 + np.exp(-3.0 * x))))
    return out if out.ndim else float(out)
