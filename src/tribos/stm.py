"""Nystrom discretization of the radial charge equations on the momentum half-line.

The unknown is phi(p) = p xihat(p), which makes both kernels symmetric.  The
unregularized radial equation reads

    sqrt(3 p^2/4 + mu) phi(p) - (2/pi) int_0^inf log[(p^2+q^2+pq+mu)/(p^2+q^2-pq+mu)] phi(q) dq = 0

and the delta/|y| regularization adds (delta/pi) int log[(p+q)/|p-q|] phi(q) dq.
Quadrature lives on a log-spaced grid; the log singularity of the Coulomb-type
kernel is handled by singularity subtraction with the row integral evaluated
in closed form.  Bound states of the cutoff problem appear as zero crossings
of eigenvalues of the discretized operator as the spectral parameter mu sweeps.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ladder import sample_charge_density
from .symbols import delta0

_GL_POINTS_PER_PANEL = 16
# Level evaluations (one assembly and one LDL^T factorization each) allowed
# per crossing refinement.  Brent needs about 5 at refine_rel = 1e-8, 8-10 in
# a sweep bracket holding two crossings; bisecting the widest double bracket
# needs about 60.
_MAX_REFINE_STEPS = 100
# Kernel rows per block of assemble and residual; block starts are multiples
# of it.  A block's three (32, n) arrays stay within a 2 MB L2 cache up to
# n = 2700, and at n = 1000 assemble's two scratch blocks add 6 % to its
# matrix (64 rows: 13 %).
_ROW_BLOCK = 32
# Lanczos steps allowed per sweep point, and the Ritz residual, relative to
# ||T||, at which it stops.  At delta = 0 and n = 1000 it stops after about
# 37 steps (about 20 ms, a sixth of a full eigen-solve).
_LANCZOS_STEPS = 100
_LANCZOS_TOL = 1e-12
_DELTA0 = delta0()


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature nodes and weights on [p_min, p_max], log-spaced."""

    nodes: np.ndarray
    weights: np.ndarray
    p_min: float
    p_max: float

    def __len__(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the radial operator at fixed spectral point.

    alpha is the inverse scattering length (0 = unitary two-body resonance),
    delta the strength of the infinite-range three-body regularization and
    mu > 0 the spectral parameter, E = -mu.
    """

    mu: float
    delta: float = 0.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mu", "delta", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")


def _thread_count() -> int:
    raw = os.environ.get("TRIBOS_THREADS", "")
    if raw.strip():
        n = int(raw)
        if n < 1:
            raise ValueError("TRIBOS_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _lapack_library():
    """numpy's LAPACK module opened with ctypes, or None; the BLAS and LAPACK
    symbols it links resolve through it."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


@functools.lru_cache(maxsize=None)
def _openblas_thread_controls():
    """(get, set) of OpenBLAS's thread count, looked up in the LAPACK module
    numpy links (symbol names of the scipy-openblas wheels first, then of a
    plain OpenBLAS), or None when none is found."""
    lib = _lapack_library()
    if lib is None:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                           ("openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the body with OpenBLAS on one thread; the previous count is restored
    on exit, also when the body raises.  Does nothing without OpenBLAS.

    The count is process-wide: scans running concurrently in one process
    restore each other's settings.
    """
    controls = _openblas_thread_controls()
    if controls is None:
        yield
        return
    get, put = controls
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


@functools.lru_cache(maxsize=None)
def _panel_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on [-1, 1], read-only because
    every grid shares them.  Panel sizes stay within 8..23 nodes (see
    build_grid), so the cache stays small."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def build_grid(p_min: float, p_max: float, n: int) -> RadialGrid:
    """Build a quadrature grid on [p_min, p_max] with n nodes: Gauss-Legendre
    panels of about 16 nodes, spaced uniformly in log p."""
    if not (0.0 < p_min < p_max < math.inf):
        raise ValueError(f"need 0 < p_min < p_max < inf, got ({p_min}, {p_max})")
    if n < 8:
        raise ValueError("n must be at least 8")
    a, b = math.log(p_min), math.log(p_max)
    k = max(1, round(n / _GL_POINTS_PER_PANEL))
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    edges = np.linspace(a, b, k + 1)
    ps, ws = [], []
    for i, m in enumerate(sizes):
        x, gw = _panel_rule(m)
        half = 0.5 * (edges[i + 1] - edges[i])
        t = half * x + 0.5 * (edges[i + 1] + edges[i])
        ps.append(np.exp(t))
        ws.append(half * gw * np.exp(t))
    return RadialGrid(nodes=np.concatenate(ps), weights=np.concatenate(ws),
                      p_min=p_min, p_max=p_max)


def _tms_log(p, q, mu: float, out: np.ndarray, s: np.ndarray, pq: np.ndarray) -> None:
    # -(2/pi) log[(p^2+q^2+pq+mu)/(p^2+q^2-pq+mu)] of the broadcast p, q,
    # built in out; s and pq are scratch of out's shape
    np.add(p * p, q * q, out=s)
    s += mu
    np.multiply(p, q, out=pq)
    np.add(s, pq, out=out)
    s -= pq
    out /= s
    np.log(out, out=out)
    out *= -2.0 / math.pi


def tms_kernel(p, q, mu: float):
    """Angular-averaged TMS kernel -(2/pi) log[(p^2+q^2+pq+mu)/(p^2+q^2-pq+mu)].

    Symmetric in (p, q), finite everywhere for mu > 0, O(q) as q -> 0.
    Broadcasts (a float for two scalars), three arrays of the broadcast
    shape at the peak.  assemble and residual build their kernel rows with
    the same in-place core, in blocks of _ROW_BLOCK rows.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise ValueError("tms_kernel requires p, q > 0")
    if not mu > 0.0:
        raise ValueError("tms_kernel requires mu > 0")
    out = np.empty(np.broadcast_shapes(p.shape, q.shape) or (1,))
    _tms_log(p, q, mu, out, np.empty_like(out), np.empty_like(out))
    return float(out[0]) if p.ndim == q.ndim == 0 else out


def _coulomb_log(p, q, delta: float) -> np.ndarray:
    # (delta/pi) log[(p+q)/|p-q|], broadcast and built in place; infinite at p = q
    out = np.atleast_1d(p + q)
    gap = np.atleast_1d(p - q)
    np.abs(gap, out=gap)
    with np.errstate(divide="ignore"):
        out /= gap
    np.log(out, out=out)
    with np.errstate(invalid="ignore"):  # inf * 0 on the diagonal when delta / pi underflows
        out *= delta / math.pi
    return out


def coulomb_kernel(p, q, delta: float):
    """Regularization kernel (delta/pi) log[(p+q)/|p-q|], p != q.

    Symmetric, positive, and log-divergent (integrably) on the diagonal;
    assembly never samples p = q directly, hence the coincident-node error.
    Broadcasts (a float for two scalars).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise ValueError("coulomb_kernel requires p, q > 0")
    if np.any(p == q):
        raise ValueError("coulomb_kernel is singular at coincident nodes p = q")
    out = _coulomb_log(p, q, delta)
    return float(out[0]) if p.ndim == q.ndim == 0 else out


def _xlogx(x: np.ndarray) -> np.ndarray:
    # x log x with the continuous extension 0 at x = 0.
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * np.log(x), 0.0)


def coulomb_row_integral(p, a: float, b: float, delta: float):
    """Closed form of int_a^b coulomb_kernel(p, q, delta) dq for p in [a, b]."""
    p = np.asarray(p, dtype=float)
    plus = _xlogx(p + b) - _xlogx(p + a)
    minus = _xlogx(b - p) + _xlogx(p - a)
    out = (delta / math.pi) * (plus - minus)
    return out if out.ndim else float(out)


def _coulomb_part(p: np.ndarray, w: np.ndarray, delta: float, lo: int = 0,
                  hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows lo:hi (default: all) of the mu-independent Coulomb part, delta != 0.

    Returns (C, diag_extra): C[i, j] = coulomb_kernel(p_{lo+i}, p_j, delta)
    with the singular entries j = lo + i zeroed, and the singularity-subtraction
    correction c(p) - C @ w, c(p) the closed-form row integral of the kernel.
    """
    rows = p[lo:hi]
    C = _coulomb_log(rows[:, None], p, delta)
    np.fill_diagonal(C[:, lo:], 0.0)
    return C, coulomb_row_integral(rows, p[0], p[-1], delta) - C @ w


def _kernel_rows(out: np.ndarray, s: np.ndarray, pq: np.ndarray, p: np.ndarray, mu: float,
                 lo: int, C: np.ndarray | None) -> np.ndarray:
    """Build kernel rows lo:lo + len(out) of the Nystrom operator in out.

    out gets the kernel rows against all nodes: tms_kernel plus C, the rows'
    Coulomb part (its diagonal j = lo + i zero), when given.  s and pq are
    scratch of out's shape.  Returns the TMS kernel on that diagonal.
    """
    _tms_log(p[lo:lo + out.shape[0], None], p, mu, out, s, pq)
    diag_kernel = out.diagonal(lo).copy()
    if C is not None:
        out += C
    return diag_kernel


def _kernel_matrix(p: np.ndarray, w: np.ndarray, params: ModelParams, lo: int = 0,
                   hi: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel rows lo:hi (default: all) and diagonal pieces of the Nystrom operator.

    Returns (K, diag_kernel, diag_extra): K a new array of the kernel rows
    and diag_kernel their TMS diagonal (see _kernel_rows), diag_extra the
    singularity-subtraction correction (zero when delta = 0).
    """
    K = np.empty((p[lo:hi].size, p.size))
    s, pq = np.empty((2, *K.shape))
    C, diag_extra = (_coulomb_part(p, w, params.delta, lo, hi) if params.delta != 0.0
                     else (None, np.zeros(K.shape[0])))
    return K, _kernel_rows(K, s, pq, p, params.mu, lo, C), diag_extra


def assemble(grid: RadialGrid, params: ModelParams,
             coulomb: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The symmetric n x n Nystrom matrix of the radial operator, an ndarray.

    The operator acts on phi(p) = p xihat(p).  The diagonal term is
    sqrt(3 p^2/4 + mu) + alpha; the TMS kernel is quadratured directly and
    the Coulomb kernel by singularity subtraction,

        int C(p,q) phi(q) dq = int C(p,q) [phi(q) - phi(p)] dq
                               + phi(p) int C(p,q) dq,

    with the plain row integral in closed form.  Symmetry is exact by
    construction (similarity by sqrt(weights)).  coulomb, the mu-independent
    _coulomb_part of this grid and params.delta, is built when not given.
    The matrix is built in place, _ROW_BLOCK rows at a time, so besides it
    and the Coulomb part the only arrays are two (_ROW_BLOCK, n) scratch
    blocks.
    """
    p, w = grid.nodes, grid.weights
    n = p.size
    C, diag_extra = ((coulomb or _coulomb_part(p, w, params.delta)) if params.delta != 0.0
                     else (None, np.zeros(n)))
    M = np.empty((n, n))
    scratch = np.empty((2, min(_ROW_BLOCK, n), n))
    sw = np.sqrt(w)
    diag_kernel = np.empty(n)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        s, pq = scratch[:, :hi - lo]
        diag_kernel[lo:hi] = _kernel_rows(M[lo:hi], s, pq, p, params.mu, lo,
                                          None if C is None else C[lo:hi])
        M[lo:hi] *= np.multiply(sw[lo:hi, None], sw, out=s)  # sw_i sw_j: exactly symmetric
    d = np.sqrt(0.75 * p * p + params.mu) + params.alpha
    np.fill_diagonal(M, d + w * diag_kernel + diag_extra)
    return M


def smallest_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of an assembled symmetric matrix."""
    return float(np.linalg.eigvalsh(matrix)[0])


@functools.lru_cache(maxsize=None)
def _lapack_routine(name: str, arguments: str):
    """(LAPACK routine name, its integer type) from numpy's LAPACK module: the
    ILP64 symbols first, then the LP64 one; None when none resolves (as on
    MKL or Accelerate builds of numpy).  arguments spells the argument list,
    a letter each: c a character, i an integer, a an array, h the hidden
    length of a character argument."""
    lib = _lapack_library()
    if lib is None:
        return None
    for symbol, integer in ((f"scipy_{name}_64_", ctypes.c_int64),
                            (f"{name}_64_", ctypes.c_int64), (f"{name}_", ctypes.c_int32)):
        routine = getattr(lib, symbol, None)
        if routine is not None:
            kinds = {"c": ctypes.c_char_p, "i": ctypes.POINTER(integer), "a": ctypes.c_void_p,
                     "h": ctypes.c_size_t}
            routine.argtypes = [kinds[kind] for kind in arguments]
            routine.restype = None
            return routine, integer
    return None


def _dsytrf():
    # uplo, n, a, lda, ipiv, work, lwork, info, hidden length of uplo
    return _lapack_routine("dsytrf", "ciaiaaiih")


def _dsyevd():
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, hidden
    # lengths of jobz and uplo
    return _lapack_routine("dsyevd", "cciaiaaiaiihh")


def _square(matrix: np.ndarray) -> np.ndarray:
    # the matrix itself when it is a writable C-contiguous float array,
    # otherwise such a copy; LAPACK overwrites it
    a = np.require(matrix, dtype=float, requirements="CW")
    if a.shape != (a.shape[0],) * 2:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    return a


def _eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a symmetric matrix, computed in place.

    Runs LAPACK dsyevd for eigenvalues only, the routine and workspace size
    np.linalg.eigvalsh runs, but on the matrix itself (a C-contiguous float
    array is overwritten) rather than on a Fortran-order copy.  A symmetric
    C-order array is its own Fortran-order array, and 'L' reads the C upper
    triangle, bit for bit the lower one eigvalsh reads when the matrix is
    exactly symmetric (as assemble builds it): the spectrum is eigvalsh's.
    A non-finite matrix or a failed convergence raises LinAlgError.  Without
    a dsyevd in numpy's LAPACK this is eigvalsh.
    """
    lapack = _dsyevd()
    if lapack is None:
        return np.linalg.eigvalsh(matrix)
    dsyevd, integer = lapack
    a = _square(matrix)
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("non-finite matrix")
    ev = np.empty(a.shape[0])
    n, info = integer(a.shape[0]), integer(0)

    def solve(work: np.ndarray, lwork: int, iwork: np.ndarray, liwork: int) -> None:
        dsyevd(b"N", b"L", ctypes.byref(n), a.ctypes.data, ctypes.byref(n), ev.ctypes.data,
               work.ctypes.data, ctypes.byref(integer(lwork)), iwork.ctypes.data,
               ctypes.byref(integer(liwork)), ctypes.byref(info), 1, 1)

    work, iwork = np.zeros(1), np.zeros(1, dtype=np.dtype(integer))
    solve(work, -1, iwork, -1)  # workspace query
    lwork, liwork = max(1, int(work[0])), max(1, int(iwork[0]))
    solve(np.empty(lwork), lwork, np.empty(liwork, dtype=iwork.dtype), liwork)
    if info.value != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return ev


def _spectrum_inertia(ev: np.ndarray) -> tuple[int, float]:
    """(number of negative eigenvalues, log|det|) of a matrix with spectrum ev."""
    with np.errstate(divide="ignore"):
        return int(np.count_nonzero(ev < 0.0)), float(np.sum(np.log(np.abs(ev))))


def _ldlt(matrix: np.ndarray, uplo: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Bunch-Kaufman LDL^T factorization of a symmetric matrix, in place.

    A symmetric C-order array is its own Fortran-order array, so uplo b"L"
    (the Fortran lower triangle) factors the C upper triangle and b"U" the C
    lower one; dsytrf reads and writes only that triangle and the diagonal.
    Returns (a, ipiv): the factored array (the matrix itself when it is a
    writable C-contiguous float array) and dsytrf's pivot indices.  A
    non-finite matrix or factor raises LinAlgError.  Needs _dsytrf().
    """
    dsytrf, integer = _dsytrf()
    a = _square(matrix)
    size = a.shape[0]
    ipiv = np.empty(size, dtype=np.dtype(integer))
    n, info = integer(size), integer(0)

    def factor(work: np.ndarray, lwork: int) -> None:
        dsytrf(uplo, ctypes.byref(n), a.ctypes.data, ctypes.byref(n), ipiv.ctypes.data,
               work.ctypes.data, ctypes.byref(integer(lwork)), ctypes.byref(info), 1)

    query = np.zeros(1)
    factor(query, -1)  # workspace query
    lwork = max(1, int(query[0]))
    factor(np.empty(lwork), lwork)
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("non-finite matrix or LDL^T factor")
    return a, ipiv


def _inertia_logdet(matrix: np.ndarray) -> tuple[int, float]:
    """(number of negative eigenvalues, log|det|) of a symmetric matrix.

    Factors the matrix in place (a C-contiguous float array has its C upper
    triangle and diagonal overwritten; see _ldlt) by Bunch-Kaufman LDL^T and
    counts the negative eigenvalues of its 1x1 and 2x2 pivot blocks, which by
    Sylvester's law of inertia are the matrix's.  A zero pivot (an exactly
    singular matrix) counts as nonnegative and gives log|det| = -inf; a
    non-finite matrix or factor raises LinAlgError.  Without a dsytrf in
    numpy's LAPACK both come from eigvalsh.
    """
    if _dsytrf() is None:
        ev = np.linalg.eigvalsh(matrix)
        if not np.all(np.isfinite(ev)):
            raise np.linalg.LinAlgError("non-finite eigenvalues")
        return _spectrum_inertia(ev)
    a, ipiv = _ldlt(matrix, b"L")
    size = a.shape[0]
    # ipiv < 0 marks the rows of 2x2 pivot blocks; runs of them pair up from
    # their first row.
    two = ipiv < 0
    index = np.arange(size)
    run = np.maximum.accumulate(np.where(two, 0, index + 1))
    first = np.flatnonzero(two & ((index - run) % 2 == 0))
    diag = a.diagonal()
    single = diag[~two]
    # block [[x, y], [y, z]] scaled by its largest entry (nonzero: y is the
    # pivot column's maximum); its Fortran (k+1, k) entry is C [k, k+1]
    x, y, z = diag[first], a.diagonal(1)[first], diag[first + 1]
    scale = np.maximum(np.maximum(np.abs(x), np.abs(z)), np.abs(y))
    x, y, z = x / scale, y / scale, z / scale
    det, trace = x * z - y * y, x + z
    count = (np.count_nonzero(single < 0.0) + np.count_nonzero((det < 0.0) | (trace < 0.0))
             + np.count_nonzero((det > 0.0) & (trace < 0.0)))
    with np.errstate(divide="ignore"):
        logdet = np.sum(np.log(np.abs(single))) + np.sum(2.0 * np.log(scale) + np.log(np.abs(det)))
    return int(count), float(logdet)


def _lanczos(matrix: np.ndarray) -> tuple[float, float] | None:
    """(theta, r): the smallest Ritz value of a symmetric matrix and its
    residual bound, or None.

    Lanczos with full reorthogonalization (classical Gram-Schmidt, twice),
    started from the normalized vector of ones, stops once
    r = beta_j |s_j| <= _LANCZOS_TOL ||T_j||, s_j the last component of the
    Ritz vector in the tridiagonal T_j.  Then some eigenvalue lies within r
    of theta, and theta, a Rayleigh quotient, is at least the smallest one
    (which one theta approximates is _certified_lower_bound's to check).
    Gives up (None) after _LANCZOS_STEPS steps, or sooner when the Ritz
    values predict that it cannot converge in the steps left: the residual
    falls by about (sqrt(1 + g) - sqrt(g))^2 a step (Kaniel-Paige), g the gap
    ratio (theta_1 - theta_0) / (theta_max - theta_1), so an eigenvalue close
    to the next against the spread is slow (delta near or above delta0).
    For n <= _LANCZOS_STEPS it runs on, as step n exhausts the space.
    A non-finite matrix, or one whose vectors' squared norms overflow,
    gives None.  The matrix is read, not written.
    """
    n = matrix.shape[0]
    steps = min(_LANCZOS_STEPS, n)
    basis = np.empty((steps + 1, n))  # rows are touched (and resident) one step at a time
    basis[0] = 1.0 / math.sqrt(n)
    alpha, beta = np.empty(steps), np.empty(steps)
    w = np.empty(n)
    for j in range(steps):
        q = basis[:j + 1]
        np.dot(matrix, basis[j], out=w)
        h = q @ w
        if not np.all(np.isfinite(h)):
            return None
        w -= h @ q
        w -= (q @ w) @ q
        with np.errstate(over="ignore"):  # ||w||^2 overflows for entries beyond about 1e154
            alpha[j], beta[j] = h[j], np.linalg.norm(w)
        if not math.isfinite(beta[j]):
            return None
        tridiagonal = np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
        ritz, vectors = np.linalg.eigh(tridiagonal)
        theta, r = float(ritz[0]), float(beta[j] * abs(vectors[-1, 0]))
        tol = _LANCZOS_TOL * max(abs(ritz[0]), abs(ritz[-1]))
        if r <= tol:
            return theta, r
        if 2 <= j and steps < n and ritz[-1] > ritz[1]:
            g = float((ritz[1] - ritz[0]) / (ritz[-1] - ritz[1]))
            if r * (math.sqrt(1.0 + g) - math.sqrt(g)) ** (2 * (steps - 1 - j)) > tol:
                return None
        np.divide(w, beta[j], out=basis[j + 1])
    return None


def _certified_lower_bound(matrix: np.ndarray, theta: float, r: float) -> float | None:
    """A proven lower bound, theta - 2 (r + c), on the smallest eigenvalue
    of a symmetric matrix M given _lanczos's (theta, r), or None.

    Factors A = fl(M - sI), s = theta - 2 r - c, by Bunch-Kaufman LDL^T.
    When every pivot is 1x1 and positive, P A P^T + E = L D L^T is positive
    definite.  A trailing entry collects at most n + 2 roundings, so
    |E| <= g |L| D |L|^T with g = (n + 2) u / (1 - (n + 2) u), u the unit
    roundoff, and by Cauchy-Schwarz (|L| D |L|^T)_ij <= sqrt(t_i t_j),
    t_i = (L D L^T)_ii, so ||E||_2 <= g tr(A) / (1 - g).  With
    c = 4 (n + 2) u (sum_i |M_ii - theta| + 2 n r) that and the rounding of
    M_ii - s stay below c (for n up to about 1e7, without underflow), so M
    has no eigenvalue below s - c.  If theta approximates the smallest
    eigenvalue, that eigenvalue is at least theta - r, so A is positive
    definite by r + c, more than the rounding: the check passes.  It fails
    (None) when some eigenvalue lies below s, as when the start vector
    missed the ground state, on a 2x2 pivot, and without a dsytrf.  As
    theta, a Rayleigh quotient, is at least the smallest eigenvalue up to
    rounding (below c), that eigenvalue lies within 2 (r + c) of theta.

    The factorization works on the C lower triangle and the diagonal (see
    _ldlt) of matrix, a writable C-contiguous float array (otherwise of a
    copy); the diagonal is restored, so the C upper triangle and the
    diagonal are left as given, for _inertia_logdet or _eigenvalues.
    """
    if _dsytrf() is None:
        return None
    a = _square(matrix)
    n = a.shape[0]
    diagonal = a.diagonal().copy()
    u = np.finfo(float).eps / 2.0
    c = 4.0 * (n + 2) * u * (float(np.sum(np.abs(diagonal - theta))) + 2.0 * n * r)
    np.fill_diagonal(a, diagonal - (theta - 2.0 * r - c))
    try:
        _, ipiv = _ldlt(a, b"U")
        passed = bool(np.all(ipiv > 0) and np.all(a.diagonal() > 0.0))
    except np.linalg.LinAlgError:
        passed = False
    np.fill_diagonal(a, diagonal)
    return theta - 2.0 * (r + c) if passed else None


def _sweep_point(build: Callable[[], np.ndarray], thomas: bool) -> tuple[float, int, float]:
    """(smallest eigenvalue, number of negative eigenvalues, log|det|) of
    the symmetric matrix build() returns.

    With thomas (delta < delta0, where the Thomas effect makes the smallest
    eigenvalue one deep, isolated level), the smallest eigenvalue is _lanczos's
    theta checked by _certified_lower_bound, within 2 (r + c) of the true one
    (within about 1e-14 relative at delta = 0), and the count and log|det| come
    from _inertia_logdet, the function the crossing refinement evaluates.
    Otherwise, and when the Lanczos iteration gives up, theta >= 0, the check
    fails or the count is 0, all three come from _eigenvalues, bit for bit
    eigvalsh's spectrum; the matrix is built again when the factorizations
    have overwritten it, after the first one is released.
    """
    matrix = build()
    ritz = _lanczos(matrix) if thomas else None
    if ritz is not None and ritz[0] < 0.0:
        if _certified_lower_bound(matrix, *ritz) is not None:
            count, logdet = _inertia_logdet(matrix)
            if count:
                return ritz[0], count, logdet
        del matrix
        matrix = build()
    ev = _eigenvalues(matrix)
    return float(ev[0]), *_spectrum_inertia(ev)


def _level_value(count: int, k: int, log_size: float) -> float:
    """exp(log_size), negative when count > k, clamped into [5e-324, 1e300]
    in size so that it neither rounds to -0.0 nor overflows."""
    size = min(max(math.exp(min(log_size, 700.0)), 5e-324), 1e300)
    return -size if count > k else size


def _brent_crossing(f, a: float, fa: float, b: float, fb: float, width: float) -> float:
    """Sign change of an increasing f on [a, b], f(a) < 0 <= f(b), by Brent's
    method (inverse quadratic interpolation, secant, bisection safeguard).

    Iterates until the bracket [x with f(x) < 0, x with f(x) >= 0] is at most
    width wide and returns its midpoint.  Steps are at least width/2 long, so
    once the iterate is that close to the root the next step closes the
    bracket.  Raises RuntimeError after _MAX_REFINE_STEPS evaluations of f.
    """
    delta = 0.5 * width
    # cur: best iterate; blk: the other end of the bracket; pre: previous
    # iterate.  The first pass sees the sign change and sets blk = a.
    xpre, fpre, xcur, fcur = a, fa, b, fb
    for _ in range(_MAX_REFINE_STEPS):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, fpre = xcur, fcur
            xcur, fcur = xblk, fblk
            xblk, fblk = xpre, fpre
        sbis = 0.5 * (xblk - xcur)
        if abs(sbis) <= delta:
            return 0.5 * (xcur + xblk)
        interpolated = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)  # 0 if it underflows: bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            interpolated = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        if interpolated:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise RuntimeError(f"crossing refinement did not converge in {_MAX_REFINE_STEPS} steps")


@dataclass(frozen=True)
class SpectralScan:
    """Sweep diagnostics and refined singular points of a mu scan."""

    mus: np.ndarray
    smallest: np.ndarray
    negative_counts: np.ndarray
    crossings: list[float]


def scan_spectrum(grid: RadialGrid, delta: float, mu_lo: float, mu_hi: float,
                  n_mu: int, refine_rel: float = 1e-8) -> SpectralScan:
    """Sweep mu log-spaced, recording the smallest eigenvalue, the number of
    negative eigenvalues, and every mu at which the operator is singular.

    The operator is monotone increasing in mu, so each bound state of the
    cutoff problem shows up as a unit decrement of the negative-eigenvalue
    count between consecutive sweep points.  Each decrement, level k, is
    refined by Brent's method in log mu until the sign-change bracket of the
    k-th eigenvalue is at most refine_rel wide (relative); the reported
    crossing, the bracket's geometric midpoint, lies within refine_rel of
    the discrete operator's singular mu.  Each Brent step takes one LDL^T
    factorization, in place, whose inertia gives the sign of the k-th
    eigenvalue and whose determinant, which vanishes with it, the size.

    Each sweep point solves the matrix just assembled by _sweep_point.  For
    delta < delta0 (the Thomas regime: one deep, isolated lowest level) a
    Lanczos iteration gives the smallest eigenvalue, which an LDL^T
    factorization of the shifted matrix checks: no eigenvalue lies more than
    2 (r + c) below it, r the Ritz residual and c a rounding bound (at
    delta = 0 and n = 1000 about 1.5e-6 against -1228, and the value itself
    agrees with a full eigen-solve to about 1e-14 relative).  The count and
    log|det| come from the LDL^T inertia the Brent steps use, so the bracket
    ends and the interior come from one function.  For delta >= delta0, and
    where the iteration gives up, the check fails or the count is 0, the
    point takes one full eigen-solve made in place, bit for bit eigvalsh's
    spectrum.  So each pool thread holds one n x n matrix at a time, besides
    the mu-independent Coulomb part (delta != 0) built once and shared by
    all.

    The sweep solves, then the refinement chains (one task per crossing),
    run on one pool of TRIBOS_THREADS threads (default: the CPU count), each
    solve and factorization with single-threaded BLAS, so the pool size is
    the total thread count and the result does not depend on it or on
    OPENBLAS_NUM_THREADS.
    """
    if not 0.0 < refine_rel < 1.0:
        raise ValueError(f"refine_rel must lie in (0, 1), got {refine_rel}")
    if not (0.0 < mu_lo < mu_hi):
        raise ValueError("need 0 < mu_lo < mu_hi")
    if n_mu < 2:
        raise ValueError("n_mu must be at least 2")
    mus = np.geomspace(mu_lo, mu_hi, n_mu)
    width = math.log1p(refine_rel)
    workers = min(_thread_count(), n_mu)
    p = grid.nodes
    with _single_threaded_blas():
        coulomb = _coulomb_part(p, grid.weights, delta) if delta != 0.0 else None

        def sweep_point(mu: float) -> tuple[float, int, float]:
            params = ModelParams(mu=mu, delta=delta)
            return _sweep_point(lambda: assemble(grid, params, coulomb), delta < _DELTA0)

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            sweep = list(pool.map(lambda m: sweep_point(float(m)), mus))
            counts = [count for _, count, _ in sweep]
            if any(hi > lo for lo, hi in zip(counts, counts[1:])):
                raise RuntimeError("negative-eigenvalue count increased with mu")

            def log_size(mu: float, logdet: float) -> float:
                # log(|det| / prod_j d_j): the diagonal's growth divided out
                return logdet - float(np.sum(np.log(np.sqrt(0.75 * p * p + mu))))

            def refine(i: int, k: int) -> float:
                # The k-th eigenvalue is < 0 at mus[i] and >= 0 at mus[i + 1].
                # Brent runs on its sign times |det| / prod_j d_j / R, from one
                # LDL^T factorization per step; R scales the larger end to 1.
                # The ends come from the sweep points.
                ends = [log_size(mus[j], sweep[j][2]) for j in (i, i + 1)]
                log_r = max(ends) if math.isfinite(max(ends)) else 0.0

                def f(t: float) -> float:
                    mu = math.exp(t)
                    count, logdet = _inertia_logdet(
                        assemble(grid, ModelParams(mu=mu, delta=delta), coulomb))
                    return _level_value(count, k, log_size(mu, logdet) - log_r)

                fa, fb = (_level_value(counts[j], k, end - log_r)
                          for j, end in zip((i, i + 1), ends))
                return math.exp(_brent_crossing(f, math.log(mus[i]), fa,
                                                math.log(mus[i + 1]), fb, width))

            chains = [pool.submit(refine, i, level - 1) for i in range(n_mu - 1)
                      for level in range(counts[i + 1] + 1, counts[i] + 1)]
            crossings = [chain.result() for chain in chains]
        finally:
            pool.shutdown(cancel_futures=True)  # after a failure, drop queued chains
    return SpectralScan(mus=mus, smallest=np.array([smallest for smallest, _, _ in sweep]),
                        negative_counts=np.array(counts), crossings=sorted(crossings))


def scan_bound_states(grid: RadialGrid, delta: float, mu_lo: float, mu_hi: float,
                      n_mu: int, refine_rel: float = 1e-8) -> list[float]:
    """Refined singular-mu list of scan_spectrum (empty is a valid result)."""
    return scan_spectrum(grid, delta, mu_lo, mu_hi, n_mu, refine_rel).crossings


def residual(xi, params: ModelParams, eval_lo: float | None = None,
             eval_hi: float | None = None) -> float:
    """Relative L2 residual of the radial equation on given charge samples.

    xi is a ChargeDensity (grid, values of xihat at the nodes, mu).  The
    residual rows are evaluated only at interior nodes, p in
    [eval_lo, eval_hi]; the defaults trim two decades at the low end and
    seven at the high end, where hard truncation of the half-line integral
    pollutes the rows (the kernel decays only like 1/q).  Only those rows
    are built, _ROW_BLOCK at a time, so the extra memory is O(_ROW_BLOCK n).
    Normalization is the L2 norm of the diagonal term over the same nodes;
    zero samples give residual 0, non-finite ones raise ValueError, and a
    residual that leaves double range raises OverflowError.
    """
    grid = xi.grid
    p = grid.nodes
    values = np.asarray(xi.values, dtype=float)
    if values.shape != p.shape or not np.all(np.isfinite(values)):
        raise ValueError("charge-density samples must be finite and match the grid")
    if not math.isclose(xi.mu, params.mu, rel_tol=1e-12):
        raise ValueError(f"mu mismatch: samples at {xi.mu}, params at {params.mu}")
    eval_lo = 100.0 * grid.p_min if eval_lo is None else eval_lo
    eval_hi = 1e-7 * grid.p_max if eval_hi is None else eval_hi
    window = np.flatnonzero((p >= eval_lo) & (p <= eval_hi))
    if window.size == 0:
        raise ValueError("interior evaluation window contains no nodes")
    w = grid.weights
    phi = p * values
    wphi = w * phi
    d = np.sqrt(0.75 * p * p + params.mu) + params.alpha
    scale = float(np.linalg.norm((d * phi)[window]))
    if scale == 0.0:
        return 0.0
    r = np.empty_like(phi)
    # Block starts are multiples of _ROW_BLOCK (the last block is clipped at n),
    # so BLAS forms each row bit for bit as in the full matrix product.
    for lo in range(window[0] - window[0] % _ROW_BLOCK, window[-1] + 1, _ROW_BLOCK):
        hi = lo + _ROW_BLOCK
        K, _, diag_extra = _kernel_matrix(p, w, params, lo=lo, hi=hi)
        r[lo:hi] = d[lo:hi] * phi[lo:hi] + K @ wphi + diag_extra * phi[lo:hi]
    value = float(np.linalg.norm(r[window]) / scale)
    if not math.isfinite(value):
        raise OverflowError(f"residual left double range: {value}")
    return value


def closed_form_residual(mu: float, n: int = 2000, delta: float = 0.0,
                         nodes_per_decade: float = 125.0, s0: float | None = None) -> float:
    """Residual of the closed-form charge density on the canonical wide grid.

    The grid spans n/nodes_per_decade decades starting two decades below the
    evaluation window [1e-4, 1e3] * sqrt(mu); widening the window together
    with n keeps the measurement truncation-limited rather than
    quadrature-limited.
    """
    params = ModelParams(mu=mu, delta=delta)
    root = math.sqrt(mu)
    p_min = 1e-6 * root
    p_max = p_min * 10.0 ** (n / nodes_per_decade)
    grid = build_grid(p_min, p_max, n)
    xi = sample_charge_density(grid, mu, s0=s0)
    return residual(xi, params, eval_lo=1e-4 * root, eval_hi=1e3 * root)
