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
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ladder import diagonal_term as _diagonal_term, xi_mu
from .symbols import default_s0, delta0

_GL_POINTS_PER_PANEL = 16
# Relative width of the log-mu bracket at which a crossing refinement stops.
_REFINE_REL = 1e-8
# Level evaluations (one assembly and one LDL^T factorization each) allowed
# per crossing refinement.  Brent needs about 5 at _REFINE_REL, 8-10 in
# a sweep bracket holding two crossings; bisecting the widest double bracket
# needs about 60.
_MAX_REFINE_STEPS = 100
# Kernel rows per block of assemble and residual; block starts are multiples
# of it.  A block's three (32, n) arrays stay within a 2 MB L2 cache up to
# n = 2700, and at n = 1000 assemble's two scratch blocks add 6 % to its
# matrix (64 rows: 13 %).
_ROW_BLOCK = 32
# Lanczos steps allowed per sweep point, and the Ritz residual, relative to
# ||T||, at which it stops.  At delta = 0 and n = 1000 it stops after 37
# steps from ones and 16-28 from the ground state of another mu (about 8 ms
# on one thread, a third of an LDL^T factorization).
_LANCZOS_STEPS = 100
_LANCZOS_TOL = 1e-12
# Half-width of _lowest_eigenvalue's band.  At n = 1000 on one thread the
# reduction takes 48-65 ms (16: 74-85 ms), a banded Cholesky 0.5 ms (64: 1.0 ms).
_BAND = 32
# Order of _block_ritz's leading block.  At n = 1000 on [1e-4, 1e4] it meets
# the tolerance from delta0 + 1e-6 to delta = 100 (r/tol <= 0.91; 128 misses
# it from delta = 5 on).  Its eigh takes 3.5 ms on one thread (128: 1.7 ms),
# which a miss wastes against 55-85 ms of band solve.
_BLOCK = 192
_DELTA0 = delta0()
_U = np.finfo(float).eps / 2.0  # unit roundoff


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature nodes and weights of build_grid, log-spaced."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the radial operator at fixed spectral point.

    The operator is taken at the unitary point (infinite two-body scattering
    length).  delta is the strength of the infinite-range three-body
    regularization and mu > 0 the spectral parameter, E = -mu.
    """

    mu: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mu", "delta"):
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
    return RadialGrid(nodes=np.concatenate(ps), weights=np.concatenate(ws))


def _tms_log(p, q, mu: float, out: np.ndarray, pq: np.ndarray, spare: np.ndarray) -> None:
    # -(2/pi) log[(p^2+q^2+pq+mu)/(p^2+q^2-pq+mu)] of the broadcast p, q,
    # built in out (NaN where p^2 overflows; callers check finiteness); pq
    # and spare are scratch as for _kernel_rows
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(p * p, q * q, out=out)
        out += mu
        np.multiply(p, q, out=pq)
        np.add(out, pq, out=spare)
        out -= pq
        np.divide(spare, out, out=out)
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


def _coulomb_log(p, q, delta: float, out: np.ndarray, spare: np.ndarray) -> None:
    # (delta/pi) log[(p+q)/|p-q|] of the broadcast p, q, built in out (not
    # finite at p = q); spare is scratch as for _kernel_rows
    np.subtract(p, q, out=out)
    np.abs(out, out=out)
    np.add(p, q, out=spare)
    with np.errstate(divide="ignore"):
        np.divide(spare, out, out=out)
    np.log(out, out=out)
    with np.errstate(invalid="ignore"):  # inf * 0 on the diagonal when delta / pi underflows
        out *= delta / math.pi


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
    out = np.empty(np.broadcast_shapes(p.shape, q.shape) or (1,))
    _coulomb_log(p, q, delta, out, np.empty_like(out))
    return float(out[0]) if p.ndim == q.ndim == 0 else out


def _xlogx(x: np.ndarray) -> np.ndarray:
    # x log x with the continuous extension 0 at x = 0.
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * np.log(x), 0.0)


def coulomb_row_integral(p, a: float, b: float, delta: float):
    """Closed form of int_a^b coulomb_kernel(p, q, delta) dq for p in [a, b]; its
    upper end in log1p form (its two b log b terms lost 1e-7 absolute at b = 1e8)."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # log1p(-1) at p = b
        upper = (2.0 * p * math.log(b) + (b + p) * np.log1p(p / b)
                 - np.where(p < b, (b - p) * np.log1p(-p / b), 0.0))
    out = (delta / math.pi) * (upper - _xlogx(p + a) - _xlogx(p - a))
    return out if out.ndim else float(out)


def _coulomb_rows(out: np.ndarray, spare: np.ndarray, p: np.ndarray, delta: float, lo: int,
                  first: int = 0, w: np.ndarray | None = None) -> np.ndarray | None:
    """Build coulomb_kernel rows lo:lo + len(out) against the nodes from first
    (<= lo) on, in out, with the singular diagonal (node j = lo + i in row i)
    zeroed; spare is scratch as for _kernel_rows.  Given w (and first = 0),
    returns the rows' singularity-subtraction term c - C @ w, c the
    closed-form row integral of coulomb_kernel and C these rows."""
    rows = p[lo:lo + out.shape[0]]
    _coulomb_log(rows[:, None], p[first:], delta, out, spare)
    np.fill_diagonal(out[:, lo - first:], 0.0)
    if w is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN; callers check finiteness
        return coulomb_row_integral(rows, p[0], p[-1], delta) - out @ w


def _coulomb_part(p: np.ndarray, w: np.ndarray, delta: float) -> np.ndarray:
    """assemble's mu-independent subtraction term c - C @ w (see _coulomb_rows),
    built _ROW_BLOCK rows at a time."""
    c, spare = np.empty((2, min(_ROW_BLOCK, p.size), p.size))
    return np.concatenate([_coulomb_rows(c[:p.size - lo], spare[:p.size - lo], p, delta, lo, w=w)
                           for lo in range(0, p.size, _ROW_BLOCK)])


def _kernel_rows(out: np.ndarray, pq: np.ndarray, spare: np.ndarray, p: np.ndarray,
                 params: ModelParams, lo: int, first: int = 0,
                 w: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Build kernel rows lo:lo + len(out) against the nodes from first (<= lo) on, in out.

    out gets tms_kernel plus, for delta != 0, the Coulomb rows of
    _coulomb_rows, built in pq.  pq and spare are scratch of out's shape;
    spare is written once and read once per kernel, so it may be a strided
    view (a ufunc costs several times as much on one).  Returns the TMS
    kernel on that diagonal and, for delta != 0 and given w, the rows'
    subtraction term (else None).
    """
    _tms_log(p[lo:lo + out.shape[0], None], p[first:], params.mu, out, pq, spare)
    diag_kernel = out.diagonal(lo - first).copy()
    if params.delta == 0.0:
        return diag_kernel, None
    subtraction = _coulomb_rows(pq, spare, p, params.delta, lo, first, w)
    out += pq
    return diag_kernel, subtraction


def _kernel_matrix(p: np.ndarray, w: np.ndarray, params: ModelParams, lo: int = 0,
                   hi: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, diag_kernel, diag_extra) of kernel rows lo:hi (default: all), as
    _kernel_rows builds them: K a new array, diag_extra their subtraction
    term (zero when delta = 0)."""
    K = np.empty((p[lo:hi].size, p.size))
    coulomb, spare = np.empty((2, *K.shape))
    diag_kernel, extra = _kernel_rows(K, coulomb, spare, p, params, lo, w=w)
    return K, diag_kernel, np.zeros(K.shape[0]) if extra is None else extra


def assemble(grid: RadialGrid, params: ModelParams,
             subtraction: np.ndarray | None = None) -> np.ndarray:
    """The symmetric n x n Nystrom matrix of the radial operator on phi(p) = p xihat(p).

    The diagonal term is sqrt(3 p^2/4 + mu).  The TMS kernel is quadratured
    directly, the Coulomb kernel by singularity subtraction,

        int C(p,q) phi(q) dq = int C(p,q) [phi(q) - phi(p)] dq + phi(p) int C(p,q) dq,

    whose diagonal term, _coulomb_part(p, w, params.delta), is built unless
    subtraction gives it.  Similarity by sqrt(weights) makes the matrix
    exactly symmetric.  It is built in place, _ROW_BLOCK rows at a time from
    the diagonal on, in two (_ROW_BLOCK, n) scratch blocks, and each block is
    mirrored, so every kernel entry is evaluated once.
    """
    p, w = grid.nodes, grid.weights
    n = p.size
    if subtraction is None:
        subtraction = _coulomb_part(p, w, params.delta) if params.delta != 0.0 else np.zeros(n)
    M = np.empty((n, n))
    scratch = np.empty((2, min(_ROW_BLOCK, n) * n))
    sw = np.sqrt(w)
    diag_kernel = np.empty(n)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        kernel, pq = scratch[:, :(hi - lo) * (n - lo)].reshape(2, hi - lo, n - lo)
        diag_kernel[lo:hi] = _kernel_rows(kernel, pq, M[lo:hi, lo:], p, params, lo, lo)[0]
        np.multiply(sw[lo:hi, None], sw[lo:], out=pq)  # sw_i sw_j: exactly symmetric
        np.multiply(kernel, pq, out=M[lo:hi, lo:])
        M[hi:, lo:hi] = M[lo:hi, hi:].T
    np.fill_diagonal(M, _diagonal_term(p, params.mu) + w * diag_kernel + subtraction)
    return M


def smallest_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix, by _checked_value of
    _block_ritz's pair (whatever its sign) on a copy.  A non-finite entry in
    either triangle raises LinAlgError."""
    a = _square(np.array(matrix, dtype=float))
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("non-finite matrix")
    return _checked_value(a, _block_ritz(a))


@functools.lru_cache(maxsize=None)
def _lapack_routine(name: str, arguments: str):
    """(BLAS or LAPACK routine name, its integer type) from numpy's LAPACK
    module: the ILP64 symbols first, then the LP64 one; None when none
    resolves (as on MKL or Accelerate builds of numpy).  arguments spells the
    argument list, a letter each: c a character, i an integer, a an array,
    h the hidden length of a character argument."""
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


def _dsytrd_sy2sb():
    # uplo, n, kd, a, lda, ab, ldab, tau, work, lwork, info, hidden length of uplo
    return _lapack_routine("dsytrd_sy2sb", "ciiaiaiaaiih")


def _dpbtrf():
    # uplo, n, kd, ab, ldab, info, hidden length of uplo
    return _lapack_routine("dpbtrf", "ciiaiih")


def _square(matrix: np.ndarray) -> np.ndarray:
    # the matrix itself when it is a writable C-contiguous float array,
    # otherwise such a copy; LAPACK overwrites it
    a = np.require(matrix, dtype=float, requirements="CW")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"need a nonempty square matrix, got shape {a.shape}")
    return a


def _finite(a: np.ndarray) -> bool:
    # whether the C upper triangle and the diagonal, all that a solve here
    # reads, are finite, without an n x n boolean temporary
    return all(np.isfinite(np.triu(a[lo:lo + _ROW_BLOCK, lo:lo + _ROW_BLOCK])).all()
               and np.isfinite(a[lo:lo + _ROW_BLOCK, lo + _ROW_BLOCK:]).all()
               for lo in range(0, a.shape[0], _ROW_BLOCK))


def _eigvalsh_solve(matrix: np.ndarray) -> tuple[float, int, float]:
    """(smallest eigenvalue, number of negative eigenvalues, log|det|) of a
    symmetric matrix by np.linalg.eigvalsh of its C upper triangle, after a
    finiteness check of that triangle (else LinAlgError): the scan's solve
    where numpy's LAPACK lacks a routine."""
    if not _finite(matrix):
        raise np.linalg.LinAlgError("non-finite matrix")
    ev = np.linalg.eigvalsh(matrix, UPLO="U")
    with np.errstate(divide="ignore"):
        return float(ev[0]), int(np.count_nonzero(ev < 0.0)), float(np.sum(np.log(np.abs(ev))))


def _lowest_eigenvalue(matrix: np.ndarray) -> tuple[float, tuple[int, float] | None]:
    """(smallest eigenvalue, (0, log|det|) when positive definite, else
    None) of a symmetric matrix, which is overwritten.

    LAPACK dsytrd_sy2sb('L') reduces the C upper triangle (the lower one is
    neither read nor checked) to an orthogonally similar band B of half-width _BAND.  Banded Cholesky, dpbtrf('L') of
    B - sI copied into the reduction's workspace, succeeds exactly when s lies
    below B's smallest eigenvalue (to rounding).  B's smallest diagonal
    entry, a Rayleigh quotient, bounds it from above; from there the shift
    gallops down (2^-30 of that entry's size, then 16 times further each
    step) until Cholesky succeeds, and bisection closes the bracket to
    adjacent doubles, returning its lower end.  Cholesky at s = 0 gives
    log|det| = 2 sum log L_ii.  A non-finite matrix or band raises
    LinAlgError.  Without the two routines this is _eigvalsh_solve, with
    the pair always given.
    """
    a = _square(matrix)
    reduce, factor = _dsytrd_sy2sb(), _dpbtrf()
    if reduce is None or factor is None:
        smallest, count, logdet = _eigvalsh_solve(a)
        return smallest, (count, logdet)
    if not _finite(a):
        raise np.linalg.LinAlgError("non-finite matrix")
    (dsytrd_sy2sb, integer), (dpbtrf, _) = reduce, factor
    size = a.shape[0]
    kd = min(_BAND, size - 1)
    band = np.zeros((size, kd + 1))  # row j: B[j:j + kd + 1, j]; past n - 1 zeros, unread
    tau = np.empty(max(1, size - kd))
    n, width, ldab, info = integer(size), integer(kd), integer(kd + 1), integer(0)

    def reduction(work: np.ndarray, lwork: int) -> None:
        dsytrd_sy2sb(b"L", ctypes.byref(n), ctypes.byref(width), a.ctypes.data,
                     ctypes.byref(n), band.ctypes.data, ctypes.byref(ldab), tau.ctypes.data,
                     work.ctypes.data, ctypes.byref(integer(lwork)), ctypes.byref(info), 1)

    query = np.zeros(1)
    reduction(query, -1)  # workspace query
    lwork = max(1, int(query[0]))
    work = np.empty(max(lwork, band.size))
    reduction(work, lwork)
    if info.value != 0 or not np.isfinite(band).all():
        raise np.linalg.LinAlgError("non-finite band reduction")
    shifted = work[:band.size].reshape(band.shape)

    def cholesky(shift: float) -> bool:
        # whether B - shift I is numerically positive definite
        np.copyto(shifted, band)
        with np.errstate(over="ignore"):  # inf: the factor is not finite, a failure
            np.subtract(band[:, 0], shift, out=shifted[:, 0])
        dpbtrf(b"L", ctypes.byref(n), ctypes.byref(width), shifted.ctypes.data,
               ctypes.byref(ldab), ctypes.byref(info), 1)
        return info.value == 0 and math.isfinite(float(np.sum(shifted[:, 0])))

    inertia = None
    if cholesky(0.0):
        inertia = 0, 2.0 * float(np.sum(np.log(shifted[:, 0])))
    hi = float(band[:, 0].min())
    step = 2.0 ** -30 * abs(hi) or math.ulp(0.0)
    lo = hi - step
    while not cholesky(lo):
        hi, step = lo, 16.0 * step
        lo = hi - step
        if not math.isfinite(lo):
            raise np.linalg.LinAlgError("no positive definite shift of the band")
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        if cholesky(mid):
            lo = mid
        else:
            hi = mid
    return lo, inertia


def _ldlt(matrix: np.ndarray, uplo: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Bunch-Kaufman LDL^T factorization of a symmetric matrix, in place.

    uplo b"L" (Fortran's lower triangle) factors the C upper triangle and
    b"U" the C lower one; dsytrf reads and writes only that triangle and the
    diagonal.  Returns (a, ipiv): the factored array (the matrix itself when
    it is a writable C-contiguous float array) and dsytrf's pivot indices.
    A non-finite triangle or factor raises LinAlgError.  Needs _dsytrf().
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
    if not _finite(a if uplo == b"L" else a.T):
        raise np.linalg.LinAlgError("non-finite matrix or LDL^T factor")
    return a, ipiv


def _inertia_logdet(matrix: np.ndarray) -> tuple[int, float]:
    """(number of negative eigenvalues, log|det|) of a symmetric matrix.

    Factors its C upper triangle in place (see _ldlt) by Bunch-Kaufman LDL^T
    and counts the negative eigenvalues of the 1x1 and 2x2 pivot blocks,
    which by Sylvester's law of inertia are the matrix's.  A zero pivot (an exactly
    singular matrix) counts as nonnegative and gives log|det| = -inf; a
    non-finite matrix or factor raises LinAlgError.  Without a dsytrf in
    numpy's LAPACK both come from _eigvalsh_solve.
    """
    if _dsytrf() is None:
        return _eigvalsh_solve(_square(matrix))[1:]
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


def _lanczos(matrix: np.ndarray, start: np.ndarray | None = None) -> tuple[float, float] | None:
    """(theta, r): the smallest Ritz value of a symmetric matrix and its
    residual estimate, or None.

    Lanczos from start (default: the vector of ones), normalized, and
    reorthogonalized by classical Gram-Schmidt twice, stops once
    r = beta_j |s_j| <= _LANCZOS_TOL ||T_j|| (s_j the last Ritz-vector
    component): some eigenvalue then lies within r of theta (which one is
    _certified_lower_bound's to check), and a given start is overwritten with
    the Ritz vector.  It gives up after _LANCZOS_STEPS steps (n <=
    _LANCZOS_STEPS runs on to n), sooner when the Kaniel-Paige rate
    (sqrt(1 + g) - sqrt(g))^2 of the gap ratio
    g = (theta_1 - theta_0) / (theta_max - theta_1) cannot reach the tolerance
    in the steps left, and on non-finite values.  The matrix is only read.
    """
    n = matrix.shape[0]
    steps = min(_LANCZOS_STEPS, n)
    basis = np.empty((steps + 1, n))  # rows are touched (and resident) one step at a time
    basis[0] = 1.0 if start is None else start
    basis[0] /= np.linalg.norm(basis[0])
    alpha, beta, w = np.empty(steps), np.empty(steps), np.empty(n)
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
            if start is not None:
                np.dot(vectors[:, 0], q, out=start)
            return theta, r
        if 2 <= j and steps < n and ritz[-1] > ritz[1]:
            g = float((ritz[1] - ritz[0]) / (ritz[-1] - ritz[1]))
            if r * (math.sqrt(1.0 + g) - math.sqrt(g)) ** (2 * (steps - 1 - j)) > tol:
                return None
        np.divide(w, beta[j], out=basis[j + 1])
    return None


def _block_ritz(matrix: np.ndarray) -> tuple[float, float] | None:
    """(w0, r) as _lanczos gives them, from the lowest eigenpair (w0, x) of
    the leading _BLOCK x _BLOCK block: r = ||M x - w0 x|| for x padded with
    zeros, one product with the block's rows.  None when the block is not
    finite or r exceeds _LANCZOS_TOL max |M_ii|.  The matrix is only read."""
    a = _square(matrix)
    m = min(_BLOCK, a.shape[0])
    if not np.isfinite(a[:m, :m]).all():
        return None
    values, vectors = np.linalg.eigh(a[:m, :m])
    residual = vectors[:, 0] @ a[:m]
    residual[:m] -= values[0] * vectors[:, 0]
    with np.errstate(over="ignore"):  # inf fails the tolerance: the caller's fallback
        r = float(np.linalg.norm(residual))
    return (float(values[0]), r) if r <= _LANCZOS_TOL * np.abs(a.diagonal()).max() else None


def _ritz_bound(matrix: np.ndarray, theta: float, x: np.ndarray, norm: float) -> float:
    """rho >= ||M x - theta x|| / ||x|| for the stored M, x and theta, given
    norm = fl(||M||_F): an eigenvalue of M lies within rho of theta (beta |s|
    of _lanczos is no bound in floating point).  fl(M x) is off by at most
    n u |M| |x| / (1 - n u), u the unit roundoff, r = fl(fl(M x) - fl(theta x))
    by u |theta x| + u |r| / (1 - u) more, || |M| |x| || <= ||M||_F ||x||, and
    the norms of r, x and M are computed within (n + 2) u, (n + 2) u and
    (n^2 + 2) u: rho = (fl||r|| / fl||x|| + (n + 2) u (norm + |theta|)) (1 +
    4 (n + 2) u) covers it all for n up to about 1e5."""
    g = (x.size + 2) * _U
    return (float(np.linalg.norm(matrix @ x - theta * x)) / float(np.linalg.norm(x))
            + g * (norm + abs(theta))) * (1.0 + 4.0 * g)


def _assembly_error(norm: float, d: np.ndarray, weights: float) -> float:
    """eps >= ||fl(M) - M||_2 for an assembled matrix fl(M), given norm =
    fl(||fl(M)||_F), its diagonal term d and the weight sum.  M is assemble's
    matrix in exact arithmetic on the stored nodes, weights and mu, with the
    computed Coulomb entries and subtraction (mu-independent: the same bits
    in every matrix of a scan).  With np.log within 4 ulp: s = p^2 + q^2 + mu
    and s + pq carry 3u and 4u, s - pq >= s/2 8u, their quotient in (1, 3]
    14u, its log under 24u absolute, the TMS entry (times 2/pi) under 17u;
    the Coulomb sum, sqrt(w_i) sqrt(w_j) and the product add 6u |fl(M)_ij|.
    On the diagonal d carries 2.5u d_i, w_i K_ii 18u w_i, the sums
    u (1.01 d_i + 0.71 w_i + |fl(M)_ii|).  So |fl(M) - M| <= u (6 |fl(M)| +
    19 s s^T + 4 diag(d)), s_i = sqrt(w_i), whose Frobenius norm eps =
    8u (norm + ||d|| + 3 sum w) exceeds, with room for roundings.  eps
    excludes the rounding of the subtraction term, which M takes as
    computed: coulomb_row_integral has to keep that small."""
    return 8.0 * _U * (norm + float(np.linalg.norm(d)) + 3.0 * weights)


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
    (None) when some eigenvalue lies below s (the start vector missed the
    ground state), on a 2x2 pivot, and without a dsytrf.  It factors the C
    lower triangle in place and restores the diagonal, leaving the upper
    triangle for _inertia_logdet.
    """
    if _dsytrf() is None:
        return None
    a = _square(matrix)
    n = a.shape[0]
    diagonal = a.diagonal().copy()
    c = 4.0 * (n + 2) * _U * (float(np.sum(np.abs(diagonal - theta))) + 2.0 * n * r)
    np.fill_diagonal(a, diagonal - (theta - 2.0 * r - c))
    try:
        _, ipiv = _ldlt(a, b"U")
        passed = bool(np.all(ipiv > 0) and np.all(a.diagonal() > 0.0))
    except np.linalg.LinAlgError:
        passed = False
    np.fill_diagonal(a, diagonal)
    return theta - 2.0 * (r + c) if passed else None


def _second_eigenvalue_bound(matrix: np.ndarray, x: np.ndarray, theta: float,
                             target: float) -> float | None:
    """A proven lower bound (above target if the check passes) on the second
    smallest eigenvalue of a symmetric matrix M, or None; M is overwritten.
    For unit x and sigma > 0, lambda_0(M + sigma x x^T) <= lambda_1(M) by
    rank-one interlacing, whatever x is.  x near the ground state (value
    theta) and sigma = 2 (t - theta) lift that direction above the shift
    t = target + 4 c + 8u ||M||_F (c: _certified_lower_bound's term for M at
    target).  fl(B), formed on the triangle the check reads, lies within
    spread = 4u (||M||_F + 2 sigma) of B: a pass proves lambda_1(M) >=
    t - 2 c(fl(B), t) - spread."""
    n, norm = x.size, float(np.linalg.norm(matrix))
    t = target + 16.0 * (n + 2) * _U * float(np.sum(np.abs(matrix.diagonal() - target))) + (
        8.0 * _U * norm)
    sigma, x = 2.0 * (t - theta), x / np.linalg.norm(x)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        matrix[lo:hi, :hi] += (sigma * x[lo:hi, None]) * x[:hi]
    spread = 4.0 * _U * (norm + 2.0 * sigma)
    bound = _certified_lower_bound(matrix, t, 0.0)
    return None if bound is None else bound - spread


def _checked_value(matrix: np.ndarray, ritz: tuple[float, float] | None) -> float:
    # theta of ritz = (theta, r) if certified, else _lowest_eigenvalue's value
    if ritz is not None and _certified_lower_bound(matrix, *ritz) is not None:
        return ritz[0]
    return _lowest_eigenvalue(matrix)[0]


def _restore_upper(a: np.ndarray, diagonal: np.ndarray) -> None:
    # the C upper triangle copied back from the lower one, in blocks as
    # assemble mirrors, and the diagonal put back
    for lo in range(0, a.shape[0], _ROW_BLOCK):
        hi = lo + _ROW_BLOCK
        block = a[lo:hi, lo:hi]
        np.copyto(block, block.T, where=np.triu(np.ones(block.shape, dtype=bool), 1))
        a[lo:hi, hi:] = a[hi:, lo:hi].T
    np.fill_diagonal(a, diagonal)


def _sweep_point(build: Callable[[], np.ndarray], start: np.ndarray | None,
                 agree: Callable[[float, float, float, float], int | None] | None = None
                 ) -> tuple[float, int, float | None]:
    """(smallest eigenvalue, number of negative eigenvalues, log|det|) of
    build()'s matrix.  Given agree (a delta < delta0 scan's), a point whose
    _lanczos value theta plus _ritz_bound rho is negative is pending: no
    certificate, and it factors only if agree(theta, r, rho, ||M||_F) gives
    no count (else log|det| is None).  Else: the certified value of _lanczos
    (if negative) or _block_ritz, with (0, None) where its bound is
    positive, else the _inertia_logdet pair; failing that,
    _lowest_eigenvalue's and, unless M is positive definite, the pair of the
    upper triangle restored from the lower one (or of a new build)."""
    matrix = build()
    ritz = _block_ritz(matrix) if start is None else _lanczos(matrix, start)
    if agree is not None and ritz is not None and ritz[0] < 0.0:
        norm = float(np.linalg.norm(matrix))
        if ritz[0] + (rho := _ritz_bound(matrix, ritz[0], start, norm)) < 0.0:
            count = agree(*ritz, rho, norm)
            return ritz[0], *((count, None) if count is not None else _inertia_logdet(matrix))
    lower = ritz is None or (start is not None and ritz[0] >= 0.0)  # no certificate yet
    if not lower and (bound := _certified_lower_bound(matrix, *ritz)) is not None:
        if bound > 0.0:
            return ritz[0], 0, None
        count, logdet = _inertia_logdet(matrix)
        if count:
            return ritz[0], count, logdet
        del matrix
        matrix, lower = build(), True
    diagonal = matrix.diagonal().copy()
    smallest, inertia = _lowest_eigenvalue(matrix)
    if inertia is None:
        if lower:
            _restore_upper(matrix, diagonal)
        else:
            del matrix
            matrix = build()
        inertia = _inertia_logdet(matrix)
    return smallest, *inertia


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


def _bisection_order(n: int) -> list[int]:
    # 0, n - 1, then level by level the midpoint of each span between them
    order, spans = [0, n - 1], [(0, n - 1)]
    while spans := [half for lo, hi in spans if hi - lo > 1
                    for half in ((lo, (lo + hi) // 2), ((lo + hi) // 2, hi))]:
        order += [mid for _, mid in spans[::2]]
    return order


def scan_spectrum(grid: RadialGrid, delta: float, mu_lo: float, mu_hi: float,
                  n_mu: int) -> SpectralScan:
    """Sweep mu log-spaced, recording the smallest eigenvalue, the number of
    negative eigenvalues, and every mu at which the operator is singular.

    M(mu) increases with mu: dM/dmu = diag(1/(2 d_i)) + S K' S, S = diag(sqrt(w)),
    where K'(p, q) = (4/pi) pq / ((p^2+q^2+mu)^2 - p^2 q^2) = (4/pi) int_0^inf
    exp(-t (p^2+q^2+mu)) sinh(t pq) dt is positive definite (sinh has only
    positive odd Taylor coefficients); the Coulomb terms do not depend on mu.
    So each bound state of the cutoff problem is a unit drop of the negative
    count between consecutive sweep points.  Brent's method refines it in
    log mu (one assembly and LDL^T a step: inertia gives the sign,
    determinant the size) to a bracket _REFINE_REL wide, and reports its
    geometric midpoint.  For delta < delta0 every point's _lanczos starts
    from the middle point's ground state, computed first; points go to the
    pool ends first, in bisection order, and a pending one (_sweep_point)
    between two known equal counts has that count.  Then one task proves
    lambda_1(M(mu0)) > tau (_second_eigenvalue_bound), mu0 the lowest
    pending mu, tau above eps_0 plus every pending theta_i + rho_i + eps_i
    (_assembly_error): lambda_1 of point i exceeds theta_i + rho_i, so the
    eigenvalue within rho_i of theta_i is the smallest.  If the proof fails
    (or numpy has no dsytrf), each pending point builds again for the
    certificate, then the band solve.  From delta0 up points solve by
    _block_ritz.  The calling thread factors a bracket end lacking log|det|;
    the rest runs on a pool of TRIBOS_THREADS threads (default: the CPU
    count), with single-threaded BLAS.  Which finished neighbours a pending
    point sees depends on timing, so no output depends on the thread count
    or on the order in which tasks finish only if the computed counts, like
    the exact ones, do not increase with mu; they may not when an eigenvalue
    lies within rounding of 0 at a sweep mu, and then a count, or whether
    the scan raises on an increase, can depend on that order.
    """
    if not (0.0 < mu_lo < mu_hi):
        raise ValueError("need 0 < mu_lo < mu_hi")
    if n_mu < 2:
        raise ValueError("n_mu must be at least 2")
    mus = np.geomspace(mu_lo, mu_hi, n_mu)
    width = math.log1p(_REFINE_REL)
    workers = min(_thread_count(), n_mu)
    p = grid.nodes
    thomas, weights = delta < _DELTA0, math.fsum(grid.weights)
    with _single_threaded_blas():
        subtraction = _coulomb_part(p, grid.weights, delta) if delta != 0.0 else None

        def build(mu: float) -> np.ndarray:
            return assemble(grid, ModelParams(mu=mu, delta=delta), subtraction)

        start = np.ones(p.size) if thomas else None
        if thomas:  # becomes the middle point's Ritz vector (ones if Lanczos gives up)
            _lanczos(build(float(mus[n_mu // 2])), start)
        starts = [None if start is None else start.copy() for _ in mus]
        sweep, points, pending = [None] * n_mu, [None] * n_mu, {}

        def agree(i: int, theta: float, r: float, rho: float, norm: float) -> int | None:
            # records pending point i; the count of its nearest finished neighbours if equal
            eps = _assembly_error(norm, _diagonal_term(p, float(mus[i])), weights)
            pending[i] = theta, r, theta + rho + eps, eps
            done = [point.result()[1] if point is not None and point.done() else None
                    for point in points]
            left, right = ([c for c in side if c is not None] for side in (done[:i], done[i + 1:]))
            return left[-1] if left and right and left[-1] == right[0] else None

        def prove() -> set[int]:
            # the pending points covered by one proof at the lowest pending mu
            j = min(pending)
            eps = pending[j][3]
            bound = _second_eigenvalue_bound(build(float(mus[j])), starts[j], pending[j][0],
                                             max(tau for _, _, tau, _ in pending.values()) + eps)
            return set() if bound is None else {i for i in pending if pending[i][2] + eps < bound}

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            for i in _bisection_order(n_mu):
                points[i] = pool.submit(_sweep_point, functools.partial(build, float(mus[i])),
                                        starts[i], functools.partial(agree, i) if thomas else None)

            def log_size(mu: float, logdet: float) -> float:
                # log(|det| / prod_j d_j): the diagonal's growth divided out
                return logdet - float(np.sum(np.log(_diagonal_term(p, mu))))

            def refine(i: int, k: int) -> float:
                # The k-th eigenvalue is < 0 at mus[i] and >= 0 at mus[i + 1].
                # Brent runs on its sign times |det| / prod_j d_j / R, from one
                # LDL^T factorization per step; R scales the larger end to 1.
                # The ends come from the sweep points.
                ends = [log_size(mus[j], sweep[j][2]) for j in (i, i + 1)]
                log_r = max(ends) if math.isfinite(max(ends)) else 0.0

                def f(t: float) -> float:
                    mu = math.exp(t)
                    count, logdet = _inertia_logdet(build(mu))
                    return _level_value(count, k, log_size(mu, logdet) - log_r)

                fa, fb = (_level_value(sweep[j][1], k, end - log_r)
                          for j, end in zip((i, i + 1), ends))
                return math.exp(_brent_crossing(f, math.log(mus[i]), fa,
                                                math.log(mus[i + 1]), fb, width))

            chains = []  # a bracket's refinements start once both its ends are done
            for point in as_completed(points):
                j = points.index(point)
                sweep[j] = point.result()
                for i in (j - 1, j):
                    if 0 <= i < n_mu - 1 and None not in (sweep[i], sweep[i + 1]):
                        lo, hi = sweep[i][1], sweep[i + 1][1]
                        if hi > lo:
                            raise RuntimeError("negative-eigenvalue count increased with mu")
                        for end in (i, i + 1) if hi < lo else ():
                            if sweep[end][2] is None:  # a proven or agreed end: factor it now
                                sweep[end] = (*sweep[end][:2], _inertia_logdet(build(mus[end]))[1])
                        chains += [pool.submit(refine, i, level - 1)
                                   for level in range(hi + 1, lo + 1)]
            covered = pool.submit(prove).result() if pending and _dsytrf() is not None else set()
            rechecks = {i: pool.submit(lambda j: _checked_value(build(mus[j]), pending[j][:2]), i)
                        for i in sorted(pending) if i not in covered}
            crossings = [chain.result() for chain in chains]
            for i, value in rechecks.items():
                sweep[i] = (value.result(), *sweep[i][1:])
        finally:
            pool.shutdown(cancel_futures=True)  # after a failure, drop queued work
    return SpectralScan(mus=mus, smallest=np.array([smallest for smallest, _, _ in sweep]),
                        negative_counts=np.array([count for _, count, _ in sweep]),
                        crossings=sorted(crossings))


def scan_bound_states(grid: RadialGrid, delta: float, mu_lo: float, mu_hi: float,
                      n_mu: int) -> list[float]:
    """Refined singular-mu list of scan_spectrum (empty is a valid result)."""
    return scan_spectrum(grid, delta, mu_lo, mu_hi, n_mu).crossings


def residual(grid: RadialGrid, values, params: ModelParams, eval_lo: float,
             eval_hi: float) -> float:
    """Relative L2 residual of the radial equation on samples of xihat.

    values are xihat at the grid nodes, taken at params.mu.  The residual
    rows are evaluated only at the nodes p in [eval_lo, eval_hi], to be
    chosen away from the grid ends, where hard truncation of the half-line
    integral pollutes the rows (the kernel decays only like 1/q).  Only those
    rows are built, _ROW_BLOCK at a time, so the extra memory is
    O(_ROW_BLOCK n).  Normalization is the L2 norm of the diagonal term over
    the same nodes; zero samples give residual 0, non-finite ones raise
    ValueError, and a residual that leaves double range raises OverflowError.
    """
    p, w = grid.nodes, grid.weights
    values = np.asarray(values, dtype=float)
    if values.shape != p.shape or not np.all(np.isfinite(values)):
        raise ValueError("charge-density samples must be finite and match the grid")
    window = np.flatnonzero((p >= eval_lo) & (p <= eval_hi))
    if window.size == 0:
        raise ValueError("interior evaluation window contains no nodes")
    phi = p * values
    wphi = w * phi
    d = _diagonal_term(p, params.mu)
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
                         s0: float | None = None) -> float:
    """Residual of the closed-form charge density on the canonical wide grid.

    The grid spans n/125 decades starting two decades below the evaluation
    window [1e-4, 1e3] * sqrt(mu); widening the window together with n keeps
    the measurement truncation-limited rather than quadrature-limited.  A
    grid end or a density sample beyond double range raises OverflowError.
    """
    params = ModelParams(mu=mu, delta=delta)
    root = math.sqrt(mu)
    p_min = 1e-6 * root
    span = f"the canonical grid of {n} nodes from p = {p_min:.3g} over {n / 125.0:g} decades"
    try:
        p_max = p_min * 10.0 ** (n / 125.0)
    except OverflowError:
        p_max = math.inf
    if p_max == math.inf:
        raise OverflowError(f"{span} leaves double range")
    grid = build_grid(p_min, p_max, n)
    with np.errstate(over="ignore", invalid="ignore"):
        values = xi_mu(grid.nodes, mu, default_s0() if s0 is None else s0)
    if not np.isfinite(values).all():
        raise OverflowError(f"the closed-form density leaves double range on {span}")
    return residual(grid, values, params, eval_lo=1e-4 * root, eval_hi=1e3 * root)
