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
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ladder import sample_charge_density

_GL_POINTS_PER_PANEL = 16
# Eigen-solves allowed per crossing refinement.  Brent needs about 5 at
# refine_rel = 1e-8; bisecting the widest double bracket needs about 60.
_MAX_REFINE_STEPS = 100
_ROW_BLOCK = 64  # kernel rows per residual block; block starts are multiples of it


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
def _openblas_thread_controls():
    """(get, set) of OpenBLAS's thread count, looked up in the LAPACK module
    numpy links (symbol names of the scipy-openblas wheels first, then of a
    plain OpenBLAS), or None when none is found."""
    import ctypes

    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
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


def tms_kernel(p, q, mu: float):
    """Angular-averaged TMS kernel -(2/pi) log[(p^2+q^2+pq+mu)/(p^2+q^2-pq+mu)].

    Symmetric in (p, q), finite everywhere for mu > 0, O(q) as q -> 0.
    Broadcasts (a float for two scalars) and builds in place, three arrays
    of the broadcast shape at the peak; _kernel_matrix builds with it too.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise ValueError("tms_kernel requires p, q > 0")
    if not mu > 0.0:
        raise ValueError("tms_kernel requires mu > 0")
    s = np.atleast_1d(p * p + q * q)
    s += mu
    pq = p * q
    out = s + pq
    s -= pq
    out /= s
    np.log(out, out=out)
    out *= -2.0 / math.pi
    return float(out[0]) if p.ndim == q.ndim == 0 else out


def _coulomb_log(p, q, delta: float) -> np.ndarray:
    # (delta/pi) log[(p+q)/|p-q|], broadcast and built in place; infinite at p = q
    out = np.atleast_1d(p + q)
    gap = np.atleast_1d(p - q)
    np.abs(gap, out=gap)
    with np.errstate(divide="ignore"):
        out /= gap
    np.log(out, out=out)
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


def _kernel_matrix(p: np.ndarray, w: np.ndarray, params: ModelParams,
                   coulomb: tuple[np.ndarray, np.ndarray] | None = None,
                   lo: int = 0, hi: int | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel rows lo:hi (default: all) and diagonal pieces of the Nystrom operator.

    Returns (K, diag_kernel, diag_extra): K holds the kernel rows against all
    nodes (tms_kernel plus the Coulomb part) with the Coulomb diagonal
    (j = lo + i) zeroed, diag_kernel the TMS kernel on that diagonal, and
    diag_extra the singularity-subtraction correction (zero when delta = 0).
    coulomb is _coulomb_part(p, w, params.delta, lo, hi), built here when
    not given.
    """
    K = tms_kernel(p[lo:hi, None], p, params.mu)
    diag_kernel = K.diagonal(lo).copy()
    diag_extra = np.zeros(K.shape[0])
    if params.delta != 0.0:
        C, diag_extra = coulomb or _coulomb_part(p, w, params.delta, lo, hi)
        K += C
    return K, diag_kernel, diag_extra


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
    """
    p, w = grid.nodes, grid.weights
    M, diag_kernel, diag_extra = _kernel_matrix(p, w, params, coulomb)
    sw = np.sqrt(w)
    M *= np.outer(sw, sw)  # exactly symmetric: both factors are
    d = np.sqrt(0.75 * p * p + params.mu) + params.alpha
    np.fill_diagonal(M, d + w * diag_kernel + diag_extra)
    return M


def smallest_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of an assembled symmetric matrix."""
    return float(np.linalg.eigvalsh(matrix)[0])


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
    count between consecutive sweep points.  Each decrement is refined by
    Brent's method on that level's eigenvalue as a function of log mu, until
    the sign-change bracket is at most refine_rel wide (relative); the
    reported crossing, the bracket's geometric midpoint, lies within
    refine_rel of the discrete operator's singular mu.

    The sweep solves, then the refinement chains (one task per crossing),
    run on one pool of TRIBOS_THREADS threads (default: the CPU count), each
    solve with single-threaded BLAS, so the pool size is the total thread
    count and the result does not depend on it or on OPENBLAS_NUM_THREADS.
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
    with _single_threaded_blas():
        coulomb = _coulomb_part(grid.nodes, grid.weights, delta) if delta != 0.0 else None

        def spectrum(mu: float) -> np.ndarray:
            params = ModelParams(mu=mu, delta=delta)
            return np.linalg.eigvalsh(assemble(grid, params, coulomb))

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            sweep = list(pool.map(lambda m: spectrum(float(m)), mus))
            counts = [int(np.sum(ev < 0.0)) for ev in sweep]
            if any(hi > lo for lo, hi in zip(counts, counts[1:])):
                raise RuntimeError("negative-eigenvalue count increased with mu")

            def refine(i: int, k: int) -> float:
                # the k-th eigenvalue is < 0 at mus[i] and >= 0 at mus[i + 1]
                return math.exp(_brent_crossing(
                    lambda t: float(spectrum(math.exp(t))[k]),
                    math.log(mus[i]), float(sweep[i][k]),
                    math.log(mus[i + 1]), float(sweep[i + 1][k]), width))

            chains = [pool.submit(refine, i, level - 1) for i in range(n_mu - 1)
                      for level in range(counts[i + 1] + 1, counts[i] + 1)]
            crossings = [chain.result() for chain in chains]
        finally:
            pool.shutdown(cancel_futures=True)  # after a failure, drop queued chains
    return SpectralScan(mus=mus, smallest=np.array([ev[0] for ev in sweep]),
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
