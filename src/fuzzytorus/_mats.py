"""Small dense-matrix helpers shared by the symbol and model layers."""

from __future__ import annotations

import functools
import math

import numpy as np

BAND_MIN_DIM = 256  # smallest N for hermitian_max_eig's band solver and op_norm's band route
DENSE_MAX_DIM = 512  # largest N for operator_norm's exact SVD and op_norm's band route
BISECTION_STEPS = 100  # hard cap of _band_max_eig's bisection; it needs about 45


def max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def batched_max_eig(h: np.ndarray) -> np.ndarray:
    """Largest eigenvalue along the last two axes of a Hermitian (..., m, m) stack."""
    m = h.shape[-1]
    if m == 1:
        return h[..., 0, 0].real
    if m == 2:
        # (a + b)/2 + sqrt(((a - b)/2)^2 + |h10|^2): a sum of squares, exact to
        # an ulp also at a double eigenvalue, where tr^2 - 4 det cancels
        a, b, off = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]
        half = 0.5 * (a - b)
        return 0.5 * (a + b) + np.sqrt(half * half + (off.real**2 + off.imag**2))
    return np.linalg.eigvalsh(h)[..., -1]


def batched_sigma_max(mats: np.ndarray) -> np.ndarray:
    """Largest singular value along the last two axes of a (..., m, m) stack."""
    m = mats.shape[-1]
    if m == 1:
        return np.abs(mats[..., 0, 0])
    if m == 2:
        # sigma_max^2 = |M|_F^2 / 2 + sqrt(a^2 + |b|^2), a = (|c0|^2 - |c1|^2) / 2
        # and b = <c0, c1> over M's columns: a sum of squares, exact to an ulp
        # also at sigma_1 = sigma_2, where |M|_F^4 / 4 - |det M|^2 cancels
        sq = mats.real**2 + mats.imag**2
        cols = sq[..., 0, :] + sq[..., 1, :]
        half = 0.5 * (cols[..., 0] - cols[..., 1])
        inner = mats[..., 0, 0].conj() * mats[..., 0, 1] + mats[..., 1, 0].conj() * mats[..., 1, 1]
        root = np.sqrt(half * half + (inner.real**2 + inner.imag**2))
        return np.sqrt(0.5 * (cols[..., 0] + cols[..., 1]) + root)
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value: an exact SVD up to DENSE_MAX_DIM; above it
    max |x_ii| for a diagonal x and deterministic shifted power iteration on
    x*x (start vector fixed, rtol 1e-10) otherwise."""
    n = x.shape[0]
    if n <= DENSE_MAX_DIM:
        return float(np.linalg.svd(x, compute_uv=False)[0])
    diag = np.diagonal(x)
    if np.count_nonzero(x) == np.count_nonzero(diag):
        return max_abs(diag)
    # x v and x^T u one np.matmul per 16-row block of x and of x^T, over the
    # block's span of nonzero columns widened to multiples of 16: every entry
    # is the same BLAS dot product over x's own memory, its nonzeros in the
    # same 16-aligned lanes as in the one-call product, and every column left
    # out is an exact zero, so the bits are the same
    u, w = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    v = np.ones(n, dtype=complex) + 1e-3 * np.arange(n) / n
    v /= np.linalg.norm(v)
    forward, backward = _block_windows(x, v, u), _block_windows(x.T, u, w)
    lam = 0.0
    for _ in range(5000):
        for block, vec, out in forward:
            np.matmul(block, vec, out=out)
        # x* u as conj(x^T conj(u)): the same kernel over x's own memory as a
        # conjugate copy would get, and conjugation is exact
        np.conjugate(u, out=u)
        for block, vec, out in backward:
            np.matmul(block, vec, out=out)
        new = float(np.linalg.norm(np.conjugate(w, out=w)))
        if new == 0.0:
            return 0.0
        np.divide(w, new, out=v)
        if abs(new - lam) <= 1e-10 * max(new, 1.0):
            return float(np.sqrt(new))
        lam = new
    raise RuntimeError("power iteration did not converge for the operator norm")


def _block_windows(a: np.ndarray, vec: np.ndarray, out: np.ndarray) -> list[tuple]:
    """Views (block, vec window, out block) whose np.matmuls give out = a @ vec:
    a block is 16 rows of a over the span of their nonzero columns, widened
    to multiples of 16 (to the row's end when it reaches the last column);
    an all-zero block has an empty span and writes zeros.  Blocks that cover
    more than a fifth of a give way to the one-call product (a, vec, out)."""
    n = a.shape[1]
    views = []
    for r in range(0, a.shape[0], 16):
        groups = np.flatnonzero(a[r:r + 16].any(axis=0)) // 16  # of 16 columns
        lo, hi = (groups[0] * 16, min(groups[-1] * 16 + 16, n)) if groups.size else (0, 0)
        views.append((a[r:r + 16, lo:hi], vec[lo:hi], out[r:r + 16]))
    # x^T's blocks read 16 entries per row of x, strided, and lose to the
    # one-call product from about a fifth of x on (a band-2 element at m = 1
    # covers 80/N of x, one at m >= 2 three quarters or more)
    if 5 * sum(block.size for block, _, _ in views) > a.size:
        return [(a, vec, out)]
    return views


def hermitian_max_eig(ab: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian matrix H held in lower band storage
    ab[d, j] = H[j + d, j], d <= w (callers order the basis to make w small
    and trim ab to its last nonzero diagonal): 0.0 for no diagonals (H = 0),
    the band solver when H is at least BAND_MIN_DIM wide and w <= N/8, dense
    eigvalsh of H otherwise."""
    w, n = ab.shape[0] - 1, ab.shape[1]
    if w < 0:
        return 0.0
    if n >= BAND_MIN_DIM and w <= n // 8:
        try:
            return _band_max_eig(ab)
        except np.linalg.LinAlgError:  # the estimate was too low to polish
            pass
    return float(np.linalg.eigvalsh(hermitian_from_band(ab))[-1])


def hermitian_from_band(ab: np.ndarray) -> np.ndarray:
    """The dense Hermitian matrix H of lower band storage ab[d, j] = H[j + d, j],
    placed by assignment only: the conjugates at H[j, j + d], then ab's
    entries at H[j + d, j] (the diagonal last, unconjugated)."""
    n = ab.shape[1]
    src, low, up = _band_entries(ab.shape[0], n)
    vals = np.take(ab, src)
    h = np.zeros(n * n, dtype=complex)
    h[up] = vals.conj()
    h[low] = vals
    return h.reshape(n, n)


@functools.lru_cache(maxsize=16)
def _band_entries(diagonals: int, n: int) -> tuple[np.ndarray, ...]:
    """Flat indices of the band entries ab[d, j], j < n - d, in ab and of
    their places H[j + d, j] and H[j, j + d] in H (shared: only read)."""
    d, j = np.nonzero(np.arange(n) < n - np.arange(diagonals)[:, None])
    return d * n + j, (j + d) * n + j, j * n + j + d


def bin_sums(index: np.ndarray, values: np.ndarray, bins: int) -> np.ndarray:
    """Complex sums, shape (bins, ...), of the rows values[a] per bin index[a],
    each bin adding its rows entrywise from 0 in input order: one np.add.at
    over one flat index per entry (np.add.at over whole rows is slower)."""
    tail = values.shape[1:]
    width = math.prod(tail)
    if width != 1:
        index = (index[:, None] * width + np.arange(width)).ravel()
    out = np.zeros((bins,) + tail, dtype=complex)
    np.add.at(out.reshape(-1), index, values.ravel())
    return out


@functools.cache
def _flapack():
    """scipy's f2py LAPACK wrappers, the module behind scipy.linalg.lapack,
    loaded from scipy's directory without the scipy.linalg package (about
    4 ms and 3 MB, against 0.3 s and 22 MB for importing scipy.linalg)."""
    import importlib.machinery
    import importlib.util
    import os

    import scipy

    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_lapack(info: int, routine: str) -> None:
    """Raise on a nonzero LAPACK info as scipy.linalg's wrappers do."""
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={info})")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")


def _finite(a: np.ndarray) -> np.ndarray:
    """a itself, after scipy.linalg's check_finite test."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _band_max_eig(ab: np.ndarray) -> float:
    """Top eigenvalue of the Hermitian matrix H held in LAPACK lower band
    storage ab[d, j] = H[j + d, j], d <= w, in O(N w^2) per step: bisection
    of sigma on "the zpbtrf Cholesky factor of sigma I - H exists" inside
    [max H_jj, Gershgorin bound] down to a width of 1e-13 |hi|, then the
    polish: 4 zpbtrs solves with the factor at sigma = lam + 1e-13 |lam|
    (lam the upper end) into an fsum Rayleigh quotient.

    A factor that succeeds is exact for sigma I - H + E with |E| of order
    w eps |H| (banded Cholesky's backward error), so each test can misjudge
    sigma only within about w eps |H| of lambda_max, 1e-14 |H| at w = 17.
    The bracket therefore stops at an absolute floor of (w + 1) eps times
    the Gershgorin bound on |H| (and after BISECTION_STEPS steps), or it
    would never end when lambda_max = 0; and the polish shift's margin
    1e-13 |lam| dominates that error whenever |lam| is of order |H|, as for
    the Gram matrices the callers pass.  The LAPACK calls and checks are
    those of scipy.linalg's cholesky_banded and cho_solve_banded."""
    lapack = _flapack()
    w, n = ab.shape[0] - 1, ab.shape[1]
    diag = _finite(ab)[0].real
    radius = np.zeros(n)
    for d in range(1, w + 1):
        mag = np.abs(ab[d, :n - d])
        radius[:n - d] += mag
        radius[d:] += mag
    lo, hi = diag.max(), (diag + radius).max()
    floor = (w + 1) * np.finfo(float).eps * (np.abs(diag) + radius).max()
    # one Fortran-ordered buffer that zpbtrf overwrites in place: f2py copies
    # any other layout on every call
    trial = np.empty((w + 1, n), dtype=complex, order="F")

    def factor(sigma: float) -> tuple[np.ndarray, int]:
        np.negative(ab, out=trial)
        trial[0] += sigma
        return lapack.zpbtrf(trial, lower=1, overwrite_ab=1)

    for _ in range(BISECTION_STEPS):
        if hi - lo <= max(1e-13 * abs(hi), floor):
            break
        mid = 0.5 * (lo + hi)
        if factor(mid)[1] == 0:
            hi = mid
        else:
            lo = mid
    chol, info = factor(hi + 1e-13 * abs(hi))
    _check_lapack(info, "zpbtrf")  # info > 0: the estimate was too low to polish
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for _ in range(4):
        v, info = lapack.zpbtrs(_finite(chol), _finite(v), lower=1, overwrite_b=0)
        _check_lapack(info, "zpbtrs")
        v /= np.abs(v).max()
    hv = ab[0].real * v
    for d in range(1, w + 1):
        hv[d:] += ab[d, :n - d] * v[:n - d]
        hv[:n - d] += ab[d, :n - d].conj() * v[d:]
    return math.fsum((v.conj() * hv).real) / math.fsum(v.real**2 + v.imag**2)
