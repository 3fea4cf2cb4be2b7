"""Lattice windows, length functions, Gromov forms and smoothing multipliers.

Everything here lives on Z^d or (Z/nZ)^d.  Finite-modulus coordinates are kept
in the canonical window (-n/2, n/2]; the tie at n/2 for even n resolves to +n/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "canonical_rep",
    "window_range",
    "window_points",
    "band_window",
    "LengthFunction",
    "MultiplierSpec",
    "gromov_entries_for_coords",
    "check_conditionally_negative",
    "cocycle_rows_for_coords",
    "build_smoothing_multiplier",
    "product_multiplier",
]


def canonical_rep(k, n: Optional[int]):
    """Reduce k (an int or int array) into the window (-n/2, n/2]; identity for n=None."""
    if n is None:
        return k
    lo = -((n - 1) // 2)
    return (k - lo) % n + lo


def window_range(n: int) -> range:
    """All canonical representatives of Z_n, ascending."""
    lo = -((n - 1) // 2)
    return range(lo, lo + n)


def window_points(
    moduli: Sequence[Optional[int]], radius: Optional[int] = None
) -> list[tuple[int, ...]]:
    """The canonical window of Z_n on each finite-modulus axis and [-radius,
    radius] on each infinite one, in itertools.product order."""
    if radius is None and None in moduli:
        raise ValueError("infinite modulus needs a window radius")
    return list(itertools.product(*(
        window_range(n) if n is not None else range(-radius, radius + 1) for n in moduli
    )))


def band_window(band: int, d: int) -> list[tuple[int, ...]]:
    """All k in Z^d with max |k_i| <= band, in itertools.product order (random
    coefficient draws consume it in this order)."""
    return window_points((None,) * d, band)


WORD = "word"
HEAT = "heat"
NAIVE_SQUARE = "naive_square"

_KINDS = (WORD, HEAT, NAIVE_SQUARE)


@dataclass(frozen=True)
class LengthFunction:
    """Conditionally negative (candidate) length on Z^d or Z_n^d.

    The value on a d-tuple is the sum of per-coordinate values:

    * word:  |k|_n = min(k mod n, n - k mod n), or |k| for n=None
    * heat:  (n^2 / 2 pi^2) (1 - cos(2 pi k / n)), or k^2 for n=None
    * naive_square: (canonical k)^2 even at finite n -- deliberately NOT
      conditionally negative, kept so the PSD audit has a failing case
    """

    kind: str
    moduli: tuple[Optional[int], ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown length kind {self.kind!r}")

    @classmethod
    def word(cls, moduli: Sequence[Optional[int]]) -> "LengthFunction":
        return cls(WORD, tuple(moduli))

    @classmethod
    def heat(cls, moduli: Sequence[Optional[int]]) -> "LengthFunction":
        return cls(HEAT, tuple(moduli))

    @classmethod
    def naive_square(cls, moduli: Sequence[Optional[int]]) -> "LengthFunction":
        return cls(NAIVE_SQUARE, tuple(moduli))

    @property
    def dim(self) -> int:
        return len(self.moduli)

    def with_moduli(self, moduli: Sequence[Optional[int]]) -> "LengthFunction":
        """Same family of lengths transported to another modulus tuple."""
        return LengthFunction(self.kind, tuple(moduli))

    def coord_value(self, k: int, axis: int = 0) -> float:
        return float(self.coord_values(k, axis))

    def coord_values(self, ks: np.ndarray, axis: int = 0) -> np.ndarray:
        """Vectorized per-coordinate values on an integer array."""
        n = self.moduli[axis]
        ks = canonical_rep(np.asarray(ks, dtype=np.int64), n)
        if self.kind == WORD:
            if n is None:
                return np.abs(ks).astype(float)
            r = ks % n
            return np.minimum(r, n - r).astype(float)
        if self.kind == HEAT:
            if n is None:
                return ks.astype(float) ** 2
            return (n * n / (2 * math.pi**2)) * (1.0 - np.cos(2 * math.pi * ks / n))
        return ks.astype(float) ** 2  # naive_square

    def value(self, coords: Sequence[int]) -> float:
        if len(coords) != self.dim:
            raise ValueError("dimension mismatch between index and length function")
        return float(self.values(coords))

    def values(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized values over an (..., d) integer array."""
        coords = np.asarray(coords, dtype=np.int64)
        out = np.zeros(coords.shape[:-1])
        for axis in range(self.dim):
            out += self.coord_values(coords[..., axis], axis)
        return out


def gromov_entries_for_coords(
    psi: LengthFunction, coords: Sequence[Sequence[int]]
) -> np.ndarray:
    """K(x,y) = [psi(x) + psi(y) - psi(x - y)] / 2 over raw coordinate tuples
    (group subtraction mod n happens inside psi)."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[0] == 0 or coords.shape[1] != psi.dim:
        raise ValueError(f"need a non-empty list of {psi.dim}-d coordinates")
    vals = psi.values(coords)
    diffs = coords[:, None, :] - coords[None, :, :]
    return 0.5 * (vals[:, None] + vals[None, :] - psi.values(diffs))


def psd_tolerance(K: np.ndarray) -> float:
    """Default eigenvalue tolerance for a Gromov matrix: 1e-10 s max(1, |K|)."""
    return 1e-10 * len(K) * max(1.0, float(np.abs(K).max(initial=0.0)))


def check_conditionally_negative(
    psi: LengthFunction,
    tol: Optional[float] = None,
    window: Optional[int] = None,
) -> tuple[bool, float]:
    """PSD audit of the Gromov form over all of Z_n (or a window of Z).

    Returns (verdict, witness) where the witness is the minimal eigenvalue.
    One-dimensional by design: product lengths are conditionally negative
    iff each coordinate factor is.
    """
    if psi.dim != 1:
        raise ValueError("audit is per-coordinate; pass a one-dimensional length")
    K = gromov_entries_for_coords(psi, window_points(psi.moduli, window))
    if tol is None:
        tol = psd_tolerance(K)
    try:
        eigs = np.linalg.eigvalsh(K)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigen solver failed during PSD audit: {exc}") from exc
    witness = float(eigs.min())
    return witness >= -tol, witness


def cocycle_rows_for_coords(psi: LengthFunction, coords: Sequence[Sequence[int]]) -> np.ndarray:
    """Eigen-based factor rows G (r x s) with G^T G = K, the Gromov form over
    raw coordinates.

    Eigenvalues in [-tol, tol], tol = psd_tolerance(K), are treated as zero;
    anything below -tol means K is not admissible and raises.
    """
    K = gromov_entries_for_coords(psi, coords)
    tol = psd_tolerance(K)
    eigs, vecs = np.linalg.eigh(K)
    if eigs.min() < -tol:
        raise ValueError(f"Gromov matrix is not PSD within tol: min eig {eigs.min()}")
    keep = eigs > tol
    return (np.sqrt(eigs[keep])[:, None]) * vecs[:, keep].T


@dataclass(frozen=True)
class MultiplierSpec:
    """Finitely supported Fourier multiplier symbol phi on a product lattice.

    ``values`` maps canonical coordinate tuples to phi(g); absent keys are 0.
    ``band`` is the length cutoff m (support lies in {psi <= m}) and ``tail``
    the certified window tail sum (which bounds the cb-norm defect of the
    truncation).
    """

    values: dict[tuple[int, ...], complex]
    moduli: tuple[Optional[int], ...]
    band: float
    tail: float

    def value_at(self, coords: Sequence[int]) -> complex:
        return self.values_at([coords])[0]

    def values_at(self, keys) -> list[complex]:
        """value_at of every key of a list or (S, d) integer array."""
        cols = np.array(keys, dtype=np.intp).reshape(-1, len(self.moduli)).T
        reps = [canonical_rep(c, n).tolist() for c, n in zip(cols, self.moduli)]
        return [self.values.get(k, 0.0) for k in zip(*reps)]


def _min_alpha(k: float, eps: float) -> float:
    """Smallest alpha with 1 - exp(-k/alpha) <= eps, by doubling + bisection."""
    if k <= 0:
        return 1e-9

    def ok(a: float) -> bool:
        return 1.0 - math.exp(-k / a) <= eps

    hi = 1.0
    while not ok(hi):
        hi *= 2.0
    lo = hi / 2.0 if hi > 1.0 else 1e-12
    while ok(lo):
        hi = lo
        lo /= 2.0
        if lo < 1e-12:
            return hi if ok(hi) else 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-6 * hi:
            break
    return hi


def build_smoothing_multiplier(
    psi: LengthFunction, k: float, eps: float, window: Optional[int] = None
) -> MultiplierSpec:
    """Compressing multiplier phi(g) = exp(-psi(g)/alpha) 1[psi(g) <= m].

    alpha is the smallest decay scale keeping |phi - 1| <= eps on {psi <= k};
    m > k is the smallest cutoff whose window tail sum of exp(-psi/alpha) is
    <= eps.  The tail sum certifies that truncation changes the multiplier by
    at most eps in cb-norm, hence the (1 + eps) contraction contract.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if k < 0:
        raise ValueError("cutoff k must be >= 0")
    alpha = _min_alpha(float(k), eps)
    if window is None and any(n is None for n in psi.moduli):
        window = max(64, 16 * int(math.ceil(k)) + 16)
    pts = window_points(psi.moduli, window)
    vals = psi.values(pts)
    weights = np.exp(-vals / alpha)
    candidates = sorted({v for v in vals if v > k})
    band = None
    tail = None
    for m in candidates:
        t = float(weights[vals > m].sum())
        if t <= eps:
            band = float(m)
            tail = t
            break
    if band is None:  # k is at least every length in the window
        where = f"Z_n, n = {psi.moduli}" if None not in psi.moduli else "the window (enlarge it)"
        raise ValueError(f"no support cutoff: the cutoff k = {k} is at least the largest length "
                         f"{float(vals.max())} on {where}")
    values = {
        tuple(p): float(w) for p, v, w in zip(pts, vals, weights) if v <= band
    }
    return MultiplierSpec(values=values, moduli=psi.moduli, band=band, tail=tail)


def product_multiplier(parts: Sequence[MultiplierSpec]) -> MultiplierSpec:
    """Coordinate-wise product of one-dimensional multiplier specs."""
    if not parts or any(len(p.moduli) != 1 for p in parts):
        raise ValueError("expects one-dimensional factors")
    values: dict[tuple[int, ...], complex] = {(): 1.0}
    for p in parts:
        values = {
            key + g: v * p.values[g] for key, v in values.items() for g in p.values
        }
    return MultiplierSpec(
        values=values,
        moduli=tuple(p.moduli[0] for p in parts),
        band=sum(p.band for p in parts),
        tail=float(sum(p.tail for p in parts)),
    )

