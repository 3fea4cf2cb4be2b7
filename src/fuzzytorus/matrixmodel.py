"""Concrete matrix realizations: clock/shift, fuzzy tori, and M_{n^d} generators.

Every model keeps unitary generators of a common order n, each a scalar times
a tensor product of clock and shift powers, together with the pairwise
commutation phases they were built to satisfy.  Every word W^k in them is a
generalized permutation, stored as (perm, phase) arrays; the constructor
verifies unitarity, order, adjoints and phases on those arrays (permutations
exactly, phases to 1e-12) before handing the model out.  Coefficient transport
between polynomials and models goes through the trace-orthonormal monomial
basis W^k: embedding is a scatter-add and extraction a gather, O(m^2 N) per
coefficient.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _mats
from .lattice import band_window
from .ncpoly import NCPoly, TwistMatrix, _sorted_stack

__all__ = [
    "Generator",
    "MatrixModel",
    "ModelElement",
    "clock_shift",
    "fuzzy_generators",
    "higher_dim_generators",
    "admissible_sizes",
    "embed",
    "fourier_coefficients",
    "op_norm",
    "schatten_norm",
]

RELATION_TOL = 1e-12
DIMENSION_CAP = 4096
# Bytes of cache records, each one support's word stacks and band plans, a
# model keeps; past it the least recently used record goes first (the word
# stacks of a band-8 window on n = 64, 289 words, take 444 kB).
WORD_CACHE_BYTES = 2**25

# A word W is a generalized permutation stored as arrays (perm, phase):
# W e_j = phase[j] e_{perm[j]}.  Products and adjoints are index arithmetic.
Word = tuple[np.ndarray, np.ndarray]


def _compose(a: Word, b: Word) -> Word:
    """The word A B, or along the last axis the words of two stacks."""
    return np.take_along_axis(a[0], b[0], -1), np.take_along_axis(a[1], b[0], -1) * b[1]


def _dense(a: Word) -> np.ndarray:
    out = np.zeros((a[0].size, a[0].size), dtype=complex)
    out[a[0], np.arange(a[0].size)] = a[1]
    return out


def _nbytes(cache) -> int:
    """Bytes of the arrays in a nest of dicts, tuples and lists."""
    if isinstance(cache, np.ndarray):
        return cache.nbytes
    if isinstance(cache, dict):
        cache = list(cache.values())
    return sum(map(_nbytes, cache)) if isinstance(cache, (tuple, list)) else 0


def _same_word(a: Word, b: Word) -> bool:
    """Permutations equal exactly, phases to RELATION_TOL."""
    return np.array_equal(a[0], b[0]) and _mats.max_abs(a[1] - b[1]) <= RELATION_TOL


@dataclass(frozen=True)
class Generator:
    """scale * (x)_s V_s^{shift[s]} U_s^{clock[s]} over the model's tensor
    slots, with U_s the clock and V_s the cyclic shift on C^{slots[s]}."""

    clock: tuple[int, ...]
    shift: tuple[int, ...]
    scale: complex = 1.0


@dataclass(frozen=True, eq=False)
class MatrixModel:
    """Monomial model: generators of declared order on C^{prod(slots)} with a
    pairwise phase table, every word kept as (perm, phase) arrays."""

    order: int
    slots: tuple[int, ...]
    gens: tuple[Generator, ...]
    phase_table: np.ndarray  # W_r W_s = exp(2 pi i phase[r,s]) W_s W_r
    symbol_twist: TwistMatrix
    provenance: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_cache", OrderedDict())
        object.__setattr__(self, "_orders", {})
        ident = (np.arange(self.dim), np.ones(self.dim, dtype=complex))
        gens = [self.power(i, 1) for i in range(self.n_generators)]
        for i, (perm, phase) in enumerate(gens):
            inv = np.argsort(perm)
            if not np.array_equal(perm[inv], ident[0]) or (
                _mats.max_abs(np.abs(phase) - 1.0) > RELATION_TOL
            ):
                raise ValueError(f"generator {i} is not unitary to tolerance")
            if not _same_word(self.power(i, self.order), ident):
                raise ValueError(f"generator {i} does not have order {self.order}")
            if not _same_word(self.power(i, -1), (inv, phase[inv].conj())):
                raise ValueError(f"generator {i} power function breaks adjoints")
        for r, s in itertools.permutations(range(len(gens)), 2):
            rs, sr = _compose(gens[r], gens[s]), _compose(gens[s], gens[r])
            phase = np.exp(2j * np.pi * self.phase_table[r, s])
            # entries of W_r W_s - phase W_s W_r; unit phases where perms differ
            gap = np.where(rs[0] == sr[0], np.abs(rs[1] - phase * sr[1]), 1.0)
            if gap.max() > RELATION_TOL:
                raise ValueError(
                    f"commutation phase fails for generators ({r},{s}): {gap.max()}"
                )

    @property
    def dim(self) -> int:
        return math.prod(self.slots)

    @property
    def n_generators(self) -> int:
        return len(self.gens)

    def power(self, axis: int, j: int) -> Word:
        """W_axis^j in closed form, per slot (V^b U^a)^j = om^{ab j(j-1)/2}
        V^{bj} U^{aj} with om = exp(2 pi i / n): one rounding per phase
        instead of one per repeated product."""
        g = self.gens[axis]
        perm = np.zeros(1, dtype=np.intp)
        phase = np.full(1, g.scale**j, dtype=complex)
        for n, a, b in zip(self.slots, g.clock, g.shift):
            idx = np.arange(n)
            ph = np.exp(2j * np.pi * ((a * j) % n) * idx / n)
            if a * b:
                ph = np.exp(2j * np.pi / n) ** (a * b * j * (j - 1) / 2) * ph
            perm = (perm[:, None] * n + (idx + b * j) % n).ravel()
            phase = np.multiply.outer(phase, ph).ravel()
        return perm, phase

    def words(self, support: Sequence[tuple[int, ...]], axes: Optional[Sequence[int]] = None):
        """Ordered words prod_i W_{axes[i]}^{k[i]} of every key k of support as
        (S, N) perm and phase stacks, composed from power at each axis's folded
        exponents (one call per distinct exponent).  Cached in the record of
        (axes, support)."""
        def build(axes, support):
            N = self.dim
            exps = np.array(support, dtype=np.intp).reshape(-1, len(axes)) % self.order
            out = np.tile(np.arange(N), (len(exps), 1)), np.ones((len(exps), N), dtype=complex)
            for axis, col in zip(axes, exps.T):
                uniq, inv = np.unique(col, return_inverse=True)
                pw = [self.power(axis, int(c)) for c in uniq]
                perm = np.array([p for p, _ in pw], dtype=np.intp).reshape(-1, N)
                phase = np.array([ph for _, ph in pw], dtype=complex).reshape(-1, N)
                out = _compose(out, (perm[inv], phase[inv]))
            return out
        return self._cached(support, axes, "words", build)

    def band_plan(self, support: Sequence[tuple[int, ...]], axes: Optional[Sequence[int]],
                  m: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray, int]:
        """The words of support grouped by permutation, groups in order of
        first occurrence: each group's key indices, ascending, and the (L, N)
        inverses of the L group permutations; then _band_plan of those at
        amplification m, the index plan of _band_gram.  Cached in the record
        of (axes, support), one plan per m."""
        def build(axes, support):
            perms = self.words(support, axes)[0]
            groups: dict[bytes, list[int]] = {}
            for a, perm in enumerate(perms):
                groups.setdefault(perm.tobytes(), []).append(a)
            members = [np.array(g, dtype=np.intp) for g in groups.values()]
            inv = np.argsort(perms[[g[0] for g in members]], axis=1)
            return (members, inv, *_band_plan(inv, self.band_order(m), m))
        return self._cached(support, axes, m, build)

    def _cached(self, support, axes, name, build):
        """Value name of the cache record of (axes, support), from
        build(axes, support) when missing.  Past WORD_CACHE_BYTES the least
        recently used records go whole (the newest always stays)."""
        axes = tuple(range(self.n_generators)) if axes is None else tuple(axes)
        key, cache = (axes, tuple(support)), self._cache
        record = cache.setdefault(key, {})
        cache.move_to_end(key)
        if name not in record:
            record[name] = build(*key)
            while len(cache) > 1 and _nbytes(cache) > WORD_CACHE_BYTES:
                cache.popitem(last=False)
        return record[name]

    def generators(self) -> list[np.ndarray]:
        return [_dense(self.power(i, 1)) for i in range(self.n_generators)]

    def monomial(self, coords: Sequence[int], axes: Optional[Sequence[int]] = None) -> np.ndarray:
        """Dense matrix of the word of coords over axes."""
        return _dense(tuple(a[0] for a in self.words([tuple(coords)], axes)))

    def band_order(self, m: int = 1) -> np.ndarray:
        """Basis order of C^m (x) C^N along the cycles of the last generator,
        each cycle c folded as c[0], c[-1], c[1], c[-2], ... (the m copies of
        a point kept together).  A sum of words that move each point at most
        b steps along those cycles is a band matrix of half-bandwidth at most
        m(2b + 1) - 1 in this order.  Cached per m, read-only."""
        if m not in self._orders:
            perm, order, seen = self.power(self.n_generators - 1, 1)[0].tolist(), [], set()
            for s in range(self.dim):
                cyc = [] if s in seen else [s]
                while cyc and perm[cyc[-1]] != s:
                    cyc.append(perm[cyc[-1]])
                seen.update(cyc)
                order += [cyc[-(i + 1) // 2 if i % 2 else i // 2] for i in range(len(cyc))]
            out = (np.array(order, dtype=np.intp)[:, None] + self.dim * np.arange(m)).ravel()
            out.setflags(write=False)
            self._orders[m] = out
        return self._orders[m]


@dataclass(frozen=True, eq=False)
class ModelElement:
    """A matrix in M_m (x) M_N tagged with its model."""

    model: MatrixModel
    matrix: np.ndarray
    m: int = 1

    def __post_init__(self):
        expect = self.m * self.model.dim
        if self.matrix.shape != (expect, expect):
            raise ValueError("matrix shape does not match model and amplification")


def clock_shift(n: int) -> MatrixModel:
    """Clock u and cyclic shift v on C^n with u v = exp(2 pi i / n) v u."""
    if n < 2:
        raise ValueError("need n >= 2")
    phase = np.array([[0.0, 1.0 / n], [-1.0 / n, 0.0]])
    return MatrixModel(
        order=n,
        slots=(n,),
        gens=(Generator((1,), (0,)), Generator((0,), (1,))),
        phase_table=phase,
        symbol_twist=TwistMatrix.zero(2),
        provenance="clock_shift",
        params={"n": n},
    )


def admissible_sizes(m: int, count: Optional[int] = None):
    """Sizes n_k = m^{k+1} for which the fuzzy generators span the full algebra."""
    k = 1
    while count is None or k <= count:
        yield m ** (k + 1)
        k += 1


def fuzzy_generators(p: int, m: int, n: int) -> MatrixModel:
    """U = u1(m) (x) u1(n), V = v1(m)^p (x) v1(n) in dimension m n.

    Commutation phase is theta + 1/n with theta = p/m; m must divide n so the
    generators keep order n (take n from ``admissible_sizes(m)`` to get the
    full matrix algebra).
    """
    from math import gcd

    if n < 2:
        raise ValueError("need n >= 2")
    if m < 1 or gcd(p, m) != 1:
        raise ValueError("need gcd(p, m) = 1")
    if n % m != 0:
        raise ValueError("fuzzy model needs m | n so that generator orders equal n")
    theta = (p % m) / m if m > 1 else 0.0
    eta = theta + 1.0 / n
    phase = np.array([[0.0, eta], [-eta, 0.0]])
    return MatrixModel(
        order=n,
        slots=(m, n),
        gens=(Generator((1, 1), (0, 0)), Generator((0, 0), (p, 1))),
        phase_table=phase,
        symbol_twist=TwistMatrix.rational_2d(p, m) if m > 1 else TwistMatrix.zero(2),
        provenance="fuzzy",
        params={"p": p, "m": m, "n": n, "eta": eta},
    )


def higher_dim_generators(n: int, d: int) -> MatrixModel:
    """2d unitaries in M_{n^d} with every ordered pair at phase exp(2 pi i / n).

    Slot pattern: pair k acts as G^{(k-1)} (x) {U or V} (x) 1..., G = V U^{-1},
    with a scalar n-th-root correction fixing each generator's order to n.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    if n**d > DIMENSION_CAP:
        raise ValueError(f"dimension {n**d} exceeds cap {DIMENSION_CAP}")
    gens = []
    for pair in range(d):
        corr = np.exp(1j * np.pi * (n - 1) * pair / n)
        pad = (0,) * (d - pair - 1)
        gens.append(Generator((-1,) * pair + (1,) + pad, (1,) * pair + (0,) + pad, corr))
        gens.append(Generator((-1,) * pair + (0,) + pad, (1,) * pair + (1,) + pad, corr))
    phase = np.zeros((2 * d, 2 * d))
    for r in range(2 * d):
        for s in range(2 * d):
            if r < s:
                phase[r, s] = 1.0 / n
            elif r > s:
                phase[r, s] = -1.0 / n
    return MatrixModel(
        order=n,
        slots=(n,) * d,
        gens=tuple(gens),
        phase_table=phase,
        symbol_twist=TwistMatrix.zero(2 * d),
        provenance="higher_dim",
        params={"n": n, "d": d},
    )


def _embed_axes(f: NCPoly, model: MatrixModel) -> tuple[int, ...]:
    """Generator subset matching the polynomial's dimension and twist: a
    commutative d = 1 polynomial rides on generator 0, a polynomial with the
    model's symbol twist on all generators."""
    if f.d == 1 and f.twist.is_zero:
        return (0,)
    if f.d == model.n_generators and f.twist.same(model.symbol_twist):
        return tuple(range(model.n_generators))
    raise ValueError(
        f"polynomial (d={f.d}) incompatible with {model.provenance} model"
    )


def embed(f: NCPoly, model: MatrixModel) -> ModelElement:
    """Linear coefficient transport sum_k fhat(k) (x) W^k (indices fold mod n)."""
    return ModelElement(model, _kron_sum(model, _embed_axes(f, model), f.keys, f.blocks), m=f.m)


def _word_entries(
    model: MatrixModel, axes, keys: Sequence[tuple[int, ...]], m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzeros of I_m (x) W^k for each key, as flat indices into an mN x mN
    matrix, shape (s, m, m, N), and the word phases, shape (s, N).  Entry
    (a, b, j) sits at row a N + perm[j], column b N + j."""
    N = model.dim
    perm, phase = model.words(keys, axes)
    row = np.arange(m)[:, None, None] * N + perm[:, None, None, :]
    return row * (m * N) + np.arange(m)[:, None] * N + np.arange(N), phase


def _kron_sum(model: MatrixModel, axes, keys, blocks: np.ndarray) -> np.ndarray:
    """New mN x mN matrix sum_k blocks[k] (x) W^k for keys and their
    (s, m, m) stack, O(s m^2 N): one _mats.bin_sums, which adds each entry's
    terms in key order, over _word_entries' flat indices (cached per m in the
    record of (axes, keys))."""
    m = blocks.shape[-1]
    size = m * model.dim
    index = model._cached(keys, axes, ("embed", m), lambda axes, support: _word_entries(
        model, axes, support, m)[0].ravel())
    terms = blocks[..., None] * model.words(keys, axes)[1][:, None, None, :]  # (s, m, m, N)
    return _mats.bin_sums(index, terms.reshape(-1), size * size).reshape(size, size)


def fourier_coefficients(
    x: ModelElement, band: int, axes: Optional[Sequence[int]] = None
) -> NCPoly:
    """Trace-pairing coefficients over the band window, inverse of embed
    there: the gather xhat(k) = sum_j X[:, perm[j], :, j] conj(phase[j]) / N.

    Requires band < n/2 so the window maps injectively into Z_n per axis.
    """
    model = x.model
    if 2 * band >= model.order:
        raise ValueError(f"band {band} must satisfy band < n/2 = {model.order / 2}")
    axes = tuple(range(model.n_generators)) if axes is None else tuple(axes)
    coords = band_window(band, len(axes))
    idx, phase = _word_entries(model, axes, coords, x.m)
    gathered = np.einsum("sabj,sj->sab", x.matrix.reshape(-1)[idx], phase.conj())
    twist = model.symbol_twist
    if len(axes) != twist.d:
        if len(axes) == 1:
            twist = TwistMatrix.zero(1)
        else:
            raise ValueError("axis subset has no matching symbol twist")
    return NCPoly(twist, x.m, (coords, gathered / model.dim))


def _band_gram(f: NCPoly, model: MatrixModel, rows: np.ndarray, axes) -> np.ndarray:
    """sum_i D_i* D_i for D_i = sum_a rows[i, a] xhat(a) (x) W^a, a over f's
    sorted support, in lower band storage ab[d, j] = H[j + d, j] over the
    basis model.band_order(f.m), trimmed to its last nonzero diagonal; never
    formed as an mN x mN matrix.  Exactly Hermitian and homogeneous (no
    absolute cut).  The cocycle rows of a length give Gamma(x, x); the one
    row of ones gives x*x.

    The words of permutation P_g (group g) put in row r of D_i the block
    Lam[i,g,r] = sum_{a in g} rows[i,a] xhat(a) phase_a[P_g^-1 r], at column
    P_g^-1 r; pair (g, h) adds sum_i Lam[i,g,r]* Lam[i,h,r] at block
    (P_g^-1 r, P_h^-1 r), O(R L^2 m^3 N) for L groups.  Pairs g < h and half
    of each g = h make A, summed entrywise in g <= h order into A's full band
    storage; H = A + A* is folded from it.
    """
    support, coef = _sorted_stack(f)
    m = f.m
    size = m * model.dim
    if not rows.size:
        return np.zeros((0, size), dtype=complex)
    members, inv, same, index, w = model.band_plan(support, axes, m)
    phase = model.words(support, axes)[1]
    lam = np.array([np.einsum("ia,acd,ar->ircd", rows[:, g], coef[g], phase[g][:, p])
                    for g, p in zip(members, inv)])
    vals = np.concatenate([np.einsum("irca,hircb->hrab", lam[g].conj(), lam[g:])
                           for g in range(len(lam))])
    vals[same] *= 0.5
    # A[i, j] at [i - j + w, j]
    full = _mats.bin_sums(index, vals.reshape(-1), (2 * w + 1) * size).reshape(2 * w + 1, size)
    ab = np.zeros((w + 1, size), dtype=complex)
    for d in range(w + 1):
        ab[d, :size - d] = full[w + d, :size - d] + full[w - d, d:].conj()
    return ab[:np.flatnonzero(ab.any(axis=1)).max(initial=-1) + 1]


def _band_plan(inv: np.ndarray, order: np.ndarray, m: int) -> tuple:
    """Where _band_gram's products land, for the inverse group permutations
    inv (L, N) and the basis order of C^m (x) C^N: over the group pairs
    (g, h >= g) in g <= h order, the mask of the pairs g = h, the flat
    indices into the (2w + 1, mN) full band storage of the (pair, r, a, b)
    entries, at (pos[g, r, a], pos[h, r, b]) with pos[g, r, a] the band
    position of a N + inv[g, r], and w."""
    L, N = inv.shape
    size = m * N
    gs = np.repeat(np.arange(L), np.arange(L, 0, -1))
    hs = np.concatenate([np.arange(g, L) for g in range(L)])
    pos = np.empty(size, dtype=np.intp)
    pos[order] = np.arange(size)
    pos = pos[inv[:, :, None] + N * np.arange(m)]
    col = pos[hs][:, :, None, :]
    off = pos[gs][..., None] - col
    w = int(np.abs(off).max())
    return gs == hs, ((off + w) * size + col).ravel(), w


def _sqrt_top(ab: np.ndarray) -> float:
    """sqrt of the top eigenvalue of a PSD matrix in lower band storage."""
    return math.sqrt(max(_mats.hermitian_max_eig(ab), 0.0))


def op_norm(f: NCPoly, model: MatrixModel) -> float:
    """Operator norm of embed(f, model), the one entry point for model-element
    norms.  For BAND_MIN_DIM <= mN <= DENSE_MAX_DIM, sqrt of the top
    eigenvalue of x*x, which _band_gram assembles from f's coefficients with
    the one row of ones, by the top-eigenvalue route of the model-side Lip;
    every other size _mats.operator_norm of the embedded matrix."""
    if not f.keys:
        return 0.0
    if _mats.BAND_MIN_DIM <= f.m * model.dim <= _mats.DENSE_MAX_DIM:
        return _sqrt_top(_band_gram(f, model, np.ones((1, len(f.keys))), _embed_axes(f, model)))
    return _mats.operator_norm(embed(f, model).matrix)


def schatten_norm(x: ModelElement, p: float) -> float:
    """Normalized-trace Schatten norm, so identity has norm 1 for every p."""
    if p < 1:
        raise ValueError("need p >= 1")
    sv = np.linalg.svd(x.matrix, compute_uv=False)
    return float(sv[0] if p == np.inf else np.mean(sv**p) ** (1.0 / p))
