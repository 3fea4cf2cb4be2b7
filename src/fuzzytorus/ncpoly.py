"""Normal-ordered twisted Laurent polynomials with matrix-block coefficients.

A polynomial is a finite sum  sum_k  c_k (x) u^k  with k in Z^d, c_k an m x m
block, and u^k the normal-ordered word u_1^{k_1} ... u_d^{k_d} subject to
u_i u_j = exp(2 pi i theta_ij) u_j u_i.  Products, adjoints, Fourier
multipliers, gradient forms and sup-norm oracles all live here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _mats
from .lattice import LengthFunction, MultiplierSpec, gromov_entries_for_coords

PRUNE_REL = 1e-14

__all__ = [
    "TwistMatrix",
    "NCPoly",
    "normal_order_phase",
    "multiply",
    "adjoint",
    "project",
    "mean_zero",
    "l2_norm",
    "apply_multiplier",
    "gradient_form",
    "gradient_coeffs",
    "SymbolGrid",
]


@dataclass(frozen=True, eq=False)
class TwistMatrix:
    """Skew-symmetric twist; upper-triangle entries reduced into [0, 1).

    ``rational`` optionally records theta_12 = p / q for the two-dimensional
    rational-fiber norm oracle.
    """

    theta: np.ndarray
    rational: Optional[tuple[int, int]] = None

    def __post_init__(self):
        th = np.array(self.theta, dtype=float)
        if th.ndim != 2 or th.shape[0] != th.shape[1]:
            raise ValueError("twist must be a square matrix")
        if not np.allclose(th, -th.T, rtol=0.0, atol=1e-12):
            raise ValueError("twist must be skew-symmetric")
        d = th.shape[0]
        red = np.zeros_like(th)
        for i in range(d):
            for j in range(i + 1, d):
                red[i, j] = th[i, j] % 1.0
                red[j, i] = -red[i, j]
        red.setflags(write=False)
        object.__setattr__(self, "theta", red)

    @classmethod
    def zero(cls, d: int) -> "TwistMatrix":
        return cls(np.zeros((d, d)))

    @classmethod
    def two_dim(cls, theta: float) -> "TwistMatrix":
        return cls(np.array([[0.0, theta], [-theta, 0.0]]))

    @classmethod
    def rational_2d(cls, p: int, q: int) -> "TwistMatrix":
        if q <= 0:
            raise ValueError("denominator must be positive")
        t = cls(np.array([[0.0, p / q], [-p / q, 0.0]]))
        object.__setattr__(t, "rational", (p % q, q))
        return t

    @property
    def d(self) -> int:
        return self.theta.shape[0]

    @property
    def is_zero(self) -> bool:
        return bool(np.all(_wrapped(self.theta) <= 1e-12))  # same(TwistMatrix.zero(d))

    def same(self, other: "TwistMatrix") -> bool:
        return self is other or self.d == other.d and bool(
            np.all(_wrapped(self.theta - other.theta) <= 1e-12))


def _wrapped(theta: np.ndarray) -> np.ndarray:
    """Distance of each entry from the nearest integer: twists are angles mod 1."""
    return np.abs((theta + 0.5) % 1.0 - 0.5)


def normal_order_phase(a, b, twist: TwistMatrix):
    """Scalar with u^a u^b = phase * u^{a+b}: exp(2 pi i sum_{i>j} a_i b_j theta_ij).

    a and b may also be (..., d) integer arrays, which broadcast to an array
    of phases with the bits of the scalar calls.  The adjoint phase, (u^a)* =
    conj(phase(-a, a)) u^{-a}, is this rule too (u^a is unitary)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1:] != (twist.d,) or b.shape[-1:] != (twist.d,):
        raise ValueError("dimension mismatch with the twist")
    arg = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    for i in range(twist.d):
        for j in range(i):
            arg = arg + a[..., i] * b[..., j] * twist.theta[i, j]
    phase = np.exp(2j * np.pi * (arg % 1.0))
    return complex(phase) if phase.ndim == 0 else phase


def _adjoint_coeffs(f: "NCPoly", twist: TwistMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Keys and blocks of f's adjoint under twist: the block at -a is
    conj(normal_order_phase(-a, a)) times the conjugate transpose of the
    block at a, in f's key order."""
    keys = np.array(f.keys, dtype=np.intp).reshape(-1, twist.d)
    phases = normal_order_phase(-keys, keys, twist).conj()
    return -keys, phases[:, None, None] * f.blocks.conj().transpose(0, 2, 1)


def _block_stack(keys, blocks, m: int) -> np.ndarray:
    """The (S, m, m) complex stack of blocks (scalars allowed at m = 1), or
    the error naming the first block of another shape."""
    shapes = ((len(keys), m, m), (len(keys),) if m == 1 else None)
    try:
        stack = np.asarray(blocks, dtype=complex)
        if stack.shape in shapes:
            return stack.reshape(shapes[0])
    except ValueError:  # blocks of mixed shapes
        pass
    for k, b in zip(keys, blocks):
        if np.shape(b) not in ((m, m), () if m == 1 else None):
            raise ValueError(f"coefficient block at {k} has shape {np.shape(b)}")
    return np.array([np.reshape(b, (m, m)) for b in blocks], dtype=complex).reshape(shapes[0])


class NCPoly:
    """Immutable band-limited twisted polynomial with m x m block coefficients,
    held as a tuple of distinct integer keys and an (S, m, m) block stack."""

    __slots__ = ("twist", "m", "keys", "blocks")

    def __init__(self, twist: TwistMatrix, m: int = 1, coeffs=None, prune: bool = True):
        """coeffs maps keys to blocks, or is a pair of S distinct keys and their
        (S, m, m) stack; prune drops blocks at most PRUNE_REL times the top."""
        self.twist = twist
        self.m = int(m)
        if not isinstance(coeffs, tuple):
            coeffs = (list(coeffs or {}), list((coeffs or {}).values()))
        keys, stack, d = coeffs[0], _block_stack(*coeffs, self.m), twist.d
        for k in keys:
            if len(k) != d:
                raise ValueError(f"index {tuple(k)} has wrong dimension for the twist")
        keys = np.fromiter(itertools.chain.from_iterable(keys), np.intp, len(stack) * d)
        keys = keys.reshape(len(stack), d)
        if prune and len(stack):
            tops = np.abs(stack).max(axis=(1, 2))
            live = tops > PRUNE_REL * tops.max()
            keys, stack = keys[live], stack[live]
        self.keys = tuple(map(tuple, keys.tolist()))
        if len(set(self.keys)) < len(self.keys):
            raise ValueError("coefficient keys must be distinct")
        self.blocks = stack

    @property
    def coeffs(self) -> dict[tuple[int, ...], np.ndarray]:
        """The blocks keyed by their exponents, as views of the stack."""
        return dict(zip(self.keys, self.blocks))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, twist: TwistMatrix, m: int = 1) -> "NCPoly":
        return cls(twist, m, {})

    @classmethod
    def one(cls, twist: TwistMatrix, m: int = 1) -> "NCPoly":
        return cls(twist, m, {(0,) * twist.d: np.eye(m)})

    @classmethod
    def monomial(cls, twist: TwistMatrix, k, block=None, m: int = 1) -> "NCPoly":
        if block is None:
            block = np.eye(m)
        return cls(twist, m, {tuple(k): block})

    @classmethod
    def generator(cls, twist: TwistMatrix, axis: int, m: int = 1) -> "NCPoly":
        k = [0] * twist.d
        k[axis] = 1
        return cls.monomial(twist, k, m=m)

    # -- basic structure ---------------------------------------------------

    @property
    def d(self) -> int:
        return self.twist.d

    @property
    def band(self) -> int:
        return max((max(abs(c) for c in k) for k in self.keys), default=0)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.keys)

    def get(self, k) -> np.ndarray:
        return self.coeffs.get(tuple(k), np.zeros((self.m, self.m), dtype=complex))

    def mean_block(self) -> np.ndarray:
        return self.get((0,) * self.d)

    # -- linear arithmetic --------------------------------------------------

    def _require_compatible(self, other: "NCPoly"):
        if not self.twist.same(other.twist) or self.m != other.m:
            raise ValueError("twist/amplification mismatch")

    def _merge(self, other: "NCPoly", op) -> "NCPoly":
        """op(self, other) coefficientwise, for op = np.add or np.subtract."""
        self._require_compatible(other)
        pos = dict(zip(self.keys, itertools.count()))
        rows = [pos.setdefault(k, len(pos)) for k in other.keys]
        out = np.zeros((len(pos), self.m, self.m), dtype=complex)
        out[:len(self.keys)] = self.blocks
        out[rows] = op(out[rows], other.blocks)
        return NCPoly(self.twist, self.m, (list(pos), out))

    def __add__(self, other: "NCPoly") -> "NCPoly":
        return self._merge(other, np.add)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self._merge(other, np.subtract)

    def __rmul__(self, c) -> "NCPoly":
        if np.isscalar(c):
            return NCPoly(self.twist, self.m, (self.keys, c * self.blocks))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return multiply(self, other)
        if np.isscalar(other):
            return other * self
        return NotImplemented

    def scale_coeffs(self, fn: Callable[[tuple[int, ...]], complex]) -> "NCPoly":
        scale = np.array([fn(k) for k in self.keys], dtype=complex).reshape(-1, 1, 1)
        return NCPoly(self.twist, self.m, (self.keys, scale * self.blocks))


def multiply(f: NCPoly, g: NCPoly) -> NCPoly:
    """Normal-ordered product; coefficient of u^c is the phase-twisted convolution."""
    f._require_compatible(g)
    out: dict[tuple[int, ...], np.ndarray] = {}
    for a, fa in f.coeffs.items():
        for b, gb in g.coeffs.items():
            c = tuple(x + y for x, y in zip(a, b))
            term = normal_order_phase(a, b, f.twist) * (fa @ gb)
            out[c] = out.get(c, 0) + term
    return NCPoly(f.twist, f.m, out)


def adjoint(f: NCPoly) -> NCPoly:
    """Involution: block at -a is conj(normal_order_phase(-a, a)) times the
    conjugate transpose of the block at a."""
    return NCPoly(f.twist, f.m, _adjoint_coeffs(f, f.twist))


def project(f: NCPoly, mask: Callable[[Sequence[int]], bool]) -> NCPoly:
    keep = np.array([mask(k) for k in f.keys], dtype=bool)
    return NCPoly(f.twist, f.m, ([k for k, t in zip(f.keys, keep) if t], f.blocks[keep]))


def mean_zero(f: NCPoly) -> NCPoly:
    return project(f, any)


def l2_norm(f: NCPoly) -> float:
    """Normalized-trace L2 norm; normal-ordered monomials are orthonormal."""
    s = 0.0
    for b in f.blocks:
        s += float(np.vdot(b, b).real)
    return math.sqrt(s / f.m)


def apply_multiplier(f: NCPoly, phi: MultiplierSpec) -> NCPoly:
    """Coefficient-wise scaling by phi (reduced into phi's moduli)."""
    if len(phi.moduli) != f.d:
        raise ValueError("multiplier dimension does not match the polynomial")
    scale = np.array(phi.values_at(f.keys), dtype=complex).reshape(-1, 1, 1)
    return NCPoly(f.twist, f.m, (f.keys, scale * f.blocks))


def gradient_coeffs(
    xs: list[tuple[int, ...]], F: np.ndarray, ys: list[tuple[int, ...]], G: np.ndarray,
    psi: LengthFunction, twist: TwistMatrix,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Carre du champ rule: the coefficients of Gamma(f, g), the sum over x, y
    of K(x,y) (u^x)* fhat(x)* ghat(y) u^y, from stacks F of f's blocks over the
    keys xs and G of g's blocks over ys, shape (S, ..., m, m); the middle axes
    batch many elements.

    Returns the keys y - x in order of first occurrence over the pairs with
    K(x,y) != 0, x outer, and their blocks; each key adds its terms from 0 in
    that order.  The pairs, keys and weights come from _gradient_plan.
    """
    if psi.dim != twist.d:
        raise ValueError("length function dimension mismatch")
    if not xs or not ys:
        return [], np.zeros((0,) + np.broadcast_shapes(F.shape[1:], G.shape[1:]), dtype=complex)
    keys, I, J, slot, w = _gradient_plan(tuple(xs), tuple(ys), psi, twist.theta.tobytes())
    terms = np.swapaxes(F[I].conj(), -1, -2) @ G[J]
    terms *= w.reshape((-1,) + (1,) * (terms.ndim - 1))
    return list(keys), _mats.bin_sums(slot, terms, len(keys))


# At most 16 plans are kept, 40 B per live pair (a band-8 window in d = 2 has
# 83,521 pairs, at most 3.3 MB); the least recently used goes first.
@functools.lru_cache(maxsize=16)
def _gradient_plan(xs: tuple, ys: tuple, psi: LengthFunction, theta: bytes):
    """gradient_coeffs's index plan over the keys xs and ys under the twist of
    values theta (its bytes, not the object): the keys y - x in order of first
    occurrence, and over the pairs (x, y) with K(x,y) != 0, x outer, the
    indices I of x and J of y, the slot of y - x among the keys and the weight
    K(x,y) conj(phase(-x, x)) phase(-x, y), read-only."""
    twist = TwistMatrix(np.frombuffer(theta).reshape(math.isqrt(len(theta) // 8), -1))
    d = twist.d  # a twist of the same values
    both = xs + tuple(y for y in ys if y not in set(xs))
    pos = {k: i for i, k in enumerate(both)}
    K = gromov_entries_for_coords(psi, both)[np.ix_([pos[x] for x in xs], [pos[y] for y in ys])]
    X, Y = np.array(xs).reshape(-1, d), np.array(ys).reshape(-1, d)
    I, J = np.nonzero(K)  # x outer, y inner
    slots: dict[tuple[int, ...], int] = {}
    slot = np.array([slots.setdefault(k, len(slots)) for k in map(tuple, (Y[J] - X[I]).tolist())],
                    dtype=np.intp)
    w = K[I, J] * (normal_order_phase(-X, X, twist).conj()[I]
                   * normal_order_phase(-X[I], Y[J], twist))
    for a in (I, J, slot, w):
        a.setflags(write=False)
    return tuple(slots), I, J, slot, w


def _sorted_stack(f: NCPoly) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """f's keys in ascending order and the stack of their blocks."""
    order = sorted(range(len(f.keys)), key=f.keys.__getitem__)
    return [f.keys[i] for i in order], f.blocks[order]


def gradient_form(f: NCPoly, g: NCPoly, psi: LengthFunction) -> NCPoly:
    """Carre du champ Gamma(f, g) as a polynomial (gradient_coeffs over the
    supports of f and g).

    The normal-ordering phase of (u^x)* u^y is included, so embedding the
    result into any compatible matrix model matches the model-side gradient.
    """
    f._require_compatible(g)
    keys, gam = gradient_coeffs(*_sorted_stack(f), *_sorted_stack(g), psi, f.twist)
    return NCPoly(f.twist, f.m, (keys, gam))


# -- sup-norm oracles -------------------------------------------------------


class SymbolGrid:
    """Grid evaluation of the symbols of a twist by inverse FFT.

    A zero twist evaluates the m x m symbol on a uniform G^d grid; a rational
    twist theta = p/q (d = 2) lifts each coefficient to fhat(k) (x)
    u^{k0} v^{p k1} on C^m (x) C^q first.  Keys are reduced mod G, which is
    exact: u^k and u^(k mod G) agree on the grid points.  Any other twist has
    no oracle and raises ValueError.
    """

    def __init__(self, G: int, twist: TwistMatrix):
        if not twist.is_zero and (twist.rational is None or twist.d != 2):
            raise ValueError("no norm oracle available for this twist")
        self.G = G
        self.d = twist.d
        self._fiber = None
        self._corner = None
        if not twist.is_zero:
            from .matrixmodel import clock_shift  # matrixmodel imports this module

            p, q = twist.rational
            self._fiber = p, clock_shift(q)
            if G % q == 0:
                self._corner = G // q

    def values(self, keys, X: np.ndarray) -> np.ndarray:
        """sum_a X[a] exp(2 pi i k_a . t) at the G^d grid points t, shape
        (G^d, ...) for S keys k_a and X of shape (S, ...).  Keys equal mod G
        add in key order, as in the direct sum."""
        X = np.asarray(X)
        keys = np.array(keys, dtype=np.intp).reshape(-1, self.d) % self.G
        A = _mats.bin_sums(np.ravel_multi_index(tuple(keys.T), (self.G,) * self.d), X,
                           self.G**self.d)
        grid = A.reshape((self.G,) * self.d + X.shape[1:])
        np.fft.ifftn(grid, axes=tuple(range(self.d)), norm="forward", out=grid)
        return A

    def _lift(self, f: NCPoly) -> np.ndarray:
        """f's block stack, each block b at key k lifted to kron(b, u^{k0}
        v^{p k1}) on a rational fiber p/q by one broadcast product, entry by
        entry np.kron's b[a, c] * F[s, t]; the stack itself otherwise."""
        if self._fiber is None:
            return f.blocks
        p, model = self._fiber
        m, q, S = f.m, model.dim, len(f.keys)
        perm, phase = model.words([(k[0], p * k[1]) for k in f.keys])
        F = np.zeros((S, q, q), dtype=complex)
        F[np.arange(S)[:, None], perm, np.arange(q)] = phase
        return (f.blocks[:, :, None, :, None] * F[:, None, :, None, :]).reshape(S, m * q, m * q)

    def _domain(self, A: np.ndarray) -> np.ndarray:
        """The grid values a maximum over the grid needs.  For a rational
        fiber p/q with q | G, a 1/q shift along either axis conjugates the
        fiber symbol by a power of the q x q clock or shift, so its singular
        values and eigenvalues repeat and the (G/q)^2 corner holds them all;
        otherwise all G^d values."""
        if self._corner is None:
            return A
        c = self._corner
        return A.reshape((self.G, self.G) + A.shape[1:])[:c, :c]

    def norm(self, f: NCPoly) -> float:
        """sup over the grid of the largest singular value of f's symbol."""
        S = self._domain(self.values(f.keys, self._lift(f)))
        return float(_mats.batched_sigma_max(S).max())

    def lip_column(self, gam: NCPoly) -> float:
        """||Gamma^(1/2)|| for Gamma = Gamma(f, f): the top eigenvalue of its
        symbol, pointwise on the grid."""
        if not gam.keys:
            return 0.0
        H = self._domain(self.values(gam.keys, self._lift(gam)))
        return float(np.sqrt(max(_mats.batched_max_eig(H).max(), 0.0)))

    def lip_column_row(self, f: NCPoly, psi: LengthFunction) -> tuple[float, float]:
        """Column and row gradient norms of f, from Gamma(f, f) and Gamma(f*, f*)."""
        fs = adjoint(f)
        return (self.lip_column(gradient_form(f, f, psi)),
                self.lip_column(gradient_form(fs, fs, psi)))
