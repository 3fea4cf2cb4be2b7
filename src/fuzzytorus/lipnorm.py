"""Lipschitz seminorms from gradient forms, plus the Riesz empirical check.

The seminorm of x is max(||Gamma(x,x)^(1/2)||, ||Gamma(x*,x*)^(1/2)||),
evaluated either on the symbol side (lip_seminorm: Gamma's coefficients from
gradient_form, then the grid or rational-fiber oracle) or inside a concrete
matrix model from the coefficients of the embedded polynomial
(lip_seminorm_on_model: Gamma assembled through the PSD cocycle route
sum_i D_i* D_i).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _mats
from .lattice import LengthFunction, band_window, cocycle_rows_for_coords
from .matrixmodel import ModelElement, _band_gram, _embed_axes, _sqrt_top, embed, op_norm
from .ncpoly import (
    NCPoly,
    SymbolGrid,
    TwistMatrix,
    _adjoint_coeffs,
    adjoint,
    gradient_form,
    l2_norm,
)

__all__ = [
    "LipReport",
    "lip_seminorm",
    "lip_seminorm_on_model",
    "riesz_check",
    "lip_ball_sample",
    "draw",
]


@dataclass(frozen=True)
class LipReport:
    column: float
    row: float
    lip: float


def _model_psi(psi: LengthFunction, model, naxes: int) -> LengthFunction:
    mods = tuple([model.order] * naxes)
    if psi.moduli == mods:
        return psi
    if all(n is None for n in psi.moduli) and psi.dim == naxes:
        return psi.with_moduli(mods)
    raise ValueError("length function moduli do not match the model lattice")


@functools.lru_cache(maxsize=256)
def _cocycle_rows(psi: LengthFunction, support: tuple) -> np.ndarray:
    """Cocycle factor rows of psi over a support tuple, memoized for the
    256 most recent keys (supports here are small band windows)."""
    return cocycle_rows_for_coords(psi, support)


def _model_gamma(f: NCPoly, model, psi_n: LengthFunction, axes) -> np.ndarray:
    """Gamma(x, x) for x = embed(f, model) from f's coefficients, in
    _band_gram's lower band storage over model.band_order(f.m): with G the
    cocycle factor of the Gromov form over x's support and X_a = xhat(a) (x)
    W^a, the rows D_i = sum_a G[i,a] X_a satisfy Gamma = sum_i D_i* D_i.
    PSD by construction."""
    support = tuple(f.support())
    rows = _cocycle_rows(psi_n, support) if support else np.zeros((0, 0))
    return _band_gram(f, model, rows, axes)


def lip_seminorm(x: NCPoly, psi: LengthFunction, grid: Optional[int] = None) -> LipReport:
    """Symbol-side max of the column and row gradient norms of x, through the
    grid oracle of its twist on G = grid points per axis (default
    max(64, 16 band); at least 8 band)."""
    band = x.band
    G = max(64, 16 * max(band, 1)) if grid is None else int(grid)
    if G < 8 * band:
        raise ValueError(f"grid {G} too coarse for band {band}; need G >= 8*band")
    col, row = SymbolGrid(G, x.twist).lip_column_row(x, psi)
    return LipReport(column=col, row=row, lip=max(col, row))


def lip_seminorm_on_model(f: NCPoly, model, psi: LengthFunction) -> LipReport:
    """Model-side seminorm of embed(f, model) from f's coefficients, with psi
    transported to the model lattice.

    The row norm uses the adjoint under the model's phase table, which differs
    from the symbol twist at finite n (theta + 1/n on the fuzzy model), so it
    matches the matrix conjugate-transpose exactly.
    """
    axes = _embed_axes(f, model)
    psi_n = _model_psi(psi, model, len(axes))
    twist = TwistMatrix(model.phase_table[np.ix_(axes, axes)])
    adj = NCPoly(twist, f.m, _adjoint_coeffs(f, twist), prune=False)
    col = _sqrt_top(_model_gamma(f, model, psi_n, axes))
    row = _sqrt_top(_model_gamma(adj, model, psi_n, axes))
    return LipReport(column=col, row=row, lip=max(col, row))


@dataclass(frozen=True)
class RieszReport:
    lhs: float
    rhs_column: float
    rhs_row: float
    ratio: float


def riesz_check(
    x: NCPoly,
    psi: LengthFunction,
    p: float,
    model=None,
) -> RieszReport:
    """Compare ||A^(1/2) x||_p against the max of the two gradient p-norms.

    At p = 2 both sides equal (sum_k psi(k) |xhat(k)|_2^2)^(1/2) exactly; the
    right side is still computed through the assembled gradient form so the
    identity exercises the full bookkeeping path.  p = 4 and p = inf need a
    model to evaluate Schatten norms in.
    """
    mean = x.mean_block()
    scale = max((_mats.max_abs(b) for b in x.coeffs.values()), default=0.0)
    if _mats.max_abs(mean) > 1e-12 * max(scale, 1.0):
        raise ValueError("riesz_check expects a mean-zero element")
    half = x.scale_coeffs(lambda k: math.sqrt(psi.value(k)))
    gamma_c = gradient_form(x, x, psi)
    gamma_r = gradient_form(adjoint(x), adjoint(x), psi)
    if p == 2:
        lhs = l2_norm(half)
        rhs_c = math.sqrt(max(float(np.trace(gamma_c.mean_block()).real) / x.m, 0.0))
        rhs_r = math.sqrt(max(float(np.trace(gamma_r.mean_block()).real) / x.m, 0.0))
    else:
        if model is None:
            raise ValueError("p != 2 needs a matrix model for Schatten norms")
        from .matrixmodel import schatten_norm

        lhs = schatten_norm(embed(half, model), p)
        rhs_c = _psd_sqrt_schatten(embed(gamma_c, model), p)
        rhs_r = _psd_sqrt_schatten(embed(gamma_r, model), p)
    rhs = max(rhs_c, rhs_r)
    ratio = lhs / rhs if rhs > 0 else math.inf if lhs > 0 else 1.0
    return RieszReport(lhs=lhs, rhs_column=rhs_c, rhs_row=rhs_r, ratio=ratio)


def _psd_sqrt_schatten(g: ModelElement, p: float) -> float:
    eigs = np.linalg.eigvalsh(g.matrix)
    sv = np.sqrt(np.clip(eigs, 0.0, None))
    if p == np.inf:
        return float(sv.max(initial=0.0))
    return float((np.mean(sv**p)) ** (1.0 / p))


def draw(key, twist: TwistMatrix, coords, m: int) -> NCPoly:
    """i.i.d. complex Gaussian m x m blocks on coords from one draw of
    np.random.default_rng(key) (a seed, or a Generator that it returns as is):
    per key in coords order, a real then an imaginary block."""
    z = np.random.default_rng(key).standard_normal((len(coords), 2, m, m))
    return NCPoly(twist, m, (coords, z[:, 0] + 1j * z[:, 1]))


MAX_RETRIES = 8  # fresh draws per sample before a degenerate one is an error


def lip_ball_sample(
    R: float,
    band: int,
    count: int,
    seed: int,
    psi: LengthFunction,
    twist: TwistMatrix,
    model,
) -> list[NCPoly]:
    """Random self-adjoint elements of D_R = {L(x) <= 1, ||x|| <= R} inside
    the model, membership exact.

    Coefficient blocks are i.i.d. complex Gaussian scalars on the band window,
    symmetrized to f = (g + g*)/2, then rescaled by max(L(x), ||x||/R) with
    both measured in the model (L from f's coefficients).  Per-sample
    generators are seeded with (seed, index, attempt) so draws are
    order-independent.
    """
    if R <= 0:
        raise ValueError("R must be positive; D_0 has empty interior here")
    coords = band_window(band, twist.d)
    out = []
    for i in range(count):
        for attempt in range(MAX_RETRIES):
            f = draw((seed, i, attempt), twist, coords, 1)
            f = 0.5 * (f + adjoint(f))
            s = max(lip_seminorm_on_model(f, model, psi).lip, op_norm(f, model) / R)
            if s > 1e-12:
                out.append((1.0 / s) * f)
                break
        else:
            raise ValueError("degenerate draws exhausted the retry budget")
    return out
