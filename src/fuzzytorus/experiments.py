"""Experiment suite measuring how fast the matrix models converge.

Each ``run_*`` function consumes an ExperimentConfig and emits ReportRows.
Every experiment is deterministic under (config, seed): per-sample generators
are seeded with structured tuples and aggregation order is fixed, so reruns
produce byte-identical reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _mats
from .lattice import (
    _KINDS,
    LengthFunction,
    MultiplierSpec,
    band_window,
    build_smoothing_multiplier,
    product_multiplier,
)
from .lipnorm import _draw_blocks, _model_gamma, lip_ball_sample, lip_seminorm_on_model
from .matrixmodel import (
    DIMENSION_CAP,
    MatrixModel,
    admissible_sizes,
    clock_shift,
    embed,
    fourier_coefficients,
    fuzzy_generators,
    op_norm,
)
from .ncpoly import (
    NCPoly,
    SymbolGrid,
    TwistMatrix,
    apply_multiplier,
    gradient_coeffs,
    gradient_form,
    l2_norm,
    mean_zero,
)

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "EXPERIMENTS",
    "default_config",
    "run_experiment",
    "kendall_decreasing",
    "row_passes",
]


# Metrics listed here pass when value >= bound; everything else when value <= bound.
GE_METRICS = {
    "psd_min_eig/heat",
    "psd_min_eig/word",
    "coverage_fraction",
    "isometry_norm_trend_kendall",
    "isometry_lip_trend_kendall",
    "reach_trend_kendall",
}


# Gate of the rows that are exact up to roundoff (intertwining, monotone
# smoothing tails, PSD witnesses, bridge-reach's block checks).
EXACT_TOL = 1e-10


def row_passes(metric: str, value: float, bound: float) -> bool:
    if not math.isfinite(value):
        return False
    if metric in GE_METRICS:
        return value >= bound
    return value <= bound


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    n: Optional[int]
    metric: str
    value: float
    bound: float
    passed: bool

    @classmethod
    def make(cls, experiment, n, metric, value, bound) -> "ReportRow":
        return cls(experiment, n, metric, float(value), float(bound),
                   row_passes(metric, float(value), float(bound)))


# Points per axis of each grid-reading experiment's oracle when `grid` is None.
DEFAULT_GRID = {"isometry": 512, "bridge-reach": 128, "rate": 16384}
# Largest oracle array, G^d (m q)^2 entries at amplification m, fiber size q.
GRID_CAP = 2**24
# Experiments that sweep their whole n_schedule; the others fall back to a default.
NEEDS_SCHEDULE = ("intertwining", "rate", "isometry", "bridge-reach")
# Experiments that draw elements at every amplification in `amplifications`.
AMPLIFIED = ("isometry", "smoothing-tail", "bridge-reach")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the experiment registry; unused fields are ignored."""

    experiment: str
    seed: int
    psi: str = "heat"
    theta: Optional[tuple[int, int]] = None  # (p, m) rational; None = commutative
    band: int = 2
    amplifications: tuple[int, ...] = (1,)
    n_schedule: tuple[int, ...] = ()
    samples: int = 50
    lip_samples: int = 25
    R: float = 1.0
    eps: float = 0.25
    eps_multiplier: Optional[float] = None
    cutoffs: tuple[int, ...] = (2, 4, 8)
    sample_band: int = 1
    net_cap: int = 500_000
    grid: Optional[int] = None  # None: DEFAULT_GRID's size, for the experiments that read it
    lip_grid: int = 128

    def __post_init__(self):
        ns = tuple(self.n_schedule)
        if not ns and self.experiment in NEEDS_SCHEDULE:
            raise ValueError(f"n_schedule: {self.experiment} needs at least one n")
        if any(not 2 <= n <= DIMENSION_CAP for n in ns):
            raise ValueError(f"n_schedule: every n must lie in 2..{DIMENSION_CAP}")
        if any(b >= a for a, b in zip(ns[1:], ns[:-1])):
            raise ValueError("n schedule must be strictly increasing")
        if self.samples < 1:
            raise ValueError("samples: need at least one sample")
        if self.lip_samples < 1:
            raise ValueError("lip_samples: need at least one sample")
        if self.psi not in _KINDS:
            raise ValueError(f"psi: unknown length kind {self.psi!r}; expected one of {_KINDS}")
        if self.band < 0:
            raise ValueError("band: need band >= 0")
        if self.band < 1 and self.experiment in (*AMPLIFIED, "hp-ratio"):
            raise ValueError(f"band: {self.experiment} divides by norms or Lipschitz seminorms "
                             "of its draws, which are 0 at band 0; need band >= 1")
        if self.sample_band < 0:
            raise ValueError("sample_band: need sample_band >= 0")
        n = ns[-1] if ns else 64  # the one model of smoothing-tail and covering-net
        if self.experiment == "intertwining" and 2 * self.band > ns[0]:
            raise ValueError(f"band: intertwining needs band <= n/2 at every n; "
                             f"2 band = {2 * self.band} > n = {ns[0]}")
        if self.experiment == "bridge-reach" and 2 * self.band >= ns[0]:
            raise ValueError(f"band: bridge-reach pulls model elements back on the band "
                             f"window, which needs 2 band < n; 2 band = {2 * self.band} "
                             f">= n = {ns[0]}")
        if self.grid is not None and self.grid < 1:
            raise ValueError("grid: need a positive grid size")
        if self.grid is None and self.experiment in DEFAULT_GRID:
            object.__setattr__(self, "grid", DEFAULT_GRID[self.experiment])
        if self.experiment == "rate":
            bad = [n for n in ns if self.grid % n]
            if bad:
                raise ValueError(f"n_schedule: rate's oracle grid G = {self.grid} must contain "
                                 f"every n-grid as a subgrid; {bad} do not divide it")
        if self.experiment == "smoothing-tail" and 2 * self.band >= n:
            raise ValueError(f"band: sample band exceeds the model window; need 2 band < n = {n}")
        if self.experiment == "covering-net" and 2 * self.sample_band >= n:
            raise ValueError(f"sample_band: frequencies -{self.sample_band}..{self.sample_band} "
                             f"alias mod n = {n}; covering-net needs 2 * sample_band < n")
        if self.R < 0:
            raise ValueError("R: need R >= 0")
        if not self.eps > 0:
            raise ValueError("eps: need eps > 0")
        # isometry and bridge-reach read eps as a row bound; these two smooth with it
        if self.experiment == "covering-net" and self.eps >= 1:
            raise ValueError("eps: covering-net smooths with eps, which must lie in (0, 1)")
        if self.experiment == "smoothing-tail" and self.eps_multiplier is None and self.eps >= 2:
            raise ValueError("eps: smoothing-tail smooths with eps/2, which must lie in (0, 1)")
        if self.eps_multiplier is not None and not 0 < self.eps_multiplier < 1:
            raise ValueError("eps_multiplier: need 0 < eps_multiplier < 1")
        if not 1 <= self.net_cap <= 2_000_000:
            raise ValueError("net_cap: need 1 <= net_cap <= 2000000 (4 times the default)")
        if not self.amplifications or min(self.amplifications) < 1:
            raise ValueError("amplifications: need at least one, each >= 1")
        if not self.cutoffs:
            raise ValueError("cutoffs: need at least one cutoff")
        if self.lip_grid < 1:
            raise ValueError("lip_grid: need a positive grid size")
        if self.theta is None and self.experiment == "bridge-reach":
            raise ValueError("theta: bridge-reach needs a rational twist [p, m]")
        if self.theta is not None:
            if len(self.theta) != 2 or self.theta[1] < 1:
                raise ValueError("theta: expected [p, m] with m >= 1")
            p, m = self.theta
            if math.gcd(p, m) != 1:
                raise ValueError("theta: need gcd(p, m) = 1")
            if m > 1:
                top = max(ns, default=0)
                allowed = set(itertools.takewhile(lambda k: k <= top, admissible_sizes(m)))
                bad = [n for n in ns if n not in allowed]
                if bad:
                    raise ValueError(
                        f"schedule entries {bad} are not admissible sizes m^(k+1) for m={m}"
                    )
        if self.experiment in AMPLIFIED:
            # the largest matrix built: amplification x model dimension at the last n
            q = self.theta[1] if self.theta is not None and self.experiment != "smoothing-tail" else 1
            amp = max(self.amplifications)
            if amp * q * n > DIMENSION_CAP:
                raise ValueError(f"amplifications: amplification {amp} of the {q * n}-dimensional "
                                 f"model at n = {n} gives dimension {amp * q * n}, "
                                 f"above DIMENSION_CAP = {DIMENSION_CAP}")
        if self.experiment in DEFAULT_GRID:
            # rate fills G scalars; isometry and bridge-reach (AMPLIFIED) G^2 blocks of size amp q
            d, mq = (1, 1) if self.experiment == "rate" else (2, amp * q)
            lip = {"lip_grid": self.lip_grid} if self.experiment == "isometry" else {}
            for key, G in {"grid": self.grid, **lip}.items():
                if G**d * mq * mq > GRID_CAP:
                    raise ValueError(f"{key}: {G}^{d} grid points with {mq} x {mq} values each "
                                     f"give {G**d * mq * mq} entries, above GRID_CAP = {GRID_CAP}")


def kendall_decreasing(vals: Sequence[float]) -> float:
    """Kendall tau of the sequence against a strictly decreasing template."""
    n = len(vals)
    if n < 2:
        return 1.0
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            s += int(np.sign(vals[i] - vals[j]))
    return s / (n * (n - 1) / 2)


# ---------------------------------------------------------------------------
# intertwining
# ---------------------------------------------------------------------------


def run_intertwining(cfg: ExperimentConfig) -> list[ReportRow]:
    """Entrywise defect of Gamma^n(pi_n f, pi_n f) - pi_n Gamma(f, f), d = 1."""
    psi_inf = LengthFunction(cfg.psi, (None,))
    tw = TwistMatrix.zero(1)
    rows = []
    for n in cfg.n_schedule:
        model = clock_shift(n)
        psi_n = psi_inf.with_moduli((n,))
        order = model.band_order()  # Gamma's basis; the max over entries ignores it
        worst = 0.0
        for i in range(cfg.samples):
            rng = np.random.default_rng((cfg.seed, n, i))
            f = NCPoly(tw, 1, _draw_blocks(rng, band_window(cfg.band, 1), 1))
            lhs = _mats.hermitian_from_band(_model_gamma(f, model, psi_n, (0,)))
            rhs = embed(gradient_form(f, f, psi_inf), model).matrix[np.ix_(order, order)]
            worst = max(worst, _mats.max_abs(lhs - rhs))
        rows.append(ReportRow.make(cfg.experiment, n, "intertwining_defect", worst, EXACT_TOL))
    return rows


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def _scalar_grid_values(f: NCPoly, G: int) -> np.ndarray:
    """The scalar symbol of f (d = 1) at the G points j/G, one key at a time
    in key order."""
    t = np.arange(G) / G
    out = np.zeros(G, dtype=complex)
    for (k,), c in zip(f.keys, f.blocks[:, 0, 0]):
        out += c * np.exp(2j * np.pi * k * t)
    return out


def run_rate(cfg: ExperimentConfig) -> list[ReportRow]:
    """Norm and gradient-norm defects of the n-point restriction of a fixed
    trig polynomial, with the O(1/n) constant fitted from the sweep."""
    G = cfg.grid
    c = 1.0 / math.sqrt(2.0)
    psi_inf = LengthFunction(cfg.psi, (None,))
    f = NCPoly(TwistMatrix.zero(1), 1,
               ([(1,), (-1,)], [np.exp(-2j * np.pi * c), np.exp(2j * np.pi * c)]))
    fvals = np.abs(_scalar_grid_values(f, G))
    ref_norm = float(fvals.max())
    gvals = _scalar_grid_values(gradient_form(f, f, psi_inf), G).real
    ref_gamma = float(gvals.max())

    rows = []
    scaled = []
    scaled_gamma = []
    for n in cfg.n_schedule:
        step = G // n
        d_norm = ref_norm - float(fvals[::step].max())
        gn_vals = _scalar_grid_values(gradient_form(f, f, psi_inf.with_moduli((n,))), n).real
        d_gamma = ref_gamma - float(gn_vals.max())
        scaled.append(d_norm * n)
        scaled_gamma.append(d_gamma * n)
        rows.append(ReportRow.make(cfg.experiment, n, "norm_defect", d_norm, math.inf))
        rows.append(ReportRow.make(cfg.experiment, n, "norm_defect_negpart",
                                   max(0.0, -d_norm), 1e-12))
        rows.append(ReportRow.make(cfg.experiment, n, "norm_defect_scaled",
                                   d_norm * n, math.inf))
        rows.append(ReportRow.make(cfg.experiment, n, "gamma_defect", d_gamma, math.inf))
        rows.append(ReportRow.make(cfg.experiment, n, "gamma_defect_negpart",
                                   max(0.0, -d_gamma), 1e-12))
        rows.append(ReportRow.make(cfg.experiment, n, "gamma_defect_scaled",
                                   d_gamma * n, math.inf))
    half = len(cfg.n_schedule) // 2
    tail_min = min(scaled[half:]) if scaled[half:] else math.nan
    const = max(scaled)
    ratio = const / tail_min if tail_min > 0 else math.inf
    rows.append(ReportRow.make(cfg.experiment, None, "rate_constant", const, math.inf))
    rows.append(ReportRow.make(cfg.experiment, None, "rate_spread", ratio, math.inf))
    rows.append(ReportRow.make(cfg.experiment, None, "rate_constant_gamma",
                               max(scaled_gamma), math.inf))
    return rows


# ---------------------------------------------------------------------------
# isometry defect
# ---------------------------------------------------------------------------


def _model_for(cfg: ExperimentConfig, n: int) -> MatrixModel:
    if cfg.theta is None:
        return clock_shift(n)
    p, m = cfg.theta
    return fuzzy_generators(p, m, n)


def run_isometry_defect(cfg: ExperimentConfig) -> list[ReportRow]:
    """eps(n) = worst |norm ratio - 1| of coefficient transport, plus the
    matching Lipschitz-isometry defect on a smaller sample set."""
    models = [_model_for(cfg, n) for n in cfg.n_schedule]
    tw = models[0].symbol_twist
    psi_inf = LengthFunction(cfg.psi, (None, None))
    support = band_window(cfg.band, 2)
    oracle = SymbolGrid(cfg.grid, tw)
    lip_oracle = SymbolGrid(cfg.lip_grid, tw)

    draws = []
    for amp in cfg.amplifications:
        for i in range(cfg.samples):
            rng = np.random.default_rng((cfg.seed, amp, i))
            f = NCPoly(tw, amp, _draw_blocks(rng, support, amp))
            draws.append((amp, i, f, oracle.norm(f)))

    lip_draws = []
    for amp, i, f, _ in draws:
        if amp != cfg.amplifications[0] or i >= cfg.lip_samples:
            continue
        lip_draws.append((amp, f, max(lip_oracle.lip_column_row(f, psi_inf))))

    rows = []
    norm_defects = []
    lip_defects = []
    final_n = cfg.n_schedule[-1]
    for n, model in zip(cfg.n_schedule, models):
        worst = 0.0
        for amp, i, f, ref in draws:
            worst = max(worst, abs(op_norm(f, model) / ref - 1.0))
        norm_defects.append(worst)
        worst_lip = 0.0
        for amp, f, ref in lip_draws:
            ln = lip_seminorm_on_model(f, model, psi_inf).lip
            worst_lip = max(worst_lip, abs(ln / ref - 1.0))
        lip_defects.append(worst_lip)
        bound = cfg.eps if n == final_n else math.inf
        rows.append(ReportRow.make(cfg.experiment, n, "isometry_norm_defect", worst, bound))
        rows.append(ReportRow.make(cfg.experiment, n, "isometry_lip_defect",
                                   worst_lip, math.inf))
    rows.append(ReportRow.make(cfg.experiment, None, "isometry_norm_trend_kendall",
                               kendall_decreasing(norm_defects), 0.5))
    rows.append(ReportRow.make(cfg.experiment, None, "isometry_lip_trend_kendall",
                               kendall_decreasing(lip_defects), 0.5))
    return rows


# ---------------------------------------------------------------------------
# smoothing tail
# ---------------------------------------------------------------------------


def _product_smoother(psi_coord: LengthFunction, k_freq: int, eps: float) -> MultiplierSpec:
    k_val = psi_coord.coord_value(k_freq)
    part = build_smoothing_multiplier(psi_coord, k_val, eps)
    return product_multiplier([part, part])


def run_smoothing_tail(cfg: ExperimentConfig) -> list[ReportRow]:
    """sup over samples of ||x - T_phi x|| / (||x||_2 + L(x)) and the pure-Lip
    variant, per frequency cutoff; the sup is reported, monotone in the cutoff."""
    n = cfg.n_schedule[-1] if cfg.n_schedule else 64
    model = clock_shift(n)
    tw = TwistMatrix.zero(2)
    psi_n = LengthFunction(cfg.psi, (n, n))
    psi_coord = LengthFunction(cfg.psi, (n,))
    eps_part = cfg.eps_multiplier if cfg.eps_multiplier is not None else cfg.eps / 2

    sample_list = []
    for amp in cfg.amplifications:
        for i in range(cfg.samples):
            rng = np.random.default_rng((cfg.seed, amp, i))
            f = mean_zero(NCPoly(tw, amp, _draw_blocks(rng, band_window(cfg.band, 2), amp)))
            sample_list.append((f, l2_norm(f), lip_seminorm_on_model(f, model, psi_n).lip))

    rows = []
    prev1 = prev2 = None
    for k_freq in cfg.cutoffs:
        phi = _product_smoother(psi_coord, k_freq, eps_part)
        sup1 = 0.0
        sup2 = 0.0
        for f, l2, lip in sample_list:
            num = op_norm(f - apply_multiplier(f, phi), model)
            sup1 = max(sup1, num / (l2 + lip))
            sup2 = max(sup2, num / lip if lip > 0 else math.inf)
        rows.append(ReportRow.make(cfg.experiment, k_freq, "tail_ratio_l2lip", sup1, math.inf))
        rows.append(ReportRow.make(cfg.experiment, k_freq, "tail_ratio_lip", sup2, math.inf))
        rows.append(ReportRow.make(cfg.experiment, k_freq, "tail_target_gap",
                                   sup1 - cfg.eps, math.inf))
        if prev1 is not None:
            rows.append(ReportRow.make(cfg.experiment, k_freq, "tail_monotone_l2lip",
                                       sup1 - prev1, EXACT_TOL))
            rows.append(ReportRow.make(cfg.experiment, k_freq, "tail_monotone_lip",
                                       sup2 - prev2, EXACT_TOL))
        prev1, prev2 = sup1, sup2
    return rows


# ---------------------------------------------------------------------------
# PSD audit
# ---------------------------------------------------------------------------


def run_psd_audit(cfg: ExperimentConfig) -> list[ReportRow]:
    """Heat and word Gromov forms stay PSD on the schedule; the naive square
    length must produce a strictly negative witness somewhere in 4..16."""
    from .lattice import check_conditionally_negative

    rows = []
    ns = cfg.n_schedule or tuple(range(4, 65))
    for kind in ("heat", "word"):
        for n in ns:
            ok, witness = check_conditionally_negative(
                LengthFunction(kind, (n,)), tol=EXACT_TOL
            )
            rows.append(ReportRow.make(cfg.experiment, n, f"psd_min_eig/{kind}",
                                       witness, -EXACT_TOL))
    worst = math.inf
    for n in range(4, 17):
        _, witness = check_conditionally_negative(
            LengthFunction.naive_square((n,)), tol=EXACT_TOL
        )
        rows.append(ReportRow.make(cfg.experiment, n, "naive_min_eig", witness, math.inf))
        worst = min(worst, witness)
    rows.append(ReportRow.make(cfg.experiment, None, "naive_max_witness", worst, -EXACT_TOL))
    return rows


# ---------------------------------------------------------------------------
# covering net
# ---------------------------------------------------------------------------


# Grid cells per row block of the net: covering-net evaluates its net on a
# symbol grid this many values at a time (2,048 rows at G = 64).
NET_BLOCK_CELLS = 2**17


def _net_axis(limit: float, pitch: float) -> np.ndarray:
    m = int(math.floor(limit / pitch))
    return pitch * np.arange(-m, m + 1)


def _net_sup_distance(C: np.ndarray, grid: SymbolGrid, keys, yc: np.ndarray) -> float:
    """min_i max_j |grid.values(keys, C[i])[j] - grid.values(keys, yc)[j]|,
    the sup distance of the sample with coefficients yc to the net,
    evaluating only the rows that can attain it.

    With the grid's keys distinct mod its size, discrete Plancherel gives
    ||c||_2 <= ||grid.values(c)||_inf for every coefficient gap c.  So a row
    no farther than dj, the sup distance of the l2-nearest row, has an l2 gap
    of at most dj; the relative and absolute margins cover the rounding of
    the gaps and of the grid values.  The FFT transforms each column on its
    own, so the evaluated rows' distances are the floats a full scan
    computes, and the minimum is the same.
    """
    y_vals = grid.values(keys, yc)
    diff = C.view(np.float64) - yc.view(np.float64)
    gap2 = np.einsum("ij,ij->i", diff, diff)
    near = grid.values(keys, C[[int(gap2.argmin())]].T)[:, 0]
    dj = np.abs(near - y_vals).max()
    cut = dj * (1 + 1e-9) + 1e-12 * (1.0 + np.abs(yc).sum())
    (cand,) = np.nonzero(gap2 <= cut * cut)
    step = max(1, NET_BLOCK_CELLS // grid.G)
    return min(float(np.abs(grid.values(keys, C[cand[lo:lo + step]].T) - y_vals[:, None])
                     .max(axis=0).min())
               for lo in range(0, len(cand), step))


def run_covering_net(cfg: ExperimentConfig) -> list[ReportRow]:
    """Coefficient-lattice eps-net of the band-limited D_R ball, checked to
    cover model-side samples within (4R+2) eps (d = 1)."""
    n = cfg.n_schedule[-1] if cfg.n_schedule else 64
    b = cfg.sample_band
    R = cfg.R
    eps = cfg.eps
    if R == 0:
        # D_0 = {0}: the one-point net covers it at distance zero
        return [
            ReportRow.make(cfg.experiment, n, "coverage_fraction", 1.0, 1.0),
            ReportRow.make(cfg.experiment, n, "covering_radius", 0.0, 2 * eps),
            ReportRow.make(cfg.experiment, n, "hausdorff_bound", 0.0, 2 * eps),
            ReportRow.make(cfg.experiment, n, "net_size", 1, cfg.net_cap),
        ]
    model = clock_shift(n)
    tw = TwistMatrix.zero(1)
    psi_sym = LengthFunction(cfg.psi, (None,))
    psi_n = LengthFunction(cfg.psi, (n,))
    coords = band_window(b, 1)
    s = len(coords)

    pitch = eps / (2 * s)
    axes = [_net_axis(R + pitch, pitch)]
    for k in range(1, b + 1):
        lim = min(R, 1.0 / math.sqrt(2.0 * psi_sym.coord_value(k))) + pitch
        axes.append(_net_axis(lim, pitch))
        axes.append(_net_axis(lim, pitch))
    sizes = [len(a) for a in axes]
    count = int(np.prod([float(x) for x in sizes]))
    if count > cfg.net_cap:
        feasible = pitch * (count / cfg.net_cap) ** (1.0 / len(axes))
        raise ValueError(
            f"net budget exceeded: {count} candidates > cap {cfg.net_cap}; "
            f"a cap-sized net only achieves pitch {feasible:.4g} "
            f"(radius about {s * feasible / 2:.4g}) instead of {pitch:.4g}"
        )
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.reshape(-1) for m in mesh]
    C = np.zeros((count, s), dtype=complex)
    C[:, b] = flat[0]
    for k in range(1, b + 1):
        C[:, b + k] = flat[2 * k - 1] + 1j * flat[2 * k]
        C[:, b - k] = C[:, b + k].conj()
    del mesh, flat  # 8 B per net point and axis, not needed past C

    Gf = max(64, 16 * b, n)
    grid_f = SymbolGrid(Gf, tw)
    grid_n = SymbolGrid(n, tw)

    def lips(Cm: np.ndarray, psi: LengthFunction, grid: SymbolGrid) -> np.ndarray:
        # ||Gamma(f, f)||^(1/2) of every row f of a block, by gradient_form's rule
        stack = Cm.T[:, :, None, None]
        keys, gam = gradient_coeffs(coords, stack, coords, stack, psi, tw)
        return np.sqrt(np.maximum(grid.values(keys, gam[..., 0, 0]).real.max(axis=0), 0.0))

    # rescale each net point into D_R at Gf, then measure direction 2 (the
    # embedded net point against membership in D_R(M_n)); Gf >= n, so a block
    # of NET_BLOCK_CELLS // Gf rows bounds both grids' values
    step = max(1, NET_BLOCK_CELLS // Gf)
    d2 = 0.0
    for lo in range(0, count, step):
        Cb = C[lo:lo + step]
        norms = np.abs(grid_f.values(coords, Cb.T)).max(axis=0)
        Cb /= np.maximum(1.0, np.maximum(lips(Cb, psi_sym, grid_f), norms / R))[:, None]
        norms_n = np.abs(grid_n.values(coords, Cb.T)).max(axis=0)
        sig2 = np.maximum(1.0, np.maximum(lips(Cb, psi_n, grid_n), norms_n / R))
        d2 = max(d2, float(((1.0 - 1.0 / sig2) * norms_n).max()))

    k_val = psi_n.coord_value(1)
    phi = build_smoothing_multiplier(psi_n, k_val, eps)
    samples = lip_ball_sample(R, b, cfg.samples, cfg.seed, psi_n, tw, model)
    radius = 0.0
    covered = 0
    resid = 0.0
    for f in samples:
        yc = np.zeros(s, dtype=complex)
        yc[[coords.index(k) for k in f.keys]] = f.blocks[:, 0, 0]
        dist = _net_sup_distance(C, grid_n, coords, yc)
        radius = max(radius, dist)
        if dist <= (4 * R + 2) * eps:
            covered += 1
        resid = max(resid, op_norm(f - apply_multiplier(f, phi), model))

    rows = [
        ReportRow.make(cfg.experiment, n, "coverage_fraction",
                       covered / len(samples), 1.0),
        ReportRow.make(cfg.experiment, n, "covering_radius", radius, (4 * R + 2) * eps),
        ReportRow.make(cfg.experiment, n, "hausdorff_bound",
                       max(radius, d2), (4 * R + 2) * eps),
        ReportRow.make(cfg.experiment, n, "net_size", count, cfg.net_cap),
        ReportRow.make(cfg.experiment, n, "smoothing_residual_max", resid, math.inf),
    ]
    return rows


# ---------------------------------------------------------------------------
# bridge reach
# ---------------------------------------------------------------------------


def run_bridge_reach(cfg: ExperimentConfig) -> list[ReportRow]:
    """Two-direction transfer of unit-Lip elements between the symbol algebra
    and the fuzzy models; reach is the norm-mismatch surrogate plus the
    smoothing residual, and the block derivation is checked on a = b."""
    models = [_model_for(cfg, n) for n in cfg.n_schedule]
    tw = models[0].symbol_twist
    psi_inf = LengthFunction(cfg.psi, (None, None))
    psi_coord_inf = LengthFunction(cfg.psi, (None,))
    support_nz = [c for c in band_window(cfg.band, 2) if any(c)]
    # one grid for the norms of f and for Gamma(f, f)
    oracle = SymbolGrid(cfg.grid, tw)

    eps_part = cfg.eps_multiplier if cfg.eps_multiplier is not None else 0.01
    phi = _product_smoother(psi_coord_inf, cfg.band, eps_part)

    # symbol-side unit-Lip samples, shared across n
    a_side = []
    for amp in cfg.amplifications:
        for i in range(cfg.samples):
            rng = np.random.default_rng((cfg.seed, 1, amp, i))
            f = NCPoly(tw, amp, _draw_blocks(rng, support_nz, amp))
            lam = max(oracle.lip_column_row(f, psi_inf))
            if lam <= 1e-9:
                continue
            a = (1.0 / lam) * f
            a_phi = apply_multiplier(a, phi)
            a_side.append(
                (amp, a_phi,
                 oracle.norm(a_phi),
                 oracle.norm(a - a_phi))
            )

    rows = []
    reaches = []
    final_n = cfg.n_schedule[-1]
    delta_third = 0.0
    delta_consistency = 0.0
    delta_norm_max = 0.0
    for n, model in zip(cfg.n_schedule, models):
        psi_n = psi_inf.with_moduli((n, n))
        worst = 0.0
        for amp, a_phi, norm_aphi, resid in a_side:
            ln = lip_seminorm_on_model(a_phi, model, psi_n).lip
            scale = max(1.0, ln)
            mismatch = abs(norm_aphi - op_norm(a_phi, model) / scale)
            worst = max(worst, mismatch + resid)
            delta_norm_max = max(
                delta_norm_max, max(1.0, ln / scale, (mismatch + resid) / cfg.eps)
            )
        for amp in cfg.amplifications:
            for i in range(cfg.samples):
                rng = np.random.default_rng((cfg.seed, 2, n, amp, i))
                f = NCPoly(tw, amp, _draw_blocks(rng, support_nz, amp))
                ln = lip_seminorm_on_model(f, model, psi_n).lip
                if ln <= 1e-9:
                    continue
                b = (1.0 / ln) * f
                b_phi = apply_multiplier(b, phi)
                resid = op_norm(b - b_phi, model)
                lam = max(oracle.lip_column_row(b_phi, psi_inf))
                scale = max(1.0, lam)
                mismatch = abs(oracle.norm(b_phi) / scale
                               - op_norm(b_phi, model))
                worst = max(worst, mismatch + resid)
        reaches.append(worst)
        bound = cfg.eps if n == final_n else math.inf
        rows.append(ReportRow.make(cfg.experiment, n, "reach", worst, bound))

        # diagonal delta-block checks: transfer of a model element onto itself
        rng = np.random.default_rng((cfg.seed, 3, n))
        f = NCPoly(tw, 1, _draw_blocks(rng, support_nz, 1))
        ln = lip_seminorm_on_model(f, model, psi_n).lip
        b = (1.0 / ln) * f
        pulled = fourier_coefficients(embed(b, model), cfg.band)
        third = op_norm(b - pulled, model) / cfg.eps
        l1 = lip_seminorm_on_model(b, model, psi_n).lip
        l2_ = lip_seminorm_on_model(pulled, model, psi_n).lip
        delta_third = max(delta_third, third)
        delta_consistency = max(
            delta_consistency, abs(max(l1, l2_, third) - max(l1, l2_))
        )
    rows.append(ReportRow.make(cfg.experiment, None, "reach_trend_kendall",
                               kendall_decreasing(reaches), 0.5))
    rows.append(ReportRow.make(cfg.experiment, None, "delta_diag_third_block",
                               delta_third, EXACT_TOL))
    rows.append(ReportRow.make(cfg.experiment, None, "delta_norm_consistency",
                               delta_consistency, EXACT_TOL))
    rows.append(ReportRow.make(cfg.experiment, None, "delta_block_norm",
                               delta_norm_max, math.inf))
    return rows


# ---------------------------------------------------------------------------
# heat vs word fractional-power equivalence (recorded, no threshold)
# ---------------------------------------------------------------------------


def run_hp_ratio(cfg: ExperimentConfig) -> list[ReportRow]:
    """Empirical range of ||A^(beta/2) x||_p / ||B^beta x||_p with A the heat
    and B the word generator, p in {2, 4}.  The equivalence constants are not
    pinned anywhere, so the rows are informational."""
    from .matrixmodel import schatten_norm

    n = cfg.n_schedule[-1] if cfg.n_schedule else 64
    model = clock_shift(n)
    heat = LengthFunction("heat", (n, n))
    word = LengthFunction("word", (n, n))
    beta = 0.5
    tw = TwistMatrix.zero(2)
    window = band_window(cfg.band, 2)
    heat_w = {k: float(v) ** (beta / 2) for k, v in zip(window, heat.values(window))}
    word_w = {k: float(v) ** beta for k, v in zip(window, word.values(window))}
    rows = []
    for p in (2, 4):
        lo, hi = math.inf, 0.0
        for i in range(cfg.samples):
            rng = np.random.default_rng((cfg.seed, p, i))
            f = mean_zero(NCPoly(tw, 1, _draw_blocks(rng, window, 1)))
            a = f.scale_coeffs(heat_w.__getitem__)
            b = f.scale_coeffs(word_w.__getitem__)
            ratio = schatten_norm(embed(a, model), p) / schatten_norm(embed(b, model), p)
            lo, hi = min(lo, ratio), max(hi, ratio)
        rows.append(ReportRow.make(cfg.experiment, p, "hp_ratio_min", lo, math.inf))
        rows.append(ReportRow.make(cfg.experiment, p, "hp_ratio_max", hi, math.inf))
    return rows


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[[ExperimentConfig], list[ReportRow]]] = {
    "intertwining": run_intertwining,
    "rate": run_rate,
    "isometry": run_isometry_defect,
    "smoothing-tail": run_smoothing_tail,
    "psd-audit": run_psd_audit,
    "covering-net": run_covering_net,
    "bridge-reach": run_bridge_reach,
    "hp-ratio": run_hp_ratio,
}

_DEFAULTS: dict[str, dict] = {
    "intertwining": dict(psi="word", band=4, n_schedule=(16, 32), samples=50),
    "rate": dict(psi="heat", n_schedule=(16, 32, 64, 128, 256, 512, 1024)),
    "isometry": dict(psi="heat", band=2, amplifications=(1, 2),
                     n_schedule=(16, 32, 64, 128, 256), samples=100,
                     lip_samples=25, eps=0.05),
    "smoothing-tail": dict(psi="heat", band=8, n_schedule=(64,), samples=200,
                           cutoffs=(2, 4, 8), eps=0.25),
    "psd-audit": dict(n_schedule=tuple(range(4, 65))),
    "covering-net": dict(psi="heat", n_schedule=(64,), samples=500, R=1.0,
                         eps=0.25, sample_band=1),
    "bridge-reach": dict(psi="heat", theta=(1, 2), band=2,
                         n_schedule=(8, 16, 32, 64, 128), samples=8,
                         amplifications=(1, 2), eps=0.1, eps_multiplier=0.01),
    "hp-ratio": dict(psi="heat", band=4, n_schedule=(64,), samples=40),
}


def default_config(experiment: str, seed: int = 20240901) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment id {experiment!r}")
    return ExperimentConfig(experiment=experiment, seed=seed, **_DEFAULTS[experiment])


def run_experiment(cfg: ExperimentConfig) -> list[ReportRow]:
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment id {cfg.experiment!r}")
    return EXPERIMENTS[cfg.experiment](cfg)
