"""Experiment suite measuring how fast the matrix models converge.

Each ``run_*`` function consumes an ExperimentConfig and emits ReportRows.
Every experiment is deterministic under (config, seed): per-sample generators
are seeded with structured tuples and aggregation order is fixed, so reruns
produce byte-identical reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence, get_args, get_type_hints

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
from .lipnorm import _model_gamma, draw, lip_ball_sample, lip_seminorm_on_model
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


# Largest oracle array, G^d (m q)^2 entries at amplification m, fiber size q.
GRID_CAP = 2**24

# What each experiment reads, with its defaults: every field its run_* function
# reads, and no other.  A manifest entry or ExperimentConfig call may set these
# fields only.
_DEFAULTS: dict[str, dict] = {
    "intertwining": dict(psi="word", band=4, n_schedule=(16, 32), samples=50),
    "rate": dict(psi="heat", n_schedule=(16, 32, 64, 128, 256, 512, 1024), grid=16384),
    "isometry": dict(psi="heat", theta=None, band=2, amplifications=(1, 2),
                     n_schedule=(16, 32, 64, 128, 256), samples=100,
                     lip_samples=25, eps=0.05, grid=512, lip_grid=128),
    "smoothing-tail": dict(psi="heat", band=8, amplifications=(1,), n_schedule=(64,),
                           samples=200, cutoffs=(2, 4, 8), eps=0.25),
    "psd-audit": dict(n_schedule=tuple(range(4, 65))),
    "covering-net": dict(psi="heat", n_schedule=(64,), samples=500, R=1.0,
                         eps=0.25, sample_band=1, net_cap=500_000),
    "bridge-reach": dict(psi="heat", theta=(1, 2), band=2,
                         n_schedule=(8, 16, 32, 64, 128), samples=8,
                         amplifications=(1, 2), eps=0.1, eps_multiplier=0.01, grid=128),
    # psi is heat only: hp-ratio compares the heat and the word length itself
    "hp-ratio": dict(psi="heat", band=4, n_schedule=(64,), samples=40),
}

# The range of each field, checked in the experiments that read it.
_RANGES: dict[str, tuple[Callable, str]] = {
    "psi": (lambda v: v in _KINDS, f"expected one of {_KINDS}"),
    "band": (lambda v: v >= 0, "need band >= 0"),
    "amplifications": (lambda v: len(v) > 0 and min(v) >= 1, "need at least one, each >= 1"),
    "samples": (lambda v: v >= 1, "need at least one sample"),
    "lip_samples": (lambda v: v >= 1, "need at least one sample"),
    "R": (lambda v: v > 0, "need R > 0"),
    "eps": (lambda v: v > 0, "need eps > 0"),
    "eps_multiplier": (lambda v: 0 < v < 1, "need 0 < eps_multiplier < 1"),
    "cutoffs": (lambda v: len(v) > 0 and v[0] >= 1 and all(a < b for a, b in zip(v, v[1:])),
                "need at least one cutoff, each >= 1, strictly increasing"),
    "sample_band": (lambda v: v >= 0, "need sample_band >= 0"),
    "net_cap": (lambda v: 1 <= v <= 2_000_000, "need 1 <= net_cap <= 2000000 (4 x the default)"),
    "grid": (lambda v: v >= 1, "need a positive grid size"),
    "lip_grid": (lambda v: v >= 1, "need a positive grid size"),
}


# The fields given as JSON lists of integers, kept as tuples.
_TUPLE_FIELDS = {"amplifications", "n_schedule", "cutoffs", "theta"}


def _is_a(value, kind: type) -> bool:
    """JSON type check: an int is also a float, a bool is neither."""
    kinds = (int, float) if kind is float else kind
    return not isinstance(value, bool) and isinstance(value, kinds)


# The default of every ExperimentConfig field.  It is not None, because
# theta = None is a value (the commutative model).
_UNSET = type("_Unset", (), {"__repr__": lambda self: "<unset>"})()


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's inputs.  A field left unset takes the experiment's
    default from _DEFAULTS, and setting a field the experiment does not read
    is an error; the fields it does not read stay unset.  A set field must
    pass _typed's JSON type check, and the seed must be a non-negative int."""

    experiment: str
    seed: int
    psi: str = _UNSET
    theta: Optional[tuple[int, int]] = _UNSET  # (p, m) rational; None = commutative
    band: int = _UNSET
    amplifications: tuple[int, ...] = _UNSET
    n_schedule: tuple[int, ...] = _UNSET
    samples: int = _UNSET
    lip_samples: int = _UNSET
    R: float = _UNSET
    eps: float = _UNSET
    eps_multiplier: float = _UNSET
    cutoffs: tuple[int, ...] = _UNSET
    sample_band: int = _UNSET
    net_cap: int = _UNSET
    grid: int = _UNSET
    lip_grid: int = _UNSET

    def __post_init__(self):
        e = self.experiment
        if e not in _DEFAULTS:
            raise ValueError(f"unknown experiment id {e!r}")
        if not _is_a(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed: expected a non-negative integer, got {self.seed!r}")
        reads = _DEFAULTS[e]
        for f in fields(self)[2:]:
            value = getattr(self, f.name)
            if value is not _UNSET and f.name not in reads:
                raise ValueError(f"{f.name}: unknown configuration key for {e}")
            object.__setattr__(self, f.name, reads.get(f.name, _UNSET) if value is _UNSET
                               else _typed(f.name, value))
        ns = tuple(self.n_schedule)
        if not ns:
            raise ValueError(f"n_schedule: {e} needs at least one n")
        if any(not 2 <= n <= DIMENSION_CAP for n in ns):
            raise ValueError(f"n_schedule: every n must lie in 2..{DIMENSION_CAP}")
        if any(b >= a for a, b in zip(ns[1:], ns[:-1])):
            raise ValueError(f"n_schedule: must be strictly increasing, got {list(ns)}")
        n = ns[-1]
        if e in ("smoothing-tail", "covering-net", "hp-ratio") and len(ns) > 1:
            raise ValueError(f"n_schedule: {e} builds one model and needs exactly one n, "
                             f"got {list(ns)}")
        for key, (ok, need) in _RANGES.items():
            if key in reads and not ok(getattr(self, key)):
                raise ValueError(f"{key}: {need}, got {getattr(self, key)!r}")
        if e == "hp-ratio" and self.psi != "heat":
            raise ValueError(f"psi: hp-ratio compares the heat and the word length; "
                             f"need psi = 'heat', got {self.psi!r}")
        if e != "intertwining" and "band" in reads and self.band < 1:
            raise ValueError(f"band: {e} divides by norms or Lipschitz seminorms "
                             "of its draws, which are 0 at band 0; need band >= 1")
        if e == "intertwining" and 2 * self.band > ns[0]:
            raise ValueError(f"band: intertwining needs band <= n/2 at every n; "
                             f"2 band = {2 * self.band} > n = {ns[0]}")
        if e == "bridge-reach" and 2 * self.band >= ns[0]:
            raise ValueError(f"band: bridge-reach pulls model elements back on the band "
                             f"window, which needs 2 band < n; 2 band = {2 * self.band} "
                             f">= n = {ns[0]}")
        if e == "rate":
            bad = [n for n in ns if self.grid % n]
            if bad:
                raise ValueError(f"n_schedule: rate's oracle grid G = {self.grid} must contain "
                                 f"every n-grid as a subgrid; {bad} do not divide it")
        if e == "smoothing-tail" and 2 * self.band >= n:
            raise ValueError(f"band: sample band exceeds the model window; need 2 band < n = {n}")
        if e == "smoothing-tail" and 2 * self.cutoffs[-1] > n:
            raise ValueError(f"cutoffs: cutoff {self.cutoffs[-1]} aliases mod n = {n}; "
                             "need every cutoff <= n/2")
        if e == "covering-net" and 2 * self.sample_band >= n:
            raise ValueError(f"sample_band: frequencies -{self.sample_band}..{self.sample_band} "
                             f"alias mod n = {n}; covering-net needs 2 * sample_band < n")
        # isometry and bridge-reach read eps as a row bound; these two smooth with it
        if e == "covering-net" and self.eps >= 1:
            raise ValueError("eps: covering-net smooths with eps, which must lie in (0, 1)")
        if e == "smoothing-tail" and self.eps >= 2:
            raise ValueError("eps: smoothing-tail smooths with eps/2, which must lie in (0, 1)")
        if e == "bridge-reach" and self.theta is None:
            raise ValueError("theta: bridge-reach needs a rational twist [p, m]")
        q = 1  # the fiber size of the model
        if "theta" in reads and self.theta is not None:
            if len(self.theta) != 2 or self.theta[1] < 1:
                raise ValueError("theta: expected [p, m] with m >= 1")
            p, q = self.theta
            if math.gcd(p, q) != 1:
                raise ValueError("theta: need gcd(p, m) = 1")
            if q > 1:
                allowed = set(itertools.takewhile(lambda k: k <= n, admissible_sizes(q)))
                bad = [n for n in ns if n not in allowed]
                if bad:
                    raise ValueError(f"n_schedule: schedule entries {bad} are not "
                                     f"admissible sizes m^(k+1) for m={q}")
        amp = max(self.amplifications) if "amplifications" in reads else 1
        if amp * q * n > DIMENSION_CAP:
            # the largest matrix built: amplification x model dimension at the last n
            raise ValueError(f"amplifications: amplification {amp} of the {q * n}-dimensional "
                             f"model at n = {n} gives dimension {amp * q * n}, "
                             f"above DIMENSION_CAP = {DIMENSION_CAP}")
        # rate fills G scalars; isometry and bridge-reach G^2 blocks of size amp q
        d, mq = (1, 1) if e == "rate" else (2, amp * q)
        for key in ("grid", "lip_grid"):
            G = getattr(self, key)
            if key in reads and G**d * mq * mq > GRID_CAP:
                raise ValueError(f"{key}: {G}^{d} grid points with {mq} x {mq} values each "
                                 f"give {G**d * mq * mq} entries, above GRID_CAP = {GRID_CAP}")


_HINTS = get_type_hints(ExperimentConfig)


def _typed(name: str, value):
    """A set field's value after its JSON type check (_is_a against the
    field's type): None where the field is Optional, a list as a tuple."""
    kinds = get_args(_HINTS[name]) or (_HINTS[name],)  # Optional[X] -> (X, None)
    if value is None and type(None) in kinds:
        return None
    if name in _TUPLE_FIELDS:
        if not isinstance(value, (list, tuple)) or not all(_is_a(v, int) for v in value):
            raise ValueError(f"{name}: expected a list of integers")
        return tuple(value)
    if not _is_a(value, kinds[0]):
        raise ValueError(f"{name}: expected {kinds[0].__name__}, got {type(value).__name__}")
    return value


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


class ConfigError(ValueError):
    """'<key>: <why>' for a config value that passed its checks but not a run."""


def _model_for(cfg: ExperimentConfig, n: int) -> MatrixModel:
    """Every experiment's model at n: fuzzy_generators(p, m, n) for theta =
    (p, m), else clock_shift(n); a size it rejects is an n_schedule error."""
    make, args = ((clock_shift, (n,)) if cfg.theta in (None, _UNSET)
                  else (fuzzy_generators, (*cfg.theta, n)))
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"n_schedule: {make.__name__}({', '.join(map(str, args))}) "
                          f"rejected: {exc}") from exc


# ---------------------------------------------------------------------------
# intertwining
# ---------------------------------------------------------------------------


def run_intertwining(cfg: ExperimentConfig) -> list[ReportRow]:
    """Entrywise defect of Gamma^n(pi_n f, pi_n f) - pi_n Gamma(f, f), d = 1."""
    psi_inf = LengthFunction(cfg.psi, (None,))
    tw = TwistMatrix.zero(1)
    rows = []
    for n in cfg.n_schedule:
        model = _model_for(cfg, n)
        psi_n = psi_inf.with_moduli((n,))
        order = model.band_order()  # Gamma's basis; the max over entries ignores it
        worst = 0.0
        for i in range(cfg.samples):
            f = draw((cfg.seed, n, i), tw, band_window(cfg.band, 1), 1)
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
            f = draw((cfg.seed, amp, i), tw, support, amp)
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
    (n,) = cfg.n_schedule
    model = _model_for(cfg, n)
    tw = TwistMatrix.zero(2)
    psi_n = LengthFunction(cfg.psi, (n, n))
    psi_coord = LengthFunction(cfg.psi, (n,))

    sample_list = []
    for amp in cfg.amplifications:
        for i in range(cfg.samples):
            f = mean_zero(draw((cfg.seed, amp, i), tw, band_window(cfg.band, 2), amp))
            sample_list.append((f, l2_norm(f), lip_seminorm_on_model(f, model, psi_n).lip))

    rows = []
    prev1 = prev2 = None
    for k_freq in cfg.cutoffs:
        phi = _product_smoother(psi_coord, k_freq, cfg.eps / 2)
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
    for kind in ("heat", "word"):
        for n in cfg.n_schedule:
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


# Grid cells per row block: covering-net evaluates the mean-zero sublattice of
# its net and a sample's candidate rows on a symbol grid this many values at a
# time (2,048 rows at G = 64).
NET_BLOCK_CELLS = 2**17


def _net_axis(limit: float, pitch: float) -> np.ndarray:
    m = int(math.floor(limit / pitch))
    return pitch * np.arange(-m, m + 1)


def _net_points(axes: list[np.ndarray]) -> np.ndarray:
    """The product lattice of self-adjoint net points, one row of coefficients
    over band_window(b, 1) per point: the mean from axes[0], outermost, and
    the real and imaginary parts of coefficient k from axes[2k - 1] and
    axes[2k], written straight into the rows."""
    b = len(axes) // 2
    mesh = np.ix_(*axes)
    C = np.zeros(tuple(len(a) for a in axes) + (2 * b + 1,), dtype=complex)
    C[..., b] = mesh[0]
    for k in range(1, b + 1):
        C[..., b + k].real = mesh[2 * k - 1]
        C[..., b + k].imag = mesh[2 * k]
        np.conjugate(C[..., b + k], out=C[..., b - k])
    return C.reshape(-1, 2 * b + 1)


def _net_sup_distance(C: np.ndarray, norms: np.ndarray, grid: SymbolGrid, keys,
                      yc: np.ndarray) -> float:
    """min_i max_j |grid.values(keys, C[i])[j] - grid.values(keys, yc)[j]|,
    the sup distance of the sample with coefficients yc to the net, with
    norms[i] = ||C_i||^2, evaluating only the rows that can attain it.

    With the grid's keys distinct mod its size, discrete Plancherel gives
    ||c||_2 <= ||grid.values(c)||_inf for every coefficient gap c.  So the
    minimising row is within dj, the sup distance of any one row, in l2; the
    cut's relative and absolute margins cover dj's rounding.  The squared
    gaps ||C_i||^2 - 2 <C_i, y> + ||y||^2 (one matvec) err by below 2e-15
    (||C_i||^2 + ||y||^2), as |2 <C_i, y>| is at most that, and the cut's
    slack of 1e-13 (max ||C_i||^2 + ||y||^2) keeps the minimising row.  The
    FFT transforms each column on its own, so the passing rows' distances
    are the floats a full scan computes, and the minimum is the same.
    """
    y_vals = grid.values(keys, yc)
    y = yc.view(np.float64)
    y2 = float(y @ y)
    gap2 = np.matmul(C.view(np.float64), -2.0 * y)  # -2 scales exactly
    gap2 += norms
    gap2 += y2
    near = grid.values(keys, C[[int(gap2.argmin())]].T)[:, 0]
    dj = np.abs(near - y_vals).max()
    cut = dj * (1 + 1e-9) + 1e-12 * (1.0 + np.abs(yc).sum())
    (cand,) = np.nonzero(gap2 <= cut * cut + 1e-13 * (norms.max() + y2))
    step = max(1, NET_BLOCK_CELLS // grid.G)
    return min(float(np.abs(grid.values(keys, C[cand[lo:lo + step]].T) - y_vals[:, None])
                     .max(axis=0).min())
               for lo in range(0, len(cand), step))


def _net_extent(Z: np.ndarray, keys, grid: SymbolGrid, psi: LengthFunction) -> np.ndarray:
    """Rows (top, low, lip) over the net points z = Z[j] of a self-adjoint
    net: the largest and smallest real symbol value of z on the grid and
    ||Gamma(z, z)||^(1/2) by gradient_form's rule, a block of rows at a time."""
    step = max(1, NET_BLOCK_CELLS // grid.G)
    out = np.empty((3, len(Z)))
    for lo in range(0, len(Z), step):
        Zb = Z[lo:lo + step]
        w = grid.values(keys, Zb.T).real  # the imaginary parts are rounding
        stack = Zb.T[:, :, None, None]
        gkeys, gam = gradient_coeffs(keys, stack, keys, stack, psi, TwistMatrix.zero(1))
        out[0, lo:lo + step] = w.max(axis=0)
        out[1, lo:lo + step] = w.min(axis=0)
        out[2, lo:lo + step] = np.sqrt(np.maximum(
            grid.values(gkeys, gam[..., 0, 0]).real.max(axis=0), 0.0))
    return out


def _net_rescale(C: np.ndarray, means: np.ndarray, keys, R: float,
                 grid_f: SymbolGrid, psi_f: LengthFunction,
                 grid_n: SymbolGrid, psi_n: LengthFunction) -> float:
    """Divide each net point x = C[i] in place by its D_R scale at grid_f,
    max(1, ||Gamma(x, x)||^(1/2), ||x|| / R), and return direction 2's
    d2 = max over x of (1 - 1/sigma) ||x||, with x rescaled and sigma its
    scale at grid_n (the embedded point against membership in D_R(M_n)).

    The net is the product of the mean axis `means`, outermost, with a
    mean-zero sublattice of J points: row i J + j is means[i] + z_j.  Gamma
    vanishes on constants (K(0, y) = K(x, 0) = 0, so the mean coefficient
    enters no live pair), a real shift c0 moves the sup norm to
    max(c0 + top, -(c0 + low)), and both scale as 1/sigma; so each grid
    evaluates the J sublattice points once.
    """
    mean = keys.index((0,))
    Cm = C.reshape(len(means), -1, C.shape[1])
    Z = Cm[0].copy()
    Z[:, mean] = 0.0
    top_f, low_f, lip_f = _net_extent(Z, keys, grid_f, psi_f)
    top_n, low_n, lip_n = _net_extent(Z, keys, grid_n, psi_n)
    d2 = 0.0
    for c0, Ci in zip(means, Cm):
        sigma = np.maximum(1.0, np.maximum(lip_f, np.maximum(c0 + top_f, -(c0 + low_f)) / R))
        Ci /= sigma[:, None]
        norms_n = np.maximum(c0 + top_n, -(c0 + low_n)) / sigma
        sig2 = np.maximum(1.0, np.maximum(lip_n / sigma, norms_n / R))
        d2 = max(d2, float(((1.0 - 1.0 / sig2) * norms_n).max()))
    return d2


def run_covering_net(cfg: ExperimentConfig) -> list[ReportRow]:
    """Coefficient-lattice eps-net of the band-limited D_R ball, checked to
    cover model-side samples within (4R+2) eps (d = 1)."""
    (n,) = cfg.n_schedule
    b = cfg.sample_band
    R = cfg.R
    eps = cfg.eps
    model = _model_for(cfg, n)
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
    count = int(np.prod([float(len(a)) for a in axes]))
    if count > cfg.net_cap:
        feasible = pitch * (count / cfg.net_cap) ** (1.0 / len(axes))
        raise ValueError(
            f"net budget exceeded: {count} candidates > cap {cfg.net_cap}; "
            f"a cap-sized net only achieves pitch {feasible:.4g} "
            f"(radius about {s * feasible / 2:.4g}) instead of {pitch:.4g}"
        )
    C = _net_points(axes)
    grid_n = SymbolGrid(n, tw)
    d2 = _net_rescale(C, axes[0], coords, R, SymbolGrid(max(64, 16 * b, n), tw), psi_sym,
                      grid_n, psi_n)

    k_val = psi_n.coord_value(1)
    phi = build_smoothing_multiplier(psi_n, k_val, eps)
    samples = lip_ball_sample(R, b, cfg.samples, cfg.seed, psi_n, tw, model)
    norms = np.einsum("ij,ij->i", C.view(np.float64), C.view(np.float64))
    radius = 0.0
    covered = 0
    resid = 0.0
    for f in samples:
        yc = np.zeros(s, dtype=complex)
        yc[[coords.index(k) for k in f.keys]] = f.blocks[:, 0, 0]
        dist = _net_sup_distance(C, norms, grid_n, coords, yc)
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

    phi = _product_smoother(psi_coord_inf, cfg.band, cfg.eps_multiplier)

    # symbol-side unit-Lip samples, shared across n
    a_side = []
    for amp in cfg.amplifications:
        for i in range(cfg.samples):
            f = draw((cfg.seed, 1, amp, i), tw, support_nz, amp)
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
                delta_norm_max, max(1.0, (mismatch + resid) / cfg.eps)
            )
        for amp in cfg.amplifications:
            for i in range(cfg.samples):
                f = draw((cfg.seed, 2, n, amp, i), tw, support_nz, amp)
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
        f = draw((cfg.seed, 3, n), tw, support_nz, 1)
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

    (n,) = cfg.n_schedule
    model = _model_for(cfg, n)
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
            f = mean_zero(draw((cfg.seed, p, i), tw, window, 1))
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


def run_experiment(cfg: ExperimentConfig) -> list[ReportRow]:
    return EXPERIMENTS[cfg.experiment](cfg)
