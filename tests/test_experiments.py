import sys
import tracemalloc

import numpy as np
import pytest

from fuzzytorus import _mats
from fuzzytorus import experiments as ex
from fuzzytorus.lattice import LengthFunction, band_window
from fuzzytorus.matrixmodel import op_norm
from fuzzytorus.ncpoly import SymbolGrid, TwistMatrix, gradient_coeffs

SEED = 424242


def small(experiment, **kw):
    base = dict(
        intertwining=dict(psi="word", band=4, n_schedule=(16,), samples=5),
        rate=dict(psi="heat", n_schedule=(16, 64, 256), grid=16384),
        isometry=dict(
            psi="heat", band=2, amplifications=(1,), n_schedule=(16, 32, 64),
            samples=4, lip_samples=2, grid=128, eps=0.2, lip_grid=64,
        ),
        **{
            "smoothing-tail": dict(
                psi="heat", band=4, n_schedule=(32,), samples=6, cutoffs=(2, 4),
                eps=0.25,
            ),
            "psd-audit": dict(n_schedule=(4, 7, 12)),
            "covering-net": dict(
                psi="heat", n_schedule=(32,), samples=20, R=1.0, eps=0.25,
                sample_band=1,
            ),
            "bridge-reach": dict(
                psi="heat", theta=(1, 2), band=1, n_schedule=(8, 16, 32),
                samples=2, amplifications=(1,), eps=0.15, eps_multiplier=0.02,
                grid=64,
            ),
        },
    )[experiment]
    base.update(kw)
    seed = base.pop("seed", SEED)
    return ex.ExperimentConfig(experiment=experiment, seed=seed, **base)


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExperimentConfig("rate", 1, n_schedule=(16, 16))
    with pytest.raises(ValueError):
        ex.ExperimentConfig("rate", 1, n_schedule=(32, 16))
    with pytest.raises(ValueError):
        ex.ExperimentConfig("bridge-reach", 1, theta=(1, 2), n_schedule=(8, 12))
    cfg = ex.ExperimentConfig("bridge-reach", 1, theta=(1, 2), n_schedule=(8, 16))
    assert cfg.n_schedule == (8, 16)
    with pytest.raises(ValueError, match="unknown experiment id"):
        ex.ExperimentConfig("bogus", 1, n_schedule=(8,))
    with pytest.raises(ValueError, match="cutoffs: unknown configuration key for isometry"):
        ex.ExperimentConfig("isometry", 1, cutoffs=(3,))
    # the JSON type check: an int is also a float, a bool is neither
    for key, value, need in [("band", "2", "int, got str"), ("samples", 2.5, "int, got float"),
                             ("band", True, "int, got bool"), ("eps", True, "float, got bool"),
                             ("n_schedule", [16.0], "a list of integers"),
                             ("amplifications", None, "a list of integers")]:
        with pytest.raises(ValueError, match=f"^{key}: expected {need}"):
            ex.ExperimentConfig("isometry", 1, **{key: value})
    # the seed too: the manifest's check, made by the config itself
    for seed in ("7", True, 2.5, 7.0, -1, None):
        with pytest.raises(ValueError, match="^seed: expected a non-negative integer"):
            ex.ExperimentConfig("psd-audit", seed)
    assert ex.ExperimentConfig("psd-audit", 0).seed == 0
    cfg = ex.ExperimentConfig("isometry", 1, theta=[1, 2], n_schedule=[8, 64], eps=1)
    assert (cfg.theta, cfg.n_schedule, cfg.eps) == ((1, 2), (8, 64), 1)
    assert ex.ExperimentConfig("isometry", 1, theta=None).theta is None


def test_kendall():
    assert ex.kendall_decreasing([4, 3, 2, 1]) == 1.0
    assert ex.kendall_decreasing([1, 2, 3, 4]) == -1.0
    assert ex.kendall_decreasing([2.0]) == 1.0


def test_row_pass_rules_recomputable():
    rows = []
    for experiment in ("psd-audit", "rate"):
        rows.extend(ex.run_experiment(small(experiment)))
    for r in rows:
        assert r.passed == ex.row_passes(r.metric, r.value, r.bound)


def test_determinism_byte_for_byte():
    a = ex.run_experiment(small("intertwining"))
    b = ex.run_experiment(small("intertwining"))
    assert a == b
    c = ex.run_experiment(small("covering-net"))
    d = ex.run_experiment(small("covering-net"))
    assert c == d


def test_intertwining_zero_for_zero_poly():
    rows = ex.run_experiment(small("intertwining", samples=3))
    assert all(r.passed for r in rows)
    assert all(r.value <= 1e-10 for r in rows)


def test_rate_examples():
    rows = ex.run_experiment(small("rate"))
    defects = {r.n: r.value for r in rows if r.metric == "norm_defect"}
    assert all(v >= -1e-12 for v in defects.values())
    # grid-aligned cosine has zero defect for even n
    import math

    from fuzzytorus.ncpoly import NCPoly, TwistMatrix
    from fuzzytorus.experiments import _scalar_grid_values

    cosine = NCPoly(TwistMatrix.zero(1), 1, {(1,): 1.0, (-1,): 1.0})
    vals = np.abs(_scalar_grid_values(cosine, 16384))
    assert vals.max() == pytest.approx(2.0)
    assert vals[::16384 // 16].max() == pytest.approx(2.0)  # n = 16 hits the max


def test_rate_constant_stable_across_seeds():
    r1 = ex.run_experiment(small("rate"))
    r2 = ex.run_experiment(small("rate", seed=SEED + 1))
    c1 = [r.value for r in r1 if r.metric == "rate_constant"][0]
    c2 = [r.value for r in r2 if r.metric == "rate_constant"][0]
    assert abs(c1 - c2) <= 0.1 * c1


def test_isometry_rows_structure():
    rows = ex.run_experiment(small("isometry"))
    mets = {r.metric for r in rows}
    assert "isometry_norm_defect" in mets
    assert "isometry_norm_trend_kendall" in mets
    finals = [r for r in rows if r.metric == "isometry_norm_defect" and r.n == 64]
    assert len(finals) == 1 and np.isfinite(finals[0].bound)


def test_isometry_fuzzy_path():
    rows = ex.run_experiment(
        small("isometry", theta=(1, 2), n_schedule=(8, 16, 32), samples=3,
              lip_samples=2, grid=64, band=1)
    )
    defects = [r.value for r in rows if r.metric == "isometry_norm_defect"]
    assert len(defects) == 3 and all(np.isfinite(v) for v in defects)
    assert defects[-1] < defects[0]


def test_smoothing_tail_monotone_rows():
    rows = ex.run_experiment(small("smoothing-tail"))
    mono = [r for r in rows if r.metric == "tail_monotone_l2lip"]
    assert mono and all(r.passed for r in mono)
    sups = [r.value for r in rows if r.metric == "tail_ratio_l2lip"]
    assert all(np.isfinite(v) for v in sups)


def test_psd_audit_rows():
    rows = ex.run_experiment(small("psd-audit"))
    heat_rows = [r for r in rows if r.metric == "psd_min_eig/heat"]
    assert {r.n for r in heat_rows} == {4, 7, 12}
    assert all(r.passed for r in heat_rows)
    agg = [r for r in rows if r.metric == "naive_max_witness"]
    assert len(agg) == 1 and agg[0].passed and agg[0].value < -1e-10


def test_covering_rejects_r_zero():
    # D_0 = {0} has no interior to net, as lip_ball_sample says too
    with pytest.raises(ValueError, match="R: need R > 0"):
        small("covering-net", R=0.0)


def test_covering_small_run_covers():
    rows = ex.run_experiment(small("covering-net"))
    by = {r.metric: r for r in rows}
    assert by["coverage_fraction"].value == 1.0
    assert by["covering_radius"].passed
    assert by["net_size"].value <= 500000


def test_covering_net_cap():
    with pytest.raises(ValueError):
        ex.run_experiment(small("covering-net", net_cap=10))


def test_covering_net_rejects_aliased_band():
    with pytest.raises(ValueError, match="sample_band"):
        ex.run_experiment(small("covering-net", n_schedule=(4,), sample_band=2))


def _full_scan(net_vals, y_vals):
    return float(np.abs(net_vals - y_vals[None, :]).max(axis=1).min())


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("b", [1, 2])
def test_net_sup_distance_equals_full_scan(n, b, monkeypatch):
    # rescaled lattice nets as covering-net builds them, and samples with
    # real symbols as covering-net draws them; the candidate rows are
    # evaluated in one block and in blocks of three rows.  Scaled by 1e3, the
    # gaps ||C_i||^2 - 2 <C_i, y> + ||y||^2 of the rows near a sample cancel
    # to about 1e-10 of their terms, which the cut's slack must absorb
    rng = np.random.default_rng((n, b))
    s = 2 * b + 1
    keys = band_window(b, 1)
    grid = SymbolGrid(n, TwistMatrix.zero(1))
    C = ex._net_points([0.2 * np.arange(-3, 4)] * s)
    C = C / rng.uniform(1.0, 1.5, size=(len(C), 1))
    C = np.concatenate([C, C[::-7]])  # duplicated net points: tied distances
    samples = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for _ in range(20)]
    samples = [0.5 * (y + y[::-1].conj()) for y in samples]
    samples += [3.0 * y for y in samples[:5]]  # outside the net's box
    samples += [C[i] for i in rng.integers(len(C), size=5)]  # on a net point
    for scale in (1.0, 1e3):
        Cs = scale * C
        norms = np.einsum("ij,ij->i", Cs.view(np.float64), Cs.view(np.float64))
        net_vals = grid.values(keys, Cs.T).T
        for yc in samples:
            full = _full_scan(net_vals, grid.values(keys, scale * yc))
            for cells in (ex.NET_BLOCK_CELLS, 3 * n):
                monkeypatch.setattr(ex, "NET_BLOCK_CELLS", cells)
                assert ex._net_sup_distance(Cs, norms, grid, keys, scale * yc) == full


def _block_loop_rescale(C, keys, R, grid_f, psi_f, grid_n, psi_n):
    """Direction 2 as covering-net took it from every net point in full:
    each point's values and Gamma on grid_f, the rescale, then the same again
    on grid_n; kept as the reference of _net_rescale."""
    tw = TwistMatrix.zero(1)

    def lips(Cm, psi, grid):
        stack = Cm.T[:, :, None, None]
        gkeys, gam = gradient_coeffs(keys, stack, keys, stack, psi, tw)
        return np.sqrt(np.maximum(grid.values(gkeys, gam[..., 0, 0]).real.max(axis=0), 0.0))

    norms = np.abs(grid_f.values(keys, C.T)).max(axis=0)
    C = C / np.maximum(1.0, np.maximum(lips(C, psi_f, grid_f), norms / R))[:, None]
    norms_n = np.abs(grid_n.values(keys, C.T)).max(axis=0)
    sig2 = np.maximum(1.0, np.maximum(lips(C, psi_n, grid_n), norms_n / R))
    return C, float(((1.0 - 1.0 / sig2) * norms_n).max())


@pytest.mark.parametrize("n", [32, 40, 64])
@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("R", [0.4, 1.0])
@pytest.mark.parametrize("kind", ["heat", "word"])
def test_net_rescale_matches_the_full_evaluation(n, b, R, kind, monkeypatch):
    # Gf = 64 is n itself at n = 64, refines it at n = 32 and does not at
    # n = 40; the sublattice goes through the grids in one block and in
    # blocks of 100 rows.  At n | 64, psi_n <= psi on the band and the n-grid
    # lies in the 64-grid, so d2 is 0 but for rounding; at n = 40 it is about
    # 1e-4..2e-3, and 1 - 1/sigma magnifies sigma's last bits by
    # 1/(sigma - 1).  So d2 agrees relative to R, the scale of the norms it
    # is formed from.
    keys = band_window(b, 1)
    axes = [0.25 * np.arange(-5, 6)] + [0.15 * np.arange(-3, 4)] * (2 * b)
    net = ex._net_points(axes)
    tw = TwistMatrix.zero(1)
    grids = (SymbolGrid(64, tw), LengthFunction(kind, (None,)),
             SymbolGrid(n, tw), LengthFunction(kind, (n,)))
    ref, d2_ref = _block_loop_rescale(net, keys, R, *grids)
    assert np.abs(ref).max() < np.abs(net).max()
    assert (d2_ref > 1e-5) == (n == 40)
    for cells in (ex.NET_BLOCK_CELLS, 100 * 64):
        monkeypatch.setattr(ex, "NET_BLOCK_CELLS", cells)
        C = net.copy()
        d2 = ex._net_rescale(C, axes[0], keys, R, *grids)
        assert np.all(np.abs(C - ref).max(axis=1) <= 1e-14 * np.abs(ref).max(axis=1))
        assert abs(d2 - d2_ref) <= 1e-14 * R
        # at n | 64 (the default n = 64 among them) hausdorff_bound is covering_radius
        assert d2 > 0 if n == 40 else d2 <= 1e-15 * R


@pytest.mark.parametrize("d, b, G", [(1, 3, 64), (2, 2, 16)])
def test_symbol_grid_values_column_by_column(d, b, G):
    # covering-net evaluates its net a block of rows at a time and a sample's
    # candidate rows alone: each column's values must not depend on the others
    rng = np.random.default_rng((d, b, G))
    grid = SymbolGrid(G, TwistMatrix.zero(d))
    keys = band_window(b, d)
    X = rng.standard_normal((len(keys), 300)) + 1j * rng.standard_normal((len(keys), 300))
    full = grid.values(keys, X)
    for cols in (rng.choice(300, size=37, replace=False), rng.integers(300, size=1),
                 np.arange(128, 300)):
        assert np.array_equal(grid.values(keys, X[:, cols]), full[:, cols])


def test_covering_net_rows_independent_of_block_size(monkeypatch):
    # the 1,225-point mean-zero sublattice in blocks of 997 rows at Gf = 64 (a
    # last block shorter than the first), the default, and one block; the
    # sample search's l2 gaps and candidate rows in blocks of the same cell count
    cfg = small("covering-net")
    runs = []
    for cells in (997 * 64, ex.NET_BLOCK_CELLS, 64 * 10**6):
        monkeypatch.setattr(ex, "NET_BLOCK_CELLS", cells)
        runs.append(ex.run_experiment(cfg))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert 997 < dict((r.metric, r.value) for r in runs[0])["net_size"] < 10**6


def _traced_covering_net(cfg):
    tracemalloc.start()
    try:
        rows = ex.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dict((r.metric, r.value) for r in rows), peak


def test_covering_net_memory_stays_below_net_size_times_grid():
    # the net workload's covering-net entry: 62,475 net points on a 64-point
    # grid would take 64 MB per complex array of values; the net's
    # coefficients take 3 MB and the blocks bound the rest
    by, peak = _traced_covering_net(small("covering-net", n_schedule=(64,), samples=2))
    assert by["net_size"] == 62_475
    assert peak < 32 * 2**20


def test_covering_net_cap_sized_net_memory():
    # 1,909,755 net points, near the 2,000,000 net_cap maximum: 48 B of
    # coefficients, 8 B of row norm and 8 B of gap buffer per point, a
    # tracemalloc peak of about 119 MiB in all
    cfg = small("covering-net", n_schedule=(64,), eps=0.078, net_cap=2_000_000, samples=2)
    by, peak = _traced_covering_net(cfg)
    assert by["net_size"] == 1_909_755
    assert by["coverage_fraction"] == 1.0
    assert peak < 128 * 2**20


def test_bridge_reach_small():
    rows = ex.run_experiment(small("bridge-reach"))
    reach = {r.n: r.value for r in rows if r.metric == "reach"}
    assert set(reach) == {8, 16, 32}
    assert all(np.isfinite(v) for v in reach.values())
    diag = [r for r in rows if r.metric == "delta_diag_third_block"]
    assert diag and diag[0].value <= 1e-10
    cons = [r for r in rows if r.metric == "delta_norm_consistency"]
    assert cons and cons[0].value <= 1e-10


def test_model_norms_enter_operator_norm_only_through_op_norm(monkeypatch):
    # every matrix-level norm of the experiments is op_norm of a coefficient
    # difference; at these sizes (mN < 256) op_norm hands an embedded matrix
    # to _mats.operator_norm, which must see no other caller
    norm, callers = _mats.operator_norm, []

    def traced(x):
        callers.append(sys._getframe(1).f_code)
        return norm(x)

    monkeypatch.setattr(_mats, "operator_norm", traced)
    for experiment in ("smoothing-tail", "covering-net", "bridge-reach"):
        ex.run_experiment(small(experiment))
    assert callers and set(callers) == {op_norm.__code__}


def test_rate_grid_default_is_written_once():
    cfg = ex.ExperimentConfig("rate", 20240901)
    assert cfg.grid == 16384
    assert ex.ExperimentConfig("rate", 20240901, n_schedule=cfg.n_schedule) == cfg


def test_bridge_reach_needs_theta():
    with pytest.raises(ValueError):
        ex.run_experiment(
            ex.ExperimentConfig("bridge-reach", 1, theta=None, n_schedule=(8,))
        )
