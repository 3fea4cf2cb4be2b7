import sys
import tracemalloc

import numpy as np
import pytest

from fuzzytorus import _mats
from fuzzytorus import experiments as ex
from fuzzytorus.lattice import band_window
from fuzzytorus.matrixmodel import op_norm
from fuzzytorus.ncpoly import SymbolGrid, TwistMatrix

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
    with pytest.raises(ValueError):
        ex.run_experiment(ex.ExperimentConfig("bogus", 1))
    with pytest.raises(ValueError):
        ex.default_config("bogus")


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


def test_covering_r_zero_trivial():
    rows = ex.run_experiment(small("covering-net", R=0.0))
    by = {r.metric: r.value for r in rows}
    assert by["covering_radius"] == 0.0
    assert by["net_size"] == 1
    assert by["coverage_fraction"] == 1.0


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
    # evaluated in one block and in blocks of three rows
    rng = np.random.default_rng((n, b))
    s = 2 * b + 1
    keys = band_window(b, 1)
    grid = SymbolGrid(n, TwistMatrix.zero(1))
    axis = 0.2 * np.arange(-3, 4)
    mesh = [m.reshape(-1) for m in np.meshgrid(*[axis] * s, indexing="ij")]
    C = np.zeros((len(mesh[0]), s), dtype=complex)
    C[:, b] = mesh[0]
    for k in range(1, b + 1):
        C[:, b + k] = mesh[2 * k - 1] + 1j * mesh[2 * k]
        C[:, b - k] = C[:, b + k].conj()
    C = C / rng.uniform(1.0, 1.5, size=(len(C), 1))
    C = np.concatenate([C, C[::-7]])  # duplicated net points: tied distances
    net_vals = grid.values(keys, C.T).T
    samples = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for _ in range(20)]
    samples = [0.5 * (y + y[::-1].conj()) for y in samples]
    samples += [3.0 * y for y in samples[:5]]  # outside the net's box
    samples += [C[i] for i in rng.integers(len(C), size=5)]  # on a net point
    for yc in samples:
        full = _full_scan(net_vals, grid.values(keys, yc))
        for cells in (ex.NET_BLOCK_CELLS, 3 * n):
            monkeypatch.setattr(ex, "NET_BLOCK_CELLS", cells)
            assert ex._net_sup_distance(C, grid, keys, yc) == full


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
    # 997 rows per block at Gf = 64 (a last block shorter than the rest), the
    # default, and one block holding the whole net
    cfg = small("covering-net")
    runs = []
    for cells in (997 * 64, ex.NET_BLOCK_CELLS, 64 * 10**6):
        monkeypatch.setattr(ex, "NET_BLOCK_CELLS", cells)
        runs.append(ex.run_experiment(cfg))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert 997 < dict((r.metric, r.value) for r in runs[0])["net_size"] < 10**6


def test_covering_net_memory_stays_below_net_size_times_grid():
    # the net workload's covering-net entry: 62,475 net points on a 64-point
    # grid would take 64 MB per complex array of values; blocks keep the peak
    # at about 7 MB
    cfg = small("covering-net", n_schedule=(64,), samples=2)
    tracemalloc.start()
    try:
        rows = ex.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dict((r.metric, r.value) for r in rows)["net_size"] == 62_475
    assert peak < 32 * 2**20


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
    schedule = ex.default_config("rate").n_schedule
    direct = ex.ExperimentConfig("rate", 20240901, n_schedule=schedule)
    assert ex.run_experiment(direct) == ex.run_experiment(ex.default_config("rate"))


def test_bridge_reach_needs_theta():
    with pytest.raises(ValueError):
        ex.run_experiment(
            ex.ExperimentConfig("bridge-reach", 1, theta=None, n_schedule=(8,))
        )
