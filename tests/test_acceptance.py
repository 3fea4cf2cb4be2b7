"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy sweeps run once per session through module-scoped fixtures; every
tolerance is pinned here and matches the emitted report bounds.
"""

import math

import numpy as np
import pytest

from fuzzytorus import _mats
from fuzzytorus import experiments as ex
from fuzzytorus.lattice import (
    LengthFunction,
    build_smoothing_multiplier,
    check_conditionally_negative,
    window_range,
)
from fuzzytorus.lipnorm import lip_seminorm_on_model, riesz_check
from fuzzytorus.matrixmodel import (
    clock_shift,
    fuzzy_generators,
    higher_dim_generators,
    op_norm,
)
from fuzzytorus.ncpoly import (
    NCPoly,
    TwistMatrix,
    adjoint,
    apply_multiplier,
    mean_zero,
)

SEED = 20240901


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _rows(experiment, seed=SEED):
    return ex.run_experiment(ex.ExperimentConfig(experiment, seed))


@pytest.fixture(scope="module")
def isometry_rows():
    return _rows("isometry")


@pytest.fixture(scope="module")
def smoothing_rows():
    return _rows("smoothing-tail")


@pytest.fixture(scope="module")
def reach_rows():
    return _rows("bridge-reach")


def test_criterion_01_intertwining_exactness():
    rows = _rows("intertwining")
    worst = max(r.value for r in rows if r.metric == "intertwining_defect")
    ok = all(r.passed for r in rows) and worst <= 1e-10
    _report("criterion 1 (intertwining exactness)", ok, f"max defect {worst:.3e}")


def test_criterion_02_rate_bound():
    rows = _rows("rate")
    neg = [r for r in rows if r.metric.endswith("_negpart") and not r.passed]
    spread = [r.value for r in rows if r.metric == "rate_spread"][0]
    const = [r.value for r in rows if r.metric == "rate_constant"][0]
    rows2 = _rows("rate", seed=SEED + 777)
    const2 = [r.value for r in rows2 if r.metric == "rate_constant"][0]
    stable = abs(const - const2) <= 0.10 * const
    ok = not neg and math.isfinite(spread) and stable
    _report(
        "criterion 2 (restriction rate bound)",
        ok,
        f"constant {const:.6f}, scaled-defect spread {spread:.1f}",
    )


def test_criterion_03_psd_audit():
    rows = _rows("psd-audit")
    heat_word_ok = all(
        r.passed for r in rows if r.metric.startswith("psd_min_eig/")
    )
    agg = [r for r in rows if r.metric == "naive_max_witness"][0]
    ok = heat_word_ok and agg.passed and agg.value <= -1e-10
    _report(
        "criterion 3 (PSD audit)", ok,
        f"naive witness {agg.value:.4f}, heat/word all PSD on 4..64",
    )


def test_criterion_04_isometry_defect(isometry_rows):
    rows = isometry_rows
    final = [r for r in rows if r.metric == "isometry_norm_defect" and r.n == 256][0]
    tau = [r for r in rows if r.metric == "isometry_norm_trend_kendall"][0]
    ok = final.value <= 0.05 and tau.value >= 0.5
    _report(
        "criterion 4 (1+eps isometry defect)", ok,
        f"eps(256) = {final.value:.4f} <= 0.05, kendall {tau.value:.2f}",
    )


def test_criterion_05_rational_fiber_limit():
    t = TwistMatrix.rational_2d(1, 2)
    f = sum(
        [NCPoly.generator(t, i) for i in (0, 1)]
        + [adjoint(NCPoly.generator(t, i)) for i in (0, 1)],
        NCPoly.zero(t),
    )
    val = op_norm(f, fuzzy_generators(1, 2, 128))
    target = 2 * math.sqrt(2)
    ok = abs(val - target) <= 0.05
    _report(
        "criterion 5 (rational fiber limit)", ok,
        f"|embed norm - 2sqrt2| = {abs(val - target):.4f} <= 0.05",
    )


def test_criterion_06_plancherel_riesz_p2():
    worst = 0.0
    count = 0
    for kind in ("heat", "word"):
        for d in (1, 2):
            psi = LengthFunction(kind, (None,) * d)
            tw = TwistMatrix.zero(d)
            for i in range(50):
                rng = np.random.default_rng((SEED, d, i, kind == "heat"))
                coords = [()]
                for _ in range(d):
                    coords = [c + (k,) for c in coords for k in range(-3, 4)]
                f = mean_zero(NCPoly(tw, 1, {
                    c: rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
                    for c in coords
                }))
                rep = riesz_check(f, psi, 2)
                worst = max(worst, abs(rep.lhs - rep.rhs_column))
                count += 1
    ok = worst <= 1e-10 and count == 200
    _report(
        "criterion 6 (Plancherel/Riesz p=2)", ok,
        f"max |lhs - rhs| = {worst:.2e} over {count} samples",
    )


def test_criterion_07_multiplier_contracts():
    n = 64
    model = clock_shift(n)
    psi2 = LengthFunction.heat((n, n))
    eps = 0.25
    k_val = psi2.coord_value(2) * 2
    phi = build_smoothing_multiplier(psi2, k_val, eps)

    # (ii) support in {psi <= m} and (iii) |phi - 1| <= eps on {psi <= k}
    contract = True
    for j in window_range(n):
        for l in window_range(n):
            v = psi2.value((j, l))
            got = phi.value_at((j, l))
            if v <= k_val and abs(got - 1) > eps:
                contract = False
            if v > phi.band and got != 0.0:
                contract = False
    # (i) certified cb-norm defect of the truncation
    contract = contract and phi.tail <= eps

    tw = TwistMatrix.zero(2)
    worst_norm = 0.0
    worst_lip = 0.0
    for i in range(100):
        rng = np.random.default_rng((SEED, 7, i))
        coords = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
        f = NCPoly(tw, 2, {
            c: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for c in coords
        })
        g = apply_multiplier(f, phi)
        worst_norm = max(
            worst_norm,
            op_norm(g, model) - (1 + eps) * op_norm(f, model),
        )
        worst_lip = max(
            worst_lip,
            lip_seminorm_on_model(g, model, psi2).lip
            - (1 + eps) * lip_seminorm_on_model(f, model, psi2).lip,
        )
    ok = contract and worst_norm <= 1e-10 and worst_lip <= 1e-10
    _report(
        "criterion 7 (multiplier contracts)", ok,
        f"(i)-(iii) hold; norm slack {worst_norm:.2e}, lip slack {worst_lip:.2e}",
    )


def test_criterion_08_smoothing_tail(smoothing_rows):
    rows = smoothing_rows
    sups = {r.n: r.value for r in rows if r.metric == "tail_ratio_l2lip"}
    mono = [r for r in rows if r.metric == "tail_monotone_l2lip"]
    finite = all(math.isfinite(v) for v in sups.values())
    nonincreasing = all(r.passed for r in mono)
    ok = finite and nonincreasing and set(sups) == {2, 4, 8}
    _report(
        "criterion 8 (smoothing tail)", ok,
        "achieved sups "
        + ", ".join(f"k={k}: {sups[k]:.4f}" for k in sorted(sups)),
    )


def test_criterion_09_covering():
    rows = _rows("covering-net")
    by = {r.metric: r for r in rows}
    ok = (
        by["coverage_fraction"].value == 1.0
        and by["covering_radius"].passed
        and by["hausdorff_bound"].passed
    )
    _report(
        "criterion 9 (covering net)", ok,
        f"coverage {by['coverage_fraction'].value:.3f}, "
        f"radius {by['covering_radius'].value:.4f} <= {by['covering_radius'].bound}",
    )


def test_criterion_10_bridge_reach(reach_rows):
    rows = reach_rows
    reach = {r.n: r.value for r in rows if r.metric == "reach"}
    tau = [r for r in rows if r.metric == "reach_trend_kendall"][0]
    third = [r for r in rows if r.metric == "delta_diag_third_block"][0]
    cons = [r for r in rows if r.metric == "delta_norm_consistency"][0]
    ok = (
        reach[128] <= 0.1
        and tau.value >= 0.5
        and third.value <= 1e-10
        and cons.value <= 1e-10
    )
    _report(
        "criterion 10 (bridge reach)", ok,
        f"reach(128) = {reach[128]:.4f} <= 0.1, kendall {tau.value:.2f}, "
        f"delta diag {third.value:.1e}",
    )


def test_criterion_11_model_sanity():
    worst_comm = 0.0
    for n in range(4, 257):
        cs = clock_shift(n)
        u, v = cs.generators()
        defect = _mats.operator_norm(u @ v - v @ u)
        worst_comm = max(worst_comm, abs(defect - 2 * math.sin(math.pi / n)))

    worst_tr = 0.0
    for model in (clock_shift(8), fuzzy_generators(1, 2, 8), higher_dim_generators(3, 2)):
        coords = [()]
        for _ in range(model.n_generators):
            coords = [c + (k,) for c in coords for k in (-1, 0, 1)]
        for a in coords:
            for b in coords:
                tr = np.trace(model.monomial(a) @ model.monomial(b).conj().T)
                expect = 1.0 if a == b else 0.0
                worst_tr = max(worst_tr, abs(tr / model.dim - expect))

    hd = higher_dim_generators(3, 2)
    gens = hd.generators()
    om = np.exp(2j * np.pi / 3)
    worst_hd = 0.0
    for r in range(4):
        for s in range(r + 1, 4):
            worst_hd = max(
                worst_hd,
                np.abs(gens[r] @ gens[s] - om * gens[s] @ gens[r]).max(),
            )
    for g in gens:
        worst_hd = max(worst_hd, np.abs(np.linalg.matrix_power(g, 3) - np.eye(9)).max())

    ok = worst_comm <= 1e-12 and worst_tr <= 1e-12 and worst_hd <= 1e-12
    _report(
        "criterion 11 (model sanity)", ok,
        f"commutator {worst_comm:.1e}, trace {worst_tr:.1e}, higher-dim {worst_hd:.1e}",
    )
