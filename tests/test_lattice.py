import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzytorus.lattice import (
    LengthFunction,
    band_window,
    build_smoothing_multiplier,
    canonical_rep,
    check_conditionally_negative,
    cocycle_rows_for_coords,
    gromov_entries_for_coords,
    product_multiplier,
    psd_tolerance,
    window_points,
    window_range,
)

moduli_st = st.one_of(st.none(), st.integers(min_value=2, max_value=64))


@given(st.integers(-500, 500), st.integers(2, 64))
def test_canonical_window_bounds_and_idempotence(k, n):
    r = canonical_rep(k, n)
    assert -n / 2 < r <= n / 2
    assert (r - k) % n == 0
    assert canonical_rep(r, n) == r


def test_even_tie_resolves_to_plus_half():
    assert canonical_rep(4, 8) == 4
    assert canonical_rep(-4, 8) == 4
    assert list(window_range(8)) == [-3, -2, -1, 0, 1, 2, 3, 4]
    assert list(window_range(5)) == [-2, -1, 0, 1, 2]


def test_band_window_order():
    assert band_window(1, 1) == [(-1,), (0,), (1,)]
    assert band_window(1, 2)[:4] == [(-1, -1), (-1, 0), (-1, 1), (0, -1)]
    assert len(band_window(2, 3)) == 125 and band_window(0, 2) == [(0, 0)]


def test_window_points_order_and_mixed_moduli():
    # canonical window of Z_n on finite axes, [-r, r] on infinite ones,
    # the last axis fastest
    assert window_points((4,)) == [(-1,), (0,), (1,), (2,)]
    pts = window_points((3, None), 1)
    assert pts == [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                   (1, -1), (1, 0), (1, 1)]
    assert window_points((None, 2), 2)[:3] == [(-2, 0), (-2, 1), (-1, 0)]
    assert len(window_points((8, 5, None), 3)) == 8 * 5 * 7
    assert window_points((None, None), 2) == band_window(2, 2)
    assert window_points((6,), 9) == window_points((6,))  # radius unused when finite
    with pytest.raises(ValueError, match="window radius"):
        window_points((8, None))


# -- length functions --------------------------------------------------------


def test_length_examples():
    assert LengthFunction.heat((4,)).value((1,)) == pytest.approx(8 / math.pi**2)
    assert LengthFunction.word((8,)).value((5,)) == 3
    assert LengthFunction.heat((None,)).value((3,)) == 9.0


@given(
    st.sampled_from(["word", "heat", "naive_square"]),
    moduli_st,
    st.integers(-70, 70),
)
def test_length_symmetry_and_zero(kind, n, k):
    psi = LengthFunction(kind, (n,))
    assert psi.value((0,)) == 0.0
    assert psi.value((k,)) == pytest.approx(psi.value((-k,)))
    assert psi.value((k,)) >= 0.0


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(2, 32))
def test_vectorized_values_match_scalar(a, b, n):
    psi = LengthFunction.heat((n, None))
    arr = np.array([[a, b]])
    assert psi.values(arr)[0] == pytest.approx(psi.value((a, b)))


def test_heat_comparable_to_square():
    # psi_n(k) ~ k^2 with a single constant across n
    worst = 1.0
    for n in (8, 16, 32, 64, 128, 256, 512, 1024):
        psi = LengthFunction.heat((n,))
        for k in range(1, n // 2 + 1):
            r = psi.value((k,)) / k**2
            worst = max(worst, r, 1 / r)
    assert worst <= 3.0


# -- Gromov form -------------------------------------------------------------


def test_gromov_word_on_z():
    psi = LengthFunction.word((None,))
    K = gromov_entries_for_coords(psi, [(2,), (3,), (-3,)])
    assert K[0, 1] == 2.0  # min(|2|, |3|) when signs agree
    assert K[0, 2] == 0.0  # opposite signs


def test_gromov_heat_on_z2():
    psi = LengthFunction.heat((None, None))
    K = gromov_entries_for_coords(psi, [(1, 0), (0, 1), (2, 0), (3, 0)])
    assert K[0, 1] == 0.0
    assert K[2, 3] == 6.0  # jj' + kk'


def test_gromov_empty_and_mismatch():
    psi = LengthFunction.word((None,))
    with pytest.raises(ValueError):
        gromov_entries_for_coords(psi, [])
    with pytest.raises(ValueError):
        gromov_entries_for_coords(psi, [(1, 2)])


@given(st.sampled_from(["word", "heat"]), st.integers(3, 24))
@settings(max_examples=25, deadline=None)
def test_gromov_symmetric_diag_is_length(kind, n):
    psi = LengthFunction(kind, (n,))
    coords = [(k,) for k in window_range(n)]
    K = gromov_entries_for_coords(psi, coords)
    assert np.allclose(K, K.T)
    for i, k in enumerate(coords):
        assert K[i, i] == pytest.approx(psi.value(k))


# -- conditional negativity audit -------------------------------------------


def test_psd_audit_examples():
    ok, _ = check_conditionally_negative(LengthFunction.heat((8,)))
    assert ok
    ok, witness = check_conditionally_negative(LengthFunction.naive_square((5,)))
    assert not ok and witness < -1e-10
    assert witness == pytest.approx(-0.756939094329987, rel=1e-9)
    ok, _ = check_conditionally_negative(LengthFunction.word((6,)))
    assert ok


def test_psd_audit_infinite_needs_window():
    psi = LengthFunction.heat((None,))
    with pytest.raises(ValueError):
        check_conditionally_negative(psi)
    ok, _ = check_conditionally_negative(psi, window=12)
    assert ok


# -- cocycle factors ---------------------------------------------------------


def test_cocycle_rank_one_example():
    psi = LengthFunction.heat((None,))
    assert np.allclose(gromov_entries_for_coords(psi, [(1,), (2,)]), [[1.0, 2.0], [2.0, 4.0]])
    rows = cocycle_rows_for_coords(psi, [(1,), (2,)])
    assert rows.shape[0] == 1
    row = rows[0]
    assert np.allclose(row / row[0], [1.0, 2.0])


def test_cocycle_zero_and_identity():
    # heat on Z vanishes at the origin, so its Gromov form there is zero
    assert cocycle_rows_for_coords(LengthFunction.heat((None,)), [(0,)]).shape == (0, 1)

    psi = LengthFunction.word((None,))
    assert np.allclose(gromov_entries_for_coords(psi, [(1,), (-1,)]), np.eye(2))
    rows = cocycle_rows_for_coords(psi, [(1,), (-1,)])
    assert rows.shape[0] == 2
    assert np.allclose(rows.T @ rows, np.eye(2), atol=1e-12)


def test_cocycle_rejects_indefinite():
    psi = LengthFunction.naive_square((5,))
    with pytest.raises(ValueError):
        cocycle_rows_for_coords(psi, [(k,) for k in window_range(5)])


def test_cocycle_roundtrip_random_psd():
    # 100 random admissible length draws: max-entry |G^T G - K| <= tol
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(3, 20))
        kind = ("word", "heat")[trial % 2]
        psi = LengthFunction(kind, (n,))
        pts = rng.choice(list(window_range(n)), size=min(n, 6), replace=False)
        coords = [(int(k),) for k in pts]
        K = gromov_entries_for_coords(psi, coords)
        rows = cocycle_rows_for_coords(psi, coords)
        assert np.abs(rows.T @ rows - K).max() <= psd_tolerance(K)


# -- smoothing multipliers ----------------------------------------------------


def test_multiplier_contract_examples():
    psi = LengthFunction.word((None,))
    phi = build_smoothing_multiplier(psi, 4, 0.25)
    assert phi.value_at((0,)) == 1.0
    for g in range(-4, 5):
        assert abs(phi.value_at((g,)) - 1) <= 0.25
    for g in phi.values:
        assert psi.value(g) <= phi.band
    assert phi.band > 4
    assert phi.tail <= 0.25


def test_multiplier_random_draws_meet_contract():
    rng = np.random.default_rng(7)
    for trial in range(20):
        kind = ("word", "heat")[trial % 2]
        n = int(rng.integers(8, 64)) if trial % 3 else None
        psi = LengthFunction(kind, (n,))
        k = float(rng.integers(0, 5))
        eps = float(rng.uniform(0.05, 0.6))
        try:
            phi = build_smoothing_multiplier(psi, k, eps, window=256)
        except ValueError:
            continue  # window genuinely too small for this draw
        # (iii): near 1 on the low band
        pts = window_range(n) if n else range(-256, 257)
        for g in pts:
            v = psi.value((g,))
            got = phi.value_at((g,))
            if v <= k:
                assert abs(got - 1) <= eps + 1e-12
            if v > phi.band:
                assert got == 0.0  # (ii): supported in {psi <= m}
            assert abs(got) <= 1.0
        assert phi.tail <= eps + 1e-12  # (i): cb-defect certificate


def test_multiplier_window_too_small():
    psi = LengthFunction.word((None,))
    with pytest.raises(ValueError):
        build_smoothing_multiplier(psi, 20, 0.01, window=8)


def test_multiplier_names_the_largest_length_on_z_n():
    with pytest.raises(ValueError, match=r"cutoff k = 4 is at least the largest length 4\.0 on "
                                         r"Z_n, n = \(8,\)$"):
        build_smoothing_multiplier(LengthFunction.word((8,)), 4, 0.25)


def test_multiplier_rejects_bad_eps():
    psi = LengthFunction.word((8,))
    with pytest.raises(ValueError):
        build_smoothing_multiplier(psi, 1, 0.0)
    with pytest.raises(ValueError):
        build_smoothing_multiplier(psi, -1, 0.5)


def test_product_multiplier_values():
    psi = LengthFunction.heat((16,))
    part = build_smoothing_multiplier(psi, 2.0, 0.2)
    prod = product_multiplier([part, part])
    assert prod.value_at((1, 2)) == pytest.approx(
        part.value_at((1,)) * part.value_at((2,))
    )
    assert prod.moduli == (16, 16)

