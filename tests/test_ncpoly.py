import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzytorus import _mats, ncpoly
from fuzzytorus.experiments import _net_points
from fuzzytorus.lattice import (
    LengthFunction,
    band_window,
    build_smoothing_multiplier,
    canonical_rep,
    cocycle_rows_for_coords,
    gromov_entries_for_coords,
    product_multiplier,
)
from fuzzytorus.lipnorm import lip_seminorm
from fuzzytorus.matrixmodel import clock_shift
from fuzzytorus.ncpoly import (
    PRUNE_REL,
    NCPoly,
    SymbolGrid,
    TwistMatrix,
    adjoint,
    apply_multiplier,
    gradient_coeffs,
    gradient_form,
    l2_norm,
    mean_zero,
    multiply,
    normal_order_phase,
    project,
)


def rand_poly(rng, twist, band, m=1):
    coords = [()]
    for _ in range(twist.d):
        coords = [c + (k,) for c in coords for k in range(-band, band + 1)]
    return NCPoly(
        twist,
        m,
        {c: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for c in coords},
    )


@pytest.mark.parametrize("m", [1, 2])
def test_prune_boundary_is_strict(m):
    # a block is kept iff its largest entry exceeds PRUNE_REL times the top one
    tw = TwistMatrix.zero(1)
    top = np.full((m, m), 0.5)
    top[0, -1] = 3.0
    cut = PRUNE_REL * 3.0
    at_cut = np.zeros((m, m))
    at_cut[-1, 0] = -cut
    above = np.full((m, m), cut / 2)
    above[-1, -1] = np.nextafter(cut, 1.0)
    p = NCPoly(tw, m, {(0,): top, (1,): at_cut, (2,): above})
    assert sorted(p.coeffs) == [(0,), (2,)]
    assert np.array_equal(p.coeffs[(2,)], above)
    kept = NCPoly(tw, m, {(0,): top, (1,): at_cut}, prune=False)
    assert sorted(kept.coeffs) == [(0,), (1,)]


@pytest.mark.parametrize("m", [1, 2])
def test_difference_is_sum_with_negation_bitwise(m):
    # equal key sets, disjoint ones, and keys that cancel exactly
    rng = np.random.default_rng(m)
    tw = TwistMatrix.zero(2)
    a, b = rand_poly(rng, tw, 2, m), rand_poly(rng, tw, 2, m)
    shifted = NCPoly(tw, m, ([(k1 + 5, k2) for k1, k2 in b.keys], b.blocks))
    for x, y in ((a, b), (a, shifted), (shifted, a), (a, a)):
        diff, ref = x - y, x + (-1.0) * y
        assert diff.keys == ref.keys
        assert np.array_equal(diff.blocks.view(np.uint64), ref.blocks.view(np.uint64))
    with pytest.raises(ValueError, match="mismatch"):
        a - rand_poly(rng, tw, 1, 3 - m)


def test_block_stack_validation():
    z2 = TwistMatrix.zero(2)
    with pytest.raises(ValueError, match=r"coefficient block at \(1, 0\) has shape \(3, 3\)"):
        NCPoly(z2, 2, {(0, 0): np.eye(2), (1, 0): np.eye(3)})
    with pytest.raises(ValueError, match=r"coefficient block at \(0, 0\) has shape \(\)"):
        NCPoly(z2, 2, {(0, 0): 1.0})
    with pytest.raises(ValueError, match=r"index \(1, 0, 0\) has wrong dimension"):
        NCPoly(z2, 1, {(0, 0): 1.0, (1, 0, 0): 2.0})
    # numpy-int keys become int tuples; scalars, 0-d and 1 x 1 blocks mix at m = 1
    p = NCPoly(z2, 1, {(np.int64(1), np.int32(-2)): 2.0, (0, 0): np.array([[3j]]),
                       (2, 0): np.array(4.0)})
    assert p.keys == ((1, -2), (0, 0), (2, 0))
    assert all(type(c) is int for k in p.keys for c in k)
    assert p.blocks.shape == (3, 1, 1) and p.blocks.dtype == complex
    assert np.array_equal(p.blocks[:, 0, 0], [2.0, 3j, 4.0])
    # the (keys, blocks) pair: an integer key array and a stack
    q = NCPoly(z2, 1, (np.array([[1, -2], [0, 0], [2, 0]]), np.array([2.0, 3j, 4.0])))
    assert q.keys == p.keys and np.array_equal(q.blocks, p.blocks)
    assert NCPoly(z2, 2, {}).blocks.shape == (0, 2, 2)
    with pytest.raises(ValueError, match="keys must be distinct"):
        NCPoly(z2, 1, ([(1, 0), (1, 0)], [1.0, 2.0]))


# -- twists and phases --------------------------------------------------------


def test_twist_validation():
    with pytest.raises(ValueError):
        TwistMatrix(np.array([[0.0, 0.3], [0.3, 0.0]]))  # not skew
    with pytest.raises(ValueError, match="skew"):  # within a relative 1e-5 of skew
        TwistMatrix(np.array([[0.0, 1000.0], [-1000.004, 0.0]]))
    TwistMatrix(np.array([[0.0, 1000.0], [-1000.0 - 1e-13, 0.0]]))
    half = TwistMatrix.two_dim(0.5)
    assert not half.same(TwistMatrix.two_dim(0.500004))
    assert half.same(TwistMatrix.two_dim(0.5 + 1e-13)) and half.same(TwistMatrix.rational_2d(1, 2))
    with pytest.raises(ValueError, match="twist/amplification mismatch"):
        NCPoly.generator(half, 0) + NCPoly.generator(TwistMatrix.two_dim(0.500004), 0)
    t = TwistMatrix.two_dim(1.3)
    assert t.theta[0, 1] == pytest.approx(0.3)
    assert t.theta[1, 0] == pytest.approx(-0.3)
    # twists are angles mod 1: a theta just below 0 reduces to just below 1
    assert TwistMatrix.zero(2).same(TwistMatrix.two_dim(-1e-13))
    assert not TwistMatrix.zero(2).same(TwistMatrix.two_dim(-2e-12))
    assert TwistMatrix.two_dim(-1e-15).is_zero and TwistMatrix.two_dim(-1e-17).is_zero
    assert not TwistMatrix.two_dim(-1e-13).is_zero and not half.is_zero
    SymbolGrid(8, TwistMatrix.two_dim(-1e-15))  # the commutative oracle


def test_normal_order_phase_examples():
    t = TwistMatrix.two_dim(0.5)
    assert normal_order_phase((0, 1), (1, 0), t) == pytest.approx(-1.0)
    assert normal_order_phase((1, 0), (0, 1), t) == pytest.approx(1.0)
    z = TwistMatrix.zero(2)
    assert normal_order_phase((3, -2), (5, 7), z) == pytest.approx(1.0)


def test_phases_of_key_arrays_have_the_scalar_bits():
    rng = np.random.default_rng(47)
    for t in (TwistMatrix.two_dim(0.31), TwistMatrix.rational_2d(2, 5)):
        a = rng.integers(-9, 10, size=(6, 2))
        b = rng.integers(-9, 10, size=(5, 2))
        got = normal_order_phase(a[:, None], b[None], t)
        assert got.shape == (6, 5)
        assert all(got[i, j] == normal_order_phase(tuple(a[i]), tuple(b[j]), t)
                   for i in range(6) for j in range(5))
        adj = normal_order_phase(-a, a, t)
        assert all(p == normal_order_phase(tuple(-k), tuple(k), t) for p, k in zip(adj, a))


@pytest.mark.parametrize("d", [2, 4])
def test_adjoint_of_monomial_is_its_inverse(d):
    # the adjoint phase is conj(normal_order_phase(-a, a)): (u^a)* u^a = 1
    rng = np.random.default_rng((53, d))
    for _ in range(20):
        th = np.triu(rng.random((d, d)), 1)
        t = TwistMatrix(th - th.T)
        u = NCPoly.monomial(t, tuple(int(c) for c in rng.integers(-30, 31, size=d)))
        prod = multiply(adjoint(u), u)
        assert list(prod.coeffs) == [(0,) * d]
        assert abs(prod.coeffs[(0,) * d][0, 0] - 1.0) <= 1e-15


def test_phase_dimension_mismatch():
    with pytest.raises(ValueError):
        normal_order_phase((1,), (1, 0), TwistMatrix.two_dim(0.25))


# -- product / adjoint --------------------------------------------------------


def test_multiply_examples():
    z = TwistMatrix.zero(2)
    u, v = NCPoly.generator(z, 0), NCPoly.generator(z, 1)
    assert (u * v).get((1, 1))[0, 0] == pytest.approx(1.0)

    t = TwistMatrix.two_dim(0.5)
    ut, vt = NCPoly.generator(t, 0), NCPoly.generator(t, 1)
    assert (vt * ut).get((1, 1))[0, 0] == pytest.approx(-1.0)

    d1 = TwistMatrix.zero(1)
    x = NCPoly.generator(d1, 0)
    s = x + adjoint(x)
    sq = s * s
    assert sq.get((0,))[0, 0] == pytest.approx(2.0)
    assert sq.get((2,))[0, 0] == pytest.approx(1.0)
    assert sq.get((-2,))[0, 0] == pytest.approx(1.0)


def test_multiply_mismatch_errors():
    a = NCPoly.generator(TwistMatrix.two_dim(0.5), 0)
    b = NCPoly.generator(TwistMatrix.two_dim(0.25), 0)
    with pytest.raises(ValueError):
        multiply(a, b)
    c = NCPoly.generator(TwistMatrix.two_dim(0.5), 0, m=2)
    with pytest.raises(ValueError):
        multiply(a, c)


def test_adjoint_examples():
    t = TwistMatrix.two_dim(0.3)
    uv = NCPoly.monomial(t, (1, 1))
    a = adjoint(uv)
    assert a.get((-1, -1))[0, 0] == pytest.approx(np.exp(-2j * np.pi * 0.3))
    d1 = TwistMatrix.zero(1)
    assert adjoint(3 * NCPoly.generator(d1, 0)).get((-1,))[0, 0] == pytest.approx(3.0)
    s = NCPoly.generator(d1, 0) + adjoint(NCPoly.generator(d1, 0))
    assert all(_mats.max_abs(b) <= 1e-12 for b in (s - adjoint(s)).coeffs.values())


@given(st.floats(0.0, 0.999), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_adjoint_is_involution(theta, band):
    rng = np.random.default_rng(int(theta * 1e6) + band)
    f = rand_poly(rng, TwistMatrix.two_dim(theta), band)
    g = adjoint(adjoint(f))
    assert f.support() == g.support()
    for k in f.support():
        assert np.allclose(f.get(k), g.get(k), atol=1e-12)


def test_associativity_and_antihomomorphism():
    # (fg)h = f(gh) and (fg)* = g* f* on 100 random triples per twist
    for theta in (0.0, 0.5, 1 / 3, 0.123):
        t = TwistMatrix.two_dim(theta)
        for trial in range(100):
            rng = np.random.default_rng((hash(theta) % 2**32, trial))
            f = rand_poly(rng, t, 1)
            g = rand_poly(rng, t, 1)
            h = rand_poly(rng, t, 1)
            lhs = (f * g) * h
            rhs = f * (g * h)
            for k in set(lhs.support()) | set(rhs.support()):
                assert np.allclose(lhs.get(k), rhs.get(k), atol=1e-10)
            a = adjoint(f * g)
            b = adjoint(g) * adjoint(f)
            for k in set(a.support()) | set(b.support()):
                assert np.allclose(a.get(k), b.get(k), atol=1e-10)


def test_amplified_antihomomorphism():
    t = TwistMatrix.two_dim(0.37)
    rng = np.random.default_rng(11)
    f = rand_poly(rng, t, 1, m=2)
    g = rand_poly(rng, t, 1, m=2)
    a = adjoint(f * g)
    b = adjoint(g) * adjoint(f)
    for k in set(a.support()) | set(b.support()):
        assert np.allclose(a.get(k), b.get(k), atol=1e-10)


# -- projections / norms ------------------------------------------------------


def test_project_examples():
    z = TwistMatrix.zero(1)
    f = 2 * NCPoly.one(z) + NCPoly.generator(z, 0)
    mz = mean_zero(f)
    assert mz.support() == [(1,)]

    u2 = NCPoly.monomial(z, (2,))
    assert project(u2, lambda k: all(abs(c) <= 1 for c in k)).support() == []

    z2 = TwistMatrix.zero(2)
    f2 = NCPoly.monomial(z2, (1, 1)) + NCPoly.monomial(z2, (0, 1))
    assert project(f2, lambda k: abs(k[0]) > 2).support() == []
    assert project(f2, lambda k: abs(k[0]) > 0).support() == [(1, 1)]


def test_l2_examples():
    z2 = TwistMatrix.zero(2)
    u, v = NCPoly.generator(z2, 0), NCPoly.generator(z2, 1)
    assert l2_norm(u + v) == pytest.approx(math.sqrt(2))
    assert l2_norm(NCPoly.one(z2)) == pytest.approx(1.0)
    z1 = TwistMatrix.zero(1)
    blk = NCPoly.monomial(z1, (1,), block=np.diag([1.0, 0.0]), m=2)
    assert l2_norm(blk) == pytest.approx(math.sqrt(0.5))


# -- oracles ------------------------------------------------------------------


def grid_norm(f, G=64):
    """The grid oracle's norm of f on G points per axis."""
    return SymbolGrid(G, f.twist).norm(f)


def test_oracle_examples():
    z1 = TwistMatrix.zero(1)
    u = NCPoly.generator(z1, 0)
    assert grid_norm(u + adjoint(u)) == pytest.approx(2.0)

    z2 = TwistMatrix.zero(2)
    f = sum(
        [NCPoly.generator(z2, i) for i in (0, 1)]
        + [adjoint(NCPoly.generator(z2, i)) for i in (0, 1)],
        NCPoly.zero(z2),
    )
    assert grid_norm(f) == pytest.approx(4.0)

    t = TwistMatrix.rational_2d(1, 2)
    g = sum(
        [NCPoly.generator(t, i) for i in (0, 1)]
        + [adjoint(NCPoly.generator(t, i)) for i in (0, 1)],
        NCPoly.zero(t),
    )
    assert grid_norm(g) == pytest.approx(2 * math.sqrt(2))


def test_oracle_rejects_coarse_grid_and_bad_twist():
    z1 = TwistMatrix.zero(1)
    f = NCPoly.monomial(z1, (10,))
    with pytest.raises(ValueError, match="too coarse"):
        lip_seminorm(f, LengthFunction.heat((None,)), grid=16)
    irr = TwistMatrix.two_dim(1 / math.sqrt(2))
    with pytest.raises(ValueError):
        grid_norm(NCPoly.generator(irr, 0))
    with pytest.raises(ValueError, match="no norm oracle"):
        SymbolGrid(64, irr)


@pytest.mark.parametrize("twist, G", [(TwistMatrix.zero(2), 12),
                                      (TwistMatrix.rational_2d(2, 5), 10)],
                         ids=("zero", "p2-q5"))
def test_symbol_grid_reduces_keys_mod_G(twist, G):
    # u^k and u^(k mod G) agree on the grid points (and, with q | G, so do the
    # fiber words): keys beyond +-G evaluate bitwise as their residues
    rng = np.random.default_rng(G)
    grid = SymbolGrid(G, twist)
    f = rand_poly(rng, twist, 2, m=2)
    gam = gradient_form(f, f, LengthFunction.heat((None, None)))
    for x, measure in ((f, grid.norm), (gam, grid.lip_column)):
        keys = np.array(x.keys)
        far = NCPoly(twist, 2, (keys + G * rng.choice([-3, -2, 2, 3], size=keys.shape), x.blocks))
        res = NCPoly(twist, 2, (keys % G, x.blocks))
        assert np.abs(np.array(far.keys)).min() > G
        assert np.array_equal(grid.values(far.keys, grid._lift(far)),
                              grid.values(res.keys, grid._lift(res)))
        assert measure(far) == measure(res)


def _direct_sum_grid(support, G, d, fiber, blocks, m):
    """The phase matrix P[t, a] = exp(2 pi i k_a . t) over the G^d grid and
    the lifted coefficient stack X, with fibers built from dense clock/shift
    powers: the direct sum P @ X that SymbolGrid.values replaces."""
    ks = np.array(support)
    P = np.ones((1, len(support)), dtype=complex)
    t = np.arange(G) / G
    for axis in range(d):
        E = np.exp(2j * np.pi * np.outer(t, ks[:, axis]))
        P = (P[:, None, :] * E[None, :, :]).reshape(-1, len(support))
    q = 1 if fiber is None else fiber[1]
    X = np.zeros((len(support), m * q, m * q), dtype=complex)
    for i, k in enumerate(support):
        if fiber is None:
            X[i] = blocks[k]
        else:
            clock = np.diag(np.exp(2j * np.pi * k[0] * np.arange(q) / q))
            shift = np.roll(np.eye(q), fiber[0] * k[1], axis=0)  # e_l -> e_{l + p k1}
            X[i] = np.kron(blocks[k], clock @ shift)
    return P, X


def _cocycle_lip_column(support, G, d, fiber, blocks, m, psi):
    """Reference ||Gamma(f, f)^(1/2)|| on the grid by the cocycle rows of psi
    over f's support: D_i = sum_a rows[i, a] fhat(a) u^a as symbols, then the
    top eigenvalue of sum_i D_i* D_i at each grid point."""
    P, X = _direct_sum_grid(support, G, d, fiber, blocks, m)
    rows = cocycle_rows_for_coords(psi, support)
    D = np.tensordot(P, np.einsum("rs,sij->rsij", rows, X), axes=(1, 1))
    H = np.einsum("trki,trkj->tij", D.conj(), D)
    return float(np.sqrt(max(_mats.batched_max_eig(H).max(initial=0.0), 0.0)))


@pytest.mark.parametrize(
    "d, m, fiber, band, G",
    [
        (1, 1, None, 3, 16),
        (1, 2, None, 3, 5),  # G < 2 band + 1: keys 3 and -2 share a grid cell
        (2, 1, None, 2, 9),
        (2, 2, None, 2, 4),
        (2, 1, (1, 2), 2, 8),
        (2, 2, (2, 5), 2, 7),
        (2, 1, (2, 5), 2, 3),
        (2, 2, (1, 2), 0, 6),  # constant element: Gamma = 0, no cocycle rows
    ],
)
def test_symbol_grid_matches_direct_sum(d, m, fiber, band, G):
    rng = np.random.default_rng((d, m, band, G))
    support = band_window(band, d)
    blocks = {k: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
              for k in support}
    twist = TwistMatrix.zero(d) if fiber is None else TwistMatrix.rational_2d(*fiber)
    grid = SymbolGrid(G, twist)
    P, X = _direct_sum_grid(support, G, d, fiber, blocks, m)

    S = np.tensordot(P, X, axes=(1, 0))
    assert np.abs(grid.values(support, X) - S).max() <= 1e-13 * np.abs(S).max()
    norm = float(_mats.batched_sigma_max(S).max())
    f = NCPoly(twist, m, blocks)
    assert grid.norm(f) == pytest.approx(norm, rel=1e-13, abs=0)

    psi = LengthFunction.heat((None,) * d)
    gam = gradient_form(f, f, psi)
    lip = _cocycle_lip_column(support, G, d, fiber, blocks, m, psi)
    assert grid.lip_column(gam) == pytest.approx(lip, rel=1e-13, abs=0)


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("p,q", ((1, 2), (2, 3), (2, 5)))
def test_fiber_oracle_on_fundamental_domain(p, q, m):
    rng = np.random.default_rng((p, q, m))
    twist = TwistMatrix.rational_2d(p, q)
    f = NCPoly(twist, m, {k: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                          for k in band_window(2, 2)})
    gam = gradient_form(f, f, LengthFunction.heat((None, None)))
    for G, divides in ((8 * q, True), (8 * q + 1, False)):
        grid = SymbolGrid(G, twist)
        norm = _mats.batched_sigma_max(grid.values(f.keys, grid._lift(f))).max()
        top = _mats.batched_max_eig(grid.values(gam.keys, grid._lift(gam))).max()
        lip = np.sqrt(max(top, 0.0))
        if divides:  # the corner's maximum: at most the full grid's, and 2e-15 close
            assert norm * (1 - 2e-15) <= grid.norm(f) <= norm
            assert lip * (1 - 2e-15) <= grid.lip_column(gam) <= lip
        else:
            assert grid.norm(f) == norm
            assert grid.lip_column(gam) == lip


def test_two_by_two_sigma_max_closed_form():
    rng = np.random.default_rng(8)
    mats = rng.standard_normal((10000, 2, 2)) + 1j * rng.standard_normal((10000, 2, 2))
    ref = np.linalg.svd(mats, compute_uv=False)[:, 0]
    assert np.abs(_mats.batched_sigma_max(mats) - ref).max() <= 1e-15 * ref.max()
    assert _mats.batched_sigma_max(np.zeros((3, 2, 2))).tolist() == [0.0] * 3
    # sigma_1 = sigma_2: 3 times a unitary, where a |det|-based root reads 1e-8 high
    unitary = np.linalg.qr(mats[:100])[0]
    assert np.abs(_mats.batched_sigma_max(3 * unitary) - 3).max() <= 4e-15


def test_two_by_two_max_eig_at_a_double_eigenvalue():
    # H = (3U)*(3U) for U unitary has both eigenvalues 9, where tr^2 - 4 det
    # cancels: the trace/determinant root read up to 2e-8 high on this batch
    rng = np.random.default_rng(9)
    z = rng.standard_normal((10000, 2, 2)) + 1j * rng.standard_normal((10000, 2, 2))
    m = 3 * np.linalg.qr(z)[0]
    h = np.swapaxes(m.conj(), -1, -2) @ m
    ref = np.linalg.eigvalsh(h)[:, -1]
    assert np.abs(_mats.batched_max_eig(h) / ref - 1).max() <= 4e-15
    herm = z + np.swapaxes(z.conj(), -1, -2)
    ref = np.linalg.eigvalsh(herm)[:, -1]
    assert np.abs(_mats.batched_max_eig(herm) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_oracle_is_lower_bound():
    # grid values never exceed the true sup; here compare against a finer grid
    rng = np.random.default_rng(3)
    f = rand_poly(rng, TwistMatrix.zero(1), 3)
    coarse = grid_norm(f, 32)
    fine = grid_norm(f, 1024)
    assert coarse <= fine + 1e-12
    # the O((band/G)^2) truncation bound of one axis at band 3, G = 32
    assert fine <= coarse * (1 + 0.5 * (math.pi * 3 / 32) ** 2) + 1e-9


# -- multipliers ----------------------------------------------------------------


def test_apply_multiplier_identity_and_tail_kill():
    z1 = TwistMatrix.zero(1)
    heat = LengthFunction.heat((None,))
    phi = build_smoothing_multiplier(heat, 1.0, 0.3)
    f = NCPoly.monomial(z1, (1,)) + NCPoly.monomial(z1, (40,))
    g = apply_multiplier(f, phi)
    assert heat.value((40,)) > phi.band
    assert g.get((40,))[0, 0] == 0.0
    assert abs(g.get((1,))[0, 0] - 1.0) <= 0.3


@pytest.mark.parametrize("m", [1, 2])
def test_apply_multiplier_is_scale_coeffs_bitwise(m):
    # keys outside the window of Z_16 reduce into it (12 -> -4, -9 -> 7)
    heat = LengthFunction.heat((16,))
    phi = product_multiplier([build_smoothing_multiplier(heat, heat.coord_value(2), 0.2)] * 2)
    rng = np.random.default_rng(m)
    keys = band_window(3, 2) + [(12, 1), (-9, 0), (5, 5)]
    blocks = rng.standard_normal((len(keys), m, m)) + 1j * rng.standard_normal((len(keys), m, m))
    f = NCPoly(TwistMatrix.zero(2), m, dict(zip(keys, blocks)))
    g = apply_multiplier(f, phi)
    ref = f.scale_coeffs(phi.value_at)
    assert g.keys == ref.keys
    assert np.array_equal(g.blocks.view(np.uint64), ref.blocks.view(np.uint64))
    # per key: the canonical representative's value times the block
    for k, b in g.coeffs.items():
        v = phi.values.get(tuple(canonical_rep(c, 16) for c in k), 0.0)
        assert np.array_equal((v * f.coeffs[k]).view(np.uint64), b.view(np.uint64))
    assert phi.values_at([(12, 1), (-9, 0)]) == [phi.values[(-4, 1)], phi.values[(7, 0)]]


# -- gradient form ------------------------------------------------------------


def test_gradient_examples():
    heat = LengthFunction.heat((None,))
    for theta in (0.0, 0.25):
        t = TwistMatrix.two_dim(theta)
        heat2 = LengthFunction.heat((None, None))
        u = NCPoly.generator(t, 0)
        g = gradient_form(u, u, heat2)
        assert g.support() == [(0, 0)]
        assert g.get((0, 0))[0, 0] == pytest.approx(1.0)

    z1 = TwistMatrix.zero(1)
    u = NCPoly.generator(z1, 0)
    s = u + adjoint(u)
    g = gradient_form(s, s, heat)
    assert g.get((0,))[0, 0] == pytest.approx(2.0)
    assert g.get((2,))[0, 0] == pytest.approx(-1.0)
    assert g.get((-2,))[0, 0] == pytest.approx(-1.0)
    assert grid_norm(g) == pytest.approx(4.0)

    f = rand_poly(np.random.default_rng(0), z1, 2)
    assert gradient_form(NCPoly.one(z1), f, heat).support() == []


def test_gradient_selfadjoint_and_sesquilinear():
    heat2 = LengthFunction.heat((None, None))
    t = TwistMatrix.two_dim(0.29)
    rng = np.random.default_rng(5)
    f = rand_poly(rng, t, 1, m=2)
    g = rand_poly(rng, t, 1, m=2)
    gam = gradient_form(f, f, heat2)
    assert all(_mats.max_abs(b) <= 1e-10 for b in (gam - adjoint(gam)).coeffs.values())
    # sesquilinearity in the first slot
    c = 1.3 - 0.7j
    lhs = gradient_form(c * f + g, c * f + g, heat2)
    terms = [
        (abs(c) ** 2, gradient_form(f, f, heat2)),
        (np.conj(c), gradient_form(f, g, heat2)),
        (c, gradient_form(g, f, heat2)),
        (1.0, gradient_form(g, g, heat2)),
    ]
    for k in lhs.support():
        total = sum(w * poly.get(k) for w, poly in terms)
        assert np.allclose(lhs.get(k), total, atol=1e-10)


def test_gradient_tau_plancherel_identity():
    # tau(Gamma(f,f)) = sum_k psi(k) tr(fhat* fhat)/m exactly
    heat2 = LengthFunction.heat((None, None))
    t = TwistMatrix.two_dim(0.41)
    for trial in range(20):
        rng = np.random.default_rng((17, trial))
        f = rand_poly(rng, t, 2, m=2)
        gam = gradient_form(f, f, heat2)
        lhs = np.trace(gam.get((0, 0))).real / f.m
        rhs = sum(
            heat2.value(k) * np.vdot(b, b).real / f.m for k, b in f.coeffs.items()
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_gradient_matches_derivative_rule():
    # theta=0, d=1: ||Gamma(f,f)|| == sup |f'|^2 / (2 pi)^2 for trig polys
    heat = LengthFunction.heat((None,))
    for trial in range(10):
        rng = np.random.default_rng((23, trial))
        f = rand_poly(rng, TwistMatrix.zero(1), 8)
        g = gradient_form(f, f, heat)
        lhs = grid_norm(g, 2048)
        deriv = f.scale_coeffs(lambda k: 2j * math.pi * k[0])
        sup_d = grid_norm(deriv, 2048)
        assert lhs == pytest.approx(sup_d**2 / (2 * math.pi) ** 2, rel=1e-3)


def test_gradient_symbol_pointwise_psd():
    heat2 = LengthFunction.heat((None, None))
    rng = np.random.default_rng(9)
    f = rand_poly(rng, TwistMatrix.zero(2), 2, m=2)
    gam = gradient_form(f, f, heat2)
    G = 32
    for s in range(G):
        for t_ in range(G):
            val = sum(
                b * np.exp(2j * np.pi * (k[0] * s + k[1] * t_) / G)
                for k, b in gam.coeffs.items()
            )
            assert np.linalg.eigvalsh(val).min() >= -1e-9


def test_gradient_psd_assembly_matches_gagro():
    heat = LengthFunction.heat((None,))
    rng = np.random.default_rng(31)
    f = rand_poly(rng, TwistMatrix.zero(1), 4, m=2)
    via_rows = _cocycle_lip_column(f.support(), 256, 1, None, f.coeffs, f.m, heat)
    gam = gradient_form(f, f, heat)
    assert SymbolGrid(256, f.twist).lip_column(gam) == pytest.approx(
        via_rows, rel=1e-13)
    assert math.sqrt(grid_norm(gam, 256)) == pytest.approx(via_rows, rel=1e-10)


def _gradient_form_loop(f, g, psi):
    """The scalar loop over pairs (x, y) that gradient_coeffs vectorizes over
    y, kept as its bitwise reference."""
    xs, ys = f.support(), g.support()
    both = xs + [y for y in ys if y not in set(xs)]
    K = gromov_entries_for_coords(psi, both)
    pos = {k: i for i, k in enumerate(both)}
    out = {}
    for x in xs:
        fx = f.coeffs[x].conj().T
        negx = tuple(-c for c in x)
        ax = normal_order_phase(negx, x, f.twist).conjugate()
        for y in ys:
            w = K[pos[x], pos[y]]
            if w == 0.0:
                continue
            c = tuple(b - a for a, b in zip(x, y))
            phase = ax * normal_order_phase(negx, y, f.twist)
            out[c] = out.get(c, 0) + (w * phase) * (fx @ g.coeffs[y])
    return NCPoly(f.twist, f.m, out)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_gradient_form_is_bitwise_the_scalar_loop(d, m):
    # zero twist: keys, key order and every block bit are the loop's
    rng = np.random.default_rng((43, d, m))
    tw = TwistMatrix.zero(d)
    f = rand_poly(rng, tw, 2, m=m)
    g = project(rand_poly(rng, tw, 3, m=m), lambda k: k[0] != 1)
    for psi in (LengthFunction.heat((None,) * d), LengthFunction.heat((16,) * d),
                LengthFunction.word((16,) * d)):
        for a, b in ((f, f), (f, g), (g, f)):
            got, ref = gradient_form(a, b, psi), _gradient_form_loop(a, b, psi)
            assert list(got.coeffs) == list(ref.coeffs)
            assert all(np.array_equal(got.coeffs[k], ref.coeffs[k]) for k in ref.coeffs)


@pytest.mark.parametrize("m", [1, 2])
def test_gradient_coeffs_batches_elements(m):
    # a (S, B, m, m) stack gives each element's gradient_form blocks bitwise
    rng = np.random.default_rng((53, m))
    heat = LengthFunction.heat((None,))
    tw = TwistMatrix.zero(1)
    polys = [rand_poly(rng, tw, 2, m=m) for _ in range(4)]
    xs = polys[0].support()
    stack = np.stack([[p.coeffs[k] for p in polys] for k in xs])
    keys, gam = gradient_coeffs(xs, stack, xs, stack, heat, tw)
    assert gam.shape == (len(keys), 4, m, m)
    for i, p in enumerate(polys):
        ref = gradient_form(p, p, heat).coeffs
        assert keys == list(ref)
        assert all(np.array_equal(gam[j, i], ref[k]) for j, k in enumerate(keys))


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("kind", ["heat", "word"])
@pytest.mark.parametrize("modulus", [None, 16])
def test_gradient_coeffs_ignores_the_mean_coefficient(b, kind, modulus):
    # K(0, y) = K(x, 0) = 0, so the mean coefficient enters no live pair and
    # Gamma(c 1 + z, c 1 + z) = Gamma(z, z) bitwise: covering-net takes the Lip
    # of every net point from its mean-zero part
    rng = np.random.default_rng((59, b, modulus or 0))
    psi = LengthFunction(kind, (modulus,))
    tw = TwistMatrix.zero(1)
    xs = band_window(b, 1)
    stack = rng.standard_normal((len(xs), 6, 1, 1)) + 1j * rng.standard_normal((len(xs), 6, 1, 1))
    stack[xs.index((0,)), :3] *= 1e3
    zero = stack.copy()
    zero[xs.index((0,))] = 0.0
    keys, gam = gradient_coeffs(xs, stack, xs, stack, psi, tw)
    keys0, gam0 = gradient_coeffs(xs, zero, xs, zero, psi, tw)
    assert keys == keys0
    assert np.array_equal(gam, gam0)


def grid_values_add_at(grid, keys, X):
    """SymbolGrid.values by one np.add.at into the grid, the scatter its bin
    sums replaced; kept as their reference."""
    X = np.asarray(X)
    keys = np.array(keys, dtype=np.intp).reshape(-1, grid.d) % grid.G
    A = np.zeros((grid.G**grid.d,) + X.shape[1:], dtype=complex)
    np.add.at(A, np.ravel_multi_index(tuple(keys.T), (grid.G,) * grid.d), X)
    cube = A.reshape((grid.G,) * grid.d + X.shape[1:])
    np.fft.ifftn(cube, axes=tuple(range(grid.d)), norm="forward", out=cube)
    return A


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("G", [3, 64])
def test_net_gamma_stacks_are_the_scalar_loop_bitwise(b, G):
    # covering-net's (S, B, 1, 1) stacks of mean-zero net points, a column
    # per point, and its grid values of Gamma; at G = 3 keys fold mod G
    tw = TwistMatrix.zero(1)
    xs = band_window(b, 1)
    Z = _net_points([0.3 * np.arange(-2, 3)] * (2 * b + 1))[::7]
    Z[:, b] = 0.0
    stack = Z.T[:, :, None, None]
    grid = SymbolGrid(G, tw)
    for psi in (LengthFunction.heat((None,)), LengthFunction.word((G,))):
        keys, gam = gradient_coeffs(xs, stack, xs, stack, psi, tw)
        assert gam.shape == (len(keys), len(Z), 1, 1)
        for j in (0, 5, len(Z) - 1):
            z = NCPoly(tw, 1, (xs, Z[j]), prune=False)
            ref = _gradient_form_loop(z, z, psi).coeffs
            assert keys == list(ref)
            assert all(np.array_equal(gam[i, j].view(np.uint64), ref[k].view(np.uint64))
                       for i, k in enumerate(keys))
        got = grid.values(keys, gam[..., 0, 0])
        assert np.array_equal(got.view(np.uint64),
                              grid_values_add_at(grid, keys, gam[..., 0, 0]).view(np.uint64))


@pytest.mark.parametrize("m", [1, 2])
def test_grid_values_are_the_add_at_scatter_bitwise(m):
    # blocks on a d = 2 grid whose keys fold onto each other mod G, in two
    # key orders, real blocks, signed zeros and a rational fiber's lift
    rng = np.random.default_rng((67, m))
    keys = band_window(3, 2)
    X = rng.standard_normal((len(keys), m, m)) + 1j * rng.standard_normal((len(keys), m, m))
    X[::4] = -0.0
    zero, half = SymbolGrid(4, TwistMatrix.zero(2)), SymbolGrid(4, TwistMatrix.rational_2d(1, 2))
    lifted = half._lift(NCPoly(TwistMatrix.rational_2d(1, 2), m, (keys, X), prune=False))
    for grid, ks, stack in ((zero, keys, X), (zero, keys[::-1], X[::-1]), (zero, keys, X.real),
                            (half, keys, lifted), (zero, [], X[:0])):
        ref = grid_values_add_at(grid, ks, stack)
        assert np.array_equal(grid.values(ks, stack).view(np.uint64), ref.view(np.uint64))


def test_equal_twists_share_one_gradient_plan():
    # a fresh TwistMatrix.zero(1) per call, as covering-net makes per block
    psi = LengthFunction.heat((97,))
    xs = band_window(2, 1)
    stack = np.arange(1.0, 6.0).reshape(5, 1, 1, 1) + 0j
    first = gradient_coeffs(xs, stack, xs, stack, psi, TwistMatrix.zero(1))
    before = ncpoly._gradient_plan.cache_info()
    again = gradient_coeffs(xs, stack, xs, stack, psi, TwistMatrix.zero(1))
    after = ncpoly._gradient_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert first[0] == again[0] and np.array_equal(first[1], again[1])


def test_gradient_plan_cache_stays_under_its_bound():
    # at most 16 plans; a band-8 window in d = 2 has 83,521 pairs, 82,432 of
    # them live under the heat length at n = 33, 40 B each
    plan = ncpoly._gradient_plan
    big = tuple(band_window(8, 2)), LengthFunction.heat((33, 33)), TwistMatrix.zero(2)
    first = plan(big[0], big[0], big[1], big[2].theta.tobytes())
    assert len(first[1]) == 82_432 and sum(a.nbytes for a in first[1:]) <= 3.3e6
    small, tw = tuple(band_window(1, 1)), TwistMatrix.zero(1).theta.tobytes()
    for n in range(3, 20):
        plan(small, small, LengthFunction.heat((n,)), tw)
        assert plan.cache_info().currsize <= plan.cache_info().maxsize == 16
    misses = plan.cache_info().misses
    again = plan(big[0], big[0], big[1], TwistMatrix.zero(2).theta.tobytes())
    assert plan.cache_info().misses == misses + 1  # evicted, rebuilt with the same bits
    assert again[0] == first[0] and all(np.array_equal(a, b) for a, b in zip(again[1:], first[1:]))


# -- normal form uniqueness --------------------------------------------------


def test_normal_form_uniqueness_roundtrip():
    t = TwistMatrix.two_dim(0.31)
    rng = np.random.default_rng(41)
    f = rand_poly(rng, t, 1)
    g = rand_poly(rng, t, 1)
    h = multiply(f, g)
    h2 = adjoint(adjoint(h))
    assert h.support() == h2.support()
    for k in h.support():
        assert np.allclose(h.get(k), h2.get(k), atol=1e-12)



@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("p,q", ((1, 2), (2, 5)))
def test_fiber_lift_is_the_per_key_kron_bitwise(p, q, m):
    rng = np.random.default_rng((p, q, m, 1))
    support = band_window(2, 2)
    twist = TwistMatrix.rational_2d(p, q)
    grid = SymbolGrid(8 * q, twist)
    # keys in another order, one beyond the grid, and real blocks cast on the way
    blocks = {k: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
              for k in support[::-2] + [(8 * q + 3, -17)]}
    blocks[support[1]] = rng.standard_normal((m, m))
    f = NCPoly(twist, m, blocks)
    assert list(f.keys) == list(blocks)
    ref = np.array([np.kron(b, clock_shift(q).monomial((k[0], p * k[1])))
                    for k, b in blocks.items()])
    assert np.array_equal(grid._lift(f).view(np.uint64), ref.view(np.uint64))
