import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fuzzytorus
from fuzzytorus import _mats
from fuzzytorus.lattice import (
    LengthFunction,
    band_window,
    build_smoothing_multiplier,
    product_multiplier,
)
from fuzzytorus.lipnorm import (
    _cocycle_rows,
    _model_gamma,
    _sqrt_top,
    lip_ball_sample,
    lip_seminorm,
    lip_seminorm_on_model,
    draw,
    riesz_check,
)
from fuzzytorus.matrixmodel import (
    _band_gram,
    _embed_axes,
    _word_entries,
    clock_shift,
    embed,
    fourier_coefficients,
    fuzzy_generators,
    higher_dim_generators,
    op_norm,
)
from fuzzytorus.ncpoly import (
    NCPoly,
    TwistMatrix,
    _sorted_stack,
    adjoint,
    apply_multiplier,
    mean_zero,
    multiply,
)

HEAT1 = LengthFunction.heat((None,))
HEAT2 = LengthFunction.heat((None, None))


def rand_poly(rng, twist, band, m=1, sa=False, drop_mean=False):
    coords = [()]
    for _ in range(twist.d):
        coords = [c + (k,) for c in coords for k in range(-band, band + 1)]
    f = NCPoly(
        twist,
        m,
        {c: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for c in coords},
    )
    if sa:
        f = 0.5 * (f + adjoint(f))
    if drop_mean:
        f = mean_zero(f)
    return f


# -- seminorm examples ---------------------------------------------------------


def test_lip_examples():
    z1 = TwistMatrix.zero(1)
    for k in (1, 2, 5):
        assert lip_seminorm(NCPoly.monomial(z1, (k,)), HEAT1).lip == pytest.approx(
            abs(k)
        )
    assert lip_seminorm(NCPoly.one(z1), HEAT1).lip == pytest.approx(0.0)
    blk = NCPoly.monomial(z1, (0,), block=np.array([[1.0, 2.0], [0.5, -1.0]]), m=2)
    assert lip_seminorm(blk, HEAT1).lip == pytest.approx(0.0)
    u = NCPoly.generator(z1, 0)
    assert lip_seminorm(u + adjoint(u), HEAT1).lip == pytest.approx(2.0)


def test_lip_requires_an_oracle():
    irr = TwistMatrix.two_dim(1 / math.sqrt(5))
    with pytest.raises(ValueError):
        lip_seminorm(NCPoly.generator(irr, 0), HEAT2)


def test_lip_homogeneity_and_adjoint_symmetry():
    rng = np.random.default_rng(2)
    z2 = TwistMatrix.zero(2)
    for _ in range(10):
        f = rand_poly(rng, z2, 2)
        lf = lip_seminorm(f, HEAT2).lip
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert lip_seminorm(c * f, HEAT2).lip == pytest.approx(abs(c) * lf, rel=1e-10)
        assert lip_seminorm(adjoint(f), HEAT2).lip == pytest.approx(lf, rel=1e-12)
    # model side: no absolute cut, so tiny multiples keep their seminorm
    model = clock_shift(16)
    f = rand_poly(rng, z2, 2)
    lf = lip_seminorm_on_model(f, model, HEAT2).lip
    for c in (1e-16, 1e-20, complex(rng.standard_normal(), rng.standard_normal())):
        lc = lip_seminorm_on_model(c * f, model, HEAT2).lip
        assert lc / abs(c) == pytest.approx(lf, rel=1e-10)


@pytest.mark.parametrize("m", [1, 2])
def test_draw_blocks_is_the_two_calls_per_key_stream(m):
    coords = band_window(3, 2)
    f = draw((4, m), TwistMatrix.zero(2), coords, m)
    rng = np.random.default_rng((4, m))
    ref = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in coords]
    assert list(f.keys) == coords
    assert f.blocks.shape == (len(coords), m, m)
    assert np.array_equal(f.blocks.view(np.uint64), np.array(ref).view(np.uint64))


def test_model_mode_matches_symbol_for_word_transport():
    # intertwining transfer: word length on the window is carried exactly
    word1 = LengthFunction.word((None,))
    rng = np.random.default_rng(3)
    n = 64
    model = clock_shift(n)
    z1 = TwistMatrix.zero(1)
    for _ in range(10):
        f = rand_poly(rng, z1, 3)
        sym = lip_seminorm(f, word1, grid=4096).lip
        mod = lip_seminorm_on_model(f, model, word1).lip
        assert mod == pytest.approx(sym, rel=2e-3)
        assert mod <= sym + 1e-9  # restriction never exceeds the finer grid


def test_model_paths_agree_and_adjoint_is_matrix_adjoint():
    rng = np.random.default_rng(5)
    for model, tw in (
        (clock_shift(16), TwistMatrix.zero(2)),
        (fuzzy_generators(1, 2, 16), TwistMatrix.rational_2d(1, 2)),
    ):
        for m in (1, 2):
            f = rand_poly(rng, tw, 2, m=m)
            via_extract = lip_seminorm_on_model(
                fourier_coefficients(embed(f, model), 2), model, HEAT2)
            via_poly = lip_seminorm_on_model(f, model, HEAT2)
            assert via_poly.column == pytest.approx(via_extract.column, rel=1e-10)
            assert via_poly.row == pytest.approx(via_extract.row, rel=1e-10)

            from fuzzytorus.ncpoly import _adjoint_coeffs

            axes = _embed_axes(f, model)
            twist = TwistMatrix(model.phase_table[np.ix_(axes, axes)])
            adj = NCPoly(tw, m, _adjoint_coeffs(f, twist), prune=False)
            assert np.abs(
                embed(adj, model).matrix - embed(f, model).matrix.conj().T
            ).max() <= 1e-12


def test_model_gradient_matrix_is_psd():
    rng = np.random.default_rng(7)
    model = clock_shift(16)
    f = rand_poly(rng, TwistMatrix.zero(2), 2, m=2)
    g = fourier_coefficients(embed(f, model), 2)
    gam = _model_gamma(g, model, LengthFunction.heat((16, 16)), _embed_axes(f, model))
    eigs = np.linalg.eigvalsh(_mats.hermitian_from_band(gam))
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


def natural_gamma(f, model, psi_n, axes):
    """_model_gamma's band storage as a dense matrix in the natural basis."""
    pos = np.argsort(model.band_order(f.m))
    return _mats.hermitian_from_band(_model_gamma(f, model, psi_n, axes))[np.ix_(pos, pos)]


def dense_model_gamma(f, model, psi_n, axes):
    """Reference Gamma: the dense mN x mN assembly that the band storage
    replaced, pair by pair in g <= h order, then A + A*.  The band route
    must reproduce its bits."""
    support, coef = _sorted_stack(f)
    rows = _cocycle_rows(psi_n, tuple(support)) if support else np.zeros((0, 0))
    N, m = model.dim, f.m
    gamma = np.zeros((m, N, m, N), dtype=complex)
    if rows.size:
        perms, phase = model.words(support, axes)
        groups = {}
        for a, perm in enumerate(perms):
            groups.setdefault(perm.tobytes(), []).append(a)
        inv = [np.argsort(perms[g[0]]) for g in groups.values()]
        lam = [np.einsum("ia,acd,ar->ircd", rows[:, g], coef[g], phase[g][:, p])
               for g, p in zip(groups.values(), inv)]
        for g in range(len(lam)):
            for h in range(g, len(lam)):
                pair = np.einsum("irca,ircb->rab", lam[g].conj(), lam[h])
                gamma[:, inv[g], :, inv[h]] += 0.5 * pair if g == h else pair
    gamma = gamma.reshape(m * N, m * N)
    return gamma + gamma.conj().T


def half_bandwidth(x):
    """max |i - j| over the nonzeros of a dense x; -1 for x = 0."""
    i, j = np.nonzero(x)
    return int(np.abs(i - j).max(initial=-1))


def dense_hermitian_max_eig(x):
    """Reference top eigenvalue of a dense Hermitian x given in band order:
    its diagonals up to the last nonzero one to the band solver, as the
    dense entry point did, or eigvalsh."""
    n = x.shape[0]
    if n >= _mats.BAND_MIN_DIM:
        w = half_bandwidth(x)
        if 0 <= w <= n // 8:
            ab = np.array([np.pad(x.diagonal(-d), (0, d)) for d in range(w + 1)])
            try:
                return _mats._band_max_eig(ab)
            except np.linalg.LinAlgError:
                pass
    return float(np.linalg.eigvalsh(x)[-1])


def dense_sqrt_top(gamma, order):
    return math.sqrt(max(dense_hermitian_max_eig(gamma[np.ix_(order, order)]), 0.0))


def dense_stack_gamma(blocks, model, psi_n, axes, m):
    """Reference Gamma: the S x (mN)^2 stack of rows vec(blocks[a] (x) W^a),
    D = rows @ stack, Gamma = D* D in one product."""
    support = sorted(blocks)
    S, size = len(support), m * model.dim
    idx, phase = _word_entries(model, axes, support, m)
    vals = np.array([blocks[k] for k in support]).reshape(S, m, m, 1) * phase[:, None, None, :]
    stack = np.zeros((S, size * size), dtype=complex)
    np.put_along_axis(stack, idx.reshape(S, -1), vals.reshape(S, -1), axis=1)
    for row, k in zip(stack, support):
        dense = np.kron(blocks[k], model.monomial(k, axes))
        assert np.abs(row - dense.ravel()).max() <= 1e-12
    D = (_cocycle_rows(psi_n, tuple(support)) @ stack).reshape(-1, size)
    return D.conj().T @ D


@pytest.mark.parametrize(
    "model,band,m",
    [
        (clock_shift(512), 2, 1),
        # both block columns of m = 2
        (fuzzy_generators(1, 2, 32), 2, 2),
        (higher_dim_generators(6, 2), 1, 1),
        # the transport size: 289 coefficients in 17 permutation groups
        (clock_shift(64), 8, 1),
        # band 8 on n = 16: exponents 8 and -8 give the same word
        (clock_shift(16), 8, 1),
    ],
    ids=("clock_shift-512", "fuzzy-m2", "higher_dim", "transport", "aliased-words"),
)
def test_model_gamma_matches_dense_stack_reference(model, band, m):
    d = model.n_generators
    rng = np.random.default_rng(43)
    blocks = {k: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
              for k in band_window(band, d)}
    axes = tuple(range(d))
    psi = LengthFunction.heat((model.order,) * d)
    gam = natural_gamma(NCPoly(model.symbol_twist, m, blocks), model, psi, axes)
    ref = dense_stack_gamma(blocks, model, psi, axes, m)
    # the grouped-word sum adds in another order than the stack product
    assert np.abs(gam - ref).max() <= 1e-14 * np.abs(gam).max()
    assert np.array_equal(gam, gam.conj().T)


def random_gamma_input(model, band, m, axes=None, seed=17, psi="heat"):
    """A random element on the band window with the arguments of _model_gamma."""
    axes = tuple(range(model.n_generators)) if axes is None else axes
    rng = np.random.default_rng(seed)
    blocks = {k: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
              for k in band_window(band, len(axes))}
    psi_n = LengthFunction(psi, (model.order,) * len(axes))
    return NCPoly(TwistMatrix.zero(len(axes)), m, blocks), model, psi_n, axes


def band_ordered_gamma(model, band, m, axes=None, seed=17):
    """Gamma of a random element on the band window, in lower band storage
    over the model's band order."""
    return _model_gamma(*random_gamma_input(model, band, m, axes, seed))


@pytest.fixture
def band_calls(monkeypatch):
    """Half-bandwidths of the band matrices the band solver receives."""
    calls = []
    solve = _mats._band_max_eig

    def spy(ab):
        calls.append(ab.shape[0] - 1)
        return solve(ab)

    monkeypatch.setattr(_mats, "_band_max_eig", spy)
    return calls


@pytest.mark.parametrize(
    "args,width",
    [
        (random_gamma_input(clock_shift(1024), 2, 1), 8),
        # theta = 1/2: the top four eigenvalues of Gamma lie within 4e-11
        # (m = 1) and 7e-10 (m = 2) relative of each other
        (random_gamma_input(fuzzy_generators(1, 2, 128), 2, 1), 8),
        (random_gamma_input(fuzzy_generators(1, 2, 128), 2, 2), 17),
        # a polynomial on generator 0 only: Gamma and x*x are diagonal
        (random_gamma_input(clock_shift(1024), 2, 1, axes=(0,)), 0),
        *[(random_gamma_input(clock_shift(size // m), 2, m, seed=size + m), 9 * m - 1)
          for size in (256, 512, 1024) for m in (1, 2)],
    ],
    ids=("clock_shift-1024", "fuzzy-m1", "fuzzy-m2", "diagonal",
         *[f"clock_shift-{size}-m{m}" for size in (256, 512, 1024) for m in (1, 2)]),
)
def test_band_max_eig_matches_dense(args, width, band_calls):
    f, model, psi_n, axes = args
    gram = _band_gram(f, model, np.ones((1, len(f.keys))), axes)  # x*x
    for ab in (_model_gamma(f, model, psi_n, axes), gram):
        top = _mats.hermitian_max_eig(ab)
        ref = np.linalg.eigvalsh(_mats.hermitian_from_band(ab))[-1]
        assert abs(top - ref) <= 1e-14 * ref
    assert band_calls == [width, width]


def test_band_max_eig_is_polished():
    # the bisection's bracket alone is up to 1e-13 relative wide; the
    # polished value must match a long-double Rayleigh quotient of its top
    # eigenvector (spectral gap 2%, so that quotient is exact to ~1e-19)
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("needs an extended-precision long double")
    gam = band_ordered_gamma(clock_shift(1024), 2, 1)
    dense = _mats.hermitian_from_band(gam)
    vec = np.linalg.eigh(dense)[1][:, -1].astype(np.clongdouble)
    true = float((np.vdot(vec, dense.astype(np.clongdouble) @ vec) / np.vdot(vec, vec)).real)
    assert abs(_mats.hermitian_max_eig(gam) - true) <= 1e-15 * true


def test_torus_pattern_takes_dense_path(band_calls):
    # higher_dim's words move along a 2-torus: no narrow band in the cycle order
    gam = band_ordered_gamma(higher_dim_generators(16, 2), 1, 1)
    assert _mats.hermitian_max_eig(gam) == np.linalg.eigvalsh(_mats.hermitian_from_band(gam))[-1]
    assert band_calls == []


def test_band_path_falls_back_when_polish_fails(band_calls):
    # top eigenvalue 0: sigma = 0 leaves sigma I - x singular, so the
    # Cholesky factor fails and the dense path answers
    x = -np.arange(256.0).astype(complex)[None]  # the diagonal matrix -diag(0..255)
    assert _mats.hermitian_max_eig(x) == 0.0
    assert band_calls == [0]


def path_laplacian(n):
    """Lower band storage of the graph Laplacian of the path on n points:
    PSD, with top eigenvalue 4 - O(1/n^2) and eigenvalue 0 on the ones."""
    deg = np.full(n, 2.0)
    deg[[0, -1]] = 1.0
    return np.array([deg, np.append(-np.ones(n - 1), 0.0)], dtype=complex)


def double_top():
    """Two copies of one random PSD band block, uncoupled: every eigenvalue,
    the top one included, is double."""
    rng = np.random.default_rng(5)
    b = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    b = np.triu(np.tril(b, 4), -4)
    block = _mats.hermitian_from_band(np.array([np.pad(b.diagonal(-d), (0, d)) for d in range(5)]))
    block = block @ block.conj().T  # PSD, half-bandwidth 8
    ab = np.array([np.pad(block.diagonal(-d), (0, d)) for d in range(9)])
    return np.concatenate([ab, ab], axis=1)


@pytest.mark.parametrize(
    "ab,width",
    [
        # lambda_max = 0 under a negative diagonal: 1e-13 |hi| tends to 0
        # with hi, so only the absolute floor ends the bracket [-1, 0]
        (-path_laplacian(256), 1),
        (-path_laplacian(256) - [[1.0], [0.0]], 1),  # negative definite, lambda_max = -1
        (double_top(), 8),
    ],
    ids=("zero-top", "negative-definite", "double-top"),
)
def test_band_max_eig_edge_spectra_end_within_the_step_cap(ab, width, band_calls, monkeypatch):
    lapack = _mats._flapack()
    factor, steps = lapack.zpbtrf, []
    monkeypatch.setattr(lapack, "zpbtrf", lambda *a, **k: steps.append(1) or factor(*a, **k))
    top = _mats.hermitian_max_eig(ab)
    eigs = np.linalg.eigvalsh(_mats.hermitian_from_band(ab))
    assert abs(top - eigs[-1]) <= 1e-14 * np.abs(eigs).max()
    assert band_calls == [width]
    assert 0 < len(steps) <= _mats.BISECTION_STEPS  # the bisection and the polish


def test_band_max_eig_rejects_a_non_finite_band():
    ab = band_ordered_gamma(clock_shift(256), 2, 1)
    ab[1, 7] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _mats.hermitian_max_eig(ab)


def zero_outer_block(model, band, m):
    """An element whose blocks at the largest shift exponent are exact zeros
    (kept, not pruned): the pairs that reach Gamma's outermost diagonals add
    only zeros there, so its band storage must be trimmed to match."""
    f, model, psi_n, axes = random_gamma_input(model, band, m)
    blocks = {k: 0 * b if k[-1] == band else b for k, b in f.coeffs.items()}
    return NCPoly(f.twist, m, blocks, prune=False), model, psi_n, axes


@pytest.mark.parametrize(
    "args",
    [
        random_gamma_input(clock_shift(1024), 2, 2),
        random_gamma_input(clock_shift(512), 2, 2),
        random_gamma_input(fuzzy_generators(1, 2, 128), 2, 1),
        random_gamma_input(fuzzy_generators(1, 2, 128), 2, 2),
        # band 8 on n = 16: exponents 8 and -8 give the same word
        random_gamma_input(clock_shift(16), 8, 1),
        # a torus pattern: half-bandwidth far above N/8, dense eigvalsh
        random_gamma_input(higher_dim_generators(16, 2), 1, 1),
        # the word length's cocycle rows, on both block columns of m = 2
        random_gamma_input(clock_shift(256), 2, 2, psi="word"),
        zero_outer_block(clock_shift(1024), 2, 1),
        zero_outer_block(fuzzy_generators(1, 2, 128), 2, 2),
    ],
    ids=("clock_shift-1024-m2", "clock_shift-512-m2", "fuzzy-m1", "fuzzy-m2",
         "aliased-words", "torus-dense", "word-length", "trimmed-1024", "trimmed-fuzzy-m2"),
)
def test_band_gamma_is_the_dense_gamma_bitwise(args):
    f, model, psi_n, axes = args
    order = model.band_order(f.m)
    dense = dense_model_gamma(f, model, psi_n, axes)[np.ix_(order, order)]
    ab = _model_gamma(f, model, psi_n, axes)
    # trimmed to the half-bandwidth of the dense matrix, so LAPACK's kd is the same
    assert ab.shape == (half_bandwidth(dense) + 1, dense.shape[0])
    assert np.array_equal(_mats.hermitian_from_band(ab), dense)
    assert _sqrt_top(ab) == dense_sqrt_top(dense_model_gamma(f, model, psi_n, axes), order)


def test_zero_outer_blocks_leave_zero_diagonals_to_trim():
    f, model, psi_n, axes = zero_outer_block(clock_shift(1024), 2, 1)
    full = random_gamma_input(clock_shift(1024), 2, 1)
    assert _model_gamma(f, model, psi_n, axes).shape[0] < _model_gamma(*full).shape[0]


def hermitian_from_band_loop(ab):
    """The per-diagonal placement that hermitian_from_band's cached index
    arrays replaced; kept as their reference."""
    n = ab.shape[1]
    h = np.zeros((n, n), dtype=complex)
    for d in range(ab.shape[0]):
        j = np.arange(n - d)
        h[j + d, j] = ab[d, :n - d]
        if d:
            h[j, j + d] = ab[d, :n - d].conj()
    return h


@pytest.mark.parametrize("diagonals,n", [(1, 1), (1, 6), (3, 5), (5, 5), (18, 64), (9, 300)])
def test_hermitian_from_band_is_the_per_diagonal_placement_bitwise(diagonals, n):
    # complex and real storage, junk past each diagonal's end, signed zeros
    # and a diagonal with imaginary parts, which stay unconjugated
    rng = np.random.default_rng((71, diagonals, n))
    ab = rng.standard_normal((diagonals, n)) + 1j * rng.standard_normal((diagonals, n))
    ab[:, ::3] = -0.0
    for a in (ab, ab.real.copy(), _model_gamma(*random_gamma_input(clock_shift(16), 2, 2))):
        for _ in range(2):  # the index arrays built, then read from the cache
            got = _mats.hermitian_from_band(a)
            assert np.array_equal(got.view(np.uint64), hermitian_from_band_loop(a).view(np.uint64))


@pytest.mark.parametrize("tail", [(), (3,), (1, 1), (2, 2)], ids=["scalar", "S-B", "S-1-1", "S-2-2"])
@pytest.mark.parametrize("count,bins", [(0, 4), (1, 1), (40, 3), (200, 50)])
def test_bin_sums_is_the_row_wise_add_at_bitwise(tail, count, bins):
    # repeated bins (count >> bins), unhit bins, signed zeros and terms of
    # mixed scale, whose sums depend on the order each bin adds them in
    rng = np.random.default_rng((73, count, bins, len(tail)))
    index = rng.integers(0, bins, size=count)
    values = rng.standard_normal((count,) + tail) + 1j * rng.standard_normal((count,) + tail)
    values *= 10.0 ** rng.integers(-8, 9, size=(count,) + tail)
    values[::4] = -0.0
    values.imag[1::5] = -0.0
    ref = np.zeros((bins,) + tail, dtype=complex)
    np.add.at(ref, index, values)
    got = _mats.bin_sums(index, values, bins)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_band_plan_is_cached_with_the_word_groups(monkeypatch):
    from fuzzytorus import matrixmodel

    f, model, psi_n, axes = random_gamma_input(clock_shift(64), 8, 2)
    g = NCPoly(f.twist, f.m, {k: 2j * b for k, b in f.coeffs.items()})  # f's support
    cold = _model_gamma(g, clock_shift(64), psi_n, axes)
    plan, built = matrixmodel._band_plan, []
    monkeypatch.setattr(matrixmodel, "_band_plan", lambda *a: built.append(a[2]) or plan(*a))
    first = _model_gamma(f, model, psi_n, axes)
    assert built == [2]
    assert np.array_equal(_model_gamma(f, model, psi_n, axes), first)
    assert np.array_equal(_model_gamma(g, model, psi_n, axes), cold)
    _band_gram(f, model, np.ones((1, len(f.keys))), axes)  # x*x reads the same plan
    assert built == [2]


def test_band_gamma_falls_back_to_the_dense_bits(band_calls, monkeypatch):
    def too_low(ab):
        band_calls.append(ab.shape[0] - 1)
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(_mats, "_band_max_eig", too_low)
    f, model, psi_n, axes = random_gamma_input(clock_shift(512), 2, 1)
    ref = dense_sqrt_top(dense_model_gamma(f, model, psi_n, axes), model.band_order())
    assert _sqrt_top(_model_gamma(f, model, psi_n, axes)) == ref
    assert band_calls == [8, 8]


def test_model_lip_allocates_no_dense_gamma():
    model = clock_shift(1024)
    rng = np.random.default_rng(9)
    support = band_window(2, 2)
    draws = [draw(rng, TwistMatrix.zero(2), support, 1) for _ in range(2)]
    lip_seminorm_on_model(draws[0], model, HEAT2)  # word stacks, scipy import
    tracemalloc.start()
    try:
        lip_seminorm_on_model(draws[1], model, HEAT2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.dim**2 * 16  # one dense Gamma: 16 MB


def test_model_lip_of_a_constant_is_zero_without_a_dense_matrix():
    # Gamma(1, 1) = 0 is a band with no diagonals: +0.0 with no N x N zeros
    tracemalloc.start()
    try:
        rep = lip_seminorm_on_model(NCPoly.one(TwistMatrix.zero(2)), clock_shift(1024), HEAT2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.column, rep.row, rep.lip) == (0.0, 0.0, 0.0)
    assert math.copysign(1.0, rep.lip) == 1.0
    assert peak < 2**20


@pytest.mark.parametrize(
    "model,m,width",
    [
        # x*x in band order, trimmed to its last nonzero diagonal as Gamma is
        (clock_shift(256), 1, 8),
        (clock_shift(256), 2, 17),
        (clock_shift(512), 1, 8),
        (fuzzy_generators(1, 2, 128), 1, 8),
        (fuzzy_generators(1, 2, 128), 2, 17),
    ],
    ids=("clock_shift-256-m1", "clock_shift-256-m2", "clock_shift-512-m1",
         "fuzzy-m1", "fuzzy-m2"),
)
def test_band_operator_norm_matches_svd(model, m, width, band_calls):
    f = rand_poly(np.random.default_rng((model.dim, m)), model.symbol_twist, 2, m)
    ref = np.linalg.svd(embed(f, model).matrix, compute_uv=False)[0]
    assert abs(op_norm(f, model) - ref) <= 1e-14 * ref
    assert band_calls == [width]


def test_band_operator_norm_falls_back_to_svd(band_calls, monkeypatch):
    cs = clock_shift(256)
    assert op_norm(NCPoly.zero(cs.symbol_twist), cs) == 0.0
    # higher_dim's words move along a 2-torus: x*x has no narrow band, so
    # dense eigvalsh answers
    hd = higher_dim_generators(16, 2)
    f = rand_poly(np.random.default_rng(5), hd.symbol_twist, 1)
    svd = np.linalg.svd(embed(f, hd).matrix, compute_uv=False)[0]
    assert abs(op_norm(f, hd) - svd) <= 1e-14 * svd
    assert band_calls == []

    def too_low(ab):
        band_calls.append(ab.shape[0] - 1)
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(_mats, "_band_max_eig", too_low)
    f = rand_poly(np.random.default_rng(5), cs.symbol_twist, 2)
    svd = np.linalg.svd(embed(f, cs).matrix, compute_uv=False)[0]
    assert abs(op_norm(f, cs) - svd) <= 1e-14 * svd
    assert band_calls == [8]


def test_band_operator_norm_allocates_no_dense_matrix():
    model = fuzzy_generators(1, 2, 128)
    rng = np.random.default_rng(11)
    f, g = (rand_poly(rng, model.symbol_twist, 2, m=2) for _ in range(2))
    op_norm(f, model)  # word stacks, scipy import
    tracemalloc.start()
    try:
        op_norm(g, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 * model.dim) ** 2 * 16  # one dense 512 x 512 x: 4 MB


def run_python(code: str, threads: int = 1) -> str:
    src = str(Path(fuzzytorus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **{v: str(threads) for v in
                  ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout


SAMPLE_LIP = """
import sys
import numpy as np
from fuzzytorus.lattice import LengthFunction, band_window
from fuzzytorus.lipnorm import lip_seminorm_on_model
from fuzzytorus.matrixmodel import clock_shift
from fuzzytorus.ncpoly import NCPoly, TwistMatrix
rng = np.random.default_rng(5)
f = NCPoly(TwistMatrix.zero(2), 1, {{k: rng.standard_normal((1, 1))
           + 1j * rng.standard_normal((1, 1)) for k in band_window({band}, 2)}})
print(repr(lip_seminorm_on_model(f, clock_shift({n}), LengthFunction.heat((None, None)))))
print("scipy" in sys.modules)
print("scipy.linalg" in sys.modules)
"""


def test_transport_size_never_imports_scipy():
    out = run_python(SAMPLE_LIP.format(band=8, n=64)).splitlines()
    assert out[-2:] == ["False", "False"]


def test_model_lip_is_thread_count_invariant():
    code = SAMPLE_LIP.format(band=2, n=1024)
    one = run_python(code, threads=1)
    # the band path ran, on scipy's LAPACK wrappers without scipy.linalg
    assert one.splitlines()[-2:] == ["True", "False"]
    assert run_python(code, threads=2) == one


def test_multiplier_contraction_on_lip():
    # L(T_phi x) <= (1+eps) L(x) at amplifications 1 and 2
    n = 32
    model = clock_shift(n)
    heat_n = LengthFunction.heat((n,))
    eps = 0.25
    phi = product_multiplier(
        [build_smoothing_multiplier(heat_n, heat_n.coord_value(2), eps)] * 2
    )
    rng = np.random.default_rng(11)
    tw = TwistMatrix.zero(2)
    for m in (1, 2):
        for _ in range(50):
            f = rand_poly(rng, tw, 3, m=m)
            lx = lip_seminorm_on_model(f, model, HEAT2).lip
            ly = lip_seminorm_on_model(apply_multiplier(f, phi), model, HEAT2).lip
            assert ly <= (1 + eps) * lx + 1e-10


def test_leibniz_on_model():
    n = 24
    model = clock_shift(n)
    rng = np.random.default_rng(13)
    tw = TwistMatrix.zero(2)
    for _ in range(100):
        f = rand_poly(rng, tw, 1, sa=True)
        g = rand_poly(rng, tw, 1, sa=True)
        lf = lip_seminorm_on_model(f, model, HEAT2).lip
        lg = lip_seminorm_on_model(g, model, HEAT2).lip
        nf = op_norm(f, model)
        ng = op_norm(g, model)
        lfg = lip_seminorm_on_model(multiply(f, g), model, HEAT2).lip
        assert lfg <= nf * lg + lf * ng + 1e-9


# -- riesz ----------------------------------------------------------------------


def test_riesz_p2_identity():
    rng = np.random.default_rng(17)
    for kind in ("heat", "word"):
        for d in (1, 2):
            psi = LengthFunction(kind, (None,) * d)
            tw = TwistMatrix.zero(d)
            for _ in range(20):
                f = rand_poly(rng, tw, 3, drop_mean=True)
                rep = riesz_check(f, psi, 2)
                assert abs(rep.lhs - rep.rhs_column) <= 1e-10
                assert abs(rep.lhs - rep.rhs_row) <= 1e-10


def test_riesz_single_frequency_and_mean_guard():
    z1 = TwistMatrix.zero(1)
    u = NCPoly.generator(z1, 0)
    rep = riesz_check(u, HEAT1, 2)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs_column == pytest.approx(1.0)
    rep4 = riesz_check(u, HEAT1, 4, model=clock_shift(16))
    assert rep4.lhs == pytest.approx(rep4.rhs_column, rel=1e-10)
    with pytest.raises(ValueError):
        riesz_check(NCPoly.one(z1), HEAT1, 2)
    with pytest.raises(ValueError):
        riesz_check(u, HEAT1, 4)  # model required


def test_riesz_p4_ratio_finite_sweep():
    rng = np.random.default_rng(19)
    model = clock_shift(64)
    tw = TwistMatrix.zero(2)
    ratios = []
    for _ in range(25):
        f = rand_poly(rng, tw, 4, drop_mean=True)
        rep = riesz_check(f, HEAT2, 4, model=model)
        ratios.append(rep.ratio)
    assert all(np.isfinite(r) for r in ratios)
    assert max(ratios) < 10.0


# -- norm-to-Lip ratio / sampling ------------------------------------------------


def test_sobolev_examples():
    # ||u|| / L_n(u) on the generator, against the symbol-side 1 / sqrt(psi(1))
    u_ratio = 1.0 / math.sqrt(HEAT1.coord_value(1))
    n = 16
    model = clock_shift(n)
    z1 = TwistMatrix.zero(1)
    u = NCPoly.generator(z1, 0)
    got = op_norm(u, model) / lip_seminorm_on_model(u, model, HEAT1).lip
    assert got == pytest.approx(u_ratio, rel=2e-2)


def test_lip_ball_membership():
    model = clock_shift(32)
    samples = lip_ball_sample(2.0, 1, 5, 9, LengthFunction.heat((32,)), TwistMatrix.zero(1), model)
    assert len(samples) == 5
    for f in samples:
        assert all(_mats.max_abs(b) <= 1e-12 for b in (f - adjoint(f)).coeffs.values())
        e = embed(f, model)
        # measured on the coefficients extracted from the matrix
        back = fourier_coefficients(e, 1, axes=(0,))
        assert lip_seminorm_on_model(back, model, LengthFunction.heat((32,))).lip <= 1 + 1e-12
        assert _mats.operator_norm(e.matrix) <= 2.0 + 1e-12


def test_lip_ball_rejects_r_zero():
    with pytest.raises(ValueError):
        lip_ball_sample(0.0, 1, 1, 1, LengthFunction.heat((8,)), TwistMatrix.zero(1), clock_shift(8))
