import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fuzzytorus import _mats
from fuzzytorus.lattice import band_window, window_range
from fuzzytorus.matrixmodel import (
    WORD_CACHE_BYTES,
    MatrixModel,
    ModelElement,
    _embed_axes,
    admissible_sizes,
    clock_shift,
    embed,
    fourier_coefficients,
    fuzzy_generators,
    higher_dim_generators,
    op_norm,
    schatten_norm,
)
from fuzzytorus.ncpoly import NCPoly, TwistMatrix, adjoint, multiply


def rand_poly(rng, twist, band, m=1):
    coords = [()]
    for _ in range(twist.d):
        coords = [c + (k,) for c in coords for k in range(-band, band + 1)]
    return NCPoly(
        twist,
        m,
        {c: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for c in coords},
    )


# -- constructors -------------------------------------------------------------


def test_clock_shift_examples():
    cs = clock_shift(4)
    assert np.allclose(np.diag(cs.generators()[0]), [1, 1j, -1, -1j])
    cs3 = clock_shift(3)
    v = cs3.generators()[1]
    e1 = np.eye(3)[:, 1]
    assert np.allclose(v @ e1, np.eye(3)[:, 2])
    assert np.allclose(cs3.monomial((0, 0)), np.eye(3))
    with pytest.raises(ValueError):
        clock_shift(1)


def test_fuzzy_examples():
    fz = fuzzy_generators(1, 2, 8)
    assert fz.dim == 16
    U, V = fz.generators()
    phase = np.exp(2j * np.pi * 5 / 8)
    assert np.abs(U @ V - phase * V @ U).max() <= 1e-12
    assert list(admissible_sizes(2, 3)) == [4, 8, 16]
    with pytest.raises(ValueError):
        fuzzy_generators(2, 4, 8)  # gcd != 1
    with pytest.raises(ValueError):
        fuzzy_generators(1, 3, 8)  # m does not divide n


def test_fuzzy_theta_zero_degenerates_to_clock_shift():
    fz = fuzzy_generators(0, 1, 6)
    cs = clock_shift(6)
    for a, b in zip(fz.generators(), cs.generators()):
        assert np.allclose(a, b)


def test_higher_dim_examples():
    hd = higher_dim_generators(3, 2)
    assert hd.dim == 9
    gens = hd.generators()
    om = np.exp(2j * np.pi / 3)
    for r in range(4):
        for s in range(r + 1, 4):
            assert np.abs(gens[r] @ gens[s] - om * gens[s] @ gens[r]).max() <= 1e-12
    for g in gens:
        assert np.abs(np.linalg.matrix_power(g, 3) - np.eye(9)).max() <= 1e-12
    # d=1 degenerates to clock/shift
    hd1 = higher_dim_generators(5, 1)
    cs = clock_shift(5)
    for a, b in zip(hd1.generators(), cs.generators()):
        assert np.allclose(a, b)
    with pytest.raises(ValueError):
        higher_dim_generators(64, 3)  # over the dimension cap


def test_higher_dim_raw_power_scalar():
    # (V U^{-1})^n is the scalar om^{-n(n-1)/2} before correction
    n = 5
    cs = clock_shift(n)
    U, V = cs.generators()
    G = V @ U.conj().T
    om = np.exp(2j * np.pi / n)
    raw = np.linalg.matrix_power(G, n)
    assert np.abs(raw - om ** (-n * (n - 1) / 2) * np.eye(n)).max() <= 1e-12


# -- monomial array core -------------------------------------------------------


def clock(n):
    """diag(1, w, w^2, ...) with w = exp(2 pi i / n)."""
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def shift(n):
    """Cyclic permutation sending e_l to e_{l+1 mod n}."""
    v = np.zeros((n, n), dtype=complex)
    v[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return v


def dense_generators(model):
    """The generators as dense matrices, straight from each family's definition."""
    kind, prm = model.provenance, model.params
    if kind == "clock_shift":
        n = prm["n"]
        return [clock(n), shift(n)]
    if kind == "fuzzy":
        p, m, n = prm["p"], prm["m"], prm["n"]
        return [
            np.kron(clock(m), clock(n)),
            np.kron(np.linalg.matrix_power(shift(m), p), shift(n)),
        ]
    n, d = prm["n"], prm["d"]
    g = shift(n) @ clock(n).conj().T
    gens = []
    for pair in range(d):
        for core in (clock(n), shift(n)):
            out = np.exp(1j * np.pi * (n - 1) * pair / n) * np.eye(1)
            for f in [g] * pair + [core] + [np.eye(n)] * (d - pair - 1):
                out = np.kron(out, f)
            gens.append(out)
    return gens


def dense_word(gens, k, order):
    out = np.eye(gens[0].shape[0], dtype=complex)
    for g, c in zip(gens, k):
        out = out @ np.linalg.matrix_power(g, c % order)
    return out


ARRAY_MODELS = (
    (clock_shift(16), 2),
    (fuzzy_generators(1, 2, 16), 2),
    (higher_dim_generators(5, 2), 1),
)


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("model,band", ARRAY_MODELS, ids=lambda v: getattr(v, "provenance", ""))
def test_embed_matches_dense_kron_reference(model, band, m):
    gens = dense_generators(model)
    for a, b in zip(model.generators(), gens):
        assert np.abs(a - b).max() <= 1e-12
    f = rand_poly(np.random.default_rng(37), model.symbol_twist, band, m=m)
    ref = sum(np.kron(b, dense_word(gens, k, model.order)) for k, b in f.coeffs.items())
    assert np.abs(embed(f, model).matrix - ref).max() <= 1e-12
    for k in ((1,) * model.n_generators, (-band,) * model.n_generators):
        assert np.abs(model.monomial(k) - dense_word(gens, k, model.order)).max() <= 1e-12


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("model,band", ARRAY_MODELS, ids=lambda v: getattr(v, "provenance", ""))
def test_fourier_roundtrip_all_families(model, band, m):
    f = rand_poly(np.random.default_rng(41), model.symbol_twist, band, m=m)
    back = fourier_coefficients(embed(f, model), band)
    for k in f.support():
        assert np.abs(back.get(k) - f.get(k)).max() <= 1e-12


def test_model_constructor_rejects_broken_relations():
    cs = clock_shift(6)
    fields = dict(order=6, slots=cs.slots, symbol_twist=cs.symbol_twist,
                  provenance="clock_shift")
    MatrixModel(gens=cs.gens, phase_table=cs.phase_table, **fields)
    with pytest.raises(ValueError, match=r"commutation phase fails for generators \(0,1\)"):
        MatrixModel(gens=cs.gens, phase_table=2 * cs.phase_table, **fields)
    with pytest.raises(ValueError, match="commutation phase fails"):
        MatrixModel(gens=cs.gens, phase_table=np.zeros((2, 2)), **fields)
    with pytest.raises(ValueError, match="does not have order 3"):
        MatrixModel(gens=cs.gens, phase_table=cs.phase_table, **{**fields, "order": 3})
    scaled = (replace(cs.gens[0], scale=1.5), cs.gens[1])
    with pytest.raises(ValueError, match="generator 0 is not unitary"):
        MatrixModel(gens=scaled, phase_table=cs.phase_table, **fields)


# -- embed / extract ----------------------------------------------------------


def test_embed_examples():
    z1 = TwistMatrix.zero(1)
    cs8 = clock_shift(8)
    lam1 = NCPoly.generator(z1, 0)
    assert np.allclose(embed(lam1, cs8).matrix, cs8.generators()[0])
    lam9 = NCPoly.monomial(z1, (9,))
    assert np.allclose(embed(lam9, cs8).matrix, embed(lam1, cs8).matrix)

    z2 = TwistMatrix.zero(2)
    uv = NCPoly.monomial(z2, (1, 1))
    assert np.allclose(embed(uv, cs8).matrix, cs8.monomial((1, 1)))


def test_embed_twist_compatibility():
    cs = clock_shift(8)
    with pytest.raises(ValueError):
        embed(NCPoly.generator(TwistMatrix.two_dim(0.5), 0), cs)
    fz = fuzzy_generators(1, 2, 8)
    with pytest.raises(ValueError):
        embed(NCPoly.generator(TwistMatrix.zero(2), 0), fz)
    ok = NCPoly.generator(TwistMatrix.rational_2d(1, 2), 0)
    assert embed(ok, fz).matrix.shape == (16, 16)
    hd = higher_dim_generators(3, 2)
    for wrong_d in (2, 3):
        with pytest.raises(ValueError, match="incompatible with higher_dim"):
            embed(NCPoly.generator(TwistMatrix.zero(wrong_d), 0), hd)


@pytest.mark.parametrize("model", (fuzzy_generators(1, 2, 16), higher_dim_generators(5, 2)),
                         ids=lambda v: v.provenance)
def test_one_dim_poly_rides_on_generator_zero(model):
    f = rand_poly(np.random.default_rng(43), TwistMatrix.zero(1), 2, m=2)
    x = embed(f, model)
    assert _embed_axes(f, model) == (0,)
    gen0 = model.generators()[0]
    ref = sum(np.kron(b, np.linalg.matrix_power(gen0, k[0] % model.order))
              for k, b in f.coeffs.items())
    assert np.abs(x.matrix - ref).max() <= 1e-12
    back = fourier_coefficients(x, 2, axes=(0,))
    assert back.d == 1 and back.support() == f.support()
    for k in f.support():
        assert np.abs(back.get(k) - f.get(k)).max() <= 1e-12


def test_monomial_trace_orthonormality_all_models():
    models = [clock_shift(8), fuzzy_generators(1, 2, 8), higher_dim_generators(3, 2)]
    for model in models:
        band = 1
        coords = [()]
        for _ in range(model.n_generators):
            coords = [c + (k,) for c in coords for k in range(-band, band + 1)]
        for a in coords:
            for b in coords:
                wa = model.monomial(a)
                wb = model.monomial(b)
                tr = np.trace(wa @ wb.conj().T) / model.dim
                expect = 1.0 if a == b else 0.0
                assert abs(tr - expect) <= 1e-12


def test_fourier_examples_and_roundtrip():
    cs = clock_shift(8)
    one = ModelElement(cs, np.eye(8, dtype=complex))
    f = fourier_coefficients(one, 1)
    assert f.get((0, 0))[0, 0] == pytest.approx(1.0)

    uv = cs.monomial((1, 1))
    x = ModelElement(cs, uv)
    assert np.trace(uv @ uv.conj().T).real / 8 == pytest.approx(1.0)
    u2v = cs.monomial((2, 1))
    assert abs(np.trace(uv @ u2v.conj().T)) / 8 <= 1e-12

    rng = np.random.default_rng(13)
    for model in (clock_shift(16), fuzzy_generators(1, 2, 16)):
        tw = model.symbol_twist
        f = rand_poly(rng, tw, 2, m=2)
        back = fourier_coefficients(embed(f, model), 2)
        for k in f.support():
            assert np.abs(back.get(k) - f.get(k)).max() <= 1e-12


def test_full_window_gram_rank_matches_algebra_dimension():
    # numeric surrogate for generating the full algebra: the n^{2d} window
    # monomials are trace-orthonormal, i.e. their Gram matrix is the identity
    for model, target in ((higher_dim_generators(3, 2), 81), (fuzzy_generators(1, 2, 4), 16)):
        coords = [()]
        for _ in range(model.n_generators):
            coords = [c + (k,) for c in coords for k in window_range(model.order)]
        assert len(coords) == target
        gram = np.empty((target, target), dtype=complex)
        monos = [model.monomial(c) for c in coords]
        for i, wa in enumerate(monos):
            for j, wb in enumerate(monos):
                gram[i, j] = np.trace(wa @ wb.conj().T) / model.dim
        assert np.abs(gram - np.eye(target)).max() <= 1e-12
        assert np.linalg.matrix_rank(gram) == target


def test_fourier_band_guard():
    cs = clock_shift(8)
    x = ModelElement(cs, np.eye(8, dtype=complex))
    with pytest.raises(ValueError):
        fourier_coefficients(x, 4)


def test_embed_l2_isometry():
    rng = np.random.default_rng(29)
    model = clock_shift(16)
    from fuzzytorus.ncpoly import l2_norm

    for m in (1, 2):
        f = rand_poly(rng, TwistMatrix.zero(2), 3, m=m)
        e = embed(f, model)
        assert schatten_norm(e, 2) == pytest.approx(l2_norm(f), abs=1e-12)


# -- norms ---------------------------------------------------------------------


def test_norm_examples():
    cs = clock_shift(8)
    u = NCPoly.generator(cs.symbol_twist, 0)
    assert op_norm(u + adjoint(u), cs) == pytest.approx(2.0)
    eye = ModelElement(cs, np.eye(8, dtype=complex))
    for p in (1, 2, 4, np.inf):
        assert schatten_norm(eye, p) == pytest.approx(1.0)
    cs2 = clock_shift(2)
    assert schatten_norm(ModelElement(cs2, cs2.monomial((0, 1))), 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        schatten_norm(eye, 0.5)


def test_schatten_inf_is_the_top_singular_value_of_its_svd():
    # N = 520 lies above DENSE_MAX_DIM, where _mats.operator_norm would
    # answer by power iteration
    rng = np.random.default_rng(520)
    cs = clock_shift(520)
    x = embed(rand_poly(rng, cs.symbol_twist, 2), cs)
    assert schatten_norm(x, np.inf) == np.linalg.svd(x.matrix, compute_uv=False)[0]


def test_power_iteration_path_matches_dense(monkeypatch):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    from fuzzytorus._mats import operator_norm

    dense = operator_norm(a)
    monkeypatch.setattr(_mats, "DENSE_MAX_DIM", 8)
    assert operator_norm(a) == pytest.approx(dense, rel=1e-8)


def copy_power_norm(x):
    """Reference: the power iteration of _mats.operator_norm applying x*
    through a conjugate copy."""
    n = x.shape[0]
    v = np.ones(n, dtype=complex) + 1e-3 * np.arange(n) / n
    v /= np.linalg.norm(v)
    xh = x.conj().T
    lam = 0.0
    for _ in range(5000):
        w = xh @ (x @ v)
        new = float(np.linalg.norm(w))
        if new == 0.0:
            return 0.0
        v = w / new
        if abs(new - lam) <= 1e-10 * max(new, 1.0):
            return float(np.sqrt(new))
        lam = new
    raise RuntimeError("no convergence")


# n = 520 and 775 split x unevenly at h = 256 and 384 (n // 2 rounded down to
# a multiple of 16); 777 is not used, since clock_shift(777) fails its
# adjoint check
@pytest.mark.parametrize("n", (520, 775, 1024))
@pytest.mark.parametrize("kind", ("clock_shift", "dense"))
def test_power_iteration_needs_no_conjugate_copy(kind, n):
    rng = np.random.default_rng(0)
    if kind == "dense":  # decaying columns: a clear top singular value
        x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / (1.0 + np.arange(n))
    else:
        cs = clock_shift(n)
        x = embed(rand_poly(rng, cs.symbol_twist, 2), cs).matrix
    tracemalloc.start()
    try:
        norm = _mats.operator_norm(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norm == copy_power_norm(x)
    assert peak < x.nbytes / 16  # a conjugate copy of x would be x.nbytes


def test_operator_norm_of_diagonal_input_is_exact():
    # two top singular values 1e-6 apart: the power iteration stops short of 2
    d = np.ones(1024, dtype=complex)
    d[:2] = 2.0, 2.0 * (1 - 1e-6)
    d[700] = -2.0j
    assert _mats.operator_norm(np.diag(d)) == 2.0
    assert _mats.operator_norm(np.zeros((1024, 1024))) == 0.0


@pytest.mark.parametrize("n", (64, 1024))
def test_op_norm_hands_over_the_matrix_itself_outside_the_band_range(n, monkeypatch):
    cs = clock_shift(n)
    f = rand_poly(np.random.default_rng(n), cs.symbol_twist, 2)
    x = embed(f, cs).matrix
    norm, seen = _mats.operator_norm, []
    monkeypatch.setattr(_mats, "operator_norm", lambda a: seen.append(a) or norm(a))
    assert op_norm(f, cs) == norm(x)
    # embed's own array, in the natural basis: the power iteration's bits
    # depend on the layout it reads
    assert len(seen) == 1 and seen[0].flags.c_contiguous and np.array_equal(seen[0], x)


def test_commutator_defect_formula():
    for n in range(4, 257):
        cs = clock_shift(n)
        u, v = cs.generators()
        defect = _mats.operator_norm(u @ v - v @ u)
        assert abs(defect - 2 * math.sin(math.pi / n)) <= 1e-12


def test_pi_n_multiplicative_rho_n_not():
    z1 = TwistMatrix.zero(1)
    z2 = TwistMatrix.zero(2)
    rng = np.random.default_rng(17)
    n = 32
    cs = clock_shift(n)
    for _ in range(10):
        f = rand_poly(rng, z1, 3)
        g = rand_poly(rng, z1, 3)
        lhs = embed(multiply(f, g), cs).matrix
        rhs = embed(f, cs).matrix @ embed(g, cs).matrix
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1, np.abs(lhs).max())

    # v u = u v as commutative symbols, but the model matrices do not commute
    u, v = NCPoly.generator(z2, 0), NCPoly.generator(z2, 1)
    defects = []
    for n in (8, 16, 32, 64, 128):
        cs = clock_shift(n)
        lhs = embed(multiply(v, u), cs).matrix
        rhs = embed(v, cs).matrix @ embed(u, cs).matrix
        defects.append(_mats.operator_norm(lhs - rhs))
    assert all(d > 0 for d in defects)
    assert all(b < a for a, b in zip(defects, defects[1:]))
    assert defects[-1] == pytest.approx(2 * math.sin(math.pi / 128))


def test_fuzzy_norm_converges_to_fiber_value():
    t = TwistMatrix.rational_2d(1, 2)
    f = sum(
        [NCPoly.generator(t, i) for i in (0, 1)]
        + [adjoint(NCPoly.generator(t, i)) for i in (0, 1)],
        NCPoly.zero(t),
    )
    target = 2 * math.sqrt(2)
    prev = None
    for n in (8, 32, 128):
        val = op_norm(f, fuzzy_generators(1, 2, n))
        gap = abs(val - target)
        if prev is not None:
            assert gap < prev
        prev = gap
    assert prev <= 0.05


# -- coefficient extraction ----------------------------------------------------


@pytest.mark.parametrize("m", [1, 2])
def test_extraction_any_memory_layout(m):
    # the adjoint view conj().T is Fortran-ordered; coefficient extraction
    # must not depend on the input's memory layout
    n = 16
    model = clock_shift(n)
    rng = np.random.default_rng(37)
    f = rand_poly(rng, TwistMatrix.zero(2), 3, m=m)
    x = embed(f, model)
    adj = x.matrix.conj().T
    xs = ModelElement(model, adj, m=m)
    xc = ModelElement(model, np.ascontiguousarray(adj), m=m)
    assert not xs.matrix.flags.c_contiguous
    lhs, rhs = fourier_coefficients(xs, 3), fourier_coefficients(xc, 3)
    assert list(lhs.coeffs) == list(rhs.coeffs)
    assert all(np.array_equal(lhs.coeffs[k], rhs.coeffs[k]) for k in rhs.coeffs)
    assert max(_mats.max_abs(b) for b in rhs.coeffs.values()) > 0.1


def closed_form_word(model, k, axes):
    """The identity composed with power(axis, k_axis mod n) one axis at a time."""
    perm, phase = np.arange(model.dim), np.ones(model.dim, dtype=complex)
    for axis, c in zip(axes, k):
        p, ph = model.power(axis, c % model.order)
        perm, phase = perm[p], phase[p] * ph
    return perm, phase


@pytest.mark.parametrize("model,band", [
    (clock_shift(64), 8), (clock_shift(1024), 2), (fuzzy_generators(1, 2, 128), 4),
    (higher_dim_generators(4, 2), 2)], ids=lambda v: getattr(v, "provenance", ""))
def test_word_stacks_are_the_closed_form_bitwise(model, band):
    for axes in (tuple(range(model.n_generators)), (0,)):
        support = band_window(band, len(axes))
        perm, phase = model.words(support, axes)
        assert perm.shape == phase.shape == (len(support), model.dim)
        for k, p, ph in zip(support, perm, phase):
            ref_p, ref_ph = closed_form_word(model, k, axes)
            assert np.array_equal(p, ref_p)
            assert np.array_equal(ph.view(np.uint64), ref_ph.view(np.uint64))


def test_word_cache_keeps_recent_stacks_under_its_byte_cap():
    model = clock_shift(1024)
    # 289 words of 1024 entries: 7.1 MB per stack, 57 MB for all eight
    supports = [[(a, b) for a in range(s, s + 17) for b in range(-8, 9)] for s in range(0, 80, 10)]
    first = [a.copy() for a in model.words(supports[0])]
    for support in supports[1:]:
        model.words(support)
        model.words(supports[0])  # the most recently used stack stays
        assert sum(p.nbytes + ph.nbytes for p, ph in model._stacks.values()) <= WORD_CACHE_BYTES
    assert 1 < len(model._stacks) < len(supports)
    assert next(reversed(model._stacks))[1] == tuple(supports[0])
    assert ((0, 1), tuple(supports[1])) not in model._stacks
    for support in (supports[0], supports[1]):  # kept and rebuilt stacks alike
        perm, phase = model.words(support)
        for i in (0, 100, 288):
            ref_p, ref_ph = closed_form_word(model, support[i], (0, 1))
            assert np.array_equal(perm[i], ref_p) and np.array_equal(phase[i], ref_ph)
    assert all(np.array_equal(a, b) for a, b in zip(first, model.words(supports[0])))


@pytest.mark.parametrize("model,band", [
    (clock_shift(64), 8), (clock_shift(16), 8), (fuzzy_generators(1, 2, 128), 2),
    (higher_dim_generators(4, 2), 2)], ids=lambda v: getattr(v, "provenance", ""))
def test_word_groups_are_cached_in_first_occurrence_order(model, band):
    support = band_window(band, model.n_generators)
    members, inv = model.word_groups(support)
    perms = model.words(support)[0]
    ref: dict[bytes, list[int]] = {}
    for a, perm in enumerate(perms):
        ref.setdefault(perm.tobytes(), []).append(a)
    assert [g.tolist() for g in members] == list(ref.values())
    assert np.array_equal(inv, [np.argsort(perms[g[0]]) for g in members])
    again = model.word_groups(support)
    assert again[0] is members and again[1] is inv


def test_word_cache_counts_and_evicts_groups_with_their_stacks():
    model = clock_shift(1024)
    supports = [[(a, b) for a in range(s, s + 17) for b in range(-8, 9)] for s in range(0, 80, 10)]
    for support in supports:
        model.word_groups(support)
        stacks = sum(p.nbytes + ph.nbytes for p, ph in model._stacks.values())
        groups = sum(inv.nbytes + sum(g.nbytes for g in members)
                     for members, inv in model._groups.values())
        assert stacks + groups <= WORD_CACHE_BYTES
        assert set(model._groups) <= set(model._stacks)
    assert ((0, 1), tuple(supports[-1])) in model._groups
    assert ((0, 1), tuple(supports[0])) not in model._groups
