"""Resolutions, homology, Ext/Tor, dimension verdicts."""

import gc
import weakref

import numpy as np
import pytest

from semidual import complexes
from semidual.algebra import (algebra_from_monomial_quotient,
                              algebra_from_structure_constants, ring_report)
from semidual.complexes import (AugmentedComplex, DimensionValue, InducedComplex, RingEntries,
                                betti_numbers, bass_numbers, ext_abs, ext_dims,
                                exactness_profile, homology, minimal_free_resolution,
                                minimal_injective_resolution, pd_exact, id_exact,
                                syzygy, tor_abs, tor_dims)
from semidual.corpus import (corpus_rings, corpus_sessions, random_module_pool,
                             ring_complete_intersection,
                             ring_square_zero_two_vars, ring_truncated_line,
                             ring_type_three)
from semidual.errors import InvalidComplexError
from semidual.linalg import Field, Mat, expressor, kernel_basis, rank
from semidual.modules import (ModuleHom, clear_caches, dualizing_module, free_module,
                              hom_functor_map, hom_space, matlis_dual,
                              power_module, radical_span, realise, regular_module,
                              residue_field_module, tensor_space, zero_module)


@pytest.fixture(scope="module")
def R1():
    return ring_square_zero_two_vars()


@pytest.fixture(scope="module")
def R2():
    return ring_truncated_line()


# -- golden betti numbers ------------------------------------------------------

def test_betti_residue_field_doubling(R1):
    k = residue_field_module(R1)
    assert betti_numbers(k, 4) == [1, 2, 4, 8, 16]


def test_betti_residue_field_truncated_line(R2):
    # a resolution cached by an earlier test may be longer than 4
    clear_caches()
    k = residue_field_module(R2)
    res = minimal_free_resolution(k, 4)
    assert res.betti == [1, 1, 1, 1, 1]
    # differentials alternate between x and x^2
    x = R2.element_from_string("x")
    x2 = R2.element_from_string("x^2")
    for j in range(1, 5):
        entry = res.entries[j].generators()[:, 0]      # the 1 x 1 matrix's entry
        want = x if j % 2 == 1 else x2
        assert np.array_equal(entry, want)


def test_betti_complete_intersection_linear_growth():
    R3 = ring_complete_intersection()
    k = residue_field_module(R3)
    assert betti_numbers(k, 4) == [1, 2, 3, 4, 5]


def test_betti_type_three_tripling():
    R4 = ring_type_three()
    k = residue_field_module(R4)
    assert betti_numbers(k, 3) == [1, 3, 9, 27]


def test_resolution_of_free_module_is_length_zero(R1):
    F = free_module(R1, 3)
    res = minimal_free_resolution(F, 4)
    assert res.complete
    assert res.betti[0] == 3
    assert all(b == 0 for b in res.betti[1:])
    clear_caches()
    assert not minimal_free_resolution(F, 0).complete   # syzygy not taken yet
    res = minimal_free_resolution(F, 1)
    assert res.complete
    assert res.betti == [3, 0]


def test_resolution_takes_one_kernel_per_new_degree(monkeypatch):
    """Over a ring with m^2 != 0 (R3) each new degree takes one kernel, of
    the last arrow; over R4 (m^2 = 0) only the augmentation's kernel is
    taken, and every later syzygy is read off in closed form."""
    import semidual.complexes as cx
    real = cx.kernel_basis
    calls = []
    monkeypatch.setattr(cx, "kernel_basis", lambda m: calls.append(m.data.shape) or real(m))
    k = residue_field_module(ring_complete_intersection())
    clear_caches()
    res = minimal_free_resolution(k, 4)
    assert res.betti == [1, 2, 3, 4, 5]
    assert len(calls) == 4        # eps, d_1, d_2, d_3; not the unused d_4
    minimal_free_resolution(k, 5)
    assert len(calls) == 5
    assert calls[-1] == res.arrows[3].mat.shape
    k = residue_field_module(ring_type_three())
    clear_caches()
    calls.clear()
    res = minimal_free_resolution(k, 4)
    assert res.betti == [1, 3, 9, 27, 81]
    assert calls == [res.aug_map.mat.shape]     # eps only
    minimal_free_resolution(k, 5)
    assert calls == [res.aug_map.mat.shape]


def test_resolution_builds_no_unused_cover(monkeypatch):
    """A differential is realised only when a kernel or a caller needs it:
    over R3 (m^2 != 0) resolving to degree 4 covers eps, d_1, d_2 and d_3,
    whose kernels give F_1..F_4, but not d_4.  Over R4 (m^2 = 0) only eps
    is covered while resolving; a caller that reads d_4 realises it once."""
    import semidual.complexes as cx
    real = cx.cover_matrix
    calls = []
    monkeypatch.setattr(cx, "cover_matrix", lambda M, g: calls.append(g.shape) or real(M, g))
    k = residue_field_module(ring_complete_intersection())
    clear_caches()
    res = minimal_free_resolution(k, 4)
    assert len(calls) == 4
    minimal_free_resolution(k, 5)
    assert len(calls) == 5
    assert res.arrow(4) is res.arrow(4)    # realised once, then kept
    assert len(calls) == 5
    k = residue_field_module(ring_type_three())
    clear_caches()
    calls.clear()
    res = minimal_free_resolution(k, 5)
    assert calls == [(1, 1)]               # eps: k's one generator
    assert res.arrow(4) is res.arrow(4)
    assert calls == [(1, 1), (27 * 4, 81)]


def test_square_zero_rings_take_no_nakayama_step(monkeypatch):
    """Over a ring with m^2 = 0 (R1, R4) the kernel K of a minimal arrow lies
    in m * F, so m * K = 0 and its whole basis is minimal: _extend keeps it
    without a Nakayama step, and the step would have kept every column.
    Over R2 and R3 (m^2 != 0) the step still runs."""
    from semidual import modules as mo
    real_nakayama, real_span = complexes.nakayama_generators, mo.radical_span
    for name, ring in corpus_rings().items():
        square_zero = name in ("R1", "R4")
        k = residue_field_module(ring)
        mods = [(k, 4)] + [(M, 3 if name == "R4" else 4)
                           for M in random_module_pool(ring, 2, max_dim=6)]
        for M, length in mods:
            clear_caches()
            mo.minimal_generators(M)        # degree 0, memoised: not an extension
            steps = []
            with monkeypatch.context() as m:
                m.setattr(complexes, "nakayama_generators",
                          lambda N, cols=None: steps.append("nakayama") or real_nakayama(N, cols))
                m.setattr(mo, "radical_span",
                          lambda N, cols=None: steps.append("span") or real_span(N, cols))
                res = minimal_free_resolution(M, length)
            assert (steps == []) == square_zero, (name, M.label, steps)
            if square_zero:
                for j in range(length):
                    K = kernel_basis(res.arrow(j).matrix()).data
                    assert np.array_equal(real_nakayama(res.modules[j], K), K), (name, M.label, j)
        betti = minimal_free_resolution(k, 4).betti[:5]
        want = {"R1": [2 ** j for j in range(5)], "R2": [1] * 5,
                "R3": [j + 1 for j in range(5)], "R4": [3 ** j for j in range(5)]}[name]
        assert betti == want, name


def _square_zero_structure_constants():
    """R4 in a random basis, as structure constants: m^2 = 0, with neither
    the unit nor the radical on coordinate vectors."""
    R4 = ring_type_three()
    field, d = R4.field, R4.dim
    rng = np.random.default_rng(19)
    P = rng.integers(0, field.p, size=(d, d))
    while rank(Mat(field, P)) < d:
        P = rng.integers(0, field.p, size=(d, d))
    Q = expressor(Mat(field, P)).data                 # Q @ P = I
    # f_a = sum_i P[i, a] e_i, so f_a f_b has e-coordinates sum P[i, a] P[j, b] c[i, j]
    c = np.einsum("ia,jb,ijk->abk", P, P, R4.structure) % field.p
    c = np.einsum("lk,abk->abl", Q, c) % field.p
    return algebra_from_structure_constants(field, c, Q @ R4.unit % field.p, name="R4'")


def test_square_zero_syzygies_equal_the_kernel_path(monkeypatch):
    """Over a ring with m^2 = 0, F_{j+1} (j >= 1) is read in closed form,
    one copy of the radical's kernel_basis per generator of F_j: its
    generators and ring entries are what the kernel_basis of the realised
    arrow d_j gives, bit for bit, over R1, R4 and R4 in a random basis
    (whose radical is not spanned by coordinate vectors), for k, D and two
    pool modules, j = 1..5; resolving takes only the augmentation's kernel.
    Over R2, R3 and T27 (m^2 != 0) every degree still calls kernel_basis
    and nakayama_generators."""
    real_kernel, real_nakayama = complexes.kernel_basis, complexes.nakayama_generators
    calls = []
    monkeypatch.setattr(complexes, "kernel_basis",
                        lambda m: calls.append("kernel") or real_kernel(m))
    monkeypatch.setattr(complexes, "nakayama_generators",
                        lambda N, cols=None: calls.append("nakayama") or real_nakayama(N, cols))
    S = _square_zero_structure_constants()
    assert S.monomial_data is None and ring_report(S).loewy_length == 2
    assert not np.array_equal(S.unit, np.eye(S.dim, dtype=np.int64)[0])
    for ring in (ring_square_zero_two_vars(), ring_type_three(), S):
        d = ring.dim
        for M in ([residue_field_module(ring), dualizing_module(ring)]
                  + random_module_pool(ring, 2, max_dim=6)):
            clear_caches()
            calls.clear()
            res = minimal_free_resolution(M, 6)
            assert calls == ["kernel"], (ring.name, M.label, calls)     # the augmentation's
            for j in range(1, 6):
                K = real_kernel(res.arrow(j).matrix()).data
                got = res.entries[j + 1]
                want = RingEntries.from_generators(K, res.betti[j], d)
                assert np.array_equal(got.generators(), K), (ring.name, M.label, j)
                assert got.shape == want.shape == (res.betti[j], K.shape[1], d)
                for a, b in zip((got.s, got.t, got.i, got.v), (want.s, want.t, want.i, want.v)):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (ring.name, M.label, j)
    T27 = algebra_from_monomial_quotient(Field(3), ["x", "y", "z"], ["x^3", "y^3", "z^3"],
                                         name="T27")
    for ring, length in ((ring_truncated_line(), 4), (ring_complete_intersection(), 4),
                         (T27, 3)):
        clear_caches()
        calls.clear()
        minimal_free_resolution(residue_field_module(ring), length)
        assert calls == ["kernel", "nakayama"] * length, ring.name


def test_resolutions_are_freed_without_the_cycle_collector(R1):
    """No resolution holds a reference to itself: with the collector off,
    each dies once the caller drops it and the caches are cleared."""
    k = residue_field_module(R1)
    D = dualizing_module(R1)
    from semidual.semidualizing import proper_pc_resolution
    builders = (lambda: minimal_free_resolution(k, 3),
                lambda: minimal_injective_resolution(k, 3),
                lambda: proper_pc_resolution(D, k, 2))
    gc.collect()
    gc.disable()
    try:
        for build in builders:
            clear_caches()
            X = build()
            X.arrows                      # realise every differential
            ref = weakref.ref(X)
            del X
            clear_caches()
            assert ref() is None, build
    finally:
        gc.enable()


def _resolution_arrays(res):
    return ([np.array(res.betti)] + [e.generators() for e in res.entries[1:]]
            + [a.mat for a in res.arrows] + [res.aug_map.mat])


def test_extended_resolution_equals_one_shot_resolution():
    for name, session in corpus_sessions().items():
        for mod in session.modules:
            M = session.module(mod)
            clear_caches()
            minimal_free_resolution(M, 2)
            extended = _resolution_arrays(minimal_free_resolution(M, 5))
            clear_caches()
            one_shot = _resolution_arrays(minimal_free_resolution(M, 5))
            assert len(extended) == len(one_shot) == 12, (name, mod)
            assert all(np.array_equal(a, b) for a, b in zip(extended, one_shot)), (name, mod)


def test_resolution_of_block_module(R1):
    P = power_module(dualizing_module(R1), 2)
    res = minimal_free_resolution(P, 2)
    assert res.betti[0] == 4  # two generators per copy


# -- resolution contracts ------------------------------------------------------

def test_resolution_exact_and_minimal(R1, R2):
    for ring in (R1, R2):
        for M in random_module_pool(ring, 5, max_dim=6):
            res = minimal_free_resolution(M, 3)
            assert exactness_profile(res) == []
            # minimality: every differential lands in rad * target
            for j in range(1, res.top + 1):
                F_prev = res.modules[j - 1]
                diff = res.arrow(j).mat
                if diff.shape[1] == 0:
                    continue
                radcols = radical_span(F_prev)
                r0 = rank(Mat(ring.field, radcols))
                r1 = rank(Mat(ring.field, np.hstack([radcols, diff])))
                assert r0 == r1


def test_resolution_differentials_compose_to_zero(R1):
    k = residue_field_module(R1)
    res = minimal_free_resolution(k, 4)
    res.validate()
    for j in range(1, res.top + 1):
        res.arrow(j).validate()


def test_betti_equal_bass_of_dual(R1):
    for M in random_module_pool(R1, 4, max_dim=6):
        assert betti_numbers(M, 3) == bass_numbers(matlis_dual(M), 3)


# -- homology -------------------------------------------------------------------

def test_homology_of_exact_identity_complex(R1):
    reg = regular_module(R1)
    ident = ModuleHom(reg, reg, np.eye(3, dtype=np.int64), check=False)
    X = AugmentedComplex(R1, [reg, reg], [ident], "homological")
    assert X.homology_dim(0) == 0
    assert X.homology_dim(1) == 0
    assert homology(X, 0).dim == 0


def test_homology_of_zero_differential_complex(R1):
    k = residue_field_module(R1)
    zero = ModuleHom(k, k, np.zeros((1, 1), dtype=np.int64), check=False)
    X = AugmentedComplex(R1, [k, k, k], [zero, zero])
    assert [X.homology_dim(n) for n in range(3)] == [1, 1, 1]
    assert exactness_profile(X) == [0, 1]
    assert homology(X, 1).dim == 1


def test_homology_koszul_like_truncated_line(R2):
    reg = regular_module(R2)
    x = ModuleHom(reg, reg, R2.mult_matrix(R2.element_from_string("x")), check=True)
    X = AugmentedComplex(R2, [reg, reg], [x], "homological")
    h0 = homology(X, 0)
    h1 = homology(X, 1)
    assert h0.dim == 1   # R/(x)
    assert h1.dim == 1   # ann(x) = (x^2)
    # x acts as zero on both
    xe = R2.element_from_string("x")
    assert not h0.element_matrix(xe).any()
    assert not h1.element_matrix(xe).any()


def test_invalid_complex_rejected(R2):
    reg = regular_module(R2)
    x = ModuleHom(reg, reg, R2.mult_matrix(R2.element_from_string("x")), check=False)
    with pytest.raises(InvalidComplexError):
        AugmentedComplex(R2, [reg, reg, reg], [x, x])  # x.x = x^2 != 0


# -- syzygies --------------------------------------------------------------------

def test_syzygy_basics(R1):
    k = residue_field_module(R1)
    res = minimal_free_resolution(k, 3)
    assert syzygy(res, 0) is k
    s1 = syzygy(res, 1)
    assert s1.dim == 2  # the maximal ideal, m^2 = 0 so dim 2
    xe = R1.element_from_string("x")
    assert not s1.element_matrix(xe).any()
    s2 = syzygy(res, 2)
    assert s2.dim == 4  # k^4 inside F_1


def test_syzygy_of_complete_resolution_is_zero(R1):
    F = free_module(R1, 2)
    res = minimal_free_resolution(F, 2)
    assert syzygy(res, 1).dim == 0
    assert syzygy(res, 2).dim == 0


def test_cosyzygy_of_injective_resolution(R2):
    k = residue_field_module(R2)
    ires = minimal_injective_resolution(k, 2)
    assert syzygy(ires, 0) is k
    c1 = syzygy(ires, 1)
    assert c1.dim == 2  # coker(k -> D) inside I^1
    F = minimal_injective_resolution(dualizing_module(R2), 1)
    assert syzygy(F, 1).dim == 0


# -- injective resolutions --------------------------------------------------------

def test_injective_resolution_of_injective_is_length_zero(R1):
    D = dualizing_module(R1)
    ires = minimal_injective_resolution(D, 3)
    assert ires.complete
    assert ires.betti[0] == 1
    assert all(b == 0 for b in ires.betti[1:])
    clear_caches()
    minimal_injective_resolution(D, 0)
    assert minimal_injective_resolution(D, 1).complete


def test_injective_resolution_of_residue_field(R1):
    k = residue_field_module(R1)
    ires = minimal_injective_resolution(k, 4)
    assert ires.betti == [1, 2, 4, 8, 16]
    assert ires.modules[0].dim == 3  # I^0 = injective hull = dual of ring
    ires.validate()
    assert ires.aug_map.rank() == 1  # k embeds


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4"])
def test_resolutions_match_their_dense_definitions(name):
    """Oracle for the induced resolutions: a free differential is the dense
    block matrix of its entries realised through R, and an injective
    resolution's arrows and augmentation are the transposes of the dual's
    free ones."""
    ring = corpus_rings()[name]
    R = regular_module(ring)
    for M in [residue_field_module(ring)] + random_module_pool(ring, 2, max_dim=4):
        clear_caches()
        res = minimal_free_resolution(M, 3)
        for j in range(1, 4):
            want = realise(R.action, res.entries[j].coefficients(), False, ring.field.p)
            assert np.array_equal(res.arrow(j).mat, want)
        ires = minimal_injective_resolution(M, 3)
        dual = minimal_free_resolution(matlis_dual(M), 3)
        assert ires.betti == dual.betti
        assert np.array_equal(ires.aug_map.mat, dual.aug_map.mat.T)
        for i in range(3):
            assert np.array_equal(ires.arrow(i).mat, dual.arrow(i + 1).mat.T)
        ires.validate()


def test_injective_resolution_of_zero(R1):
    z = zero_module(R1)
    ires = minimal_injective_resolution(z, 2)
    assert all(m.dim == 0 for m in ires.modules)


# -- Ext and Tor -------------------------------------------------------------------

def test_ext_degree_zero_from_ring(R1):
    for M in random_module_pool(R1, 3, max_dim=6):
        E = ext_abs(0, free_module(R1, 1), M)
        assert E.dim == M.dim


def test_ext_residue_field_golden(R1):
    k = residue_field_module(R1)
    assert ext_dims(k, k, 4) == [1, 2, 4, 8, 16]
    assert ext_abs(1, k, k).dim == 2


def test_ext_dualizing_self_orthogonal(R1):
    D = dualizing_module(R1)
    dims = ext_dims(D, D, 5)
    assert dims[0] == 3  # Hom(D,D) = R
    assert dims[1:] == [0, 0, 0, 0, 0]


def test_ext_into_residue_field_gives_betti(R1, R2):
    for ring in (R1, R2):
        k = residue_field_module(ring)
        for M in random_module_pool(ring, 4, max_dim=6):
            assert ext_dims(M, k, 3) == betti_numbers(M, 3)


def test_tor_golden(R1):
    k = residue_field_module(R1)
    assert tor_dims(k, k, 4) == [1, 2, 4, 8, 16]
    assert tor_abs(1, k, k).dim == 2
    D = dualizing_module(R1)
    t0 = tor_abs(0, D, k)
    assert t0.dim == tensor_space(D, k).dim == 2


def test_tor_vanishes_on_free(R1):
    reg = free_module(R1, 1)
    for M in random_module_pool(R1, 3, max_dim=6):
        assert tor_dims(reg, M, 3)[1:] == [0, 0, 0]
        assert tor_dims(M, reg, 3)[1:] == [0, 0, 0]


def test_hom_complex_arrows_are_linear_and_compose(R1):
    k = residue_field_module(R1)
    D = dualizing_module(R1)
    res = minimal_free_resolution(k, 3)
    for N in (k, D):
        cx = InducedComplex(N, res.betti, res.entries, True)
        cx.validate()
        for i in range(cx.top):
            cx.arrow(i).validate()
        tx = InducedComplex(N, res.betti, res.entries, False)
        tx.validate()
        for i in range(1, tx.top + 1):
            tx.arrow(i).validate()


def ext_dims_via_injective(M, N, top):
    """Balance oracle: Ext computed from an injective resolution of N."""
    ires = minimal_injective_resolution(N, top + 1)
    mods = [hom_space(M, I).module for I in ires.modules]
    arrows = [hom_functor_map(M, ires.arrow(i)) for i in range(ires.top)]
    cx = AugmentedComplex(M.ring, mods, arrows, "cohomological", check=False)
    return [cx.homology_dim(i) for i in range(top + 1)]


def test_ext_balance_against_injective_route(R1, R2):
    for ring in (R1, R2):
        pool = random_module_pool(ring, 3, max_dim=5)
        k = residue_field_module(ring)
        pairs = [(pool[0], pool[1]), (pool[2], k), (k, pool[0])]
        for M, N in pairs:
            assert ext_dims(M, N, 3) == ext_dims_via_injective(M, N, 3)


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4"])
def test_each_differential_is_ranked_once(name, monkeypatch):
    """ext_dims and tor_dims extend one store: asking for degrees 0..4 in
    order ranks each of the five differentials once, and gives what one
    cold call at degree 4 and the whole complex's homology give."""
    ring = corpus_rings()[name]
    k = residue_field_module(ring)
    D = dualizing_module(ring)
    M = random_module_pool(ring, 1, max_dim=4)[0]
    ranked = []
    real = complexes._differential_rank

    def counted(N, ent, contravariant):
        ranked.append(ent.shape)
        return real(N, ent, contravariant)

    for dims_of, contravariant in ((ext_dims, True), (tor_dims, False)):
        for A, N in ((k, k), (M, D), (D, M)):
            clear_caches()
            ranked.clear()
            monkeypatch.setattr(complexes, "_differential_rank", counted)
            grown = [dims_of(A, N, t) for t in range(5)]
            monkeypatch.undo()
            assert len(ranked) == 5, (dims_of.__name__, A.label, N.label, ranked)
            assert all(grown[t] == grown[4][:t + 1] for t in range(5))
            clear_caches()
            assert dims_of(A, N, 4) == grown[4]
            res = minimal_free_resolution(A, 5)
            cx = InducedComplex(N, res.betti, res.entries, contravariant)
            assert grown[4] == [cx.homology_dim(i) for i in range(5)]


# -- dimension verdicts -------------------------------------------------------------

def test_pd_exact_cases(R1):
    assert pd_exact(free_module(R1, 3)) == DimensionValue.finite(0)
    assert pd_exact(residue_field_module(R1)) == DimensionValue.infinite()
    assert pd_exact(dualizing_module(R1)) == DimensionValue.infinite()
    assert pd_exact(zero_module(R1)) == DimensionValue.zero_sentinel()


def test_id_exact_cases(R1, R2):
    assert id_exact(dualizing_module(R1)) == DimensionValue.finite(0)
    assert id_exact(residue_field_module(R1)) == DimensionValue.infinite()
    assert id_exact(free_module(R2, 2)) == DimensionValue.finite(0)  # Gorenstein
    assert id_exact(free_module(R1, 1)) == DimensionValue.infinite()  # type 2
    assert id_exact(zero_module(R1)) == DimensionValue.zero_sentinel()


def test_dimension_value_semantics():
    assert DimensionValue.zero_sentinel() == DimensionValue.zero_sentinel()
    assert DimensionValue.finite(0) != DimensionValue.zero_sentinel()
    assert DimensionValue.finite(0) != DimensionValue.infinite()
    assert str(DimensionValue.infinite()) == "infinite"
    assert str(DimensionValue.finite(2)) == "2"


def test_pd_matches_self_ext_criterion(R1, R2):
    # pd = 0 iff Ext^1(M, first syzygy) vanishes
    for ring in (R1, R2):
        mods = random_module_pool(ring, 4, max_dim=6) + [free_module(ring, 2)]
        for M in mods:
            res = minimal_free_resolution(M, 1)
            s1 = syzygy(res, 1)
            vanish = (s1.dim == 0) or ext_dims(M, s1, 1)[1] == 0
            assert (pd_exact(M) == DimensionValue.finite(0)) == vanish


def test_exactness_profile_of_augmented_resolution(R1):
    for M in random_module_pool(R1, 3, max_dim=6):
        res = minimal_free_resolution(M, 3)
        assert exactness_profile(res) == []
    ires = minimal_injective_resolution(residue_field_module(R1), 3)
    assert exactness_profile(ires) == []


# -- block assembly of induced differentials --------------------------------


def _naive_block_matrix(act, ent, contravariant, p):
    """Per-block oracle over Python ints: block (s, t) is
    sum_k ent[s, t, k] * act[k] mod p, placed by the layout."""
    b_prev, b_next, d = ent.shape
    n = act.shape[1]
    shape = (b_next * n, b_prev * n) if contravariant else (b_prev * n, b_next * n)
    out = np.zeros(shape, dtype=np.int64)
    for s in range(b_prev):
        for t in range(b_next):
            coeffs = [int(c) for c in ent[s, t]]
            for i in range(n):
                for j in range(n):
                    v = sum(c * int(act[k, i, j]) for k, c in enumerate(coeffs)) % p
                    if contravariant:
                        out[t * n + i, s * n + j] = v
                    else:
                        out[s * n + i, t * n + j] = v
    return out


@pytest.mark.parametrize("p", [2, 3, 65521, 2 ** 31 - 1])
@pytest.mark.parametrize("contravariant", [False, True])
@pytest.mark.parametrize("b_prev, b_next, d, n", [
    (3, 2, 4, 3),          # small enough for the direct int64 product
    (6, 5, 8, 7),          # large enough for the BLAS or chunked product
    (0, 3, 4, 2), (3, 0, 4, 2), (2, 3, 4, 0),
])
def test_block_matrix_from_entries_matches_per_block_oracle(p, contravariant,
                                                            b_prev, b_next, d, n):
    rng = np.random.default_rng(p + 7 * b_prev + 11 * b_next + n)
    ent = rng.integers(0, p, size=(b_prev, b_next, d), dtype=np.int64)
    act = rng.integers(0, p, size=(d, n, n), dtype=np.int64)
    gens = ent.transpose(0, 2, 1).reshape(b_prev * d, b_next)
    got = realise(act, RingEntries.from_generators(gens, b_prev, d).coefficients(),
                  contravariant, p)
    want = _naive_block_matrix(act, ent, contravariant, p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
