"""Module layer: hom/tensor carriers, natural maps, duality, freeness."""

import numpy as np
import pytest

from oracles import direct_sum, enumerate_homs, hom_space_dim, tensor_dim_quotient

from semidual.algebra import algebra_from_monomial_quotient, radical, radical_generators
from semidual.corpus import (corpus_rings, corpus_sessions, data_text, random_module,
                             random_module_pool, ring_square_zero_two_vars,
                             ring_truncated_line)
from semidual.errors import InputError
from semidual.linalg import Field, Mat, _mul_arrays, expressor, kernel_basis, rank, rref
from semidual.modules import (Module, ModuleHom, adjunction_iso, coevaluation_mu,
                              cokernel, cover_matrix, dualizing_module,
                              evaluation_nu, free_module, hom_functor_map,
                              hom_space, homothety_chi, identity_hom,
                              image, is_free, is_injective, kernel, matlis_dual,
                              minimal_generators, power_module,
                              presentation_to_module, radical_span,
                              radical_submodule, regular_module, residue_field_module,
                              subquotient, tensor_functor_map, tensor_space, zero_module)
from semidual.linalg import _mul_arrays


@pytest.fixture(scope="module")
def R1():
    return ring_square_zero_two_vars()


@pytest.fixture(scope="module")
def R2():
    return ring_truncated_line()


@pytest.fixture(scope="module")
def rings():
    return list(corpus_rings().values())


def _assert_hom_contract(hs, seed=0, basis=True):
    """coords_of_all inverts mats_of, every map mats_of gives is R-linear,
    and the carrier action is postcomposition."""
    p = hs.ring.field.p
    rng = np.random.default_rng(seed)
    units = list(np.eye(hs.dim, dtype=np.int64)) if basis else []
    cols = np.stack(units + [rng.integers(0, p, size=hs.dim)], axis=1)
    fs = hs.mats_of(cols)
    assert np.array_equal(hs.coords_of_all(fs), cols)
    for f in fs:
        ModuleHom(hs.source, hs.target, f, check=True)
    for i in range(hs.ring.dim):
        moved = hs.mats_of(hs.module.act(i, cols))
        for f, g in zip(fs, moved):
            assert np.array_equal(g, hs.target.act(i, f))


def _rand_hom(M, N, seed):
    hs = hom_space(M, N)
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, M.ring.field.p, size=hs.dim)
    return ModuleHom(M, N, hs.mats_of(coords.reshape(-1, 1))[0], check=True)


def _after(g, f):
    """The composite g . f, checked R-linear."""
    return ModuleHom(f.src, g.dst, _mul_arrays(g.mat, f.mat, f.src.ring.field.p))


# -- constructors and validation ---------------------------------------------

def test_free_module_dims(R1, R2):
    assert free_module(R1, 1).dim == 3
    assert free_module(R1, 0).dim == 0
    assert free_module(R2, 2).dim == 6


def test_presentation_residue_field(R1):
    M, proj = presentation_to_module(R1, 1, 2, [["x", "y"]])
    assert M.dim == 1
    assert proj.is_surjective()
    # x and y both act as zero on the quotient
    assert M.element_matrix(R1.element_from_string("x"))[0, 0] == 0
    assert M.element_matrix(R1.element_from_string("y"))[0, 0] == 0


def test_presentation_no_relations_is_free(R1):
    M, proj = presentation_to_module(R1, 1, 0, [[]])
    assert M.dim == 3
    assert is_free(M) == 1
    assert np.array_equal(proj.mat, np.eye(3, dtype=np.int64))


def test_presentation_principal_quotient(R2):
    M, _ = presentation_to_module(R2, 1, 1, [["x"]])
    assert M.dim == 1


def test_module_validation_rejects_bad_unit(R1):
    act = np.zeros((3, 2, 2), dtype=np.int64)  # unit acts as zero
    with pytest.raises(InputError, match="unit"):
        Module(R1, act)


def test_module_validation_rejects_wrong_relations(R1):
    # x acting as something with x^2 != 0
    act = np.zeros((3, 2, 2), dtype=np.int64)
    act[0] = np.eye(2, dtype=np.int64)
    act[1] = np.array([[0, 1], [1, 0]])  # squares to identity, but x^2 = 0 in R1
    with pytest.raises(InputError, match="relations"):
        Module(R1, act)


def test_hom_validation_rejects_nonlinear(R1):
    reg = regular_module(R1)
    k = residue_field_module(R1)
    bad = np.zeros((3, 1), dtype=np.int64)
    bad[0, 0] = 1  # sends k's generator to 1; then x*f(1) = x but f(x*1) = 0
    with pytest.raises(InputError, match="linear"):
        ModuleHom(k, reg, bad)
    good = np.zeros((3, 1), dtype=np.int64)
    good[1, 0] = 1  # 1 -> x lands in the socle, R-linear
    ModuleHom(k, reg, good)


def test_hom_validation_names_the_first_failing_basis_element(rings):
    """validate compares all d actions in one stacked product per side; it
    accepts a map exactly when every A_i(dst) f = f A_i(src), and names the
    first i where they differ, here found one basis element at a time."""
    rng = np.random.default_rng(23)
    for ring in rings:
        p = ring.field.p
        R, k, D = regular_module(ring), residue_field_module(ring), dualizing_module(ring)
        M = random_module_pool(ring, 1, max_dim=4)[0]
        mods = [R, k, D, M, power_module(D, 2), free_module(ring, 2)]
        for src in mods:
            for dst in mods:
                good = hom_space(src, dst).basis_mats()
                maps = list(good[:2]) + [rng.integers(0, p, (dst.dim, src.dim))
                                         for _ in range(3)]
                for f in maps:
                    wrong = [i for i in range(ring.dim)
                             if not np.array_equal(dst.act(i, f),
                                                   _mul_arrays(f, src.action[i], p))]
                    if not wrong:
                        ModuleHom(src, dst, f)
                        continue
                    with pytest.raises(InputError, match=f"basis element {wrong[0]}\\)"):
                        ModuleHom(src, dst, f)


def test_rank_is_computed_once_per_map(R1, monkeypatch):
    import semidual.modules as modules
    D = dualizing_module(R1)
    f = _rand_hom(D, D, 3)
    real = modules.rank
    calls = []
    monkeypatch.setattr(modules, "rank", lambda m: calls.append(m.data.shape) or real(m))
    r = f.rank()
    f.is_injective()
    f.is_surjective()
    f.is_bijective()
    assert calls == [(D.dim, D.dim)]
    assert f.rank() == r == real(f.matrix())


def test_zero_module_everywhere(R1):
    z = zero_module(R1)
    k = residue_field_module(R1)
    assert hom_space(k, z).dim == 0
    assert hom_space(z, k).dim == 0
    assert tensor_space(z, k).dim == 0
    assert tensor_space(k, z).dim == 0
    assert is_free(z) == 0
    assert is_injective(z) == 0
    assert matlis_dual(z).dim == 0


# -- hom spaces ----------------------------------------------------------------

def test_hom_from_regular_matches_target(R1):
    for seed in range(4):
        M = random_module(R1, seed)
        hs = hom_space(regular_module(R1), M)
        assert hs.dim == M.dim


def test_hom_dualizing_to_residue_field_golden(R1):
    D = dualizing_module(R1)
    k = residue_field_module(R1)
    hs = hom_space(D, k)
    assert hs.module.dim == 2
    # full enumeration oracle: 2^2 maps in total
    assert len(enumerate_homs(2, list(D.action), list(k.action))) == 4
    for bm in hs.basis_mats():
        ModuleHom(D, k, bm, check=False).validate()


def test_hom_dims_match_oracle_random(rings):
    # every construction path: dense, power source, power target, free source
    for ring in rings:
        p = ring.field.p
        for seed in range(12):
            M = random_module(ring, seed)
            N = random_module(ring, seed + 100)
            if M.dim == 0 or N.dim == 0 or M.dim * N.dim > 64:
                continue
            pairs = [(M, N), (power_module(M, 2), N), (M, power_module(N, 2)),
                     (regular_module(ring), N)]
            for src, dst in pairs:
                hs = hom_space(src, dst)
                assert hs.dim == hom_space_dim(p, list(src.action), list(dst.action))
                _assert_hom_contract(hs, seed)


def test_hom_matlis_closed_forms_t27():
    # T27 = GF(3)[x,y,z]/(x^3,y^3,z^3), d = 27: Hom(M, D) = Hom_k(M, k)
    T = algebra_from_monomial_quotient(Field(3), ["x", "y", "z"],
                                       ["x^3", "y^3", "z^3"], name="T27")
    D = dualizing_module(T)
    assert hom_space(D, D).dim == 27
    mods = [residue_field_module(T), radical_submodule(T), D, regular_module(T),
            *random_module_pool(T, 3, max_dim=26)]
    for M in mods:
        hs = hom_space(M, D)
        assert hs.dim == M.dim
        _assert_hom_contract(hs, basis=False)


def test_hom_carrier_action_is_postcomposition(R1):
    D = dualizing_module(R1)
    k = residue_field_module(R1)
    hs = hom_space(D, k)
    basis = hs.basis_mats()
    for i in range(R1.dim):
        moved = hs.mats_of(hs.module.act(i, np.eye(hs.dim, dtype=np.int64)))
        for l in range(hs.dim):
            assert np.array_equal(moved[l], k.act(i, basis[l]))


def test_hom_block_source_fast_path_matches_generic(R1):
    F = free_module(R1, 3)
    M = random_module(R1, 7)
    hs = hom_space(F, M)
    assert hs.module.block is not None
    want = hom_space_dim(R1.field.p, list(F.action), list(M.action))
    assert hs.dim == want
    rng = np.random.default_rng(0)
    coords = rng.integers(0, 2, size=hs.dim)
    mat = hs.mats_of(coords.reshape(-1, 1))[0]
    ModuleHom(F, M, mat, check=True)
    assert np.array_equal(hs.coords_of_all(mat[None])[:, 0], coords % 2)


def test_hom_block_target_fast_path_matches_generic(R1):
    D = dualizing_module(R1)
    F = free_module(R1, 2)
    hs = hom_space(D, F)
    want = hom_space_dim(R1.field.p, list(D.action), list(F.action))
    assert hs.dim == want
    rng = np.random.default_rng(1)
    coords = rng.integers(0, 2, size=hs.dim)
    mat = hs.mats_of(coords.reshape(-1, 1))[0]
    ModuleHom(D, F, mat, check=True)
    assert np.array_equal(hs.coords_of_all(mat[None])[:, 0], coords % 2)


def test_hom_block_power_of_dense_module(R1):
    D = dualizing_module(R1)
    k = residue_field_module(R1)
    P = power_module(D, 2)
    hs = hom_space(P, k)
    assert hs.dim == 4  # Hom(D,k)^2
    mat = hs.basis_mats()[0]
    ModuleHom(P, k, mat, check=True)


# -- tensor products -----------------------------------------------------------

def _pure(ts, u, v):
    """u (x) v in the coordinates of ts: the pure tensor matrix applied to
    kron(u, v)."""
    p = ts.ring.field.p
    uv = np.kron(np.asarray(u, dtype=np.int64) % p, np.asarray(v, dtype=np.int64) % p) % p
    return _mul_arrays(ts.pure_matrix(), uv.reshape(-1, 1), p)[:, 0]


def test_tensor_with_regular_is_identity_sized(R1):
    for seed in range(4):
        M = random_module(R1, seed)
        ts = tensor_space(M, free_module(R1, 1))
        assert ts.dim == M.dim
        # pure(u, 1) = u in the canonical identification
        if M.dim:
            u = np.zeros(M.dim, dtype=np.int64)
            u[0] = 1
            one = R1.unit.copy()
            assert np.array_equal(_pure(ts, u, one), u)


def test_tensor_golden_dims(R1):
    D = dualizing_module(R1)
    k = residue_field_module(R1)
    m = radical_submodule(R1)
    assert tensor_space(D, k).dim == 2
    assert tensor_space(D, k).dim == tensor_dim_quotient(2, list(D.action), list(k.action))
    # brute-forced independently twice (quotient of k-tensor space, and
    # dim Hom(D,R) via duality); the value is 4
    assert tensor_space(D, D).dim == 4
    assert tensor_dim_quotient(2, list(D.action), list(D.action)) == 4
    assert tensor_space(m, k).dim == 2
    assert tensor_space(k, k).dim == 1


def test_tensor_dims_match_oracle_and_symmetry(rings):
    for ring in rings:
        p = ring.field.p
        for seed in range(6):
            M = random_module(ring, seed)
            N = random_module(ring, seed + 50)
            if M.dim * N.dim > 49:
                continue
            want = tensor_dim_quotient(p, list(M.action), list(N.action))
            assert tensor_space(M, N).dim == want
            assert tensor_space(N, M).dim == want


def test_tensor_block_fast_paths(R1):
    D = dualizing_module(R1)
    k = residue_field_module(R1)
    F = free_module(R1, 2)
    ts = tensor_space(D, F)
    assert ts.dim == 6
    assert ts.module.block is not None and ts.module.block[0] is D
    # pure(u, unit in copy s) lands as u in block s
    u = np.array([1, 0, 1], dtype=np.int64)
    v = np.zeros(6, dtype=np.int64)
    v[3:6] = R1.unit
    got = _pure(ts, u, v)
    assert np.array_equal(got, np.concatenate([np.zeros(3, dtype=np.int64), u]))
    ts2 = tensor_space(F, k)
    assert ts2.dim == 2
    P = power_module(D, 2)
    ts3 = tensor_space(P, k)
    assert ts3.dim == 4  # (D x k)^2


def test_tensor_pure_is_balanced(R1):
    D = dualizing_module(R1)
    m = radical_submodule(R1)
    ts = tensor_space(D, m)
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.integers(0, 2, size=D.dim)
        v = rng.integers(0, 2, size=m.dim)
        for i in range(R1.dim):
            lhs = _pure(ts, D.act(i, u.reshape(-1, 1))[:, 0], v)
            rhs = _pure(ts, u, m.act(i, v.reshape(-1, 1))[:, 0])
            assert np.array_equal(lhs, rhs)


# -- functor maps ---------------------------------------------------------------

def test_functor_maps_respect_identity_and_zero(R1):
    D = dualizing_module(R1)
    M = random_module(R1, 11)
    ident = identity_hom(M)
    z = ModuleHom(M, M, np.zeros((M.dim, M.dim), dtype=np.int64), check=False)
    hm = hom_functor_map(D, ident)
    assert np.array_equal(hm.mat, np.eye(hm.src.dim, dtype=np.int64))
    assert not hom_functor_map(D, z).mat.any()
    tm = tensor_functor_map(D, ident)
    assert np.array_equal(tm.mat, np.eye(tm.src.dim, dtype=np.int64))
    assert not tensor_functor_map(D, z).mat.any()


def test_functor_maps_respect_composition(R1):
    D = dualizing_module(R1)
    M = random_module(R1, 21)
    N = random_module(R1, 22)
    L = random_module(R1, 23)
    f = _rand_hom(M, N, 1)
    g = _rand_hom(N, L, 2)
    gf = _after(g, f)
    hm = _after(hom_functor_map(D, g), hom_functor_map(D, f))
    assert np.array_equal(hm.mat, hom_functor_map(D, gf).mat)
    tm = _after(tensor_functor_map(D, g), tensor_functor_map(D, f))
    assert np.array_equal(tm.mat, tensor_functor_map(D, gf).mat)


def test_functor_map_ranks_golden(R1):
    # multiplication by x on R: the induced map on D (x) - is x acting on D,
    # rank dim(xD) = 1.  Postcomposition on Hom(D, -) is zero: every map
    # D -> R lands in ann(y) on the generators, so x times it dies.  Both
    # pinned by full enumeration of Hom(D, R) (16 maps).
    D = dualizing_module(R1)
    reg = regular_module(R1)
    f = ModuleHom(reg, reg, R1.mult_matrix(R1.element_from_string("x")), check=True)
    tm = tensor_functor_map(D, f)
    assert tm.rank() == 1
    hm = hom_functor_map(D, f)
    assert hm.rank() == 0
    homs = enumerate_homs(2, list(D.action), list(reg.action))
    assert len(homs) == 16
    x = R1.mult_matrix(R1.element_from_string("x"))
    assert all(not ((x @ h) % 2).any() for h in homs)


def test_contravariant_hom_functor(R1):
    D = dualizing_module(R1)
    M = random_module(R1, 31)
    N = random_module(R1, 32)
    f = _rand_hom(M, N, 5)
    g = hom_functor_map(D, f, side="contravariant")
    # g sends h: N -> D to h . f : M -> D
    hs_n = hom_space(N, D)
    hs_m = hom_space(M, D)
    got = hs_m.mats_of(g.mat)
    for l, h in enumerate(hs_n.basis_mats()):
        assert np.array_equal(got[l], (h @ f.mat) % 2)


# -- natural maps ----------------------------------------------------------------

def test_evaluation_with_regular_is_iso(R1, R2):
    for ring in (R1, R2):
        reg = free_module(ring, 1)
        for seed in range(4):
            M = random_module(ring, seed)
            nu = evaluation_nu(reg, M)
            nu.validate()
            assert nu.is_bijective()


def test_evaluation_dualizing_on_residue_field(R1):
    D = dualizing_module(R1)
    k = residue_field_module(R1)
    nu = evaluation_nu(D, k)
    nu.validate()
    assert nu.src.dim == 4 and nu.dst.dim == 1
    assert not nu.is_injective()
    assert nu.is_surjective()


def test_coevaluation_with_regular_is_iso(R1):
    reg = free_module(R1, 1)
    for seed in range(4):
        M = random_module(R1, seed)
        mu = coevaluation_mu(reg, M)
        mu.validate()
        assert mu.is_bijective()


def test_coevaluation_on_ring_equals_homothety(R1):
    D = dualizing_module(R1)
    mu = coevaluation_mu(D, regular_module(R1))
    chi = homothety_chi(R1, D)
    assert mu.src is chi.src or mu.src.fingerprint == chi.src.fingerprint
    assert mu.dst.fingerprint == chi.dst.fingerprint
    assert np.array_equal(mu.mat, chi.mat)
    assert mu.is_bijective()


def test_homothety_cases(R1):
    reg = regular_module(R1)
    chi_r = homothety_chi(R1, reg)
    assert chi_r.is_bijective()
    D = dualizing_module(R1)
    chi_d = homothety_chi(R1, D)
    chi_d.validate()
    assert chi_d.is_bijective()
    k = residue_field_module(R1)
    chi_k = homothety_chi(R1, k)
    x = R1.element_from_string("x")
    assert not chi_k(x).any()
    assert not chi_k.is_injective()


def test_composition_identity_hom_after_coev(R1, R2):
    # Hom(C, nu_M) . mu_{Hom(C,M)} is the identity on Hom(C, M)
    for ring in (R1, R2):
        C = dualizing_module(ring)
        mods = [free_module(ring, 1), residue_field_module(ring),
                dualizing_module(ring), random_module(ring, 40)]
        for M in mods:
            hs = hom_space(C, M)
            comp = _after(hom_functor_map(C, evaluation_nu(C, M)),
                          coevaluation_mu(C, hs.module))
            assert np.array_equal(comp.mat, np.eye(hs.dim, dtype=np.int64))


def test_composition_identity_ev_after_tensored_coev(R1, R2):
    # nu_{C(x)M} . (C (x) mu_M) is the identity on C (x) M
    for ring in (R1, R2):
        C = dualizing_module(ring)
        mods = [free_module(ring, 1), residue_field_module(ring),
                random_module(ring, 41)]
        for M in mods:
            ts = tensor_space(C, M)
            comp = _after(evaluation_nu(C, ts.module),
                          tensor_functor_map(C, coevaluation_mu(C, M)))
            assert np.array_equal(comp.mat, np.eye(ts.dim, dtype=np.int64))


def test_composition_identities_other_direction(R1):
    D = dualizing_module(R1)
    # nu_D is an isomorphism (Hom(D,D) = R, D (x) R = D), so the reverse
    # composite is also the identity
    nu = evaluation_nu(D, D)
    assert nu.is_bijective()
    hs = hom_space(D, D)
    comp = _after(coevaluation_mu(D, hs.module), hom_functor_map(D, nu))
    assert np.array_equal(comp.mat, np.eye(comp.src.dim, dtype=np.int64))
    # mu_R is surjective (bijective), so (D (x) mu_R) . nu_{D(x)R} = id
    reg = regular_module(R1)
    ts = tensor_space(D, reg)
    comp2 = _after(tensor_functor_map(D, coevaluation_mu(D, reg)),
                   evaluation_nu(D, ts.module))
    assert np.array_equal(comp2.mat, np.eye(comp2.src.dim, dtype=np.int64))


def test_naturality_squares(R1):
    D = dualizing_module(R1)
    for seed in range(3):
        M = random_module(R1, 60 + seed)
        N = random_module(R1, 70 + seed)
        if M.dim == 0 or N.dim == 0:
            continue
        f = _rand_hom(M, N, seed)
        # evaluation: f . nu_M = nu_N . (D (x) Hom(D, f))
        lhs = _after(f, evaluation_nu(D, M))
        rhs = _after(evaluation_nu(D, N), tensor_functor_map(D, hom_functor_map(D, f)))
        assert np.array_equal(lhs.mat, rhs.mat)
        # coevaluation: Hom(D, D (x) f) . mu_M = mu_N . f
        lhs2 = _after(hom_functor_map(D, tensor_functor_map(D, f)), coevaluation_mu(D, M))
        rhs2 = _after(coevaluation_mu(D, N), f)
        assert np.array_equal(lhs2.mat, rhs2.mat)


def test_adjunction_dimensions_and_bijection(R1, R2):
    for ring in (R1, R2):
        C = dualizing_module(ring)
        for seed in range(3):
            M = random_module(ring, 80 + seed)
            N = random_module(ring, 90 + seed)
            if M.dim * N.dim > 36:
                continue
            ts = tensor_space(C, M)
            lhs = hom_space(ts.module, N).dim
            rhs = hom_space(M, hom_space(C, N).module).dim
            assert lhs == rhs
            adj = adjunction_iso(C, M, N)
            adj.validate()
            assert adj.is_bijective()


# -- duality ---------------------------------------------------------------------

def test_matlis_basics(R1):
    reg = regular_module(R1)
    D = matlis_dual(reg)
    assert D.dim == 3
    assert matlis_dual(D).fingerprint == reg.fingerprint
    k = residue_field_module(R1)
    assert np.array_equal(matlis_dual(k).action, k.action)


def test_matlis_block_aware(R1):
    F = free_module(R1, 3)
    dual = matlis_dual(F)
    assert dual.block is not None
    assert dual.dim == 9
    assert dual.block[0].fingerprint == dualizing_module(R1).fingerprint


def test_matlis_exactness(R1):
    for seed in range(4):
        M = random_module(R1, 100 + seed)
        N = random_module(R1, 110 + seed)
        if M.dim == 0 or N.dim == 0:
            continue
        f = _rand_hom(M, N, seed)
        fd = ModuleHom(matlis_dual(N), matlis_dual(M), f.mat.T)
        fd.validate()
        assert kernel(fd).carrier.dim == cokernel(f).carrier.dim
        assert cokernel(fd).carrier.dim == kernel(f).carrier.dim


# -- subquotients ------------------------------------------------------------------

def test_kernel_cokernel_image_contracts(R1):
    reg = regular_module(R1)
    f = ModuleHom(reg, reg, R1.mult_matrix(R1.element_from_string("x")), check=True)
    ker = kernel(f)
    assert ker.carrier.dim == 2  # ann(x) = m
    assert not ((f.mat @ ker.represent) % 2).any()
    cok = cokernel(f)
    assert cok.carrier.dim == 2
    assert ModuleHom(reg, cok.carrier, cok.reduce).is_surjective()
    assert not ((cok.reduce @ f.mat) % 2).any()
    img = image(f)
    assert img.carrier.dim == 1
    # ker(coker projection) = image
    assert rank(Mat(R1.field, np.hstack([img.represent, ker.represent]))) == 2


def test_kernel_between_free_modules(R1):
    # x-multiplication R^2 -> R, kernel has dim 5
    F2 = free_module(R1, 2)
    F1 = free_module(R1, 1)
    x = R1.mult_matrix(R1.element_from_string("x"))
    mat = np.hstack([x, np.zeros((3, 3), dtype=np.int64)])
    f = ModuleHom(F2, F1, mat, check=True)
    ker = kernel(f)
    ker.carrier.validate()
    assert ker.carrier.dim == 5


# -- freeness and injectivity -------------------------------------------------------

def test_is_free_cases(R1):
    assert is_free(free_module(R1, 2)) == 2
    assert is_free(residue_field_module(R1)) is None
    D = dualizing_module(R1)
    assert minimal_generators(D).shape[1] == 2
    assert is_free(D) is None
    assert is_free(power_module(D, 2)) is None


def test_is_injective_cases(R1, R2):
    D = dualizing_module(R1)
    assert is_injective(D) == 1
    assert is_injective(residue_field_module(R1)) is None
    assert is_injective(power_module(D, 3)) == 3
    assert is_free(free_module(R2, 1)) == 1
    assert is_injective(free_module(R2, 1)) == 1  # R2 is Gorenstein


def _is_free_by_rank(M):
    """is_free through the rank of the minimal cover R^g -> M."""
    if M.dim == 0:
        return 0
    gens = minimal_generators(M)
    g = gens.shape[1]
    if g * M.ring.dim != M.dim:
        return None
    return g if rank(Mat(M.ring.field, cover_matrix(M, gens))) == M.dim else None


def test_is_free_matches_rank_route_on_corpus_modules(rings):
    sessions = corpus_sessions()
    for ring in rings:
        R, D = regular_module(ring), dualizing_module(ring)
        mods = [R, D, residue_field_module(ring), radical_submodule(ring),
                zero_module(ring), free_module(ring, 3), power_module(D, 2),
                direct_sum([D, R]), matlis_dual(radical_submodule(ring))]
        session = sessions[ring.name]
        mods += [session.module(m) for m in session.modules]
        mods += random_module_pool(ring, 12, 3 * ring.dim)
        for M in mods:
            assert is_free(M) == _is_free_by_rank(M), M.label
            assert is_injective(M) == _is_free_by_rank(matlis_dual(M)), M.label


# Per-basis-element loop references for the batched module actions.


def _act_all_loop(M, cols):
    return np.stack([M.act(i, cols) for i in range(M.ring.dim)])


def _element_matrix_loop(M, elem):
    p = M.ring.field.p
    out = np.zeros((M.dim, M.dim), dtype=np.int64)
    for i in range(M.ring.dim):
        if elem[i]:
            out = (out + int(elem[i]) * M.action[i]) % p
    return out


def _cover_matrix_loop(M, gens):
    out = np.zeros((M.dim, gens.shape[1], M.ring.dim), dtype=np.int64)
    for mu in range(M.ring.dim):
        out[:, :, mu] = M.act(mu, gens)
    return out.reshape(M.dim, gens.shape[1] * M.ring.dim)


def _radical_span_loop(M, gens):
    if gens.shape[1] == 0 or M.dim == 0:
        return np.zeros((M.dim, 0), dtype=np.int64)
    return np.hstack([_element_matrix_loop(M, gens[:, j]) for j in range(gens.shape[1])])


def _submodule_loop(ambient, cols):
    """(action, inclusion, section) of the span of cols, one e_i at a time."""
    p, d, k = ambient.ring.field.p, ambient.ring.dim, cols.shape[1]
    E = (expressor(Mat(ambient.ring.field, cols)).data if k
         else np.zeros((0, ambient.dim), dtype=np.int64))
    act = np.zeros((d, k, k), dtype=np.int64)
    for i in range(d):
        act[i] = _mul_arrays(E, ambient.act(i, cols), p)
    return act, cols, E


def _quotient_loop(ambient, cols):
    """(action, projection, section) of the quotient by the span of cols."""
    p, n, d = ambient.ring.field.p, ambient.dim, ambient.ring.dim
    red, piv = rref(Mat(ambient.ring.field, cols.T))
    E = red.data[: len(piv)]
    keep = [j for j in range(n) if j not in set(piv)]
    q = len(keep)
    Q = np.zeros((q, n), dtype=np.int64)
    sigma = np.zeros((n, q), dtype=np.int64)
    for t, j in enumerate(keep):
        Q[t, j] = 1
        sigma[j, t] = 1
    for i, pc in enumerate(piv):
        Q[:, pc] = (-E[i, keep]) % p
    act = np.zeros((d, q, q), dtype=np.int64)
    for i in range(d):
        act[i] = _mul_arrays(Q, ambient.act(i, sigma), p)
    return act, Q, sigma


def _session_at_prime(name, p):
    from semidual.sessions import parse_session_text
    text = data_text(f"{name}.session")
    field_line = next(line for line in text.splitlines() if line.startswith("field = "))
    return parse_session_text(text.replace(field_line, f"field = {p}"))


@pytest.mark.parametrize("p", [2, 3, 5, 2 ** 31 - 1])
def test_batched_actions_match_per_element_loops(p):
    rng = np.random.default_rng(p % 1000)
    for name in ("R1", "R2", "R3", "R4"):
        session = _session_at_prime(name, p)
        ring = session.ring()
        mods = [session.module(m) for m in session.modules]
        mods += [power_module(mods[-1], 2), free_module(ring, 3),
                 power_module(dualizing_module(ring), 2), zero_module(ring)]
        for M in mods:
            label = (name, p, M.label)
            for k in (0, 1, 3):
                cols = rng.integers(0, p, size=(M.dim, k))
                got = M.act_all(cols)
                assert got.shape == (ring.dim, M.dim, k), label
                assert np.array_equal(got, _act_all_loop(M, cols)), label
            elems = rng.integers(0, p, size=(ring.dim, 3))
            elems[:, 0] = ring.unit
            for j in range(3):
                want = _element_matrix_loop(M, elems[:, j])
                assert np.array_equal(M.element_matrix(elems[:, j]), want), label
                assert np.array_equal(M.element_matrices(elems)[j], want), label
            gens = minimal_generators(M)
            assert np.array_equal(cover_matrix(M, gens), _cover_matrix_loop(M, gens)), label
            span = radical_span(M)
            assert np.array_equal(span, _radical_span_loop(M, radical_generators(ring))), label
            # the generators span the same m * M as the whole radical basis
            full = _radical_span_loop(M, radical(ring).data)
            assert rank(Mat(ring.field, span)) == rank(Mat(ring.field, full)) \
                == rank(Mat(ring.field, np.hstack([span, full]))), label
            # action-stable subspaces: rad M, R v for a random v, 0 and M
            stable = [span, M.act_all(rng.integers(0, p, size=(M.dim, 1)))[:, :, 0].T]
            bases = [np.zeros((M.dim, 0), dtype=np.int64), np.eye(M.dim, dtype=np.int64)]
            for gen in stable:
                red, piv = rref(Mat(ring.field, gen.T))
                bases.append(red.data[: len(piv)].T)
            for cols in bases:
                quo = subquotient(M, None, cols, "Q")
                act, proj, sec = _quotient_loop(M, cols)
                assert np.array_equal(quo.carrier.action, act), label
                assert np.array_equal(quo.reduce, proj), label
                assert np.array_equal(quo.represent, sec), label
                # the span of cols as the image of its inclusion, on the
                # basis cols; and in kernel form (the kernel of the
                # projection) as a subquotient and as an image
                K = kernel_basis(Mat(ring.field, proj)).data
                sub = subquotient(M, K, None, "S")
                for basis, got in ((cols, None), (K, sub), (K, None)):
                    act, inc, sec = _submodule_loop(M, basis)
                    if got is None:
                        src = Module(ring, act, check=False)
                        got = image(ModuleHom(src, M, basis, check=False))
                    assert np.array_equal(got.carrier.action, act), label
                    assert np.array_equal(got.represent, inc), label
                    assert np.array_equal(got.reduce, sec), label


def test_direct_sum_and_its_freeness(R1):
    D = dualizing_module(R1)
    reg = regular_module(R1)
    S = direct_sum([D, reg])
    S.validate()
    assert S.dim == 6
    assert is_free(S) is None
    assert is_injective(S) is None


# -- corpus ------------------------------------------------------------------------

def test_corpus_rings_report():
    rings = corpus_rings()
    assert sorted(rings) == ["R1", "R2", "R3", "R4"]
    dims = {name: ring.dim for name, ring in rings.items()}
    assert dims == {"R1": 3, "R2": 3, "R3": 4, "R4": 4}


def test_random_module_determinism(R1):
    a = random_module(R1, 5)
    b = random_module(R1, 5)
    assert a.fingerprint == b.fingerprint
    c = random_module(R1, 6)
    assert a.fingerprint != c.fingerprint or a.dim != c.dim
    # seed 0 is R1 itself; its label is its own, not the shared R1's
    z = random_module(R1, 0)
    assert z.fingerprint == regular_module(R1).fingerprint
    assert z.label == "M[R1;0]" and regular_module(R1).label == "R1"


def test_random_module_bounds_and_yield(R1):
    nonzero = 0
    for seed in range(100):
        M = random_module(R1, seed)
        assert M.dim <= 3 * R1.dim
        M.validate()
        if M.dim:
            nonzero += 1
    assert nonzero >= 55


def test_random_module_pool(R1):
    pool = random_module_pool(R1, 10, max_dim=6)
    assert len(pool) == 10
    assert all(0 < M.dim <= 6 for M in pool)


def test_residue_field_and_radical_dims():
    for name, ring in corpus_rings().items():
        assert residue_field_module(ring).dim == 1
        assert radical_submodule(ring).dim == ring.dim - 1
