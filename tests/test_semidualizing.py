"""Tests for the semidualizing layer: certificates, proper resolutions,
relative Ext along both routes, class memberships, and the structural
theorem checks."""

import numpy as np
import pytest

from oracles import direct_sum
from semidual.algebra import radical
from semidual.complexes import (DimensionValue, betti_numbers,
                                exactness_profile, ext_dims, id_exact,
                                minimal_free_resolution, minimal_injective_resolution,
                                pd_exact, syzygy, tor_dims)
from semidual.corpus import corpus_rings, corpus_sessions, random_module_pool
from semidual.errors import (InputError, NotSemidualizingError,
                             TheoremViolationError)
from semidual.modules import (Module, ModuleHom, clear_caches, dualizing_module,
                              free_module, hom_space, homothety_chi, kernel, power_module,
                              radical_submodule, realise, regular_module,
                              residue_field_module, tensor_space)
import semidual.semidualizing as sd


@pytest.fixture(scope="module")
def rings():
    return corpus_rings()


@pytest.fixture(scope="module")
def r1(rings):
    return rings["R1"]


@pytest.fixture(scope="module")
def r1_mods(r1):
    return {
        "R": regular_module(r1),
        "D": dualizing_module(r1),
        "k": residue_field_module(r1),
        "m": radical_submodule(r1),
    }


# -- certificates ---------------------------------------------------------------


def test_regular_module_is_semidualizing(rings):
    for ring in rings.values():
        cert = sd.check_semidualizing(regular_module(ring), 5)
        assert cert.passed
        assert cert.ext_vanishing_verified_to == 5


def test_dualizing_module_is_semidualizing(rings):
    for ring in rings.values():
        cert = sd.check_semidualizing(dualizing_module(ring), 5)
        assert cert.passed
        assert cert.ext_vanishing_verified_to == 5


def _certificate_by_resolution(C, B):
    """The certificate with Ext^i(C,C), 1 <= i <= B, always computed from a
    minimal free resolution of C, free or injective C included."""
    chi = homothety_chi(C.ring, C)
    if not chi.is_injective():
        return sd.SemidualizingCertificate(False, 0, "homothety not injective")
    if not chi.is_surjective():
        return sd.SemidualizingCertificate(False, 0, "homothety not surjective")
    dims = ext_dims(C, C, B)
    for j in range(1, B + 1):
        if dims[j] != 0:
            return sd.SemidualizingCertificate(
                True, j - 1, f"Ext^{j}(C,C) has dimension {dims[j]}")
    return sd.SemidualizingCertificate(True, B, None)


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4"])
def test_free_or_injective_certificate_matches_resolution_route(rings, name):
    ring = rings[name]
    R, D = regular_module(ring), dualizing_module(ring)
    cands = {"R": R, "D": D, "R^2": power_module(R, 2), "D^2": power_module(D, 2),
             "k": residue_field_module(ring)}
    session = corpus_sessions()[name]
    cands.update({f"session {m}": session.module(m) for m in session.modules})
    for label, C in cands.items():
        cert = sd.check_semidualizing(C, 5)
        assert cert == _certificate_by_resolution(C, 5), label
    for C in (R, D):
        assert ext_dims(C, C, 5)[1:] == [0] * 5
    for label in ("R^2", "D^2"):
        cert = sd.check_semidualizing(cands[label], 5)
        assert not cert.homothety_bijective
        assert cert.failure_witness == "homothety not surjective"


def test_free_or_injective_certificate_needs_no_resolution(rings, monkeypatch):
    def refuse(*args):
        raise AssertionError("resolved a free or injective C")

    monkeypatch.setattr(sd, "ext_dims", refuse)
    for ring in rings.values():
        for C in (regular_module(ring), dualizing_module(ring)):
            assert sd.check_semidualizing(C, 50) == sd.SemidualizingCertificate(True, 50, None)


def test_residue_field_fails_homothety(r1_mods):
    cert = sd.check_semidualizing(r1_mods["k"], 3)
    assert not cert.passed
    assert cert.failure_witness == "homothety not injective"
    assert not cert.homothety_bijective


def test_radical_fails_certificate(r1_mods):
    cert = sd.check_semidualizing(r1_mods["m"], 3)
    assert not cert.passed
    assert "homothety" in cert.failure_witness


def test_direct_sum_fails_surjectivity(r1_mods):
    C = direct_sum([r1_mods["D"], r1_mods["R"]])
    cert = sd.check_semidualizing(C, 2)
    assert not cert.passed
    assert cert.failure_witness == "homothety not surjective"


def test_certificate_bound_validation(r1_mods):
    with pytest.raises(InputError):
        sd.check_semidualizing(r1_mods["R"], 0)


def test_require_semidualizing_raises(r1_mods):
    with pytest.raises(NotSemidualizingError):
        sd.require_semidualizing(r1_mods["k"], 2)
    sd.require_semidualizing(r1_mods["D"], 5)    # no raise


def test_operations_refuse_uncertified(r1_mods):
    k = r1_mods["k"]
    with pytest.raises(NotSemidualizingError):
        sd.proper_pc_resolution(k, r1_mods["R"], 2)
    with pytest.raises(NotSemidualizingError):
        sd.rel_ext(1, k, r1_mods["R"], r1_mods["R"])


# -- C-projectives and C-injectives ------------------------------------------------
# M is C-projective iff its P_C-pd is 0, and C-injective iff its I_C-id is 0


def test_c_projective_members(r1_mods):
    R, D = r1_mods["R"], r1_mods["D"]
    assert sd.pc_pd(D, D).kind == "finite"
    assert sd.pc_pd(D, power_module(D, 3)).kind == "finite"
    ts = tensor_space(D, free_module(R.ring, 2))
    assert sd.pc_pd(D, ts.module).kind == "finite"
    assert sd.pc_pd(R, free_module(R.ring, 2)).kind == "finite"


def test_c_projective_rejects(r1_mods):
    R, D, k = r1_mods["R"], r1_mods["D"], r1_mods["k"]
    assert sd.pc_pd(D, k).kind == "infinite"
    assert sd.pc_pd(D, R).kind == "infinite"
    assert sd.pc_pd(R, D).kind == "infinite"
    assert sd.pc_pd(D, r1_mods["m"]).kind == "infinite"


def test_c_injective_members(r1_mods):
    R, D = r1_mods["R"], r1_mods["D"]
    # Hom(D, injective) = powers of the regular module when C = D
    assert sd.ic_id(D, R).kind == "finite"
    assert sd.ic_id(D, power_module(R, 2)).kind == "finite"
    assert sd.ic_id(R, D).kind == "finite"
    assert sd.ic_id(D, D).kind == "infinite"
    assert sd.ic_id(D, r1_mods["k"]).kind == "infinite"


def test_zero_module_in_both_classes(r1, r1_mods):
    z = Module(r1, np.zeros((r1.dim, 0, 0), dtype=np.int64), label="0")
    assert sd.pc_pd(r1_mods["D"], z) == DimensionValue.zero_sentinel()
    assert sd.ic_id(r1_mods["D"], z) == DimensionValue.zero_sentinel()


# -- proper resolutions -------------------------------------------------------------


def test_proper_pc_resolution_of_c_itself(r1_mods):
    D = r1_mods["D"]
    X = sd.proper_pc_resolution(D, D, 3)
    assert [m.dim for m in X.modules] == [D.dim, 0, 0, 0]
    assert X.aug_map.is_bijective()
    assert exactness_profile(X) == []
    assert sd.is_proper_pc(D, X)


def test_proper_pc_resolution_of_k(r1_mods):
    D, k = r1_mods["D"], r1_mods["k"]
    X = sd.proper_pc_resolution(D, k, 3)
    # Hom(D,k) has dimension 2 and betti 2, 4, 8, ... over this ring
    assert [m.dim for m in X.modules] == [6, 12, 24, 48]
    assert X.aug_map.is_surjective()
    X.validate()
    for f in X.arrows:
        f.validate()
    X.aug_map.validate()
    assert sd.is_proper_pc(D, X)
    # k is not in the Bass class, so the complex itself is inexact everywhere
    assert exactness_profile(X) == [0, 1, 2]


def test_proper_pc_resolution_zero(r1, r1_mods):
    z = Module(r1, np.zeros((r1.dim, 0, 0), dtype=np.int64), label="0")
    X = sd.proper_pc_resolution(r1_mods["D"], z, 2)
    assert all(m.dim == 0 for m in X.modules)


def test_proper_pc_length_validation(r1_mods):
    with pytest.raises(InputError):
        sd.proper_pc_resolution(r1_mods["D"], r1_mods["k"], -1)


def test_proper_ic_resolution_of_c_injective(r1_mods):
    D = r1_mods["D"]
    W = hom_space(D, dualizing_module(D.ring)).module
    Y = sd.proper_ic_resolution(D, W, 3)
    assert Y.modules[0].dim == W.dim
    assert all(m.dim == 0 for m in Y.modules[1:])
    assert Y.aug_map.is_bijective()
    assert sd.is_proper_ic(D, Y)


def test_proper_ic_resolution_of_k_matches_dual(r1_mods):
    D, k = r1_mods["D"], r1_mods["k"]
    Y = sd.proper_ic_resolution(D, k, 3)
    X = sd.proper_pc_resolution(D, k, 3)
    # Matlis duality swaps the two transports, so the sizes must agree
    assert [m.dim for m in Y.modules] == [m.dim for m in X.modules]
    Y.validate()
    assert Y.aug_map.is_injective()
    assert sd.is_proper_ic(D, Y)
    assert exactness_profile(Y) == exactness_profile(X)


def test_proper_resolutions_for_regular_c(r1_mods):
    R, k = r1_mods["R"], r1_mods["k"]
    X = sd.proper_pc_resolution(R, k, 4)
    assert exactness_profile(X) == []
    assert [m.dim for m in X.modules] == [b * 3 for b in betti_numbers(k, 4)]


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4"])
def test_proper_resolutions_match_their_dense_definitions(rings, name):
    """Oracle for the transported resolutions: X_j = C^{b_j} with the
    entries of the free resolution of Hom(C, M) realised through C, and
    Y^j = W^{b_j}, W = Hom(C, D), with the entries of the injective
    resolution of C (x) M realised through W; modules labelled X_j and Y_j,
    the augmentation attached at degree 0."""
    ring = rings[name]
    D = dualizing_module(ring)
    for C in (regular_module(ring), D):
        W = hom_space(C, D).module
        for M in random_module_pool(ring, 2, max_dim=4):
            X = sd.proper_pc_resolution(C, M, 2)
            res = minimal_free_resolution(hom_space(C, M).module, 2)
            assert [m.label for m in X.modules] == [
                power_module(C, res.betti[j], label=f"X_{j}").label for j in range(3)]
            for j in range(1, 3):
                want = realise(C.action, res.entries[j].coefficients(), False, ring.field.p)
                assert np.array_equal(X.arrow(j).mat, want)
            assert X.aug_map.src is X.modules[0]
            X.validate()
            Y = sd.proper_ic_resolution(C, M, 2)
            ires = minimal_injective_resolution(tensor_space(C, M).module, 2)
            assert [m.label for m in Y.modules] == [
                power_module(W, ires.betti[j], label=f"Y_{j}").label for j in range(3)]
            for j in range(1, 3):
                want = realise(W.action, ires.entries[j].coefficients(), True, ring.field.p)
                assert np.array_equal(Y.arrow(j - 1).mat, want)
            assert Y.aug_map.dst is Y.modules[0]
            Y.validate()


# -- relative Ext: both routes -------------------------------------------------------


def test_rel_ext_golden_dims_over_r1(r1_mods):
    D, k = r1_mods["D"], r1_mods["k"]
    for i in range(5):
        r = sd.rel_ext(i, D, k, k, mode="both")
        assert r.dim_via_proper == r.dim_via_formula == 2 ** (i + 2)
        assert r.agree
        assert r.iso_map is not None
        assert r.iso_map.is_bijective()
        assert r.iso_map.src.dim == 2 ** (i + 2)


def test_rel_ext_regular_c_recovers_absolute(r1_mods):
    R, k, m = r1_mods["R"], r1_mods["k"], r1_mods["m"]
    expected = ext_dims(k, m, 3)
    for i in range(4):
        r = sd.rel_ext(i, R, k, m, mode="both")
        assert r.dim == expected[i]


def test_rel_ext_vanishes_on_c_projectives(r1_mods):
    D = r1_mods["D"]
    for N in (r1_mods["k"], r1_mods["m"], r1_mods["R"], D):
        for i in (1, 2, 3):
            assert sd.rel_ext(i, D, D, N, mode="both").dim == 0


def test_rel_ext_degree_zero_is_c_hom(r1_mods):
    # Ext^0 over the C-projectives of a C-projective is Hom(C-transport):
    # for M = D it has the dimension of Hom(D,N) transported back
    D, k = r1_mods["D"], r1_mods["k"]
    r = sd.rel_ext(0, D, D, k, mode="both")
    assert r.dim == hom_space(D, k).dim


def test_rel_ext_modes_match(r1_mods):
    D, k, m = r1_mods["D"], r1_mods["k"], r1_mods["m"]
    for i in range(3):
        dp = sd.rel_ext(i, D, m, k, mode="proper").dim_via_proper
        df = sd.rel_ext(i, D, m, k, mode="formula").dim_via_formula
        rb = sd.rel_ext(i, D, m, k, mode="both")
        assert dp == df == rb.dim


def test_rel_ext_routes_disagree_on_a_wrong_precomposition(r1_mods, monkeypatch):
    """The comparison of the two routes' differentials is what lets the
    homology be computed once: a wrong proper route must still be caught."""
    D, k = r1_mods["D"], r1_mods["k"]
    real = sd._precomposition_action

    def perturbed(C, N):
        Q = real(C, N).copy()
        Q[:, 0, :] = (Q[:, 0, :] + 1) % C.ring.field.p
        return Q

    clear_caches()
    monkeypatch.setattr(sd, "_precomposition_action", perturbed)
    try:
        with pytest.raises(TheoremViolationError, match="routes disagree"):
            sd.rel_ext(1, D, k, k, mode="both")
    finally:
        clear_caches()


def test_rel_ext_catches_a_wrong_unit_slice(r1_mods, monkeypatch):
    """Over R1 the minimal resolution of Hom(D,k) has linear entries that
    never use the unit, so no differential sees a wrong slice 0 of Q: the
    proper route still reads 8.  The check of Q against the carrier action
    sees every slice, and raises."""
    D, k = r1_mods["D"], r1_mods["k"]
    real = sd._precomposition_action

    def perturbed(C, N):
        Q = real(C, N).copy()
        Q[0, 0, :] = (Q[0, 0, :] + 1) % C.ring.field.p
        return Q

    clear_caches()
    monkeypatch.setattr(sd, "_precomposition_action", perturbed)
    try:
        assert sd.rel_ext(1, D, k, k, mode="proper").dim == 8
        with pytest.raises(TheoremViolationError, match="routes disagree"):
            sd.rel_ext(1, D, k, k, mode="both")
    finally:
        clear_caches()


def test_rel_ext_ic_catches_a_wrong_postcomposition(r1_mods, monkeypatch):
    """The C-injective twin: a wrong slice 0 of the postcomposition action
    of Hom(C, D) leaves the proper route's dimension alone (no entry uses
    the unit) but breaks the R-linearity of the adjunction onto its
    carrier."""
    D, k = r1_mods["D"], r1_mods["k"]
    real = sd._postcomposition_action

    def perturbed(A, B):
        T = real(A, B).copy()
        T[0, 0, :] = (T[0, 0, :] + 1) % A.ring.field.p
        return T

    clear_caches()
    want = sd.rel_ext_ic(1, D, k, k, mode="proper").dim
    clear_caches()
    monkeypatch.setattr(sd, "_postcomposition_action", perturbed)
    try:
        assert sd.rel_ext_ic(1, D, k, k, mode="proper").dim == want
        with pytest.raises(TheoremViolationError, match="adjunction"):
            sd.rel_ext_ic(1, D, k, k, mode="both")
    finally:
        clear_caches()


def test_homology_iso_computes_homology_once(r1_mods, monkeypatch):
    """Once Q is checked the two C-projective routes are one complex, so
    rel_ext materializes the comparison on one homology."""
    D, k = r1_mods["D"], r1_mods["k"]
    clear_caches()
    calls = []
    real = sd.homology_data

    def counted(X, n):
        calls.append((X.top, n))
        return real(X, n)

    monkeypatch.setattr(sd, "homology_data", counted)
    iso = sd.rel_ext(2, D, k, k, mode="both").iso_map
    assert calls == [(2, 1)]       # degrees 1..3, degree 2 at position 1
    assert iso.is_bijective() and iso.src.dim == 16


def test_rel_ext_input_validation(r1_mods):
    D, k = r1_mods["D"], r1_mods["k"]
    with pytest.raises(InputError):
        sd.rel_ext(-1, D, k, k)
    with pytest.raises(InputError):
        sd.rel_ext(1, D, k, k, mode="sideways")


def test_rel_ext_zero_inputs(r1, r1_mods):
    D, k = r1_mods["D"], r1_mods["k"]
    z = Module(r1, np.zeros((r1.dim, 0, 0), dtype=np.int64), label="0")
    assert sd.rel_ext(1, D, z, k, mode="both").dim == 0
    assert sd.rel_ext(1, D, k, z, mode="both").dim == 0


# -- relative Ext over the C-injectives ----------------------------------------------


def test_rel_ext_ic_regular_c(r1_mods):
    R, k, m = r1_mods["R"], r1_mods["k"], r1_mods["m"]
    expected = ext_dims(k, m, 2)
    for i in range(3):
        r = sd.rel_ext_ic(i, R, k, m, mode="both")
        assert r.dim == expected[i]
        assert r.agree


def test_rel_ext_ic_agreement_random(r1):
    D = dualizing_module(r1)
    pool = random_module_pool(r1, 4, 5)
    for M in pool[:2]:
        for N in pool[2:]:
            for i in range(3):
                r = sd.rel_ext_ic(i, D, M, N, mode="both")
                assert r.agree and r.dim_via_proper == r.dim_via_formula


def test_rel_ext_ic_vanishes_on_c_injectives(r1_mods):
    # R = Hom(D, D-dual-of-ring) is C-injective for C = D
    D, R = r1_mods["D"], r1_mods["R"]
    for M in (r1_mods["k"], r1_mods["m"], D):
        for i in (1, 2):
            assert sd.rel_ext_ic(i, D, M, R, mode="both").dim == 0


def test_rel_ext_ic_modes(r1_mods):
    D, k = r1_mods["D"], r1_mods["k"]
    dp = sd.rel_ext_ic(2, D, k, k, mode="proper").dim_via_proper
    df = sd.rel_ext_ic(2, D, k, k, mode="formula").dim_via_formula
    assert dp == df


# -- memberships ----------------------------------------------------------------------


def test_bass_membership_cases(r1_mods):
    D, R, k = r1_mods["D"], r1_mods["R"], r1_mods["k"]
    assert sd.bass_membership(D, D, 5).passed
    assert sd.bass_membership(D, power_module(D, 3), 5).passed
    rep = sd.bass_membership(D, k, 5)
    assert not rep.passed
    assert rep.witness == "nu not bijective"
    assert not sd.bass_membership(D, R, 5).passed
    assert sd.bass_membership(R, k, 5).passed   # C = R: everything qualifies


def test_auslander_membership_cases(r1_mods):
    D, R, k = r1_mods["D"], r1_mods["R"], r1_mods["k"]
    assert sd.auslander_membership(D, R, 5).passed
    assert sd.auslander_membership(D, free_module(R.ring, 2), 5).passed
    rep = sd.auslander_membership(D, k, 5)
    assert not rep.passed
    assert rep.witness == "mu not bijective"
    assert sd.auslander_membership(R, k, 5).passed


def test_membership_report_fields(r1_mods):
    rep = sd.bass_membership(r1_mods["D"], r1_mods["D"], 4)
    d = rep.to_dict()
    assert d["class"] == "Bass"
    assert d["vanishing_verified_to"] == 4
    assert d["witness"] is None
    with pytest.raises(InputError):
        sd.bass_membership(r1_mods["D"], r1_mods["D"], 0)


def test_zero_module_membership(r1, r1_mods):
    z = Module(r1, np.zeros((r1.dim, 0, 0), dtype=np.int64), label="0")
    assert sd.bass_membership(r1_mods["D"], z, 3).passed
    assert sd.auslander_membership(r1_mods["D"], z, 3).passed


# -- relative dimensions ---------------------------------------------------------------


def test_pc_pd_cases(r1_mods):
    D, R, k = r1_mods["D"], r1_mods["R"], r1_mods["k"]
    assert sd.pc_pd(D, D) == DimensionValue.finite(0)
    ts = tensor_space(D, free_module(R.ring, 2))
    assert sd.pc_pd(D, ts.module) == DimensionValue.finite(0)
    assert sd.pc_pd(D, k) == DimensionValue.infinite()
    assert sd.pc_pd(D, R) == DimensionValue.infinite()
    assert sd.pc_pd(R, R) == DimensionValue.finite(0)


def test_ic_id_cases(r1_mods):
    D, R, k = r1_mods["D"], r1_mods["R"], r1_mods["k"]
    assert sd.ic_id(D, R) == DimensionValue.finite(0)
    # the tensor square of the dual has dimension 4 here, not a multiple of
    # the injective hull's 3, so it cannot be injective
    assert tensor_space(D, D).module.dim == 4
    assert sd.ic_id(D, D) == DimensionValue.infinite()
    assert sd.ic_id(D, k) == DimensionValue.infinite()
    assert sd.ic_id(R, D) == DimensionValue.finite(0)


def test_relative_dimension_zero_sentinel(r1, r1_mods):
    z = Module(r1, np.zeros((r1.dim, 0, 0), dtype=np.int64), label="0")
    assert sd.pc_pd(r1_mods["D"], z).kind == "zero"
    assert sd.ic_id(r1_mods["D"], z).kind == "zero"


def test_dimension_transfer_on_samples(r1):
    # pd(M) = relative pd of C(x)M, and id(C(x)M) = relative id of M
    D = dualizing_module(r1)
    pool = random_module_pool(r1, 6, 5)
    for M in pool:
        cm = tensor_space(D, M).module
        assert pd_exact(M) == sd.pc_pd(D, cm)
        assert id_exact(cm) == sd.ic_id(D, M)


# -- Foxby transport -------------------------------------------------------------------


def test_foxby_transport_directions(r1_mods):
    D, R, k = r1_mods["D"], r1_mods["R"], r1_mods["k"]
    mod, rt = sd.foxby_transport(D, R, "tensor")
    assert mod.dim == D.dim and rt.is_bijective()
    mod, rt = sd.foxby_transport(D, D, "hom")
    assert mod.dim == 3 and rt.is_bijective()
    mod, rt = sd.foxby_transport(D, k, "hom")
    assert not rt.is_bijective()
    with pytest.raises(InputError):
        sd.foxby_transport(D, k, "up")


def test_foxby_round_trip_on_classes(r1):
    # Auslander members: tensor then hom returns the module; Bass members:
    # hom then tensor does
    D = dualizing_module(r1)
    for M in random_module_pool(r1, 6, 5):
        if sd.auslander_membership(D, M, 3).passed:
            _, mu = sd.foxby_transport(D, M, "tensor")
            assert mu.is_bijective()
        if sd.bass_membership(D, M, 3).passed:
            _, nu = sd.foxby_transport(D, M, "hom")
            assert nu.is_bijective()


# -- structural theorem checks -----------------------------------------------------------


def test_membership_transfer(r1_mods):
    D = r1_mods["D"]
    for M in (r1_mods["k"], r1_mods["m"], r1_mods["R"], D):
        assert sd.membership_transfer_check(D, M, 5)


def test_exactness_equivalence(r1_mods):
    D, R = r1_mods["D"], r1_mods["R"]
    for M in (r1_mods["k"], r1_mods["m"], R, D):
        assert sd.exactness_equivalence_check(D, M, 4)
        assert sd.exactness_equivalence_check(R, M, 4)


def test_bass_members_get_exact_resolutions(r1):
    D = dualizing_module(r1)
    for M in (D, power_module(D, 2)):
        X = sd.proper_pc_resolution(D, M, 4)
        assert exactness_profile(X) == []


def test_projectivity_vanishing(r1_mods):
    D = r1_mods["D"]
    for M in (r1_mods["k"], r1_mods["R"], D, power_module(D, 2)):
        assert sd.projectivity_vanishing_check(D, M)


def test_dimension_vanishing(r1_mods):
    """Relative Ext vanishes out of D, of P_C-pd 0, in degrees 1 and 2; k,
    of infinite P_C-pd, has Ext^1 into its augmentation kernel."""
    D, k, m = r1_mods["D"], r1_mods["k"], r1_mods["m"]
    assert sd.pc_pd(D, D).kind == "finite"
    assert all(sd.rel_ext(i, D, D, N, mode="both").dim == 0 for N in (k, m) for i in (1, 2))
    assert sd.pc_pd(D, k).kind == "infinite"
    K0 = kernel(sd.proper_pc_resolution(D, k, 1).aug_map).carrier
    assert sd.rel_ext(1, D, k, K0, mode="both").dim != 0


def test_two_of_three_radical_sequence(r1, r1_mods):
    R, D, k = r1_mods["R"], r1_mods["D"], r1_mods["k"]
    incl = ModuleHom(r1_mods["m"], R, radical(r1).data)
    proj = ModuleHom(R, k, np.array([[1, 0, 0]]))
    assert sd.two_of_three_check(D, incl, proj, 4)
    assert sd.two_of_three_check(R, incl, proj, 4)


def test_two_of_three_split_sequences(r1, r1_mods):
    D = r1_mods["D"]
    d = D.dim
    DD = power_module(D, 2)
    f = ModuleHom(D, DD, np.vstack([np.eye(d, dtype=np.int64),
                                    np.zeros((d, d), dtype=np.int64)]))
    g = ModuleHom(DD, D, np.hstack([np.zeros((d, d), dtype=np.int64),
                                    np.eye(d, dtype=np.int64)]))
    assert sd.two_of_three_check(D, f, g, 4)


def test_two_of_three_rejects_inexact(r1, r1_mods):
    R, D = r1_mods["R"], r1_mods["D"]
    ident = ModuleHom(R, R, np.eye(3, dtype=np.int64))
    with pytest.raises(InputError):
        sd.two_of_three_check(D, ident, ident, 3)


def test_syzygy_invariance_under_padding(r1_mods):
    D, k = r1_mods["D"], r1_mods["k"]
    for n in (1, 2, 3):
        assert sd.syzygy_projectivity_invariance(D, k, n)
    assert sd.syzygy_projectivity_invariance(D, D, 1)
    assert sd.syzygy_projectivity_invariance(D, k, 1, pad_spec=((1, 0),))
    assert sd.syzygy_projectivity_invariance(D, k, 2,
                                             pad_spec=((1, 1), (2, 2)))


def test_padded_resolution_is_still_proper(r1_mods):
    D, k = r1_mods["D"], r1_mods["k"]
    X = sd.proper_pc_resolution(D, k, 3)
    Xp = sd._padded_resolution(D, X, ((1, 1), (3, 2)))
    assert sd.is_proper_pc(D, Xp)
    # same homology as the unpadded resolution
    assert exactness_profile(Xp) == exactness_profile(X)


def _padded_reference(C, X, pad_spec):
    """The padded arrows and augmentation as a dense block assembly: each
    d_i in the top-left corner, an identity block from a pad's copy of C^j
    in degree t to its copy in degree t-1, the pads after X's summands in
    the order of pad_spec, and X's augmentation followed by zeros."""
    c = C.dim
    dims = [m.dim for m in X.modules]
    offset = {}
    for pid, (t, j) in enumerate(pad_spec):
        for deg in (t, t - 1):
            offset[(deg, pid)] = dims[deg]
            dims[deg] += j * c
    arrows = []
    for i in range(1, X.top + 1):
        mat = np.zeros((dims[i - 1], dims[i]), dtype=np.int64)
        d_i = X.arrow(i).mat
        mat[: d_i.shape[0], : d_i.shape[1]] = d_i
        for pid, (t, j) in enumerate(pad_spec):
            if t == i:
                r0, c0 = offset[(i - 1, pid)], offset[(i, pid)]
                mat[r0: r0 + j * c, c0: c0 + j * c] = np.eye(j * c, dtype=np.int64)
        arrows.append(mat)
    aug = np.zeros((X.augmentation.dim, dims[0]), dtype=np.int64)
    aug[:, : X.modules[0].dim] = X.aug_map.mat
    return arrows, aug


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4"])
def test_padded_resolution_is_the_block_assembly(rings, name):
    """Oracle for _padded_resolution, induced through C from X's ring
    entries and the unit of R on the pads: every arrow is the block
    assembly [[d_i, 0], [0, I]], and the augmentation is X's padded with
    zeros."""
    ring = rings[name]
    pad_spec = ((1, 1), (3, 2))
    for C in (regular_module(ring), dualizing_module(ring)):
        for M in [residue_field_module(ring)] + random_module_pool(ring, 1, max_dim=4):
            X = sd.proper_pc_resolution(C, M, 3)
            Xp = sd._padded_resolution(C, X, pad_spec)
            arrows, aug = _padded_reference(C, X, pad_spec)
            assert Xp.top == X.top == len(arrows)
            for i, want in enumerate(arrows, 1):
                assert np.array_equal(Xp.arrow(i).mat, want), (name, C.label, M.label, i)
            assert Xp.augmentation is X.augmentation
            assert np.array_equal(Xp.aug_map.mat, aug), (name, C.label, M.label)


def test_absolute_comparison_bass(r1_mods):
    D = r1_mods["D"]
    for i in range(4):
        assert sd.absolute_comparison_check(i, D, D, D) is True
    assert sd.absolute_comparison_check(1, D, r1_mods["k"], D) is None


def test_absolute_comparison_auslander(r1_mods):
    D, R = r1_mods["D"], r1_mods["R"]
    for i in range(3):
        assert sd.absolute_comparison_check_ic(i, D, R, R) is True
    assert sd.absolute_comparison_check_ic(1, D, r1_mods["k"], R) is None


def test_dimension_shift(r1_mods):
    D, k, m = r1_mods["D"], r1_mods["k"], r1_mods["m"]
    assert sd.dimension_shift_check(D, k, k, 3, 1)
    assert sd.dimension_shift_check(D, k, m, 3, 2)
    assert sd.dimension_shift_check(D, k, k, 2, 0)
    with pytest.raises(InputError):
        sd.dimension_shift_check(D, k, k, 2, 2)


# -- cross-ring sanity ------------------------------------------------------------------


def test_rel_ext_battery_small(rings):
    # a miniature of the full verification battery: both routes agree with
    # the comparison map bijective across rings, both choices of C, and a
    # couple of random pairs
    for name in ("R2", "R3"):
        ring = rings[name]
        pool = random_module_pool(ring, 4, 4)
        R, D = regular_module(ring), dualizing_module(ring)
        for C in (R, D):
            for M, N in [(pool[0], pool[1]), (pool[2], pool[3])]:
                for i in range(3):
                    r = sd.rel_ext(i, C, M, N, mode="both")
                    assert r.agree


def test_structural_checks_on_gorenstein_ring(rings):
    # over a Gorenstein ring the dual of the ring is free, so D and R give
    # the same classes: everything is Bass and Auslander
    ring = rings["R2"]
    R, D = regular_module(ring), dualizing_module(ring)
    k = residue_field_module(ring)
    assert sd.bass_membership(D, k, 4).passed
    assert sd.auslander_membership(D, k, 4).passed
    assert sd.pc_pd(D, D) == DimensionValue.finite(0)
    assert sd.pc_pd(D, k) == DimensionValue.infinite()
    assert sd.membership_transfer_check(D, k, 4)
    assert sd.exactness_equivalence_check(D, k, 4)
