"""homology_data by selection, against the construction it replaces.

The reference below builds H_n as homology_data did before: Z_n through
modules._submodule_from_columns, H through modules._quotient_by_columns,
represent and reduce as products with their sections.  Every arrow is read,
and so realised.  homology_data must give the same carrier (action, label,
fingerprint), represent and reduce, while it realises no arrow that its ring
entries make zero.
"""

import numpy as np
import pytest

import semidual.complexes as cx
import semidual.linalg as la
import semidual.semidualizing as sd
from semidual import modules as mo
from semidual.algebra import algebra_from_monomial_quotient
from semidual.corpus import corpus_rings, corpus_sessions, random_module_pool
from semidual.linalg import Field, _mul_arrays, kernel_basis
from semidual.memo import clear_caches


def reference_homology_data(X, n, label=None):
    p = X.ring.field.p
    into = X.arrow(n + 1 if X.orientation == "homological" else n - 1)
    out = X.arrow(n)
    amb = X.module(n)
    K = kernel_basis(out.matrix()).data if out is not None else np.eye(amb.dim, dtype=np.int64)
    sub = mo._submodule_from_columns(amb, K, f"Z_{n}", "kernel")
    if label is None:
        label = f"H_{n}"
    if into is not None and K.shape[1]:
        coords = _mul_arrays(sub.section, into.mat, p)
    else:
        coords = np.zeros((K.shape[1], 0), dtype=np.int64)
    quot = mo._quotient_by_columns(sub.carrier, coords, label)
    if not K.shape[1]:
        return (quot.carrier, np.zeros((amb.dim, 0), dtype=np.int64),
                np.zeros((0, amb.dim), dtype=np.int64))
    return (quot.carrier, _mul_arrays(K, quot.section, p),
            _mul_arrays(quot.map.mat, sub.section, p))


def assert_same(got, want, where):
    (h, rep, red), (h0, rep0, red0) = got, want
    assert h.label == h0.label, where
    assert h.fingerprint == h0.fingerprint, where
    assert h.action.shape == h0.action.shape and np.array_equal(h.action, h0.action), where
    assert rep.shape == rep0.shape and np.array_equal(rep, rep0), where
    assert red.shape == red0.shape and np.array_equal(red, red0), where


def check_all_degrees(X, where):
    """Every degree from -1 to top + 1, homology_data first (on arrows not
    yet realised), then the reference."""
    for n in range(-1, X.top + 2):
        got = cx.homology_data(X, n)
        assert_same(got, reference_homology_data(X, n), (where, n))
    return X.top + 3


def _rings():
    rings = dict(corpus_rings())                                   # p = 2, 3, 5
    rings["Q"] = algebra_from_monomial_quotient(
        Field(2 ** 31 - 1), ["x", "y"], ["x^2", "x*y", "y^3"], name="Q")
    return rings


def _modules(R):
    """(resolved modules, coefficient modules N) over R: k, D, R, the
    session modules of a corpus ring (random cokernels otherwise) and
    Hom(D, k)."""
    k, D, F = mo.residue_field_module(R), mo.dualizing_module(R), mo.regular_module(R)
    sessions = {s.ring().name: s for s in corpus_sessions().values()}
    if R.name in sessions:
        own = [sessions[R.name].module(m) for m in sessions[R.name].modules]
    else:
        own = random_module_pool(R, 2, 6)
    return [k, D] + own, [k, D, F] + own + [mo.hom_space(D, k).module]


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4", "Q"])
def test_induced_complexes_match_reference(name):
    R = _rings()[name]
    sources, coefficients = _modules(R)
    checked = 0
    for M in sources:
        res = cx.minimal_free_resolution(M, 3)
        betti, entries = res.betti[:4], res.entries[:4]
        for N in coefficients:
            for contravariant in (True, False):
                X = cx.InducedComplex(N, betti, entries, contravariant)
                checked += check_all_degrees(X, (name, M.label, N.label, contravariant))
        checked += check_all_degrees(res, (name, M.label, "resolution"))
    assert checked > 150


def test_labels_and_windows_match_reference():
    """A given label, and the lo..hi windows that the comparison maps read."""
    R = corpus_rings()["R1"]
    D, k = mo.dualizing_module(R), mo.residue_field_module(R)
    hdk = mo.hom_space(D, k).module
    res = cx.minimal_free_resolution(hdk, 4)
    for N in (hdk, D):
        for i in range(4):
            lo = max(i - 1, 0)
            X = cx.InducedComplex(N, res.betti, res.entries, True, lo, i + 1)
            got = cx.homology_data(X, i - lo, "Ext")
            assert_same(got, reference_homology_data(X, i - lo, "Ext"), (N.label, i))


def test_plain_augmented_complexes_match_reference():
    """The plain AugmentedComplexes of test_complexes: the identity
    complex, zero differentials, and multiplication by x over R2, plus an
    injective resolution (augmented, cohomological)."""
    rings = corpus_rings()
    R1, R2 = rings["R1"], rings["R2"]
    reg1, k1, reg2 = mo.regular_module(R1), mo.residue_field_module(R1), mo.regular_module(R2)
    ident = mo.ModuleHom(reg1, reg1, np.eye(3, dtype=np.int64), check=False)
    zero = mo.ModuleHom(k1, k1, np.zeros((1, 1), dtype=np.int64), check=False)
    x = mo.ModuleHom(reg2, reg2, R2.mult_matrix(R2.element_from_string("x")), check=True)
    complexes = [
        cx.AugmentedComplex(R1, [reg1, reg1], [ident], "homological"),
        cx.AugmentedComplex(R1, [k1, k1, k1], [zero, zero]),
        cx.AugmentedComplex(R2, [reg2, reg2], [x], "homological"),
        cx.AugmentedComplex(R2, [reg2, reg2], [x], "cohomological"),
        cx.minimal_injective_resolution(mo.residue_field_module(R2), 3),
    ]
    for j, X in enumerate(complexes):
        check_all_degrees(X, j)


# -- guards: which arrows are realised ---------------------------------------------


def _count_realisations(monkeypatch):
    """Counters of realisations and echelons made inside homology_data."""
    seen = {"inside": False, "realise": 0, "echelon": 0}
    real_hd, real_realise, real_echelon = sd.homology_data, cx.realise, la._echelon

    def hd(*args):
        seen["inside"] = True
        try:
            return real_hd(*args)
        finally:
            seen["inside"] = False

    def counted(key, fn):
        def wrapper(*args):
            seen[key] += seen["inside"]
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sd, "homology_data", hd)
    monkeypatch.setattr(cx, "realise", counted("realise", real_realise))
    monkeypatch.setattr(la, "_echelon", counted("echelon", real_echelon))
    return seen


@pytest.mark.parametrize("name", ["R1", "R4"])
def test_rel_ext_comparison_over_k_reads_no_differential(name, monkeypatch):
    """Over R1 and R4, Hom(D, k) is killed by m, so every differential of
    the comparison's complex is known to be zero: homology_data realises
    none and reduces nothing, and the comparison is still bijective."""
    R = corpus_rings()[name]
    D, k = mo.dualizing_module(R), mo.residue_field_module(R)
    clear_caches()
    seen = _count_realisations(monkeypatch)
    res = sd.rel_ext(2, D, k, k, mode="both")
    assert (seen["realise"], seen["echelon"]) == (0, 0)
    assert res.iso_map is not None and res.iso_map.is_bijective()
    if name == "R1":
        assert res.iso_map.src.dim == 16
    clear_caches()


def test_general_path_realises_its_arrows(monkeypatch):
    """Over R2 with N = R nothing is known to be zero: the arrows into and
    out of the degree are realised and reduced."""
    R = corpus_rings()["R2"]
    res = cx.minimal_free_resolution(mo.residue_field_module(R), 3)
    X = cx.InducedComplex(mo.regular_module(R), res.betti, res.entries, True)
    seen = _count_realisations(monkeypatch)
    seen["inside"] = True
    got = cx.homology_data(X, 1)
    assert seen["realise"] == 2 and seen["echelon"] >= 1
    assert X._arrows[0] is not None and X._arrows[1] is not None
    assert_same(got, reference_homology_data(X, 1), "R2, N = R")


def test_mixed_windows():
    """Over R2 = GF(3)[x]/(x^3) the resolution of k has entries x, x^2, x,
    ...; on N = R/(x^2) the x^2 arrows are known to be zero and the x arrows
    are not.  Degree 1 of Hom(F, N) has a zero arrow out and a nonzero one
    in, degree 2 the reverse, and F (x) N the other way round.  The nonzero
    arrow is realised, the zero one is not."""
    R = corpus_rings()["R2"]
    N, _ = mo.presentation_to_module(R, 1, 1, [["x^2"]])
    res = cx.minimal_free_resolution(mo.residue_field_module(R), 3)
    for contravariant in (True, False):
        for n in (1, 2):
            X = cx.InducedComplex(N, res.betti, res.entries, contravariant)
            assert [X._known_zero(k) for k in range(X.top)] == [False, True, False]
            got = cx.homology_data(X, n)
            assert X._arrows[0 if n == 1 else 2] is not None
            assert X._arrows[1] is None, (contravariant, n)
            assert_same(got, reference_homology_data(X, n), (contravariant, n))
