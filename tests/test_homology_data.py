"""modules.subquotient against the constructions it replaced.

Kernels, cokernels, the Hom and tensor carriers, presented modules and
homology are all built by modules.subquotient, by selection.  The reference
below is the construction each route took before, a submodule and a
quotient built as modules, each with a structure map and a section:
expressor(cols) is the submodule's section, and the quotient acts by the
product Q A_i sigma, so a gathered action is checked against the product.
H_n is the quotient of Z_n, built as a module, by the boundaries in Z_n's
coordinates, with represent and reduce as products with the sections; every
arrow is read, and so realised.  Each route must give the same carrier
(action, label, fingerprint), represent (a submodule's inclusion, a
quotient's section) and reduce (a submodule's section, a quotient's
projection), and homology_data must realise no arrow that its ring entries
make zero.
"""

import numpy as np
import pytest

import semidual.complexes as cx
import semidual.linalg as la
import semidual.semidualizing as sd
from semidual import modules as mo
from semidual.algebra import algebra_from_monomial_quotient
from semidual.corpus import corpus_rings, corpus_sessions, random_module_pool
from semidual.linalg import Field, Mat, _mul_arrays, expressor, kernel_basis, rref
from semidual.memo import clear_caches
from test_modules import _session_at_prime
from test_record_routes import _t27_session

BIG = 2 ** 31 - 1


def reference_submodule(ambient, cols, label):
    """(carrier, inclusion, section) of the span of the independent,
    action-stable columns cols; the section is expressor(cols)."""
    p, k = ambient.ring.field.p, cols.shape[1]
    moved = ambient.act_all(cols)
    if k:
        E = expressor(Mat(ambient.ring.field, cols)).data
    else:
        E = np.zeros((0, ambient.dim), dtype=np.int64)
    act = _mul_arrays(E, moved, p)
    assert np.array_equal(_mul_arrays(cols, act, p), moved), "columns do not span a submodule"
    return mo.Module(ambient.ring, act, label=label, check=False), cols, E


def reference_quotient(ambient, cols, label):
    """(carrier, projection Q, section sigma) of the quotient by the span of
    the action-stable columns cols: sigma selects the non-pivot coordinates
    of the RREF of cols.T, and e_i acts by Q A_i sigma."""
    p, n = ambient.ring.field.p, ambient.dim
    red, piv = rref(Mat(ambient.ring.field, cols.T))
    keep = np.setdiff1d(np.arange(n), piv)
    q = keep.size
    Q = np.zeros((q, n), dtype=np.int64)
    Q[np.arange(q), keep] = 1
    Q[:, piv] = (-red.data[: len(piv)][:, keep].T) % p
    sigma = np.zeros((n, q), dtype=np.int64)
    sigma[keep, np.arange(q)] = 1
    act = _mul_arrays(Q, ambient.act_all(sigma), p)
    return mo.Module(ambient.ring, act, label=label, check=False), Q, sigma


def reference(ambient, K, into, label):
    """(carrier, represent, reduce) of subquotient(ambient, K, into, label)."""
    p, n = ambient.ring.field.p, ambient.dim
    K = np.eye(n, dtype=np.int64) if K is None else K
    sub, inc, E = reference_submodule(ambient, K, label if into is None else "Z")
    if into is None:
        return sub, inc, E
    if K.shape[1]:
        coords = _mul_arrays(E, into, p)
    else:
        coords = np.zeros((0, into.shape[1]), dtype=np.int64)
    quot, Q, sigma = reference_quotient(sub, coords, label)
    if not K.shape[1]:
        return quot, np.zeros((n, 0), dtype=np.int64), np.zeros((0, n), dtype=np.int64)
    return quot, _mul_arrays(K, sigma, p), _mul_arrays(Q, E, p)


def reference_homology_data(X, n, label=None):
    into = X.arrow(n + 1 if X.orientation == "homological" else n - 1)
    out = X.arrow(n)
    K = kernel_basis(out.matrix()).data if out is not None else None
    return reference(X.module(n), K, None if into is None else into.mat,
                     f"H_{n}" if label is None else label)


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


# -- every route through subquotient ---------------------------------------------------


def _route(ambient, K, into, sq):
    if into is None:
        return "kernel" if K is not None else "whole"
    if K is not None:
        return "homology"
    q, n = sq.reduce.shape
    past = q * q * ambient.ring.dim * n > la._INT64_MAX_MACS
    return "gathered" if past and mo._record_images(ambient) is not None else "product"


def check_recorded(monkeypatch, build, where):
    """Run build() from cold caches and check every subquotient it builds
    against the reference: (route, subquotient) for each, in call order."""
    seen = []
    real = mo.subquotient

    def record(ambient, K, into, label):
        sq = real(ambient, K, into, label)
        seen.append((ambient, K, into, label, sq))
        return sq

    clear_caches()
    with monkeypatch.context() as m:
        m.setattr(mo, "subquotient", record)
        m.setattr(cx, "subquotient", record)
        build()
    for ambient, K, into, label, sq in seen:
        assert_same(sq, reference(ambient, K, into, label), (where, label))
        assert not (sq.represent.flags.writeable or sq.reduce.flags.writeable), (where, label)
    return [(_route(ambient, K, into, sq), sq) for ambient, K, into, label, sq in seen]


def _sessions():
    """The corpus sessions, R1 and R4 at p = 2^31 - 1, and the T27 sessions
    of the hom-tensor workload at seeds 11 and 2026."""
    return (list(corpus_sessions().values()) + [_session_at_prime(n, BIG) for n in ("R1", "R4")]
            + [_t27_session(11), _t27_session(2026)])


def _dual(f):
    return mo.ModuleHom(mo.matlis_dual(f.dst), mo.matlis_dual(f.src), f.mat.T, check=False)


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4", "Q"])
def test_kernels_and_cokernels_of_resolution_maps(name, monkeypatch):
    """kernel and cokernel of the augmentation and the differentials of
    minimal free resolutions (Q has p = 2^31 - 1), and of their Matlis
    duals, whose cokernels are quotients of powers of D."""
    R = _rings()[name]
    sources, _ = _modules(R)
    maps = []
    for M in sources:
        res = cx.minimal_free_resolution(M, 2)
        maps += [g for f in [res.aug_map] + res.arrows for g in (f, _dual(f))]

    def build():
        for f in maps:
            mo.kernel(f)
            mo.cokernel(f)

    routes = [route for route, _ in check_recorded(monkeypatch, build, name)]
    assert len(routes) == 2 * len(maps) > 20
    assert {"kernel", "product"} <= set(routes)


def test_presented_modules_match_reference(monkeypatch):
    """presentation_to_module on every session cokernel, its projection the
    quotient's reduce."""
    routes = set()
    for session in _sessions():
        R = session.ring()
        for name, spec in session.modules.items():
            if spec.kind != "cokernel":
                continue
            built = []

            def build():
                built.append(mo.presentation_to_module(R, spec.rows, spec.cols,
                                                       list(spec.vectors)))

            got = check_recorded(monkeypatch, build, (session.name, name))
            (M, proj), = built
            if got:
                (route, sq), = got
                routes.add(route)
                assert M is sq.carrier, (session.name, name)
                assert np.array_equal(proj.mat, sq.reduce), (session.name, name)
    assert routes == {"gathered", "product"}


def test_hom_and_tensor_carriers_match_reference(monkeypatch):
    """Hom(M, N) and M (x) N for the session modules, k and D of every
    session: kernels of N^g -> N^a and quotients of N^g."""
    routes, frozen = set(), 0
    for session in _sessions():
        R = session.ring()
        mods = [session.module(m) for m in session.modules]
        mods += [mo.residue_field_module(R), mo.dualizing_module(R)]
        for M in mods:
            for N in mods:
                built = []
                got = check_recorded(monkeypatch,
                                     lambda: built.extend((mo.hom_space(M, N),
                                                           mo.tensor_space(M, N))),
                                     (session.name, M.label, N.label))
                routes |= {route for route, _ in got}
                # Hom's section E and the tensor's projection Q stay read-only
                for arr in (getattr(built[0], "_E", None), getattr(built[1], "_Q", None)):
                    assert arr is None or not arr.flags.writeable, (M.label, N.label)
                    frozen += arr is not None
    assert routes == {"kernel", "gathered", "product"}
    assert frozen > 100


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4", "Q"])
def test_radical_and_structure_constant_copies_match_reference(name, monkeypatch):
    """rad(R) as a kernel-form submodule matches the reference."""
    R = _rings()[name]
    got = check_recorded(monkeypatch, lambda: mo.radical_submodule(R), (name, R.name))
    assert [route for route, _ in got] == ["kernel"]


@pytest.mark.parametrize("name", ["R1", "R3", "R4"])
def test_homology_with_no_arrow_out_gathers_on_r_and_d_powers(name):
    """Hom(F, N) at its top degree 3 and F (x) N at the bottom of the window
    2..3 have no arrow out, so H is a quotient of N^(b_3) or N^(b_2).  So
    does Hom(F, N) at degree 3 when the arrow out is a differential with no
    ring entries: it is known to be zero on every N and is not realised (on
    N = R or D no minimal resolution's arrow is).  Over N = R or D such an
    H is gathered from the record past the int64 tier, as every Hom(F, N)
    here is: the action must equal the product Q A_i sigma."""
    R = corpus_rings()[name]
    res = cx.minimal_free_resolution(mo.residue_field_module(R), 4)
    b = res.betti[:5]
    zero = cx.RingEntries.from_generators(np.zeros((b[3] * R.dim, b[4]), dtype=np.int64),
                                          b[3], R.dim)
    for N in (mo.regular_module(R), mo.dualizing_module(R)):
        for contravariant, lo, n, known_zero in ((True, 0, 3, False), (False, 2, 0, False),
                                                 (True, 0, 3, True)):
            where = (name, N.label, contravariant, known_zero)
            if known_zero:
                X = cx.InducedComplex(N, b, res.entries[:4] + [zero], contravariant, lo)
                assert [X._known_zero(k) for k in range(X.top)] == [False] * 3 + [True], where
            else:
                X = cx.InducedComplex(N, b[:4], res.entries[:4], contravariant, lo)
            into, out = X._in_out(n)
            assert out is None, where
            sq = cx.homology_data(X, n)
            amb = X.module(n)
            if contravariant:
                assert _route(amb, None, into.mat, sq) == "gathered", where
            if known_zero:
                assert X._arrows[3] is None, where
            want = _mul_arrays(sq.reduce, amb.act_all(sq.represent), R.field.p)
            assert want.dtype == sq.carrier.action.dtype, where
            assert np.array_equal(sq.carrier.action, want), where
            assert_same(sq, reference_homology_data(X, n), where)
