"""Structured products against the dense products they replace.

The C-injective comparison applies Phi_j = I_b kron alpha block by block, and a
power whose base acts by 0/1 partial permutations (R, k and D over a monomial
quotient) applies its action as a scatter of rows.  Both must equal, entry
for entry, the dense products: the Kronecker products over Python integers,
and the contraction path that Module.act_all and cover_matrix take when the
base record is withheld.
"""

import sys

import numpy as np
import pytest

from semidual import modules as mo, semidualizing as sd
from semidual.algebra import algebra_from_monomial_quotient, radical_generators
from semidual.complexes import minimal_free_resolution
from semidual.corpus import corpus_rings
from semidual.errors import TheoremViolationError
from semidual.linalg import Field
from semidual.sessions import parse_session_text

PRIMES = [2, 3, 5, 65521, 2 ** 31 - 1]


def mm(a, b, p):
    """Exact (a @ b) mod p over Python integers."""
    a = np.asarray(a, dtype=np.int64).astype(object)
    b = np.asarray(b, dtype=np.int64).astype(object)
    return (a.dot(b) % p).astype(np.int64)


def kron_eye(b, small):
    return np.kron(np.eye(b, dtype=np.int64), small)


def block_apply_right(rows, small, b, p):
    """rows @ (I_b kron small), by _block_apply on the transposes."""
    return mo._block_apply(small.T, b, rows.T, p).T


@pytest.fixture(autouse=True)
def _cold():
    mo.clear_caches()
    yield
    mo.clear_caches()


# -- blockwise I_b kron alpha ------------------------------------------------------


SHAPES = [(1, 3, 4), (4, 3, 5), (3, 1, 7), (2, 5, 1), (0, 3, 4), (3, 0, 2), (3, 2, 0)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("b, n, k", SHAPES)
def test_block_products_equal_the_kron_products(p, b, n, k):
    rng = np.random.default_rng([p % 9973, b, n, k])
    alpha = rng.integers(0, p, (n, n))
    cols = rng.integers(0, p, (b * n, k))
    rows = rng.integers(0, p, (k, b * n))
    assert np.array_equal(mo._block_apply(alpha, b, cols, p), mm(kron_eye(b, alpha), cols, p))
    assert np.array_equal(block_apply_right(rows, alpha, b, p),
                          mm(rows, kron_eye(b, alpha), p))


@pytest.mark.parametrize("p", PRIMES)
def test_block_products_of_rectangular_blocks(p):
    rng = np.random.default_rng(p % 9973)
    small = rng.integers(0, p, (2, 5))
    cols = rng.integers(0, p, (15, 4))
    assert np.array_equal(mo._block_apply(small, 3, cols, p), mm(kron_eye(3, small), cols, p))
    rows = rng.integers(0, p, (4, 6))
    assert np.array_equal(block_apply_right(rows, small, 3, p),
                          mm(rows, kron_eye(3, small), p))


def _ic_pairs():
    """(name, C, M, N) with C = D: the relative-Ext inputs the C-injective
    checks below run on."""
    for name, R in corpus_rings().items():
        D = mo.dualizing_module(R)
        k = mo.residue_field_module(R)
        M, _ = mo.presentation_to_module(R, 1, 1, [["x"]])
        yield name, D, k, k
        yield name, D, M, k


def _adjunction_squares(C, M, N, top, W_V=None):
    """alpha, the Bass numbers, and the transport and proper differentials
    T_j, P_j (j = 1..top) of relative Ext over the C-injectives, assembled
    from the minimal free resolution of the dual of C (x) N."""
    DD = mo.dualizing_module(C.ring)
    alpha = mo.adjunction_iso(C, M, DD).mat
    transport = mo.hom_space(mo.tensor_space(C, M).module, DD).module
    W_V = W_V if W_V is not None else sd._proper_ic_carrier(C, M)
    res = minimal_free_resolution(mo.matlis_dual(mo.tensor_space(C, N).module), top)
    p = C.ring.field.p
    T = [mo.realise(transport.action, res.entries[j].coefficients(), True, p)
         for j in range(1, top + 1)]
    P = [mo.realise(W_V.action, res.entries[j].coefficients(), True, p)
         for j in range(1, top + 1)]
    return alpha, res.betti, T, P


def test_adjunction_squares_are_the_kron_squares():
    """rel_ext_ic checks one thing, that alpha is R-linear onto W_V; every
    square Phi_(j+1) T_j = P_j Phi_j with Phi_j = I kron alpha then commutes,
    and its blockwise sides are the kron sides."""
    for name, C, M, N in _ic_pairs():
        assert sd.rel_ext_ic(2, C, M, N, mode="both").agree, name
        alpha, bass, T, P = _adjunction_squares(C, M, N, 3)
        p = C.ring.field.p
        for j in range(3):
            lhs = mo._block_apply(alpha, bass[j + 1], T[j], p)
            rhs = block_apply_right(P[j], alpha, bass[j], p)
            assert np.array_equal(lhs, mm(kron_eye(bass[j + 1], alpha), T[j], p)), (name, j)
            assert np.array_equal(rhs, mm(P[j], kron_eye(bass[j], alpha), p)), (name, j)
            assert np.array_equal(lhs, rhs), (name, j)


def test_adjunction_check_is_stronger_than_the_squares(monkeypatch):
    """A wrong action in a slice that some differential uses breaks a
    square, and one in the unit's slice breaks none; rel_ext_ic raises on
    both."""
    for name, C, M, N in _ic_pairs():
        W_V = sd._proper_ic_carrier(C, M)
        p = C.ring.field.p
        for mu in (0, 1):
            mo.clear_caches()
            V = W_V.action.copy()
            V[mu, 0, :] = (V[mu, 0, :] + 1) % p
            bad = mo.Module(C.ring, V, label=W_V.label, check=False)
            alpha, bass, T, P = _adjunction_squares(C, M, N, 2, bad)
            broken = [not np.array_equal(mo._block_apply(alpha, bass[j + 1], T[j], p),
                                         block_apply_right(P[j], alpha, bass[j], p))
                      for j in range(2)]
            assert any(broken) == (mu != 0), (name, mu)
            monkeypatch.setattr(sd, "_proper_ic_carrier", lambda C, M, bad=bad: bad)
            with pytest.raises(TheoremViolationError, match="adjunction"):
                sd.rel_ext_ic(1, C, M, N, mode="both")
            monkeypatch.undo()


def test_ic_homology_iso_is_the_kron_map(monkeypatch):
    """The C-injective comparison on homology is red_p . (I kron alpha) .
    rep_t, with the kron matrix built here over Python integers."""
    seen = []
    real = sd.homology_data

    def record(cx, i):
        out = real(cx, i)
        seen.append(out)
        return out

    monkeypatch.setattr(sd, "homology_data", record)
    for name, C, M, N in _ic_pairs():
        p = C.ring.field.p
        alpha = mo.adjunction_iso(C, M, mo.dualizing_module(C.ring)).mat
        bass = minimal_free_resolution(mo.matlis_dual(mo.tensor_space(C, N).module), 3).betti
        for i in range(3):
            seen.clear()
            iso = sd.rel_ext_ic(i, C, M, N, mode="both").iso_map
            assert iso is not None and iso.is_bijective(), (name, i)
            (_, rep_t, _), (_, _, red_p) = seen
            phi = kron_eye(bass[i], alpha)
            assert np.array_equal(iso.mat, mm(red_p, mm(phi, rep_t, p), p)), (name, i)


# -- gathered actions on powers --------------------------------------------------------


def _rings():
    rings = dict(corpus_rings())
    rings["Q"] = algebra_from_monomial_quotient(
        Field(2 ** 31 - 1), ["x", "y"], ["x^3", "x*y^2", "y^3"], name="Q")
    return rings


def _bases(R):
    F = mo.regular_module(R)
    F.partial_permutation()          # D = matlis_dual(F) takes F's record
    return {"R": F, "k": mo.residue_field_module(R), "D": mo.dualizing_module(R)}


def _dense(monkeypatch):
    """Withhold every base record, so powers take the contraction path."""
    monkeypatch.setattr(mo.Module, "partial_permutation", lambda self: None)


def _count_products(monkeypatch):
    calls = []
    real = mo._mul_arrays

    def counting(a, b, p):
        calls.append((a.shape, b.shape))
        return real(a, b, p)

    monkeypatch.setattr(mo, "_mul_arrays", counting)
    return calls


def test_monomial_bases_are_partial_permutations():
    for name, R in _rings().items():
        for label, W in _bases(R).items():
            perm = W.partial_permutation()
            assert perm is not None, (name, label)
            i, r, c = perm
            want = np.zeros(W.action.shape, dtype=np.int64)
            want[i, r, c] = 1
            assert np.array_equal(W.action, want), (name, label)
            # D's record, passed on from R's, is the one a scan reads
            fresh = mo.Module(R, W.action, check=False).partial_permutation()
            assert set(zip(*map(list, perm))) == set(zip(*map(list, fresh))), (name, label)


def structured(P, cols):
    return P.act_all(cols), mo.radical_span(P, cols), mo.radical_span(P), mo.cover_matrix(P, cols)


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4", "Q"])
def test_gathered_powers_equal_the_dense_path(name, monkeypatch):
    R = _rings()[name]
    p = R.field.p
    rng = np.random.default_rng(len(name) + p % 101)
    cases = []
    for label, W in _bases(R).items():
        for b in (2, 3, 5):
            P = mo.power_module(W, b)
            for k in (0, 1, 4, 9):
                cases.append((label, P, rng.integers(0, p, (P.dim, k))))
    with monkeypatch.context() as m:
        calls = _count_products(m)
        got = []
        for _, P, c in cases:
            moved, cover = P.act_all(c), mo.cover_matrix(P, c)
            assert not calls      # radical_span takes the base's stacked product
            got.append((moved, mo.radical_span(P, c), mo.radical_span(P), cover))
            calls.clear()
    with monkeypatch.context() as m:
        _dense(m)
        want = [structured(P, c) for _, P, c in cases]
    for (label, P, c), g, w in zip(cases, got, want):
        for a, b in zip(g, w):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b), (name, label, P.dim, c.shape)
        # and the contraction is the materialised action, over Python integers
        ref = np.stack([mm(P.action[i], c, p) for i in range(R.dim)])
        assert np.array_equal(g[0], ref)
        x = radical_generators(R)
        acts = P.element_matrices(x)
        ref = np.stack([mm(acts[j], c, p) for j in range(x.shape[1])], axis=1)
        assert np.array_equal(g[1], ref.reshape(P.dim, -1))


T27_SESSION = """
[ring]
name = "T27"
field = 3
variables = ["x", "y", "z"]
relations = ["x^3", "y^3", "z^3"]

[module.M]
kind = "cokernel"
rows = 2
cols = 2
entries = ["x + 2*y", "z^2", "y*z", "2*x^2 + z"]
"""


def test_zero_one_actions_that_are_not_permutations_have_no_record():
    """Over GF(2) every action is 0/1: x sending e0 and e1 to e2 puts two 1s
    in a row, x sending e0 to e1 + e2 two 1s in a column.  Neither has a
    record, and a power of either acts by the contraction."""
    R = corpus_rings()["R1"]
    zero, eye = np.zeros((3, 3), dtype=np.int64), np.eye(3, dtype=np.int64)
    for spots in ([(2, 0), (2, 1)], [(1, 0), (2, 0)]):
        x = zero.copy()
        x[tuple(zip(*spots))] = 1
        acts = [None] * 3
        acts[int(np.argmax(R.unit))] = eye
        var_x, var_y = np.argmax(radical_generators(R), axis=0)
        acts[var_x], acts[var_y] = x, zero
        M = mo.Module(R, np.stack(acts))
        assert M.partial_permutation() is None, spots
        P = mo.power_module(M, 2)
        cols = np.random.default_rng(2).integers(0, 2, (P.dim, 3))
        ref = np.stack([mm(P.action[i], cols, 2) for i in range(R.dim)])
        assert np.array_equal(P.act_all(cols), ref), spots


def test_a_dense_base_keeps_the_contraction(monkeypatch):
    session = parse_session_text(T27_SESSION)
    M = session.module("M")
    R = M.ring
    p = R.field.p
    assert M.partial_permutation() is None
    P = mo.power_module(M, 3)
    cols = np.random.default_rng(27).integers(0, p, (P.dim, 5))
    calls = _count_products(monkeypatch)
    moved = P.act_all(cols)
    span = mo.radical_span(P, cols)
    assert len(calls) == 3     # act_all, and element_matrices + product in radical_span
    ref = np.stack([mm(P.action[i], cols, p) for i in range(R.dim)])
    assert np.array_equal(moved, ref)
    x = radical_generators(R)
    acts = P.element_matrices(x)
    ref = np.stack([mm(acts[j], cols, p) for j in range(x.shape[1])], axis=1)
    assert np.array_equal(span, ref.reshape(P.dim, -1))


# -- call guards -------------------------------------------------------------------------


def test_resolving_k_over_r4_gathers_on_every_power(monkeypatch):
    """Past degree 0 every step of the resolution acts on a free module R^b:
    cover_matrix there is act_all's scatter and makes no product, and R4
    has m^2 = 0, so no radical span is taken."""
    R = corpus_rings()["R4"]
    k = mo.residue_field_module(R)
    on_powers = []
    real = mo._mul_arrays
    spans = []
    real_span = mo.radical_span
    monkeypatch.setattr(mo, "radical_span",
                        lambda M, cols=None: spans.append(M.block) or real_span(M, cols))

    def guarded(a, b, p):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in ("cover_matrix", "radical_span") \
                    and frame.f_globals is vars(mo) and frame.f_locals["M"].block is not None:
                on_powers.append(frame.f_code.co_name)
            frame = frame.f_back
        return real(a, b, p)

    monkeypatch.setattr(mo, "_mul_arrays", guarded)
    res = minimal_free_resolution(k, 4)
    assert res.betti[:5] == [1, 3, 9, 27, 81]
    assert not on_powers
    assert spans in ([], [None])      # at most minimal_generators(k), at degree 0


def test_rel_ext_ic_builds_no_kron(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", refuse)
    for name, R in corpus_rings().items():
        D = mo.dualizing_module(R)
        k = mo.residue_field_module(R)
        for i in range(3):
            out = sd.rel_ext_ic(i, D, k, k)
            assert out.agree and out.iso_map is not None, (name, i)
