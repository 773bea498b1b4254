"""Batched Hom/tensor translations against per-vector loop references.

The references below are the one-basis-vector-at-a-time loops that
mats_of, coords_of_all and pure_matrix replace, written against each space's
own data (presentation, kernel basis, section, quotient map) and multiplied
over Python integers, so they share no product code with the library.  The
natural maps and action builders are compared against their old loops built
on these references.
"""

import numpy as np
import pytest

from semidual import algebra, linalg, modules as mo, semidualizing as sd, sessions
from semidual.algebra import algebra_from_monomial_quotient
from semidual.complexes import minimal_free_resolution
from semidual.corpus import corpus_sessions
from semidual.linalg import Field, Mat, solve

PRIMES = [2, 3, 5, 2 ** 31 - 1]


def mm(a, b, p):
    """Exact (a @ b) mod p over Python integers."""
    a = np.asarray(a, dtype=np.int64).astype(object)
    b = np.asarray(b, dtype=np.int64).astype(object)
    return (a.dot(b) % p).astype(np.int64)


def act(module, mu, x, p):
    return mm(module.action[mu], x, p)


# -- per-vector references ------------------------------------------------------


def ref_mat_of(hs, coords):
    p = hs.ring.field.p
    coords = np.asarray(coords, dtype=np.int64) % p
    if isinstance(hs, mo._BlockSourceHom):
        b, w, q = hs.copies, hs.small.source.dim, hs.small.dim
        out = np.zeros((hs.target.dim, b * w), dtype=np.int64)
        for s in range(b):
            out[:, s * w:(s + 1) * w] = ref_mat_of(hs.small, coords[s * q:(s + 1) * q])
        return out
    if isinstance(hs, mo._BlockTargetHom):
        b, v, q = hs.copies, hs.small.target.dim, hs.small.dim
        out = np.zeros((b * v, hs.source.dim), dtype=np.int64)
        for s in range(b):
            out[s * v:(s + 1) * v] = ref_mat_of(hs.small, coords[s * q:(s + 1) * q])
        return out
    N, d = hs.target, hs.ring.dim
    vals = mm(hs._K, coords, p) if hs._K is not None else coords
    g = hs._gens.shape[1]
    images = np.zeros((N.dim, g * d), dtype=np.int64)
    for s in range(g):
        for mu in range(d):
            images[:, s * d + mu] = act(N, mu, vals[s * N.dim:(s + 1) * N.dim], p)
    return mm(images, hs._sec, p)


def ref_coords_of(hs, mat):
    p = hs.ring.field.p
    if isinstance(hs, mo._BlockSourceHom):
        w = hs.small.source.dim
        parts = [ref_coords_of(hs.small, mat[:, s * w:(s + 1) * w]) for s in range(hs.copies)]
        return np.concatenate(parts).astype(np.int64)
    if isinstance(hs, mo._BlockTargetHom):
        v = hs.small.target.dim
        parts = [ref_coords_of(hs.small, mat[s * v:(s + 1) * v]) for s in range(hs.copies)]
        return np.concatenate(parts).astype(np.int64)
    vals = mm(mat, hs._gens, p).T.reshape(-1)
    return mm(hs._E, vals, p) if hs._E is not None else vals


def ref_basis_mat(hs, l):
    e = np.zeros(hs.dim, dtype=np.int64)
    e[l] = 1
    return ref_mat_of(hs, e)


def ref_pure(ts, u, v):
    p, d = ts.ring.field.p, ts.ring.dim
    u = np.asarray(u, dtype=np.int64) % p
    v = np.asarray(v, dtype=np.int64) % p
    if isinstance(ts, mo._RightFreeTensor):
        M = ts.left
        out = np.zeros((ts.copies, M.dim), dtype=np.int64)
        for s in range(ts.copies):
            for mu in range(d):
                out[s] = (out[s] + v[s * d + mu] * act(M, mu, u, p)) % p
        return out.reshape(-1)
    if isinstance(ts, mo._BlockLeftTensor):
        w = ts.small.left.dim
        return np.concatenate([ref_pure(ts.small, u[s * w:(s + 1) * w], v)
                               for s in range(ts.copies)]).astype(np.int64)
    if isinstance(ts, mo._BlockRightTensor):
        w = ts.small.right.dim
        return np.concatenate([ref_pure(ts.small, u, v[s * w:(s + 1) * w])
                               for s in range(ts.copies)]).astype(np.int64)
    N = ts.right
    w = mm(ts._sec, u, p).reshape(-1, d)
    moved = np.zeros((N.dim, d), dtype=np.int64)
    for mu in range(d):
        moved[:, mu] = act(N, mu, v, p)
    emb = mm(w, moved.T, p).reshape(-1)
    return mm(ts._Q, emb, p) if ts._Q is not None else emb


def ref_pure_matrix(ts):
    m, n = ts.left.dim, ts.right.dim
    out = np.zeros((ts.dim, m * n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            out[:, i * n + j] = ref_pure(ts, np.eye(m, dtype=np.int64)[i],
                                         np.eye(n, dtype=np.int64)[j])
    return out


# -- rings and modules -----------------------------------------------------------


def _ring(p):
    return algebra_from_monomial_quotient(Field(p), ["x", "y"], ["x^2", "x*y", "y^2"],
                                          name=f"T{p}")


def _pool(R):
    """Zero, cyclic, dualizing, non-cyclic cokernel, free, and powers."""
    k = mo.residue_field_module(R)
    M, _ = mo.presentation_to_module(R, 2, 1, [["x"], ["y"]])
    return [mo.zero_module(R), k, mo.dualizing_module(R), M, mo.regular_module(R),
            mo.free_module(R, 2), mo.power_module(k, 2), mo.power_module(M, 2)]


def _pairs(p):
    R = _ring(p)
    pool = _pool(R)
    return [(a, b) for a in pool for b in pool]


@pytest.fixture(autouse=True)
def _cold():
    mo.clear_caches()
    yield
    mo.clear_caches()


HOM_CLASSES = {"_PresentedHom", "_BlockSourceHom", "_BlockTargetHom"}
TENSOR_CLASSES = {"_PresentedTensor", "_RightFreeTensor", "_BlockLeftTensor",
                  "_BlockRightTensor"}


def test_pool_reaches_every_space_class():
    pairs = _pairs(3)
    assert {type(mo.hom_space(a, b)).__name__ for a, b in pairs} == HOM_CLASSES
    assert {type(mo.tensor_space(a, b)).__name__ for a, b in pairs} == TENSOR_CLASSES


@pytest.mark.parametrize("p", PRIMES)
def test_mats_of_and_coords_of_all_match_the_loops(p):
    rng = np.random.default_rng(p % 1000)
    for a, b in _pairs(p):
        hs = mo.hom_space(a, b)
        for k in (0, 1, 3):
            coords = rng.integers(0, p, size=(hs.dim, k), dtype=np.int64)
            stack = hs.mats_of(coords)
            assert stack.shape == (k, b.dim, a.dim)
            for c in range(k):
                assert np.array_equal(stack[c], ref_mat_of(hs, coords[:, c]))
            back = hs.coords_of_all(stack)
            assert back.shape == (hs.dim, k)
            for c in range(k):
                assert np.array_equal(back[:, c], ref_coords_of(hs, stack[c]))
            assert np.array_equal(back, coords)
        if hs.dim:
            assert np.array_equal(hs.basis_mats()[-1], ref_basis_mat(hs, hs.dim - 1))


@pytest.mark.parametrize("p", PRIMES)
def test_pure_matrix_matches_the_loop(p):
    rng = np.random.default_rng(p % 997)
    for a, b in _pairs(p):
        ts = mo.tensor_space(a, b)
        P = ts.pure_matrix()
        assert P.shape == (ts.dim, a.dim * b.dim)
        assert np.array_equal(P, ref_pure_matrix(ts))
        u = rng.integers(0, p, size=a.dim, dtype=np.int64)
        v = rng.integers(0, p, size=b.dim, dtype=np.int64)
        uv = np.kron(u, v).reshape(-1, 1) % p
        assert np.array_equal(linalg._mul_arrays(P, uv, p)[:, 0], ref_pure(ts, u, v))


def test_power_action_is_the_kron_stack():
    R = _ring(5)
    for base in _pool(R)[1:4]:
        W = mo.power_module(base, 3)
        eye = np.eye(3, dtype=np.int64)
        want = np.stack([np.kron(eye, base.action[i]) for i in range(R.dim)])
        assert np.array_equal(W.action, want)


# -- natural maps and action builders against their old loops -----------------------


def ref_hom_functor_map(C, f, side):
    p = C.ring.field.p
    if side == "covariant":
        hs_src, hs_dst = mo.hom_space(C, f.src), mo.hom_space(C, f.dst)
        cols = [ref_coords_of(hs_dst, mm(f.mat, ref_basis_mat(hs_src, l), p))
                for l in range(hs_src.dim)]
    else:
        hs_src, hs_dst = mo.hom_space(f.dst, C), mo.hom_space(f.src, C)
        cols = [ref_coords_of(hs_dst, mm(ref_basis_mat(hs_src, l), f.mat, p))
                for l in range(hs_src.dim)]
    return np.stack(cols, axis=1) if cols else np.zeros((hs_dst.dim, 0), dtype=np.int64)


def _solve_rows(P, rhs, field):
    sol = solve(Mat(field, P.T), Mat(field, rhs.T))
    return sol.data.T


def ref_evaluation_nu(C, M):
    hs = mo.hom_space(C, M)
    ts = mo.tensor_space(C, hs.module)
    c, h = C.dim, hs.dim
    beta = np.zeros((M.dim, c * h), dtype=np.int64)
    for l in range(h):
        beta[:, [i * h + l for i in range(c)]] = ref_basis_mat(hs, l)
    return _solve_rows(ref_pure_matrix(ts), beta, C.ring.field)


def ref_coevaluation_mu(C, M):
    ts = mo.tensor_space(C, M)
    hs = mo.hom_space(C, ts.module)
    cols = np.zeros((hs.dim, M.dim), dtype=np.int64)
    for j in range(M.dim):
        hmat = np.zeros((ts.dim, C.dim), dtype=np.int64)
        for a in range(C.dim):
            hmat[:, a] = ref_pure(ts, np.eye(C.dim, dtype=np.int64)[a],
                                  np.eye(M.dim, dtype=np.int64)[j])
        cols[:, j] = ref_coords_of(hs, hmat)
    return cols


def ref_adjunction_iso(C, M, N):
    p = C.ring.field.p
    ts = mo.tensor_space(C, M)
    hs_t, hs_cn = mo.hom_space(ts.module, N), mo.hom_space(C, N)
    hs_out = mo.hom_space(M, hs_cn.module)
    P = ref_pure_matrix(ts)
    cols = []
    for l in range(hs_t.dim):
        gp = mm(ref_basis_mat(hs_t, l), P, p)
        ghat = np.zeros((hs_cn.dim, M.dim), dtype=np.int64)
        for j in range(M.dim):
            ghat[:, j] = ref_coords_of(hs_cn, gp[:, [a * M.dim + j for a in range(C.dim)]])
        cols.append(ref_coords_of(hs_out, ghat))
    return np.stack(cols, axis=1) if cols else np.zeros((hs_out.dim, 0), dtype=np.int64)


def ref_homothety_chi(R, C):
    hs = mo.hom_space(C, C)
    cols = [ref_coords_of(hs, C.element_matrix(np.eye(R.dim, dtype=np.int64)[mu]))
            for mu in range(R.dim)]
    return np.stack(cols, axis=1)


def ref_tensor_functor_map(C, f):
    p = C.ring.field.p
    P_src = ref_pure_matrix(mo.tensor_space(C, f.src))
    P_dst = ref_pure_matrix(mo.tensor_space(C, f.dst))
    rhs = mm(P_dst, np.kron(np.eye(C.dim, dtype=np.int64), f.mat), p)
    return _solve_rows(P_src, rhs, C.ring.field)


def ref_action(hs, acts, side):
    """Stack slice mu: the matrix of f -> f after acts[mu] (side "pre") or
    acts[mu] after f (side "post"), one basis map at a time."""
    p = hs.ring.field.p
    h = hs.dim
    out = np.zeros((len(acts), h, h), dtype=np.int64)
    for mu, a in enumerate(acts):
        for l in range(h):
            bm = ref_basis_mat(hs, l)
            out[mu, :, l] = ref_coords_of(hs, mm(bm, a, p) if side == "pre" else mm(a, bm, p))
    return out


def _some_maps(M, N):
    """A few R-linear maps M -> N: two basis maps and their sum."""
    homs = [mo.ModuleHom(M, N, bm, check=False) for bm in mo.hom_space(M, N).basis_mats()]
    maps = homs[:2]
    if len(homs) >= 2:
        p = M.ring.field.p
        maps.append(mo.ModuleHom(M, N, (homs[0].mat + homs[-1].mat) % p, check=False))
    return maps


@pytest.mark.parametrize("p", PRIMES)
def test_natural_maps_match_their_loops(p):
    R = _ring(p)
    pool = _pool(R)
    small = pool[:4] + [mo.power_module(pool[1], 2)]
    for C in small:
        assert np.array_equal(mo.homothety_chi(R, C).mat, ref_homothety_chi(R, C))
        for M in small:
            hs = mo.hom_space(C, M)
            bms = hs.basis_mats()
            assert mo.hom_space(C, M).module is hs.module and len(bms) == hs.dim
            for l, bm in enumerate(bms):
                assert np.array_equal(bm, ref_basis_mat(hs, l))
            assert np.array_equal(mo.evaluation_nu(C, M).mat, ref_evaluation_nu(C, M))
            assert np.array_equal(mo.coevaluation_mu(C, M).mat, ref_coevaluation_mu(C, M))
            for N in small[1:3]:
                assert np.array_equal(mo.adjunction_iso(C, M, N).mat,
                                      ref_adjunction_iso(C, M, N))
            acts = C.element_matrices(np.eye(R.dim, dtype=np.int64))
            assert np.array_equal(sd._precomposition_action(C, M),
                                  ref_action(hs, acts, "pre"))
            acts = M.element_matrices(np.eye(R.dim, dtype=np.int64))
            assert np.array_equal(sd._postcomposition_action(C, M),
                                  ref_action(hs, acts, "post"))
            for f in _some_maps(C, M):
                for side in ("covariant", "contravariant"):
                    for W in small[1:4]:
                        assert np.array_equal(mo.hom_functor_map(W, f, side).mat,
                                              ref_hom_functor_map(W, f, side))
                for W in small[1:4]:
                    assert np.array_equal(mo.tensor_functor_map(W, f).mat,
                                          ref_tensor_functor_map(W, f))


@pytest.mark.parametrize("p", PRIMES)
def test_proper_resolution_and_ic_engine_match_their_loops(p):
    """The proper C-projective augmentation and the action of the proper
    C-injective route's carrier W_V, which rel_ext_ic resolves against,
    match their one-column loops."""
    R = _ring(p)
    pool = _pool(R)
    D, k, M = pool[2], pool[1], pool[3]
    for C in (mo.regular_module(R), D):
        for X in (k, D, M):
            hs = mo.hom_space(C, X)
            res = minimal_free_resolution(hs.module, 1)
            gens = sd._generator_vectors(res)
            want = np.concatenate([ref_mat_of(hs, gens[:, s]) for s in range(gens.shape[1])],
                                  axis=1)
            assert np.array_equal(sd.proper_pc_resolution(C, X, 1).aug_map.mat, want)
            hcd = mo.hom_space(C, mo.dualizing_module(R))
            T = sd._postcomposition_action(hcd.source, hcd.target)
            want = ref_action(mo.hom_space(X, hcd.module), T, "post")
            assert np.array_equal(sd._proper_ic_carrier(C, X).action, want)


# -- guards ------------------------------------------------------------------------


def _count_products(monkeypatch):
    calls = []
    real = linalg._mul_arrays

    def counting(a, b, p):
        calls.append(1)
        return real(a, b, p)

    for ns in (linalg, algebra, mo, sd):
        monkeypatch.setattr(ns, "_mul_arrays", counting)
    return calls


def test_precomposition_action_products_do_not_grow_with_the_basis(monkeypatch):
    session = corpus_sessions()["R1"]
    R = session.ring()
    C = session.module("D", R)
    counts = {}
    for name in ("k", "D", "F", "M"):
        N = session.module(name, R)
        for N in (N, mo.power_module(N, 6)):
            mo.clear_caches()
            hs = mo.hom_space(C, N)
            calls = _count_products(monkeypatch)
            sd._precomposition_action(C, N)
            monkeypatch.undo()
            counts[hs.dim * R.dim] = len(calls)
    assert max(counts) >= 8 * min(counts)          # the sizes really vary
    assert max(counts.values()) <= 8, counts


def test_session_module_parses_nothing(monkeypatch):
    loaded = corpus_sessions()
    calls = []
    real = algebra.parse_polynomial

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algebra, "parse_polynomial", counting)
    monkeypatch.setattr(sessions, "parse_polynomial", counting)
    built = 0
    for session in loaded.values():
        R = session.ring()
        for name, spec in session.modules.items():
            mod = session.module(name, R)
            built += spec.kind == "cokernel"
            assert mod.label == name
    assert built and calls == []


def test_parsed_vectors_give_the_module_the_strings_give():
    for session in corpus_sessions().values():
        R = session.ring()
        for name, spec in session.modules.items():
            if spec.kind != "cokernel":
                continue
            rows = [spec.entries[r * spec.cols:(r + 1) * spec.cols] for r in range(spec.rows)]
            from_text, _ = mo.presentation_to_module(R, spec.rows, spec.cols, rows)
            assert spec.vectors.shape == (spec.rows, spec.cols, R.dim)
            assert from_text.fingerprint == session.module(name, R).fingerprint
