import inspect
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semidual import linalg
from semidual.complexes import minimal_free_resolution
from semidual.corpus import ring_type_three
from semidual.errors import InputError
from semidual.linalg import (
    _INT64_MAX_MACS,
    _SMALL_CELLS,
    Field,
    Mat,
    _echelon,
    _mul_arrays,
    _panel_echelon,
    _small_echelon,
    expressor,
    extend_basis,
    kernel_basis,
    rank,
    rref,
    solve,
)
from semidual.modules import residue_field_module

from oracles import enumerate_kernel, enumerate_solutions, naive_rref

GF2 = Field(2)
GF3 = Field(3)
GF5 = Field(5)


def _eye(field, n):
    return Mat(field, np.eye(n, dtype=np.int64))


def _zeros(field, rows, cols):
    return Mat(field, np.zeros((rows, cols), dtype=np.int64))


def _mul(a: Mat, b: Mat) -> Mat:
    return Mat._wrap(a.field, _mul_arrays(a.data, b.data, a.field.p))


def test_public_surface_is_what_the_library_uses():
    """The public callables defined in linalg: the field, the matrix type
    and the six reductions, nothing else."""
    public = {name for name, obj in vars(linalg).items()
              if callable(obj) and not name.startswith("_")
              and getattr(obj, "__module__", None) == "semidual.linalg"}
    assert public == {"Field", "Mat", "rref", "rank", "kernel_basis", "solve",
                      "expressor", "extend_basis"}
    assert not [name for name, _ in inspect.getmembers(Mat, callable)
                if not name.startswith("_")]


def test_field_rejects_nonprime():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(InputError):
            Field(bad)


def test_field_inverse():
    f = Field(7)
    for x in range(1, 7):
        assert (x * f.inv(x)) % 7 == 1


def test_rref_identity_fixed():
    a = _eye(GF5, 4)
    r, piv = rref(a)
    assert r == a
    assert piv == [0, 1, 2, 3]


def test_rref_hand_case_gf5():
    # by hand: [[2,4],[1,2]] over GF(5): scale row0 by 3 -> [1,2]; row1 - [1,2] = 0
    a = Mat(GF5, [[2, 4], [1, 2]])
    r, piv = rref(a)
    assert r == Mat(GF5, [[1, 2], [0, 0]])
    assert piv == [0]


def test_kernel_of_identity_is_empty():
    k = kernel_basis(_eye(GF2, 3))
    assert k.rows == 3 and k.cols == 0


def test_kernel_gf2_enumeration():
    # [[1,1]] over GF(2): enumeration gives solutions {(0,0), (1,1)}
    sols = enumerate_kernel([[1, 1]], 2)
    assert sols == [(0, 0), (1, 1)]
    k = kernel_basis(Mat(GF2, [[1, 1]]))
    assert k.cols == 1
    assert k.data[:, 0].tolist() == [1, 1]


def test_solve_identity():
    b = Mat(GF3, [[1], [2], [0]])
    x = solve(_eye(GF3, 3), b)
    assert x == b


def test_solve_gf2_consistent_and_inconsistent():
    sols = enumerate_solutions([[1, 1]], [1], 2)
    assert sols == [(0, 1), (1, 0)]
    x = solve(Mat(GF2, [[1, 1]]), Mat(GF2, [[1]]))
    assert x is not None
    assert tuple(x.data[:, 0].tolist()) in sols
    # x + y = 1 and x + y = 0 together: inconsistent
    a = Mat(GF2, [[1, 1], [1, 1]])
    b = Mat(GF2, [[1], [0]])
    assert solve(a, b) is None


def test_solve_is_deterministic_free_coords_zero():
    a = Mat(GF5, [[1, 2, 3]])
    b = Mat(GF5, [[4]])
    x = solve(a, b)
    assert x.data[:, 0].tolist() == [4, 0, 0]


def test_mat_immutable():
    a = _eye(GF2, 2)
    with pytest.raises(ValueError):
        a.data[0, 0] = 0


def test_mat_value_semantics():
    a = Mat(GF3, [[1, 2], [0, 1]])
    b = Mat(GF3, [[4, -1], [3, 1]])  # same after reduction
    assert a == b
    assert hash(a) == hash(b)


def test_solve_rejects_mismatched_operands():
    with pytest.raises(InputError, match="field"):
        solve(_eye(GF2, 2), _zeros(GF3, 2, 1))
    with pytest.raises(InputError, match="row"):
        solve(_eye(GF2, 2), _zeros(GF2, 3, 1))


def test_empty_shapes():
    z = _zeros(GF2, 0, 3)
    r, piv = rref(z)
    assert piv == [] and r.rows == 0
    k = kernel_basis(z)
    assert k.rows == 3 and k.cols == 3  # everything is in the kernel
    z2 = _zeros(GF2, 3, 0)
    assert kernel_basis(z2).cols == 0
    assert rank(z2) == 0
    prod = _mul(z2, _zeros(GF2, 0, 4))
    assert prod == _zeros(GF2, 3, 4)


def test_expressor_roundtrip():
    basis = Mat(GF5, [[1, 0], [2, 1], [3, 3]])
    e = expressor(basis)
    assert _mul(e, basis) == _eye(GF5, 2)
    v = _mul(basis, Mat(GF5, [[2], [4]]))
    coords = _mul(e, v)
    assert coords == Mat(GF5, [[2], [4]])


def test_expressor_rejects_dependent():
    with pytest.raises(InputError):
        expressor(Mat(GF2, [[1, 1], [1, 1]]))


def test_extend_basis():
    have = Mat(GF2, [[1], [0], [0]])
    cand = Mat(GF2, [[1], [0], [0]]).data
    cand = Mat(GF2, np.hstack([cand, [[0], [1], [0]], [[1], [1], [0]], [[0], [0], [1]]]))
    picked = extend_basis(have, cand)
    assert picked == [1, 3]  # greedy, first-come


# Shapes reach past _SMALL_CELLS and the density runs from all-zero to
# all-nonzero, so that sparse draws go through the private-row split.
mat_strategy = st.tuples(
    st.sampled_from([2, 3, 5, 7, 97, 65521, 2 ** 31 - 1]),
    st.integers(0, 20),
    st.integers(0, 20),
    st.sampled_from([0.0, 0.03, 0.06, 0.1, 0.2, 0.5, 1.0]),
    st.integers(0, 2 ** 31 - 1),
)


def _draw_matrix(p, m, n, density, rng):
    """An m x n matrix over GF(p) whose entries are nonzero with
    probability `density`."""
    return rng.integers(1, p, size=(m, n)) * (rng.random((m, n)) < density)


@settings(max_examples=150, deadline=None)
@given(mat_strategy)
def test_rref_matches_naive(params):
    p, m, n, density, seed = params
    rng = np.random.default_rng(seed)
    data = _draw_matrix(p, m, n, density, rng)
    a = Mat(Field(p), data)
    got, piv = rref(a)
    want, want_piv = naive_rref(data.tolist(), p)
    assert piv == want_piv
    assert got.data.tolist() == want


@settings(max_examples=100, deadline=None)
@given(mat_strategy)
def test_kernel_properties(params):
    p, m, n, density, seed = params
    rng = np.random.default_rng(seed)
    a = Mat(Field(p), _draw_matrix(p, m, n, density, rng))
    k = kernel_basis(a)
    assert k.cols == n - rank(a)
    if k.cols:
        assert not _mul(a, k).data.any()
        assert rank(k) == k.cols


@settings(max_examples=100, deadline=None)
@given(mat_strategy)
def test_solve_properties(params):
    p, m, n, density, seed = params
    rng = np.random.default_rng(seed)
    a = Mat(Field(p), _draw_matrix(p, m, n, density, rng))
    x_true = Mat(Field(p), rng.integers(0, p, size=(n, 2)))
    b = _mul(a, x_true)
    x = solve(a, b)
    assert x is not None
    assert _mul(a, x) == b


def test_blocked_elimination_crosses_panels():
    # shape straddles several 64-column panels; compare against the oracle
    rng = np.random.default_rng(7)
    data = rng.integers(0, 5, size=(40, 200))
    a = Mat(GF5, data)
    got, piv = rref(a)
    want, want_piv = naive_rref(data.tolist(), 5)
    assert piv == want_piv
    assert got.data.tolist() == want


def test_large_prime_products_stay_exact():
    p = 2147483629  # largest prime below 2^31 is 2147483647; use another large one
    f = Field(p)
    a = Mat(f, [[p - 1, p - 2], [1, p - 1]])
    sq = _mul(a, a)
    # check one entry by hand with python ints
    want = ((p - 1) * (p - 1) + (p - 2) * 1) % p
    assert int(sq.data[0, 0]) == want


def _kernel_loop_reference(a: Mat) -> np.ndarray:
    """kernel_basis entry by entry: one column per free column, 1 at the
    free coordinate, minus the echelon entry at each pivot coordinate."""
    p = a.field.p
    R, piv = rref(a)
    free = [c for c in range(a.cols) if c not in set(piv)]
    K = np.zeros((a.cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        K[fc, j] = 1
        for i, pc in enumerate(piv):
            K[pc, j] = (-int(R.data[i, fc])) % p
    return K


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2 ** 31 - 1])
def test_kernel_basis_matches_loop_reference(p):
    f = Field(p)
    rng = np.random.default_rng(p % 1000)
    shapes = [(0, 0), (0, 5), (4, 0), (3, 3), (5, 5), (4, 7), (7, 4), (1, 9), (9, 1)]
    mats = [_zeros(f, m, n) for m, n in shapes]
    mats.append(_eye(f, 6))
    mats.append(Mat(f, np.hstack([np.eye(4, dtype=np.int64),
                                  rng.integers(0, p, size=(4, 3))])))   # full row rank
    for m, n in shapes * 4:
        dense = rng.integers(0, p, size=(m, n))
        sparse = dense * (rng.random((m, n)) < 0.4)   # free columns between pivots
        mats += [Mat(f, dense), Mat(f, sparse)]
        if m > 1:
            low = sparse.copy()
            low[1:] = (low[:1] * rng.integers(0, p, size=(m - 1, 1))) % p   # rank <= 1
            mats.append(Mat(f, low))
    for a in mats:
        K = kernel_basis(a)
        want = _kernel_loop_reference(a)
        assert K.data.shape == want.shape
        assert np.array_equal(K.data, want)
        assert not _mul(a, K).data.any()


@pytest.mark.parametrize("p", [2, 3, 65521, 2 ** 31 - 1])
def test_mul_arrays_matrix_and_stack_match_python_ints(p):
    """A matrix times a matrix or a stack of matrices, against Python ints.
    The small shapes take the direct int64 tier below 2^31 - 1; the 5 x 70
    stack takes the float64 tier there and the chunked int64 one at
    2^31 - 1, where every inner dimension past 2 is chunked."""
    rng = np.random.default_rng(p % 1000)
    for m, n, k, s in [(3, 4, 5, 2), (1, 1, 1, 1), (4, 0, 3, 2), (0, 3, 2, 3),
                       (2, 3, 0, 2), (5, 70, 4, 3), (3, 4, 2, 0)]:
        a = rng.integers(0, p, size=(m, n))
        b = rng.integers(0, p, size=(s, n, k))
        a[:, :1] = p - 1                 # the largest products
        b[..., :1, :] = p - 1
        want = _python_product(a, b, p)
        got = _mul_arrays(a, b, p)
        assert got.shape == (s, m, k) and got.dtype == np.int64
        assert got.tolist() == want
        for r in range(s):
            flat = _mul_arrays(a, b[r], p)
            assert flat.shape == (m, k) and flat.tolist() == want[r]


def _split_kinds(data: np.ndarray) -> tuple[int, int]:
    """(private, coupled) row counts: nonzero rows that share no column with
    another row, and rows that do."""
    nz = data != 0
    coupled = nz[:, nz.sum(axis=0) > 1].any(axis=1)
    return int((nz.any(axis=1) & ~coupled).sum()), int(coupled.sum())


def _structured_sparse(p: int, rng, n_private: int, n_coupled: int) -> np.ndarray:
    """Private rows on disjoint column supports, coupled rows sharing a block
    of 80 columns (wider than one 64-column panel) with one dependent row,
    three zero rows and ten zero columns, 140 columns in all.  Columns and
    rows are scrambled, so private and coupled pivots interleave."""
    cols = 140
    perm = rng.permutation(cols)
    coupled_cols, private_cols = perm[10:90], perm[90:]
    data = np.zeros((n_private + n_coupled + 3, cols), dtype=np.int64)
    for i, part in enumerate(np.array_split(private_cols, n_private)):
        support = part[(rng.random(part.size) < 0.5) | (np.arange(part.size) == 0)]
        data[i, support] = rng.integers(1, p, size=support.size)
    if n_coupled:
        block = rng.integers(1, p, size=(n_coupled, 80)) * (rng.random((n_coupled, 80)) < 0.3)
        block[:, 0] = rng.integers(1, p, size=n_coupled)       # every row shares column 0
        if n_coupled > 2:
            block[-1] = (block[0] + (p - 1) * block[1]) % p
        data[n_private:n_private + n_coupled, coupled_cols] = block
    return data[rng.permutation(data.shape[0])]


def _outputs(a: Mat) -> list:
    """Everything derived from the echelon form, for one matrix."""
    p, f = a.field.p, a.field
    rng = np.random.default_rng(a.rows * 1000 + a.cols)
    b = _mul(a, Mat(f, rng.integers(0, p, size=(a.cols, 2))))
    off = Mat(f, rng.integers(0, p, size=(a.rows, 1)))
    red, piv = rref(a)
    k = kernel_basis(a)
    row_basis = Mat(f, red.data[:len(piv)].T)
    half = a.cols // 2
    return [red, piv, rank(a), k, solve(a, b), solve(a, off), expressor(row_basis),
            extend_basis(Mat(f, a.data[:, :half]), Mat(f, a.data[:, half:])),
            extend_basis(_zeros(f, a.rows, 0), a)]


def _panel_only(arr, p):
    return _panel_echelon(arr.astype(np.int64) % p, p)


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2 ** 31 - 1])
def test_private_row_split_matches_naive_and_panel(p, monkeypatch):
    """Structured sparse matrices through the private-row split, and
    matrices under _SMALL_CELLS through the Python-int echelon: the RREF
    against the pure-Python oracle, and every echelon consumer against the
    panel elimination alone."""
    f = Field(p)
    rng = np.random.default_rng(p % 1009)
    mixed = [_structured_sparse(p, rng, n_private, n_coupled)
             for n_private, n_coupled in [(12, 10), (30, 3), (5, 30)]]
    for data in mixed:
        private, coupled = _split_kinds(data)
        assert private and coupled and data.size > _SMALL_CELLS
    only_private = _structured_sparse(p, rng, 20, 0)
    assert _split_kinds(only_private)[1] == 0
    one_row = np.zeros((1, 300), dtype=np.int64)
    one_row[0, 7::11] = rng.integers(1, p, size=one_row[0, 7::11].size)
    one_col = np.zeros((300, 1), dtype=np.int64)
    one_col[3::13] = rng.integers(1, p, size=one_col[3::13].shape)
    diagonal = np.diag(rng.integers(1, p, size=40))[rng.permutation(40)]
    empty = [np.zeros(shape, dtype=np.int64) for shape in [(0, 0), (0, 200), (200, 0), (20, 20)]]
    small = [_draw_matrix(p, m, n, density, rng)
             for m, n, density in [(16, 16, 0.3), (9, 12, 1.0), (4, 60, 0.1), (1, 200, 0.5),
                                   (30, 3, 0.5), (10, 10, 0.0), (0, 9, 0.0)]]
    small.append(np.diag(rng.integers(1, p, size=12))[rng.permutation(12)])
    assert all(data.size <= _SMALL_CELLS for data in small)
    cases = mixed + [only_private, one_row, one_col, diagonal] + empty + small
    for data in cases:
        a = Mat(f, data)
        got, piv = rref(a)
        want, want_piv = naive_rref(data.tolist(), p)
        assert piv == want_piv
        assert got.data.tolist() == want
        split = _outputs(a)
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "_echelon", _panel_only)
            reference = _outputs(a)
        assert split == reference


def test_private_rows_need_no_elimination(monkeypatch):
    """The third differential of the resolution of k over R4 has one nonzero
    per row and per column: its rank makes no matrix product."""
    R4 = ring_type_three()
    d3 = minimal_free_resolution(residue_field_module(R4), 3).arrow(3).mat
    assert d3.shape == (36, 108) and d3.size > _SMALL_CELLS
    assert _split_kinds(d3) == (27, 0)
    calls = []

    def counted(a, b, p):
        calls.append(a.shape)
        return _mul_arrays(a, b, p)

    monkeypatch.setattr(linalg, "_mul_arrays", counted)
    assert rank(Mat(R4.field, d3)) == 27
    assert calls == []


# -- size tiers ---------------------------------------------------------------------


class _NumpySpy:
    """Stands in for numpy inside linalg and records the calls that tell the
    product tiers apart: np.rint runs only on the float64 tier, np.zeros
    only on the chunked one."""

    def __init__(self):
        self.calls: list[str] = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("rint", "zeros"):
            return attr

        def spied(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)
        return spied


def _product_and_tier(a, b, p, monkeypatch):
    spy = _NumpySpy()
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "np", spy)
        got = _mul_arrays(a, b, p)
    tier = "float64" if "rint" in spy.calls else "chunked" if "zeros" in spy.calls else "int64"
    return got, tier


def _python_product(a, b, p) -> list:
    """(a @ b) mod p over Python ints, for a matrix or a stack b."""
    stack = b if b.ndim == 3 else b[None]
    out = [[[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in mat.T]
            for row in a] for mat in stack]
    return out if b.ndim == 3 else out[0]


def test_int64_product_guard_boundary(monkeypatch):
    """At p = 2^31 - 1 two largest products still fit in int64, three do
    not: inner 2 takes the int64 tier, inner 3 the chunked one, both exact.
    Operands that are not int64, whose own products could wrap, never take
    the int64 tier."""
    p = 2 ** 31 - 1
    assert 2 * (p - 1) ** 2 < 2 ** 63 <= 3 * (p - 1) ** 2
    for inner, want_tier in [(1, "int64"), (2, "int64"), (3, "chunked")]:
        a = np.full((2, inner), p - 1, dtype=np.int64)
        b = np.full((inner, 3), p - 1, dtype=np.int64)
        got, tier = _product_and_tier(a, b, p, monkeypatch)
        assert tier == want_tier
        assert got.dtype == np.int64 and got.tolist() == _python_product(a, b, p)
    p = 65521
    a = np.full((4, 16), p - 1, dtype=np.int32)
    got, tier = _product_and_tier(a, a.T, p, monkeypatch)
    assert tier == "float64"
    assert got.dtype == np.int64 and got.tolist() == _python_product(a, a.T, p)


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2 ** 31 - 1])
def test_int64_product_tier_matches_python_ints_and_float(p, monkeypatch):
    """Shapes on both sides of _INT64_MAX_MACS, stacked right operands, and
    zero and empty shapes: each product against Python ints, in the tier
    its size selects, and against the same product with the int64 tier
    switched off."""
    rng = np.random.default_rng(p % 997)
    assert _INT64_MAX_MACS == 8 * 16 * 32
    big_p = p == 2 ** 31 - 1          # every inner past 2 is over the int64 guard
    cases = [((8, 16), (16, 32), "chunked" if big_p else "int64"),
             ((8, 16), (16, 33), "chunked" if big_p else "float64"),
             ((8, 16), (4, 16, 8), "chunked" if big_p else "int64"),
             ((8, 16), (5, 16, 8), "chunked" if big_p else "float64"),
             ((3, 2), (4, 2, 5), "int64"),
             ((64, 2), (2, 32), "int64"),
             ((64, 2), (2, 33), "chunked" if big_p else "float64"),
             ((2, 3), (3, 0), "chunked" if big_p else "int64"),
             ((0, 3), (3, 4), "chunked" if big_p else "int64"),
             ((3, 4), (0, 4, 2), "chunked" if big_p else "int64")]
    for a_shape, b_shape, want_tier in cases:
        a = rng.integers(0, p, size=a_shape)
        b = rng.integers(0, p, size=b_shape)
        if a.size and b.size:
            a[:, :1] = p - 1                 # the largest products
            b[..., :1, :] = p - 1
        for scale in (1, 0):                 # random, then all zero
            got, tier = _product_and_tier(a * scale, b * scale, p, monkeypatch)
            assert tier == want_tier, (a_shape, b_shape)
            assert got.dtype == np.int64
            assert got.shape == b_shape[:-2] + (a_shape[0], b_shape[-1])
            assert got.tolist() == _python_product(a * scale, b * scale, p)
            with monkeypatch.context() as patched:
                patched.setattr(linalg, "_INT64_MAX_MACS", -1)
                assert np.array_equal(_mul_arrays(a * scale, b * scale, p), got)


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2 ** 31 - 1])
def test_small_echelon_matches_naive_and_panel(p, monkeypatch):
    """Shapes on both sides of _SMALL_CELLS, zero and empty ones included:
    _echelon against the oracle, the Python-int path taken exactly up to
    the cutoff, and the Python-int echelon against the panel elimination on
    every shape."""
    rng = np.random.default_rng(p % 991)
    taken: list[tuple] = []

    def counted(arr, q):
        taken.append(arr.shape)
        return _small_echelon(arr, q)

    monkeypatch.setattr(linalg, "_small_echelon", counted)
    shapes = [(16, 16), (16, 17), (1, 256), (1, 257), (256, 1), (257, 1),
              (12, 9), (3, 86), (0, 0), (0, 300), (300, 0), (7, 0), (0, 7)]
    for m, n in shapes:
        for density in (0.0, 0.1, 0.5, 1.0):
            data = _draw_matrix(p, m, n, density, rng)
            taken.clear()
            R, piv = _echelon(data, p)
            assert taken == ([(m, n)] if m * n <= _SMALL_CELLS else [])
            want, want_piv = naive_rref(data.tolist(), p)
            assert R.dtype == np.int64 and R.shape == (m, n)
            assert piv == want_piv and R.tolist() == want
            small, small_piv = _small_echelon(data, p)
            panel, panel_piv = _panel_only(data, p)
            assert small.dtype == np.int64 and small.shape == (m, n)
            assert small_piv == panel_piv and np.array_equal(small, panel)


def test_coupled_matrix_is_restricted_to_nonzero_rows_and_columns(monkeypatch):
    """A coupled matrix with no private row reaches the panel elimination
    without its zero rows and columns."""
    p = 5
    rng = np.random.default_rng(7)
    block = rng.integers(1, p, size=(20, 20))
    block[-1] = (block[0] + 2 * block[1]) % p     # rank 19
    padded = np.zeros((33, 34), dtype=np.int64)
    rows, cols = np.sort(rng.permutation(33)[:20]), np.sort(rng.permutation(34)[:20])
    padded[np.ix_(rows, cols)] = block
    shapes: list[tuple] = []

    def counted(R, q):
        shapes.append(R.shape)
        return _panel_echelon(R, q)

    monkeypatch.setattr(linalg, "_panel_echelon", counted)
    for data in (padded, block):
        shapes.clear()
        assert _split_kinds(data) == (0, 20) and data.size > _SMALL_CELLS
        R, piv = _echelon(data, p)
        assert shapes == [(20, 20)]
        want, want_piv = naive_rref(data.tolist(), p)
        assert len(piv) == 19 and piv == want_piv and R.tolist() == want


@pytest.mark.parametrize("p", [3, 65521])
def test_echelon_never_writes_its_input(p):
    """The private-row split only reads its input and the whole-matrix
    panel path works on a copy, so a read-only input passes both unchanged."""
    rng = np.random.default_rng(11)
    dense = rng.integers(1, p, size=(20, 20))
    split = _structured_sparse(p, rng, 12, 9)
    for data in (dense, split):
        assert data.size > _SMALL_CELLS
        frozen = data.astype(np.int64)
        frozen.setflags(write=False)
        R, piv = _echelon(frozen, p)
        assert np.array_equal(frozen, data)
        want, want_piv = naive_rref(data.tolist(), p)
        assert piv == want_piv and R.tolist() == want
    assert _split_kinds(dense)[0] == 0 and _split_kinds(split)[0] > 0


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are pinned on glibc only")
def test_freed_large_arrays_are_reused_without_page_faults():
    """Three 16 MiB arrays allocated and freed over and over: once linalg
    has pinned the malloc thresholds, later rounds reuse the same memory
    instead of faulting in fresh pages (a fresh interpreter without the pin
    takes about a thousand faults in the third round)."""
    code = ("import resource, numpy as np, semidual.linalg\n"
            "def cycle():\n"
            "    arrays = [np.ones(2 ** 21) for _ in range(3)]\n"
            "    del arrays\n"
            "cycle(); cycle()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "cycle()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(linalg.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 100
