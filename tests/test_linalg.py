import inspect
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semidual import linalg
from semidual.algebra import algebra_from_monomial_quotient
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
    and the six reductions, nothing else.  Field and Mat have no public
    methods: the reductions invert pivots inline."""
    public = {name for name, obj in vars(linalg).items()
              if callable(obj) and not name.startswith("_")
              and getattr(obj, "__module__", None) == "semidual.linalg"}
    assert public == {"Field", "Mat", "rref", "rank", "kernel_basis", "solve",
                      "expressor", "extend_basis"}
    for cls in (Field, Mat):
        assert not [name for name, _ in inspect.getmembers(cls, callable)
                    if not name.startswith("_")], cls


def test_field_rejects_nonprime():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(InputError):
            Field(bad)


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


def _reduction_steps(data, p, monkeypatch):
    """_echelon(data, p), with the steps it took and the products it made.

    Steps, in order: ('round', pivots, products) for each pivot round, its
    products being those of the rounds' arithmetic (_product and
    _add_product), and ('panel', shape) for each panel elimination.  The
    total counts every product, the merges after a panel elimination and
    every _mul_arrays call included."""
    steps = []
    count = [0, 0]        # products this round, all products
    real_round, real_panel = linalg._pivot_round, linalg._panel_echelon

    def counting(real):
        def counted(*args):
            count[0] += 1
            count[1] += 1
            return real(*args)
        return counted

    def pivot_round(A, first, u, P, q):
        count[0] = 0
        got = real_round(A, first, u, P, q)
        steps.append(("round", int(u.size), count[0]))
        return got

    def panel(R, q):
        steps.append(("panel", R.shape))
        return real_panel(R, q)

    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_pivot_round", pivot_round)
        patched.setattr(linalg, "_panel_echelon", panel)
        for name in ("_product", "_add_product", "_mul_arrays"):
            patched.setattr(linalg, name, counting(getattr(linalg, name)))
        R, piv = _echelon(data, p)
    return R, piv, steps, count[1]


def _rounds_run(p: int, data) -> bool:
    """Whether _echelon may reduce data by pivot rounds at p: their float64
    sums are exact for (nonzero columns + 1) * (p-1)^2 < 2^52, so at
    p = 2^31 - 1 the panel elimination always takes the nonzero block."""
    return (_nonzero_shape(data)[1] + 1) * (p - 1) ** 2 < 2 ** 52


def _nonzero_shape(data) -> tuple:
    nz = np.asarray(data) != 0
    return (int(nz.any(axis=1).sum()), int(nz.any(axis=0).sum()))


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
    """Structured sparse matrices of private and coupled rows through the
    pivot rounds, and matrices under _SMALL_CELLS through the Python-int
    echelon: the RREF against the pure-Python oracle, and every echelon
    consumer against the panel elimination alone.  A matrix of private
    rows only is reduced by one round with no product, except at
    p = 2^31 - 1, where the panel elimination takes every matrix."""
    f = Field(p)
    rng = np.random.default_rng(p % 1009)
    mixed = [_structured_sparse(p, rng, n_private, n_coupled)
             for n_private, n_coupled in [(12, 10), (30, 3), (5, 30)]]
    for data in mixed:
        _, _, steps, _ = _reduction_steps(data, p, monkeypatch)
        assert data.size > _SMALL_CELLS
        assert steps[0][0] == ("round" if _rounds_run(p, data) else "panel")
    only_private = _structured_sparse(p, rng, 20, 0)
    _, _, steps, products = _reduction_steps(only_private, p, monkeypatch)
    if _rounds_run(p, only_private):
        assert steps == [("round", 20, 0)] and products == 0
    else:
        assert steps == [("panel", _nonzero_shape(only_private))]
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
    per row and per column: its 27 nonzero rows lead at 27 distinct
    columns and share no column, so one pivot round reduces it with no
    product, and no panel elimination is made."""
    R4 = ring_type_three()
    d3 = minimal_free_resolution(residue_field_module(R4), 3).arrow(3).mat
    assert d3.shape == (36, 108) and d3.size > _SMALL_CELLS
    R, piv, steps, products = _reduction_steps(d3, R4.field.p, monkeypatch)
    assert steps == [("round", 27, 0)] and products == 0
    assert len(piv) == 27 and rank(Mat(R4.field, d3)) == 27
    want, want_piv = naive_rref(d3.tolist(), R4.field.p)
    assert piv == want_piv and R.tolist() == want


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
    """A matrix whose nonzero rows all lead at one column takes no pivot
    round (one distinct leading column is fewer than _FL_MIN_PIVOTS), and
    reaches the panel elimination without its zero rows and columns."""
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
    rounds = []
    monkeypatch.setattr(linalg, "_pivot_round", lambda *args: rounds.append(args))
    for data in (padded, block):
        shapes.clear()
        leads = (data != 0).argmax(axis=1)[(data != 0).any(axis=1)]
        assert leads.size == 20 and np.unique(leads).size == 1
        assert data.size > _SMALL_CELLS
        R, piv = _echelon(data, p)
        assert shapes == [(20, 20)] and rounds == []
        want, want_piv = naive_rref(data.tolist(), p)
        assert len(piv) == 19 and piv == want_piv and R.tolist() == want


@pytest.mark.parametrize("p", [3, 65521])
def test_echelon_never_writes_its_input(p, monkeypatch):
    """The pivot rounds only read their input and the whole-matrix panel
    path works on a copy, so a read-only input passes both unchanged.  The
    dense input takes the panel path (every row leads at column 0), the
    structured one starts with a round."""
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
    assert _reduction_steps(dense, p, monkeypatch)[2] == [("panel", (20, 20))]
    assert _reduction_steps(split, p, monkeypatch)[2][0][0] == "round"


# -- pivot rounds ---------------------------------------------------------------


def _lead_block(p, rng, leads, cols, cross):
    """Rows leading at the given columns (ascending), each with a random
    leading entry and random entries after it at density 0.3; with cross,
    row i also has an entry at the next row's leading column, so the rows'
    block on their leading columns is a chain of length len(leads) - 1;
    without it, no row has an entry at another row's leading column."""
    k = len(leads)
    data = np.zeros((k, cols), dtype=np.int64)
    lead_cols = np.zeros(cols, dtype=bool)
    lead_cols[leads] = True
    for i, c in enumerate(leads):
        data[i, c] = rng.integers(1, p)
        tail = np.arange(c + 1, cols)
        tail = tail[~lead_cols[tail] & (rng.random(tail.size) < 0.3)]
        data[i, tail] = rng.integers(1, p, size=tail.size)
        if cross and i + 1 < k:
            data[i, leads[i + 1]] = rng.integers(1, p)
    return data


def _combinations(p, rng, basis, count):
    """count random combinations of the rows of basis, mod p (Python ints)."""
    coeff = rng.integers(0, p, size=(count, basis.shape[0]))
    return (coeff.astype(object) @ basis.astype(object) % p).astype(np.int64)


def _cokernel_rows(p, rng, gens, rels):
    """The matrix that presentation_to_module's cokernel reduces over
    k[x,y,z]/(x^3, y^3, z^3) (d = 27, the T27 ring of the hom-tensor
    benchmark) at p: rows x^nu * f_t for the 27 monomials nu and rels
    random relations f_t in m * R^gens, (rels * 27, gens * 27)."""
    R = algebra_from_monomial_quotient(Field(p), ["x", "y", "z"], ["x^3", "y^3", "z^3"])
    d = R.dim
    coeffs = rng.integers(0, p, size=(gens * rels, d)) * (rng.random((gens * rels, d)) < 0.3)
    coeffs[:, 0] = 0                      # no unit entry: the relations lie in m
    blocks = _mul_arrays(coeffs, R.left_mult.reshape(d, d * d), p)
    mat = blocks.reshape(gens, rels, d, d).transpose(0, 2, 1, 3).reshape(gens * d, rels * d)
    return np.ascontiguousarray(mat.T)


def _round_cases(p, rng):
    """(name, matrix, check of its steps) for each kind of input the pivot
    rounds must handle; every matrix has more than _SMALL_CELLS cells."""
    cases = []
    # distinct leads, no cross entries: one round, no product
    leads = np.sort(rng.permutation(70)[:24])
    private = _lead_block(p, rng, leads, 70, cross=False)[rng.permutation(24)]
    cases.append(("private", private, lambda s, n: s == [("round", 24, 0)] and n == 0))
    # distinct leads whose block T is a chain of 39: T^-1 by doubling
    leads = np.sort(rng.permutation(60)[:40])
    deep = _lead_block(p, rng, leads, 60, cross=True)[rng.permutation(40)]
    cases.append(("deep T", deep, lambda s, n: s[0][:2] == ("round", 40) and s[0][2] >= 12))
    # every row leads at column 0: the panel elimination takes it whole
    shared = rng.integers(0, p, size=(60, 40))
    shared[:, 0] = rng.integers(1, p, size=60)
    cases.append(("one lead", shared, lambda s, n: s == [("panel", (60, 40))]))
    # a round of 12, then a dense Schur complement for the panel elimination
    top = _lead_block(p, rng, np.arange(12), 40, cross=True)
    dense = rng.integers(0, p, size=(50, 40))
    dense[:, 0] = rng.integers(1, p, size=50)
    mixed = np.concatenate([top, dense])[rng.permutation(62)]
    cases.append(("round then panel", mixed,
                  lambda s, n: s[0][:2] == ("round", 12) and s[1][0] == "panel"))
    # zero and repeated rows: the repeats vanish in the Schur complement
    rep = np.concatenate([deep, np.zeros((5, 60), dtype=np.int64), deep[:10],
                          (3 * deep[10:20]) % p])[rng.permutation(65)]
    cases.append(("zero and repeated rows", rep, lambda s, n: s[0][:2] == ("round", 40)))
    # tall: 20 leading rows and 280 combinations of them, one round
    basis = _lead_block(p, rng, np.arange(20), 20, cross=True)
    tall = np.concatenate([basis, _combinations(p, rng, basis, 280)])[rng.permutation(300)]
    cases.append(("tall", tall, lambda s, n: s[0][:2] == ("round", 20) and len(s) == 1))
    cases.append(("tall dense", rng.integers(1, p, size=(300, 20)),
                  lambda s, n: s == [("panel", (300, 20))]))
    # wide: 12 rows with distinct leads, one round; dense, the panel
    leads = np.sort(rng.permutation(300)[:12])
    wide = _lead_block(p, rng, leads, 300, cross=True)[rng.permutation(12)]
    cases.append(("wide", wide, lambda s, n: s[0][:2] == ("round", 12) and len(s) == 1))
    cases.append(("wide dense", rng.integers(1, p, size=(12, 300)),
                  lambda s, n: s == [("panel", (12, 300))]))
    # T27-style cokernels x^nu * f_t, the hom-tensor benchmark's shapes
    for gens, rels in [(2, 3), (2, 4), (1, 2)]:
        coker = _cokernel_rows(p, rng, gens, rels)
        cases.append((f"cokernel {coker.shape}", coker, lambda s, n: s[0][0] == "round"))
    if p == 2 ** 31 - 1:
        # no float64 round is exact here: one panel elimination of the
        # nonzero block, whatever the input
        cases = [(name, data, lambda s, n, shape=_nonzero_shape(data): s == [("panel", shape)])
                 for name, data, _ in cases]
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2 ** 31 - 1])
def test_pivot_rounds_match_naive_and_panel(p, monkeypatch):
    """Each kind of input through the pivot rounds: the steps it takes,
    the RREF and pivots against the pure-Python oracle and against the
    panel elimination alone, dtype and shape, and a read-only input left
    unwritten."""
    rng = np.random.default_rng(p % 983)
    for name, data, steps_ok in _round_cases(p, rng):
        assert data.size > _SMALL_CELLS, name
        frozen = data.copy()
        frozen.setflags(write=False)
        R, piv, steps, products = _reduction_steps(frozen, p, monkeypatch)
        assert steps_ok(steps, products), (name, steps, products)
        assert np.array_equal(frozen, data), name
        want, want_piv = naive_rref(data.tolist(), p)
        assert piv == want_piv and R.tolist() == want, name
        panel, panel_piv = _panel_echelon(data.copy(), p)
        assert R.dtype == np.int64 and R.shape == data.shape
        assert piv == panel_piv and np.array_equal(R, panel), name


def test_float_rounds_are_exact_up_to_their_bound(monkeypatch):
    """The rounds run in float64 only when (columns + 1) * (p-1)^2 < 2^52.
    At p = 2^24 - 3 that allows 15 columns; with entries p - 1 and a deep
    chain, the sums of every product reach the bound's order, and the RREF
    still equals the oracle's on 15 columns (rounds); on 16 the panel
    elimination takes the matrix whole."""
    p = 2 ** 24 - 3
    assert linalg._is_prime(p)
    assert 16 * (p - 1) ** 2 < 2 ** 52 <= 17 * (p - 1) ** 2
    rng = np.random.default_rng(5)
    for cols in (15, 16):
        data = _lead_block(p, rng, np.arange(cols), cols, cross=True)
        data[data != 0] = p - 1
        data = np.concatenate([data, (2 * data[:5]) % p, np.full((4, cols), p - 1)])
        data = data[rng.permutation(data.shape[0])]
        assert data.size > _SMALL_CELLS
        R, piv, steps, products = _reduction_steps(data, p, monkeypatch)
        if cols == 15:
            assert steps[0][0] == "round" and products
        else:
            assert steps == [("panel", data.shape)]
        want, want_piv = naive_rref(data.tolist(), p)
        assert piv == want_piv and R.tolist() == want


def test_echelon_has_no_selection_knob():
    """The path is chosen from the input alone: _echelon takes the array
    and p, and linalg reads no environment variable."""
    assert list(inspect.signature(_echelon).parameters) == ["arr", "p"]
    source = inspect.getsource(linalg)
    assert "environ" not in source and "getenv" not in source


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
