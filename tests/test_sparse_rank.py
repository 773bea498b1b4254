"""Ranks from coordinates, and the cell budget.

`_echelon`'s pivot rounds are checked against the panel elimination alone
on random sparse matrices and on the edge shapes.  `_sparse_rank` is checked against the dense rank on
random coordinates with repeated and cancelling positions.  The induced
differentials of Ext and Tor are ranked from coordinates when N, or the
base of the power N, acts by partial permutations: the coordinates are
checked entry for entry against the dense block matrix, and their rank
against its rank, over the corpus rings, T27 and a ring over GF(2^31 - 1).
`homology_dim` and `exactness_profile` rank an induced complex's
unrealised differentials the same way, without realising them.
Arrays past the cell budget are refused with an InputError naming the
shape, and the CLI exits 2.
"""

import numpy as np
import pytest

from semidual import complexes, linalg
from semidual import modules as mo
from semidual.algebra import algebra_from_monomial_quotient
from semidual.cli import main
from semidual.complexes import (_differential_rank, ext_dims, minimal_free_resolution,
                                tor_dims)
from semidual.corpus import corpus_rings, data_path, random_module_pool, ring_type_three
from semidual.errors import InputError
from semidual.linalg import _SMALL_CELLS, Field, Mat, _echelon, _panel_echelon, _sparse_rank, rank

PRIMES = [2, 3, 5, 65521, 2 ** 31 - 1]


@pytest.fixture(autouse=True)
def _cold():
    mo.clear_caches()
    yield
    mo.clear_caches()


def _same_as_panel(A, p):
    got_R, got_piv = _echelon(A, p)
    want_R, want_piv = _panel_echelon(A.copy(), p)
    assert got_R.dtype == want_R.dtype == np.int64
    assert got_R.shape == want_R.shape == A.shape
    assert got_piv == want_piv
    assert np.array_equal(got_R, want_R)


# -- the pivot rounds in _echelon against the panel elimination ------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_coordinate_echelon_equals_the_panel_elimination(p):
    rng = np.random.default_rng(p % 997)
    for rows, cols in [(40, 60), (100, 30), (17, 200), (300, 300)]:
        for density in (0.01, 0.03, 0.1, 0.3):
            A = rng.integers(1, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
            assert A.size > _SMALL_CELLS
            _same_as_panel(A, p)
    coupled = rng.integers(1, p, size=(30, 30))         # every row shares every column
    coupled[-1] = (coupled[0] + coupled[1]) % p
    edge = [np.zeros((40, 50), dtype=np.int64),         # all zero
            np.zeros((0, 400), dtype=np.int64), np.zeros((400, 0), dtype=np.int64),
            rng.integers(0, p, size=(1, 400)),          # one row
            coupled]
    for A in edge:
        _same_as_panel(A, p)


def test_all_zero_input_reaches_no_elimination(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "_panel_echelon", lambda R, p: calls.append(R.shape))
    R, piv = _echelon(np.zeros((729, 324), dtype=np.int64), 5)
    assert piv == [] and R.shape == (729, 324) and not R.any() and calls == []


# -- _sparse_rank ------------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_sparse_rank_sums_repeats_and_matches_the_dense_rank(p):
    f = Field(p)
    rng = np.random.default_rng(p % 991)
    for m, n, nnz in [(30, 40, 25), (60, 20, 200), (200, 150, 300), (1, 50, 30)]:
        rows = rng.integers(0, m, size=nnz)
        cols = rng.integers(0, n, size=nnz)
        vals = rng.integers(0, p, size=nnz)
        # repeat some positions, half of them with the negated value
        rep = rng.integers(0, nnz, size=nnz // 3)
        neg = rng.random(rep.size) < 0.5
        rows = np.concatenate([rows, rows[rep]])
        cols = np.concatenate([cols, cols[rep]])
        vals = np.concatenate([vals, np.where(neg, (p - vals[rep]) % p, vals[rep])])
        dense = np.zeros((m, n), dtype=object)
        for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            dense[r, c] += v
        dense = (dense % p).astype(np.int64)
        assert _sparse_rank(f, (m, n), rows, cols, vals) == rank(Mat(f, dense))
    empty = np.zeros(0, dtype=np.int64)
    assert _sparse_rank(f, (5, 7), empty, empty, empty) == 0
    one = np.array([2]), np.array([3])
    assert _sparse_rank(f, (5, 7), *one, np.array([1])) == 1
    cancel = np.array([2, 2]), np.array([3, 3]), np.array([1, p - 1])
    assert _sparse_rank(f, (5, 7), *cancel) == 0


def test_sparse_rank_densifies_only_the_coupled_rows(monkeypatch):
    """Private rows are counted, not reduced: only the coupled rows, on the
    columns they touch, reach `rank`."""
    f = Field(7)
    rows = np.array([0, 1, 1, 2, 3, 3, 4])
    cols = np.array([5, 0, 1, 1, 2, 6, 9])
    vals = np.array([3, 1, 2, 4, 5, 6, 1])
    shapes = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda a: shapes.append(a.data.shape) or real(a))
    # rows 1 and 2 share column 1; rows 0, 3 and 4 are private
    assert _sparse_rank(f, (6, 10), rows, cols, vals) == 5
    assert shapes == [(2, 2)]


# -- induced differentials from coordinates -----------------------------------------


def _dense_from_coords(coords, shape, p):
    out = np.zeros(shape, dtype=object)
    rows, cols, vals = coords
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out[r, c] += v
    return (out % p).astype(np.int64)


def _rings():
    rings = dict(corpus_rings())
    rings["T27"] = algebra_from_monomial_quotient(
        Field(3), ["x", "y", "z"], ["x^3", "y^3", "z^3"], name="T27")
    rings["Rbig"] = algebra_from_monomial_quotient(
        Field(2 ** 31 - 1), ["x", "y"], ["x^2", "y^3"], name="Rbig")
    return rings


def _non_permutation_module(ring):
    """The regular module in the basis of a unipotent upper triangular
    change of basis, whose action is no longer a 0/1 partial permutation."""
    p = ring.field.p
    d = ring.dim
    rng = np.random.default_rng(d)
    P = np.triu(rng.integers(0, p, size=(d, d)), 1) + np.eye(d, dtype=np.int64)
    P_inv = linalg.rref(Mat(ring.field, np.hstack([P, np.eye(d, dtype=np.int64)])))[0].data[:, d:]
    act = np.stack([P_inv.astype(object) @ a.astype(object) @ P.astype(object) % p
                    for a in mo.regular_module(ring).action]).astype(np.int64)
    return mo.Module(ring, act, label="R'")


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4", "T27", "Rbig"])
def test_differential_coordinates_match_the_dense_block_matrix(name):
    ring = _rings()[name]
    p = ring.field.p
    k = mo.residue_field_module(ring)
    D = mo.dualizing_module(ring)
    R = mo.regular_module(ring)
    other = _non_permutation_module(ring)
    depth = 2 if name == "T27" else 3
    sources = [k, D] + random_module_pool(ring, 2, max_dim=6)
    targets = [k, D, R, mo.power_module(R, 2), mo.power_module(D, 2), other]
    assert other.partial_permutation() is None
    for M in sources:
        res = minimal_free_resolution(M, depth)
        for N in targets:
            for j in range(1, depth + 1):
                ent = res.entries[j]
                for contravariant in (True, False):
                    dense = mo.realise(N.action, ent.coefficients(), contravariant, p)
                    want = rank(Mat._wrap(ring.field, dense))
                    assert _differential_rank(N, ent, contravariant) == want
                    coords = mo._entries_coords(N, ent, contravariant)
                    if N is other:
                        assert coords is None
                        continue
                    assert np.array_equal(_dense_from_coords(coords, dense.shape, p), dense)
                    assert _sparse_rank(ring.field, dense.shape, *coords) == want


def test_m_killed_targets_give_no_coordinates():
    """Minimal resolutions have entries in m, and m * k = 0: the induced
    differentials into powers of k have no coordinates and rank 0."""
    R4 = ring_type_three()
    k = mo.residue_field_module(R4)
    res = minimal_free_resolution(k, 4)
    for j in range(1, 5):
        for contravariant in (True, False):
            rows, cols, vals = mo._entries_coords(k, res.entries[j], contravariant)
            assert rows.size == cols.size == vals.size == 0
    assert ext_dims(k, k, 3) == tor_dims(k, k, 3) == [1, 3, 9, 27]


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4"])
def test_homology_dims_rank_unrealised_differentials_from_coordinates(name, monkeypatch):
    """homology_dim, and so exactness_profile, ranks each unrealised
    differential of an InducedComplex by _differential_rank and keeps the
    rank: over a partial-permutation N no block matrix is built and no
    arrow is realised (a guard on the realiser raises), and
    the homology dimensions equal those read off the realised, densely
    ranked arrows, with or without an augmentation.  An arrow realised
    after it was ranked takes the kept rank."""
    ring = corpus_rings()[name]
    k = mo.residue_field_module(ring)
    D = mo.dualizing_module(ring)
    R = mo.regular_module(ring)
    other = _non_permutation_module(ring)
    real = complexes.realise
    for M in [k, D] + random_module_pool(ring, 2, max_dim=6):
        res = minimal_free_resolution(M, 3)
        # the resolution itself (entries realised through R by cover_matrix)
        assert complexes.exactness_profile(res) == []
        # realising a ranked arrow hands it the kept rank, so it is not
        # ranked again
        for j, r in list(res._ranks.items()):
            arrow = res.arrow(j + 1)
            assert j not in res._ranks and arrow._rank == r
            assert r == rank(Mat._wrap(ring.field, arrow.mat))
        for N in (k, D, R, mo.power_module(D, 2), other):
            guarded = N is not other
            for contravariant in (True, False):
                def built(*args):
                    assert not guarded, "a partial-permutation N built a block matrix"
                    return real(*args)

                with monkeypatch.context() as patched:
                    patched.setattr(complexes, "realise", built)
                    cx = complexes.InducedComplex(N, res.betti, res.entries, contravariant)
                    got = [cx.homology_dim(n) for n in range(-1, cx.top + 2)]
                    assert complexes.exactness_profile(cx) == [n for n in range(cx.top)
                                                               if got[n + 1]]
                if guarded:
                    assert cx._arrows == [None] * cx.top
                dense = complexes.InducedComplex(N, res.betti, res.entries, contravariant)
                ranks = [f.rank() for f in dense.arrows]
                assert [cx._ranks[j] for j in range(cx.top)] == ranks
                assert got == [dense.homology_dim(n) for n in range(-1, cx.top + 2)]
    # an augmented complex, the minimal injective resolution of M over D:
    # the augmentation keeps its ModuleHom rank, the differentials are
    # ranked from coordinates, and the complex is exact
    for M in (k, R):
        ires = complexes.minimal_injective_resolution(M, 3)
        with monkeypatch.context() as patched:
            patched.setattr(complexes, "realise",
                            lambda *args: pytest.fail("realised a differential over D"))
            assert complexes.exactness_profile(ires) == []
        assert ires._arrows == [None] * ires.top


# -- the cell budget ------------------------------------------------------------------


def test_every_builder_refuses_arrays_past_the_budget(monkeypatch):
    R4 = ring_type_three()
    D = mo.dualizing_module(R4)
    F = mo.free_module(R4, 3)
    res = minimal_free_resolution(mo.residue_field_module(R4), 2)
    ent = res.entries[2]
    coeffs = ent.coefficients()
    monkeypatch.setattr(linalg, "_MAX_CELLS", 20)
    calls = [
        ("radical span", lambda: mo.radical_span(F)),
        ("cover matrix", lambda: mo.cover_matrix(F, np.eye(12, dtype=np.int64))),
        ("ring entries", lambda: ent.coefficients()),
        ("realised matrix", lambda: mo.realise(D.action, coeffs, True, 5)),
        ("coordinates", lambda: mo._entries_coords(mo.power_module(D, 9), ent, True)),
        ("matrix to reduce", lambda: _echelon(np.ones((30, 30), dtype=np.int64), 5)),
        ("coupled part", lambda: _sparse_rank(Field(5), (6, 6), np.repeat(np.arange(6), 6),
                                             np.tile(np.arange(6), 6),
                                             np.ones(36, dtype=np.int64))),
    ]
    for what, call in calls:
        with pytest.raises(InputError, match=r"shape \(\d+, \d+\)") as exc:
            call()
        assert what in str(exc.value) and "budget of 20 cells" in str(exc.value)


def test_products_and_kernel_bases_are_held_to_the_budget(monkeypatch, capsys):
    """A product or a kernel basis can be far larger than its input: an
    (n, 1) by (1, n) product has n^2 cells, and the kernel basis of a 1 x n
    row is n x (n - 1).  Past the budget each is refused with an InputError
    that names its shape, before numpy allocates it, and the CLI exits 2:
    with 200 cells the first array refused is the (16, 16) product of R4's
    associativity check."""
    monkeypatch.setattr(linalg, "_MAX_CELLS", 1000)
    col = np.ones((100, 1), dtype=np.int64)
    with pytest.raises(InputError, match=r"product of shape \(100, 100\) has 10000 cells"):
        linalg._mul_arrays(col, col.T, 5)
    with pytest.raises(InputError, match=r"product of shape \(3, 100, 100\)"):
        linalg._mul_arrays(col, np.ones((3, 1, 100), dtype=np.int64), 5)
    with pytest.raises(InputError, match=r"kernel basis of shape \(100, 99\) has 9900 cells"):
        linalg.kernel_basis(Mat(Field(5), col.T))
    assert linalg._mul_arrays(col[:30], col[:30].T, 5).shape == (30, 30)
    assert linalg.kernel_basis(Mat(Field(5), col[:30].T)).data.shape == (30, 29)
    monkeypatch.setattr(linalg, "_MAX_CELLS", 200)
    capsys.readouterr()
    rc = main(["ext", data_path("R4.session"), "--from", "M", "--to", "M", "--bound", "3"])
    assert rc == 2
    assert "product of shape (16, 16) has 256 cells" in capsys.readouterr().err


def test_cli_exits_2_past_the_budget(monkeypatch, capsys):
    monkeypatch.setattr(linalg, "_MAX_CELLS", 2 ** 12)
    rc = main(["ext", data_path("R4.session"), "--from", "k", "--to", "D", "--bound", "7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "of shape (" in err and "over the budget of 4096 cells" in err
    monkeypatch.undo()
    mo.clear_caches()
    assert main(["ext", data_path("R4.session"), "--from", "k", "--to", "D",
                 "--bound", "4", "--json"]) == 0


def test_store_ranks_through_the_coordinate_path(monkeypatch):
    """Ext into D over R4 ranks every differential from coordinates: D
    acts by partial permutations, so no dense block matrix is built."""
    R4 = ring_type_three()
    k = mo.residue_field_module(R4)
    D = mo.dualizing_module(R4)
    built = []
    real = complexes.realise
    monkeypatch.setattr(complexes, "realise",
                        lambda act, coeffs, c, p: built.append(coeffs.shape)
                        or real(act, coeffs, c, p))
    assert ext_dims(k, D, 4) == [1, 0, 0, 0, 0]
    assert built == []
