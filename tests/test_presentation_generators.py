"""Presentations by generators: staircase relations, variable-generated
Nakayama and the monomial radical.

Over a monomial quotient the computed presentation (`_computed_presentation`,
the route of every module built without a recorded one) keeps only the
kernel columns at minimal free positions, `radical_span` and `nakayama_generators` use the
variables instead of a basis of the radical, and `radical` reads the maximal
ideal off the monomials.  Each is checked here against the full-basis route
it replaces: the same R-span, the same RREF, and bit-identical Hom and
tensor carriers.  Algebras given by structure constants alone keep the full
route.
"""

import numpy as np
import pytest

from semidual import modules as mo
from semidual.algebra import (algebra_from_monomial_quotient,
                              algebra_from_structure_constants, radical,
                              radical_generators)
from semidual.complexes import (ext_abs, minimal_free_resolution, syzygy, tor_abs)
from semidual.corpus import corpus_sessions, random_module_pool
from semidual.linalg import Field, Mat, _mul_arrays, extend_basis, kernel_basis, rref, solve


@pytest.fixture(autouse=True)
def _cold():
    mo.clear_caches()
    yield
    mo.clear_caches()


def _t27():
    return algebra_from_monomial_quotient(Field(3), ["x", "y", "z"],
                                          ["x^3", "y^3", "z^3"], name="T27")


def _linear_cokernel(R, seed, n, m):
    """Cokernel of an n x m matrix of random linear forms plus random terms
    of degree >= 2, the shape of the benchmark's T27 modules."""
    rng = np.random.default_rng(seed)
    p = R.field.p
    deg = np.array([sum(e) for e in R.monomial_data.basis_exponents])
    entries = [[np.where(deg >= 1, rng.integers(0, p, size=R.dim), 0) for _ in range(m)]
               for _ in range(n)]
    return mo.presentation_to_module(R, n, m, entries)[0]


def _modules():
    """(ring name, module) over every corpus ring and a T27 ring: the session
    modules, a random pool, the maximal ideal and a power."""
    out = []
    for name, session in corpus_sessions().items():
        ring = session.ring()
        mods = [session.module(m) for m in session.modules]
        mods += random_module_pool(ring, 4, max_dim=8)
        mods += [mo.radical_submodule(ring), mo.power_module(mods[-1], 2)]
        out += [(name, M) for M in mods]
    T = _t27()
    mods = [mo.residue_field_module(T), mo.dualizing_module(T), mo.radical_submodule(T),
            _linear_cokernel(T, 1, 1, 2), _linear_cokernel(T, 2, 2, 3)]
    mods += random_module_pool(T, 2, max_dim=30)
    out += [("T27", M) for M in mods]
    return out


def _row_space(cols, field):
    """RREF of the column span, as rows; equal spans give equal arrays."""
    red, piv = rref(Mat(field, cols.T))
    return red.data[: len(piv)]


def _full_presentation(M):
    """(gens, rel, sec) with rel the whole kernel basis of the cover."""
    field = M.ring.field
    gens = mo.minimal_generators(M)
    cover = Mat(field, mo.cover_matrix(M, gens))
    sec = solve(cover, Mat(field, np.eye(M.dim, dtype=np.int64)))
    return gens, kernel_basis(cover).data, sec.data


def _full_radical_span(M, cols):
    """m * span(cols) from every radical basis vector, one at a time."""
    rad, p = radical(M.ring), M.ring.field.p
    blocks = [_mul_arrays(M.element_matrix(rad.data[:, t]), cols, p) for t in range(rad.cols)]
    return np.hstack(blocks) if blocks else np.zeros((M.dim, 0), dtype=np.int64)


# -- the monomial tables ----------------------------------------------------------


def test_divisor_table_and_variables_match_the_exponents():
    rings = [s.ring() for s in corpus_sessions().values()] + [_t27()]
    rings.append(algebra_from_monomial_quotient(Field(2), ["x", "y"], ["x", "y^3"]))
    for R in rings:
        data = R.monomial_data
        n = len(data.variables)
        for i, e in enumerate(data.basis_exponents):
            for v in range(n):
                q = tuple(a - (u == v) for u, a in enumerate(e))
                want = data.index[q] if e[v] > 0 else -1
                assert data.divisors[i, v] == want, (R.name, e, v)
        unit_rows = [tuple(int(u == v) for u in range(n)) for v in range(n)]
        want = [data.index[e] for e in unit_rows if e in data.index]
        assert np.array_equal(data.variable_columns, np.eye(R.dim, dtype=np.int64)[:, want])
        assert not data.divisors.flags.writeable
        assert not data.variable_columns.flags.writeable


def test_monomial_radical_is_the_frobenius_kernel():
    rings = [s.ring() for s in corpus_sessions().values()] + [_t27()]
    for R in rings:
        mono = radical(R).data
        mo.clear_caches()           # same fingerprint: do not serve the entry
        S = algebra_from_structure_constants(R.field, R.structure, R.unit, name="S")
        assert S.monomial_data is None
        assert np.array_equal(radical(S).data, mono), R.name
        assert np.array_equal(radical_generators(S), radical(S).data)
        mo.clear_caches()


def test_variables_generate_fewer_columns():
    sizes = {name: radical_generators(s.ring()).shape[1]
             for name, s in corpus_sessions().items()}
    assert sizes == {"R1": 2, "R2": 1, "R3": 2, "R4": 3}
    assert radical_generators(_t27()).shape[1] == 3
    assert radical(_t27()).cols == 26


# -- relations by staircase ---------------------------------------------------------


def test_staircase_relations_generate_the_whole_kernel():
    for name, M in _modules():
        gens, rel, _ = mo._computed_presentation(M)
        _, full, _ = _full_presentation(M)
        g, field = gens.shape[1], M.ring.field
        # the kept columns are some of the kernel basis columns, in order
        keep = [j for j in range(full.shape[1])
                if any(np.array_equal(full[:, j], rel[:, t]) for t in range(rel.shape[1]))]
        assert np.array_equal(full[:, keep], rel), (name, M.label)
        if full.shape[1] == 0:
            continue
        F = mo.free_module(M.ring, g)
        span = F.act_all(rel).transpose(1, 0, 2).reshape(F.dim, -1)
        assert np.array_equal(_row_space(span, field), _row_space(full, field)), \
            (name, M.label)


def test_staircase_is_small_on_t27():
    T = _t27()
    k = mo.residue_field_module(T)
    gens, rel, _ = mo.presentation(k)
    assert gens.shape[1] == 1 and rel.shape[1] == 3
    assert _full_presentation(k)[1].shape[1] == 26


@pytest.mark.parametrize("p", [2, 5, 2 ** 31 - 1])
def test_structure_constant_algebra_keeps_every_kernel_column(p):
    R = algebra_from_monomial_quotient(Field(p), ["x", "y"], ["x^2", "y^3"])
    S = algebra_from_structure_constants(R.field, R.structure, R.unit, name="S")
    entries = [[R.element_from_string("x + y^2")], [R.element_from_string("y")]]
    for ring in (R, S):
        mo.clear_caches()
        M = mo.presentation_to_module(ring, 2, 1, entries)[0]
        gens, rel, sec = mo._computed_presentation(M)
        _, full, full_sec = _full_presentation(M)
        if ring is S:
            assert np.array_equal(rel, full)
        else:
            assert rel.shape[1] < full.shape[1]
        assert np.array_equal(sec, full_sec)


# -- Hom and tensor carriers are the ones the full kernel gives ----------------------


def _build_both(monkeypatch, build):
    """build() once on the staircase presentation and once on the full
    kernel basis, from cold caches each time."""
    mo.clear_caches()
    got = build()
    mo.clear_caches()
    with monkeypatch.context() as m:
        m.setattr(mo, "presentation", _full_presentation)
        want = build()
    mo.clear_caches()
    return got, want


def _same(a, b):
    return (a is None and b is None) or (a is not None and b is not None
                                         and a.shape == b.shape and np.array_equal(a, b))


def test_hom_and_tensor_are_bit_identical_to_the_full_kernel(monkeypatch):
    by_ring = {}
    for name, M in _modules():
        if M.block is None:
            by_ring.setdefault(name, []).append(M)
    for name, mods in by_ring.items():
        pool = mods[:5] if name == "T27" else mods
        for M in pool:
            for N in pool:
                def hom():
                    hs = mo.hom_space(M, N)
                    return hs._K, hs._E, hs.module.action, hs.basis_mats()

                def tensor():
                    ts = mo.tensor_space(M, N)
                    Q = ts._Q if isinstance(ts, mo._PresentedTensor) else None
                    return Q, ts.module.action, ts.pure_matrix()

                for build in (hom, tensor):
                    got, want = _build_both(monkeypatch, build)
                    for a, b in zip(got, want):
                        assert _same(a, b), (name, build.__name__, M.label, N.label)


# -- Nakayama by the variables -----------------------------------------------------


def test_variable_span_has_the_full_radical_rref():
    for name, M in _modules():
        field = M.ring.field
        span = mo.radical_span(M)
        full = _full_radical_span(M, np.eye(M.dim, dtype=np.int64))
        assert np.array_equal(_row_space(span, field), _row_space(full, field)), \
            (name, M.label)
        # a submodule given by spanning columns, inside a power
        F = mo.free_module(M.ring, 2)
        K = F.act_all(np.arange(F.dim).reshape(-1, 1) % field.p)[:, :, 0].T
        sub = mo.radical_span(F, K)
        assert np.array_equal(_row_space(sub, field),
                              _row_space(_full_radical_span(F, K), field)), name


def _old_syzygy_generators(F, K):
    """The full-radical Nakayama step the resolutions used before."""
    field = F.ring.field
    W = _full_radical_span(F, K)
    red, piv = rref(Mat(field, W.T))
    have = Mat(field, red.data[: len(piv)].T)
    return K[:, extend_basis(have, Mat(field, K))]


def test_nakayama_generators_match_the_full_radical_route():
    for name, M in _modules():
        field = M.ring.field
        eye = np.eye(M.dim, dtype=np.int64)
        assert np.array_equal(mo.minimal_generators(M), _old_syzygy_generators(M, eye)), \
            (name, M.label)
        if M.dim == 0:
            continue
        # the first syzygy of M, as kernel columns inside a free module
        gens = mo.minimal_generators(M)
        F = mo.free_module(M.ring, gens.shape[1])
        K = kernel_basis(Mat(field, mo.cover_matrix(M, gens))).data
        assert np.array_equal(mo.nakayama_generators(F, K), _old_syzygy_generators(F, K)), \
            (name, M.label)


def test_resolution_steps_act_through_the_base(monkeypatch):
    """A resolution's Nakayama step never builds a power's block-diagonal
    action matrices."""
    T = _t27()
    k = mo.residue_field_module(T)

    def refuse(small, b):
        if b > 1:
            raise AssertionError("block-diagonal matrices built for a power")
        return orig(small, b)

    orig = mo._block_diagonal
    monkeypatch.setattr(mo, "_block_diagonal", refuse)
    res = minimal_free_resolution(k, 3)
    assert res.betti == [1, 3, 6, 10]


# -- pure matrices and labels --------------------------------------------------------


def test_pure_matrix_is_built_once_and_read_only():
    R = corpus_sessions()["R1"].ring()
    k, D = mo.residue_field_module(R), mo.dualizing_module(R)
    for M, N in [(k, D), (D, mo.free_module(R, 2)), (mo.power_module(D, 2), k),
                 (k, mo.power_module(D, 2))]:
        ts = mo.tensor_space(M, N)
        P = ts.pure_matrix()
        assert ts.pure_matrix() is P
        assert not P.flags.writeable
        with pytest.raises(ValueError):
            P[...] = 0


def test_labels_are_given_at_construction():
    session = corpus_sessions()["R1"]
    R = session.ring()
    k = mo.residue_field_module(R)
    M, _ = mo.presentation_to_module(R, 2, 1, [["x"], ["y"]])
    assert M.label == "coker(2x1)"
    res = minimal_free_resolution(k, 2)
    assert syzygy(res, 1).label == "syzygy_1"
    assert ext_abs(1, k, k).label == "Ext^1(k,k)"
    assert tor_abs(1, k, k).label == "Tor_1(k,k)"
