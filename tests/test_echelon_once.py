"""One reduction per subspace, and the transposed panel elimination.

`_echelon` is checked against `_small_echelon`, the Python-int elimination,
at small and word-size primes, across several panels, with zero rows and
columns, and on the cokernel matrices of the benchmark's T27 session
modules.  Sections of kernel bases are a row selection; they are checked
bit for bit against `expressor`.  The computed presentation
(`_computed_presentation`, for modules built without one) reads its section
and its kernel basis off one echelon; it is checked against the route that
solved for the section and reduced the cover again.  The call counts pin
one reduction per computed presentation, kernel and Hom build, and none for
a session cokernel, which keeps the presentation it was built from.
"""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from semidual import linalg
from semidual import modules as mo
from semidual.algebra import algebra_from_monomial_quotient
from semidual.corpus import corpus_sessions, random_module_pool
from semidual.linalg import (Field, Mat, _echelon, _panel_echelon, _small_echelon,
                             expressor, kernel_basis, solve)
from semidual.sessions import parse_session_text

PRIMES = [2, 3, 5, 65521, 2 ** 31 - 1]


@pytest.fixture(autouse=True)
def _cold():
    mo.clear_caches()
    yield
    mo.clear_caches()


def _exact_product(a, b, p):
    """a @ b mod p over Python ints, independent of the product tiers."""
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


def _random_matrix(rng, p, rows, cols, rank):
    """rows x cols of rank at most `rank`, with some rows and columns zeroed."""
    A = _exact_product(rng.integers(0, p, (rows, rank)), rng.integers(0, p, (rank, cols)), p)
    A[rng.random(rows) < 0.15] = 0
    A[:, rng.random(cols) < 0.15] = 0
    return A


def _t27_session():
    """The T27 session of the hom-tensor benchmark workload at seed 11."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    text, _ = workloads.session_text(workloads.Ring("T27"),
                                     random.Random("hom-tensor:11"), extra_free=2)
    return parse_session_text(text)


def _t27_cokernels(monkeypatch):
    """The four T27 session modules and the matrix each cokernel reduces."""
    session = _t27_session()
    seen = []
    real = mo.subquotient

    def record(ambient, K, into, label):
        assert K is None
        seen.append(np.array(into).T)
        return real(ambient, K, into, label)

    mods = []
    with monkeypatch.context() as m:
        m.setattr(mo, "subquotient", record)
        for name in ("M3", "M9", "M6", "M12"):
            mods.append(session.module(name))
    return session.ring(), mods, seen


# -- the panel elimination against the Python-int oracle --------------------------


def _same_echelon(A, p):
    want_R, want_piv = _small_echelon(A, p)
    for got_R, got_piv in (_echelon(A, p), _panel_echelon(A.copy(), p)):
        assert got_piv == want_piv
        assert got_R.shape == want_R.shape and np.array_equal(got_R, want_R)


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_matches_the_python_int_oracle(p):
    rng = np.random.default_rng(p % 1000)
    shapes = [(20, 40), (40, 64), (64, 30), (60, 140), (130, 70)]
    for rows, cols in shapes:
        for rank in (1, min(rows, cols) // 2, min(rows, cols)):
            A = _random_matrix(rng, p, rows, cols, rank)
            before = A.copy()
            _same_echelon(A, p)
            assert np.array_equal(A, before), "the input was written"
        # full rank with no zero row or column, dense
        _same_echelon(rng.integers(1, p, (rows, cols)), p)
        # a pivot row far below the top, every other row a multiple of it
        A = np.zeros((rows, cols), dtype=np.int64)
        A[-1] = rng.integers(0, p, cols)
        A[:-1] = _exact_product(rng.integers(0, p, (rows - 1, 1)), A[-1:], p)
        _same_echelon(A, p)


def test_echelon_edge_shapes():
    for p in PRIMES:
        for shape in [(0, 0), (0, 300), (300, 0), (1, 300), (300, 1), (17, 17)]:
            _same_echelon(np.zeros(shape, dtype=np.int64), p)
        _same_echelon(np.eye(100, dtype=np.int64)[::-1].copy(), p)


def test_echelon_on_the_t27_session_cokernels(monkeypatch):
    _, _, mats = _t27_cokernels(monkeypatch)
    assert sorted(m.shape for m in mats) == [(27, 27), (54, 27), (81, 54), (108, 54)]
    for A in mats:
        _same_echelon(A, 3)


# -- kernel-form sections --------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_section_is_the_expressor(p):
    # over k = k[x]/(x) every subspace is a submodule
    R = algebra_from_monomial_quotient(Field(p), ["x"], ["x"])
    rng = np.random.default_rng(7 + p % 1000)
    for rows, cols, rank in [(5, 9, 3), (30, 80, 20), (70, 130, 40), (40, 40, 40), (3, 50, 1)]:
        A = Mat(R.field, _random_matrix(rng, p, rows, cols, rank))
        K = kernel_basis(A).data
        ambient = mo.Module(R, np.eye(cols, dtype=np.int64)[None], check=False)
        sq = mo.subquotient(ambient, K, None, "ker")
        want = expressor(Mat(R.field, K)).data if K.shape[1] else np.zeros((0, cols))
        assert sq.reduce.shape == want.shape and np.array_equal(sq.reduce, want)
        assert np.array_equal(sq.carrier.action,
                              np.eye(K.shape[1], dtype=np.int64)[None])


def test_kernel_and_homology_sections_are_the_expressor():
    from semidual.complexes import homology_data, minimal_free_resolution
    compared = 0
    for session in corpus_sessions().values():
        R = session.ring()
        for M in [session.module(m) for m in session.modules] + random_module_pool(R, 3, 8):
            X = minimal_free_resolution(M, 2)
            for i in range(X.top + 1):
                f = X.arrow(i)
                sq = mo.kernel(f)
                K = kernel_basis(f.matrix()).data
                if K.shape[1]:
                    assert np.array_equal(sq.reduce, expressor(Mat(R.field, K)).data)
                    compared += 1
            # represent and reduce invert each other on the homology
            carrier, represent, reduce_ = homology_data(X, 1)
            p = R.field.p
            assert np.array_equal(linalg._mul_arrays(reduce_, represent, p),
                                  np.eye(carrier.dim, dtype=np.int64))
    assert compared > 40


# -- one echelon per presentation ----------------------------------------------------


def _two_reduction_presentation(M):
    """The presentation as it was computed before: solve(cover, I) for the
    section, then kernel_basis(cover) for the relations."""
    field = M.ring.field
    gens = mo.minimal_generators(M)
    cover = Mat(field, mo.cover_matrix(M, gens))
    sec = solve(cover, Mat(field, np.eye(M.dim, dtype=np.int64)))
    return gens, mo._staircase(M.ring, kernel_basis(cover).data), sec.data


def test_presentation_matches_the_two_reduction_route(monkeypatch):
    cases = []
    for session in corpus_sessions().values():
        R = session.ring()
        cases += [session.module(m) for m in session.modules]
        cases += random_module_pool(R, 4, max_dim=8)
        cases.append(mo.radical_submodule(R))
    T27, t27_mods, _ = _t27_cokernels(monkeypatch)
    cases += t27_mods + [mo.residue_field_module(T27), mo.radical_submodule(T27)]
    for M in cases:
        got = mo._computed_presentation(M)
        want = _two_reduction_presentation(M)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b), M.label


# -- call counts -----------------------------------------------------------------


def _count_echelons(monkeypatch):
    calls = []
    real = linalg._echelon

    def counted(arr, p):
        calls.append(arr.shape)
        return real(arr, p)

    monkeypatch.setattr(linalg, "_echelon", counted)
    return calls


def _corpus_module():
    session = corpus_sessions()["R1"]
    return session.module("M"), session.module("k")


def test_one_reduction_per_presentation(monkeypatch):
    M, _ = _corpus_module()
    mo.minimal_generators(M)              # the Nakayama step reduces on its own
    calls = _count_echelons(monkeypatch)
    mo._computed_presentation(M)
    assert len(calls) == 1


def test_no_reduction_for_a_recorded_presentation(monkeypatch):
    M, k = _corpus_module()
    R = mo.regular_module(M.ring)
    calls = _count_echelons(monkeypatch)
    for X in (M, k, R):
        assert X._pres is not None, X.label
        assert mo.presentation(X) is X._pres
        assert mo.minimal_generators(X) is X._pres[0]
    assert calls == []


def test_one_reduction_per_kernel(monkeypatch):
    M, _ = _corpus_module()
    gens = mo.minimal_generators(M)
    F = mo.free_module(M.ring, gens.shape[1])
    cover = mo.ModuleHom(F, M, mo.cover_matrix(M, gens), check=False)
    calls = _count_echelons(monkeypatch)
    sq = mo.kernel(cover)
    assert len(calls) == 1 and sq.carrier.dim == F.dim - M.dim


def test_one_reduction_per_presented_hom(monkeypatch):
    M, k = _corpus_module()
    mo.presentation(M)
    calls = _count_echelons(monkeypatch)
    hs = mo.hom_space(M, k)
    assert isinstance(hs, mo._PresentedHom) and hs._K is not None
    assert len(calls) == 1
