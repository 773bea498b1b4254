"""Presentations recorded at construction, and R's partial permutation read
off the ring.

Over a monomial quotient R, k and every cokernel whose entries lie in m keep
the presentation they were built from, so `presentation` reduces nothing for
them.  Each record is checked here against the computed route
(`_computed_presentation`, the Nakayama step and one echelon of
[cover | I]): the same generators bit for bit, a section of the same cover,
relations that span its kernel over R, and Hom and tensor carriers with the
same fingerprint with the module on either side.  Entries with a unit term
get no record.  The regular module's partial
permutation comes from the ring's product table; it is checked against the
one read off the action.
"""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from semidual import modules as mo
from semidual.algebra import algebra_from_monomial_quotient
from semidual.corpus import corpus_sessions, random_module_pool
from semidual.linalg import Field, Mat, _mul_arrays, kernel_basis, rref
from semidual.sessions import parse_session_text


@pytest.fixture(autouse=True)
def _cold():
    mo.clear_caches()
    yield
    mo.clear_caches()


def _t27_session():
    """The T27 session of the hom-tensor benchmark workload at a seed."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def session(seed):
        text, _ = workloads.session_text(workloads.Ring("T27"),
                                         random.Random(f"hom-tensor:{seed}"), extra_free=2)
        return parse_session_text(text)
    return session


def _t27():
    return algebra_from_monomial_quotient(Field(3), ["x", "y", "z"],
                                          ["x^3", "y^3", "z^3"], name="T27")


def _radical_cokernels(R, count, seed):
    """Random cokernels of n x m matrices whose entries have no unit term."""
    rng = np.random.default_rng(seed)
    p, d = R.field.p, R.dim
    out = []
    for _ in range(count):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        entries = rng.integers(0, p, (n, m, d))
        entries[:, :, 0] = 0
        out.append(mo.presentation_to_module(R, n, m, list(entries))[0])
    return out


def _cases():
    """(ring name, module) pairs: every corpus session module, a random pool
    and cokernels with entries in m over each corpus ring, and the T27
    session modules at two seeds."""
    out = []
    for name, session in corpus_sessions().items():
        R = session.ring()
        mods = [session.module(m) for m in session.modules]
        mods += random_module_pool(R, 6, max_dim=10) + _radical_cokernels(R, 6, len(out))
        out += [(name, M) for M in mods]
    t27 = _t27_session()
    for seed in (11, 2026):
        session = t27(seed)
        out += [(f"T27:{seed}", session.module(m)) for m in session.modules]
    return out


def _row_space(cols, field):
    red, piv = rref(Mat(field, cols.T))
    return red.data[: len(piv)]


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


# -- the records ---------------------------------------------------------------------


def test_records_are_presentations_with_the_nakayama_generators():
    recorded = {}
    for name, M in _cases():
        if M._pres is None:
            continue
        recorded[name] = recorded.get(name, 0) + 1
        mo.clear_caches()       # an equal module built before has its own entry
        assert mo.presentation(M) is M._pres
        gens, rel, sec = M._pres
        assert all(not a.flags.writeable for a in (gens, rel, sec))
        # the generators are the greedy Nakayama picks, bit for bit
        assert _same(gens, mo.nakayama_generators(M)), (name, M.label)
        R, p = M.ring, M.ring.field.p
        cover = mo.cover_matrix(M, gens)
        assert _same(_mul_arrays(cover, sec, p), np.eye(M.dim, dtype=np.int64)), (name, M.label)
        # rel lies in the kernel of the cover and spans it over R
        assert not _mul_arrays(cover, rel, p).any(), (name, M.label)
        F = mo.free_module(R, gens.shape[1])
        span = F.act_all(rel).transpose(1, 0, 2).reshape(F.dim, -1)
        K = kernel_basis(Mat(R.field, cover)).data
        assert _same(_row_space(span, R.field), _row_space(K, R.field)), (name, M.label)
    # each ring has recorded modules: the session cokernels and those of m
    assert set(recorded) == {"R1", "R2", "R3", "R4", "T27:11", "T27:2026"}


def test_free_and_residue_field_records_are_the_computed_presentation():
    rings = [s.ring() for s in corpus_sessions().values()] + [_t27()]
    for R in rings:
        for M in (mo.regular_module(R), mo.residue_field_module(R)):
            assert M._pres is not None
            assert _same(M._pres[0], mo.nakayama_generators(M)), (R.name, M.label)
            for a, b in zip(M._pres, mo._computed_presentation(M)):
                assert _same(a, b), (R.name, M.label)


def test_recorded_presentation_survives_relabelling_and_sessions():
    session = corpus_sessions()["R1"]
    M = session.module("M")
    assert M._pres is not None and M.label == "M"
    copy = M.relabelled("other")
    assert copy._pres is M._pres
    assert session.module("F")._pres is mo.regular_module(session.ring())._pres


# -- Hom and tensor carriers -----------------------------------------------------------


def _carriers(M, N):
    hs, ts = mo.hom_space(M, N), mo.tensor_space(M, N)
    return (hs.module.fingerprint, hs.basis_mats(), ts.module.fingerprint, ts.pure_matrix())


def test_carriers_match_the_computed_route(monkeypatch):
    by_ring = {}
    for name, M in _cases():
        by_ring.setdefault(name, []).append(M)
    compared = 0
    for name, mods in by_ring.items():
        R = mods[0].ring
        recorded = [M for M in mods if M._pres is not None and M.block is None][:4]
        partners = [mo.residue_field_module(R), mo.dualizing_module(R),
                    mo.regular_module(R)] + recorded[:2]
        for M in recorded:
            for N in partners:
                for left, right in ((M, N), (N, M)):
                    mo.clear_caches()
                    got = _carriers(left, right)
                    mo.clear_caches()
                    with monkeypatch.context() as m:
                        m.setattr(mo, "presentation", mo._computed_presentation)
                        want = _carriers(left, right)
                    assert got[0] == want[0] and got[2] == want[2], \
                        (name, left.label, right.label)
                    for a, b in zip(got[1::2], want[1::2]):
                        assert _same(a, b), (name, left.label, right.label)
                    compared += 1
    assert compared > 60


# -- modules without a record ------------------------------------------------------------


def test_a_unit_term_gives_no_record():
    R = corpus_sessions()["R1"].ring()
    for n, entries in ((1, [["1 + x"]]), (2, [["1 + x"], ["y"]]), (2, [["x"], ["1 + y"]])):
        M = mo.presentation_to_module(R, n, 1, entries)[0]
        assert M._pres is None, entries
        assert all(_same(a, b) for a, b in zip(mo.presentation(M), mo._computed_presentation(M)))
    # the same module with the unit term gone does get one
    assert mo.presentation_to_module(R, 2, 1, [["x"], ["y"]])[0]._pres is not None


# -- the regular module's partial permutation -------------------------------------------------


def test_partial_permutation_of_r_comes_from_the_product_table():
    rings = [s.ring() for s in corpus_sessions().values()] + [_t27()]
    for R in rings:
        data = R.monomial_data
        assert not data.products.flags.writeable
        for M in (mo.regular_module(R), mo.dualizing_module(R)):
            assert M._perm is not None, (R.name, M.label)
            read = mo.Module(R, M.action, check=False).partial_permutation()
            assert len(read) == 3
            for a, b in zip(M._perm, read):
                assert _same(a, b), (R.name, M.label)
        # and the table is the multiplication of the monomials
        for i, ei in enumerate(data.basis_exponents):
            for c, ec in enumerate(data.basis_exponents):
                prod = tuple(a + b for a, b in zip(ei, ec))
                assert data.products[i, c] == data.index.get(prod, -1), (R.name, i, c)
