"""Index routes through the partial permutation record, each checked bit for
bit against the arithmetic it replaces.

Over a monomial quotient every monomial sends a standard monomial to one
standard monomial or to 0, so R, k and D act by 0/1 partial permutations
and carry that record.  Four constructions read it instead of multiplying:
the relation matrix of a cokernel is gathered through the division table
`MonomialData.quotients` instead of contracting against `left_mult`; the
action of a quotient of R, k, D or a power of one is gathered from the
columns of Q instead of forming Q @ act_all(sigma); k's action is the unit
vector instead of the quotient R / rad R; and a module with a record but no
recorded presentation (D, k^v) is presented without an echelon.  Each is
compared here with the route it replaces: same dtype, same shape, same
entries.
"""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from oracles import direct_sum
from semidual import linalg
from semidual import modules as mo
from semidual.algebra import algebra_from_monomial_quotient, radical
from semidual.corpus import corpus_sessions
from semidual.linalg import Field, _mul_arrays
from semidual.sessions import parse_session_text


@pytest.fixture(autouse=True)
def _cold():
    mo.clear_caches()
    yield
    mo.clear_caches()


def _t27():
    return algebra_from_monomial_quotient(Field(3), ["x", "y", "z"],
                                          ["x^3", "y^3", "z^3"], name="T27")


def _t27_session(seed):
    """The T27 session of the hom-tensor benchmark workload at a seed."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    text, _ = workloads.session_text(workloads.Ring("T27"),
                                     random.Random(f"hom-tensor:{seed}"), extra_free=2)
    return parse_session_text(text)


def _rings():
    return [s.ring() for s in corpus_sessions().values()] + [_t27()]


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _count_echelons(monkeypatch):
    calls = []
    real = linalg._echelon

    def counted(arr, p):
        calls.append(arr.shape)
        return real(arr, p)

    monkeypatch.setattr(linalg, "_echelon", counted)
    return calls


# -- the division table --------------------------------------------------------------


def test_quotient_table_divides_the_exponents():
    rings = _rings() + [algebra_from_monomial_quotient(Field(2), ["x", "y"], ["x", "y^3"])]
    for R in rings:
        data = R.monomial_data
        assert not data.quotients.flags.writeable
        for r, er in enumerate(data.basis_exponents):
            for c, ec in enumerate(data.basis_exponents):
                q = tuple(a - b for a, b in zip(er, ec))
                assert data.quotients[r, c] == data.index.get(q, -1), (R.name, r, c)


def _relation_matrices(monkeypatch, build):
    """The matrix of every cokernel that build() forms."""
    seen = []
    real = mo.cokernel

    def record(f, label=None):
        seen.append(f.mat)
        return real(f, label)

    with monkeypatch.context() as m:
        m.setattr(mo, "cokernel", record)
        build()
    return seen


def _contracted(R, n, m, entries):
    """The relation matrix by the contraction against left_mult."""
    d, p = R.dim, R.field.p
    coeffs = np.array([e if not isinstance(e, str) else R.element_from_string(e)
                       for row in entries for e in row], dtype=np.int64).reshape(n * m, d) % p
    blocks = _mul_arrays(coeffs, R.left_mult.reshape(d, d * d), p)
    return blocks.reshape(n, m, d, d).transpose(0, 2, 1, 3).reshape(n * d, m * d)


def test_division_table_relation_matrix_is_the_contraction(monkeypatch):
    R1 = corpus_sessions()["R1"].ring()
    R4 = corpus_sessions()["R4"].ring()
    rng = np.random.default_rng(7)
    cases = [(R1, 2, 1, [["1 + x"], ["y"]]), (R1, 1, 2, [["x", "y"]]),
             (R4, 2, 2, [["x + 3*y", "2 + z"], ["y", "4*x*0 + z"]])]
    for R in _rings():
        for n, m in ((1, 1), (2, 3), (3, 2)):
            cases.append((R, n, m, list(rng.integers(0, R.field.p, (n, m, R.dim)))))
    for session in (_t27_session(11), _t27_session(2026)):
        R = session.ring()
        for spec in session.modules.values():
            if spec.kind == "cokernel":
                cases.append((R, spec.rows, spec.cols, list(spec.vectors)))
    compared = 0
    for R, n, m, entries in cases:
        mo.clear_caches()
        got = _relation_matrices(monkeypatch,
                                 lambda: mo.presentation_to_module(R, n, m, entries))
        want = _contracted(R, n, m, entries)
        if not want.any():
            assert got == []
            continue
        assert len(got) == 1 and _same(got[0], want), (R.name, n, m)
        compared += 1
    assert compared > 20


# -- the gathered quotient action ------------------------------------------------------


def _quotients(monkeypatch, build):
    """(ambient, subquotient) of every quotient of a whole ambient module
    (subquotient with K None) that build() runs."""
    seen = []
    real = mo.subquotient

    def record(ambient, K, into, label):
        sq = real(ambient, K, into, label)
        if K is None:
            seen.append((ambient, sq))
        return sq

    with monkeypatch.context() as m:
        m.setattr(mo, "subquotient", record)
        build()
    return seen


def _check_quotient(ambient, sq):
    """sq's action equals Q @ act_all(sigma); True when it was gathered."""
    R = ambient.ring
    Q, sigma = sq.reduce, sq.represent
    want = _mul_arrays(Q, ambient.act_all(sigma), R.field.p)
    assert _same(sq.carrier.action, want), (R.name, ambient.label)
    q, n = Q.shape
    return mo._record_images(ambient) is not None and \
        q * q * R.dim * n > linalg._INT64_MAX_MACS


def test_gathered_quotient_action_on_session_modules(monkeypatch):
    sessions = list(corpus_sessions().values()) + [_t27_session(11), _t27_session(2026)]
    gathered = set()
    for session in sessions:
        R = session.ring()
        k, D = mo.residue_field_module(R), mo.dualizing_module(R)
        for name, spec in session.modules.items():
            if spec.kind != "cokernel":
                continue

            def build():
                M = session.module(name)
                mo.tensor_space(M, D)
                mo.tensor_space(M, mo.power_module(k, 2))

            mo.clear_caches()
            for ambient, sq in _quotients(monkeypatch, build):
                if _check_quotient(ambient, sq):
                    gathered.add((session.name, ambient.label))
    # over T27 the session cokernels (ambients R and R^2) and M (x) D
    # (ambients D and D^2) are gathered; the rest is below the int64 tier
    assert gathered == {("T27", "T27"), ("T27", "T27^2"), ("T27", "(T27)*"), ("T27", "(T27)*^2")}


def test_gathered_quotient_action_on_generated_submodules():
    rng = np.random.default_rng(11)
    gathered = set()
    for R in _rings():
        p, d = R.field.p, R.dim
        reg, k, D = mo.regular_module(R), mo.residue_field_module(R), mo.dualizing_module(R)
        kk = direct_sum([k, k], label="kk")       # a base whose record is read on demand
        for ambient in (reg, mo.power_module(reg, 2), D, mo.power_module(D, 3),
                        mo.power_module(k, 12), mo.power_module(kk, 6)):
            # the R-span of a random vector of m * ambient is action-stable
            span = mo.radical_span(ambient)
            v = _mul_arrays(span, rng.integers(0, p, (span.shape[1], 1)), p)
            cols = ambient.act_all(v)[:, :, 0].T
            sq = mo.subquotient(ambient, None, cols, "Q")
            if _check_quotient(ambient, sq):
                gathered.add(ambient.label)
    # every kind of ambient is gathered over T27 at least
    assert {"T27", "T27^2", "(T27)*", "(T27)*^3", "k^12", "kk^6"} <= gathered


def test_record_images_of_a_power_are_its_action():
    for R in _rings():
        for base in (mo.regular_module(R), mo.residue_field_module(R), mo.dualizing_module(R)):
            for M in (base, mo.power_module(base, 3)):
                img = mo._record_images(M)
                act = M.action
                i, c = np.nonzero(img >= 0)
                assert (act[i, img[i, c], c] == 1).all(), (R.name, M.label)
                assert act.sum() == i.size, (R.name, M.label)


# -- k from the unit -------------------------------------------------------------------


def test_residue_field_from_the_unit_is_the_quotient():
    for R in _rings():
        k = mo.residue_field_module(R)
        want = mo.subquotient(mo.regular_module(R), None, radical(R).data, "k").carrier
        assert _same(k.action, want.action), R.name
        assert k.label == want.label and k.fingerprint == want.fingerprint, R.name
        read = mo.Module(R, k.action, check=False).partial_permutation()
        assert all(_same(a, b) for a, b in zip(k._perm, read)), R.name


def test_no_echelon_for_k_or_for_the_presentation_of_d(monkeypatch):
    for R in _rings():
        mo.clear_caches()
        calls = _count_echelons(monkeypatch)
        k, D = mo.residue_field_module(R), mo.dualizing_module(R)
        for M in (k, D, mo.matlis_dual(k)):
            mo.presentation(M)
            mo.minimal_generators(M)
        assert calls == [], R.name
        monkeypatch.undo()


# -- presentations read off the record -------------------------------------------------


def test_index_presentation_is_the_computed_presentation(monkeypatch):
    for R in _rings():
        k = mo.residue_field_module(R)
        D = mo.dualizing_module(R)
        carrier = mo.hom_space(D, k).module          # its record is read on demand
        for M in (mo.regular_module(R), k, D, mo.matlis_dual(k), carrier):
            assert mo._reads_record(M), (R.name, M.label)
            mo.clear_caches()
            got = [mo._record_presentation(M), mo.presentation(M)]
            assert _same(mo.minimal_generators(M), mo._frozen(mo.nakayama_generators(M)))
            with monkeypatch.context() as m:
                # the computed route from its own Nakayama step, not from the record
                m.setattr(mo, "minimal_generators",
                          lambda M: mo._frozen(mo.nakayama_generators(M)))
                want = mo._computed_presentation(M)
            for pres in got:
                for a, b in zip(pres, want):
                    assert _same(a, b), (R.name, M.label)


def test_the_route_follows_the_module_not_the_call_history(monkeypatch):
    """Over R1 and R4, Hom(D, k) acts by a partial permutation.  Built from
    fresh caches its record has not been read, and it is still presented
    from the record: the computed route is never taken."""
    def computed(M):
        raise AssertionError(f"{M.label} took the computed presentation")

    rings = {R.name: R for R in _rings()}
    for name in ("R1", "R4"):
        mo.clear_caches()
        R = rings[name]
        M = mo.hom_space(mo.dualizing_module(R), mo.residue_field_module(R)).module
        assert M._perm is None and M._pres is None, name
        with monkeypatch.context() as m:
            m.setattr(mo, "_computed_presentation", computed)
            gens, rel, sec = mo.presentation(M)
        assert gens.shape == (M.dim, mo.minimal_generators(M).shape[1]), name
