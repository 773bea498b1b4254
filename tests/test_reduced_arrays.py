"""The reduced-array contract: `% p` is taken once per array.

`Mat(...)`, `Module(..., check=True)` and `ModuleHom(..., check=True)` reduce
whatever they are given.  `Mat._wrap`, `Module(..., check=False)` and
`ModuleHom(..., check=False)` take no modulo: their caller vouches that the
array is int64 with entries in [0, p).  The audit below holds every such
caller to that promise over the goldens, the CLI commands and the Hom and
tensor constructions of the corpus.
"""

import numpy as np
import pytest

from semidual.cli import run_command
from semidual.corpus import corpus_sessions, golden_cases, ring_type_three
from semidual.linalg import (Field, Mat, _mul_arrays, expressor, extend_basis, kernel_basis,
                             rank, rref, solve)
from semidual.modules import (Module, ModuleHom, adjunction_iso, clear_caches,
                              coevaluation_mu, evaluation_nu, hom_functor_map,
                              hom_space, homothety_chi, identity_hom,
                              regular_module, tensor_functor_map,
                              tensor_space)


def _assert_reduced(arr, p: int, site: str) -> None:
    assert isinstance(arr, np.ndarray) and arr.dtype == np.int64, \
        f"{site}: got {type(arr).__name__} {getattr(arr, 'dtype', '')}"
    assert arr.size == 0 or (arr.min() >= 0 and arr.max() < p), \
        f"{site}: entries outside [0, {p})"


@pytest.fixture
def audit(monkeypatch):
    """Patch the three trusted paths to check their input; yields the number
    of arrays each one checked."""
    seen = {"Mat._wrap": 0, "Module": 0, "ModuleHom": 0}
    wrap = Mat._wrap
    module_init = Module.__init__
    hom_init = ModuleHom.__init__

    def checked_wrap(cls, field, arr):
        _assert_reduced(arr, field.p, "Mat._wrap")
        seen["Mat._wrap"] += 1
        return wrap(field, arr)

    def checked_module(self, ring, action, label="M", check=True):
        if not check:
            _assert_reduced(action, ring.field.p, f"Module {label}")
            seen["Module"] += 1
        module_init(self, ring, action, label, check)

    def checked_hom(self, src, dst, mat, check=True):
        if not check:
            _assert_reduced(mat, src.ring.field.p,
                            f"ModuleHom {src.label} -> {dst.label}")
            seen["ModuleHom"] += 1
        hom_init(self, src, dst, mat, check)

    monkeypatch.setattr(Mat, "_wrap", classmethod(checked_wrap))
    monkeypatch.setattr(Module, "__init__", checked_module)
    monkeypatch.setattr(ModuleHom, "__init__", checked_hom)
    clear_caches()
    yield seen
    clear_caches()


def test_audit_fixture_catches_an_unreduced_array(audit):
    f = Field(5)
    with pytest.raises(AssertionError, match="outside"):
        Mat._wrap(f, np.array([[-1, 2]], dtype=np.int64))
    with pytest.raises(AssertionError, match="int64"):
        Mat._wrap(f, np.array([[1, 2]], dtype=np.int32))
    reg = regular_module(ring_type_three())
    with pytest.raises(AssertionError, match="outside"):
        ModuleHom(reg, reg, 5 * np.eye(reg.dim, dtype=np.int64), check=False)


@pytest.mark.parametrize("case", golden_cases(),
                         ids=lambda c: f"{c.session.split('.')[0]}-{c.command}")
def test_goldens_pass_only_reduced_arrays(audit, case):
    session = corpus_sessions()[case.session.split(".")[0]]
    report = run_command(case.command, session, **case.options)
    assert report.verdict == case.expect["verdict"]
    assert sum(audit.values())


@pytest.mark.parametrize("ring", ["R1", "R3"])
def test_verify_all_passes_only_reduced_arrays(audit, ring):
    report = run_command("verify-all", corpus_sessions()[ring])
    assert report.verdict == "pass"
    assert all(audit.values())


@pytest.mark.parametrize("command, options", [
    ("ext", {"src": "k", "dst": "D", "bound": 3}),
    ("relext", {"c": "D", "src": "k", "dst": "k", "i": 3, "bound": 3}),
    ("relext-ic", {"c": "D", "src": "k", "dst": "k", "i": 3, "bound": 3}),
])
def test_r4_commands_pass_only_reduced_arrays(audit, command, options):
    report = run_command(command, corpus_sessions()["R4"], **options)
    assert report.verdict == "computed"
    assert all(audit.values())


def test_hom_and_tensor_over_the_corpus_pass_only_reduced_arrays(audit):
    for session in corpus_sessions().values():
        R = session.ring()
        mods = [session.module(name, R) for name in ("k", "D", "F", "M")]
        for C in mods:
            homothety_chi(R, C)
            for M in mods:
                for bm in hom_space(C, M).basis_mats():
                    ModuleHom(C, M, bm, check=False)
                tensor_space(C, M)
                evaluation_nu(C, M)
                coevaluation_mu(C, M)
                f = identity_hom(M)
                hom_functor_map(C, f, side="covariant")
                hom_functor_map(C, f, side="contravariant")
                tensor_functor_map(C, f)
                for N in mods:
                    adjunction_iso(C, M, N)
    assert all(audit.values())


@pytest.mark.parametrize("p", [2, 5, 65521, 2 ** 31 - 1])
def test_linalg_results_pass_only_reduced_arrays(audit, p):
    """Every reduction entry point and `_mul_arrays`, on matrices below and
    above the small-matrix cutoff: every array wrapped on the way is in
    [0, p), and so is every result."""
    f = Field(p)
    rng = np.random.default_rng(p % 1009)
    for m, n in [(3, 5), (12, 30), (40, 40)]:
        a = Mat(f, rng.integers(0, p, size=(m, n)))
        product = _mul_arrays(a.data, rng.integers(0, p, size=(n, 4)), p)
        _assert_reduced(product, p, "_mul_arrays")
        x = solve(a, Mat._wrap(f, product))
        assert x is not None
        _assert_reduced(x.data, p, "solve")
        _assert_reduced(kernel_basis(a).data, p, "kernel_basis")
        red, piv = rref(Mat(f, a.data.T))
        _assert_reduced(red.data, p, "rref")
        assert rank(a) == len(piv)
        _assert_reduced(expressor(Mat(f, red.data[:len(piv)].T)).data, p, "expressor")
        half = n // 2
        taken = extend_basis(Mat(f, a.data[:, :half]), Mat(f, a.data[:, half:]))
        assert len(taken) == rank(a) - rank(Mat(f, a.data[:, :half]))
    assert audit["Mat._wrap"]


# -- the entry points that still reduce ------------------------------------------


def test_mat_reduces_its_input():
    assert Mat(Field(5), [[-1, 7]]).data.tolist() == [[4, 2]]


def test_module_and_hom_with_check_reduce_out_of_range_entries():
    R = ring_type_three()
    p = R.field.p
    reg = regular_module(R)
    lifted = Module(R, R.left_mult.astype(np.int64) + 3 * p, check=True)
    assert np.array_equal(lifted.action, reg.action)
    shifted = Module(R, R.left_mult.astype(np.int64) - p, check=True)
    assert np.array_equal(shifted.action, reg.action)
    x = R.mult_matrix(R.element_from_string("x"))
    hom = ModuleHom(reg, reg, x - 2 * p, check=True)
    assert np.array_equal(hom.mat, x)
    assert hom.mat.min() >= 0 and hom.mat.max() < p


def test_hom_matrix_shares_memory_with_the_hom():
    R = ring_type_three()
    reg = regular_module(R)
    hom = ModuleHom(reg, reg, R.mult_matrix(R.element_from_string("x + 2*y")))
    m = hom.matrix()
    assert np.shares_memory(m.data, hom.mat)
    assert not m.data.flags.writeable
    assert m == Mat(R.field, hom.mat)


def test_wrap_takes_no_modulo_and_copies_only_to_make_contiguous():
    f = Field(7)
    arr = np.arange(12, dtype=np.int64).reshape(3, 4) % 7
    wrapped = Mat._wrap(f, arr)
    assert wrapped.data is arr and not arr.flags.writeable
    transposed = Mat._wrap(f, arr.T)
    assert transposed.data.flags.c_contiguous
    assert transposed == Mat(f, arr.T)
