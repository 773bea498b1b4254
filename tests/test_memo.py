"""Cache ownership: every cache is registered in semidual.memo, memoised
functions are keyed by fingerprints, and clear_caches() empties them all."""

import sys

from semidual import complexes, memo
from semidual.cli import run_command
from semidual.corpus import corpus_sessions
from semidual.modules import (_caches, clear_caches, coevaluation_mu, evaluation_nu,
                              hom_space, matlis_dual, tensor_space)

MEMOISED = {
    "radical", "ring_report", "regular_module", "residue_field_module",
    "radical_submodule", "matlis_dual", "minimal_generators", "presentation",
    "hom_space", "tensor_space", "evaluation_nu", "coevaluation_mu",
    "_precomposition_action", "_postcomposition_action", "_proper_ic_carrier",
}


def _library_namespaces():
    return [m for n, m in sorted(sys.modules.items())
            if n == "semidual" or n.startswith("semidual.")]


def _memoised():
    """name -> memoised function, for every one bound in a library module
    under its own name."""
    found = {}
    for ns in _library_namespaces():
        for name, value in vars(ns).items():
            if callable(value) and hasattr(value, "__wrapped__") and \
                    isinstance(getattr(value, "store", None), dict):
                found[name] = value
    return found


def _registered(d: dict) -> bool:
    return any(d is c for c in _caches)


def _mixed_run():
    sessions = corpus_sessions()
    run_command("verify-all", sessions["R1"], bound=2)
    run_command("relext", sessions["R1"], c="D", src="k", dst="k", i=2)
    run_command("relext-ic", sessions["R1"], c="D", src="k", dst="k", i=2)
    for session in sessions.values():
        R = session.ring()
        mods = [session.module(name, R) for name in ("k", "D", "F", "M")]
        for C in mods:
            for M in mods:
                hom_space(C, M).basis_mats()
                tensor_space(C, M)


def test_every_cache_is_registered_and_cleared():
    clear_caches()
    _mixed_run()
    found = _memoised()
    assert set(found) == MEMOISED
    for name, fn in found.items():
        assert _registered(fn.store), name
    # every module-level cache dict comes from memo as well
    for ns in _library_namespaces():
        for name, value in vars(ns).items():
            if isinstance(value, dict) and name.endswith("cache"):
                assert _registered(value), f"{ns.__name__}.{name}"
    assert memo._caches is _caches
    assert sum(len(c) for c in _caches) > 0
    assert all(found[name].store for name in ("hom_space", "tensor_space",
                                              "_precomposition_action",
                                              "_postcomposition_action",
                                              "evaluation_nu", "coevaluation_mu"))
    assert complexes._ranks_cache
    clear_caches()
    assert not any(_caches)
    assert not any(fn.store for fn in found.values())


def test_relabelled_copy_hits_the_same_entry():
    clear_caches()
    session = corpus_sessions()["R1"]
    R = session.ring()
    k, D = session.module("k", R), session.module("D", R)
    hs = hom_space(k, D)
    dual = matlis_dual(k)
    entries = sum(len(c) for c in _caches)
    assert hom_space(k.relabelled("kk"), D.relabelled("DD")) is hs
    assert matlis_dual(k.relabelled("kk")) is dual
    assert sum(len(c) for c in _caches) == entries
    clear_caches()


def test_natural_maps_are_memoised():
    session = corpus_sessions()["R1"]
    R = session.ring()
    C, M = session.module("D", R), session.module("M", R)
    nu = evaluation_nu(C, M)
    assert evaluation_nu(C, M) is nu
    assert coevaluation_mu(C, M) is coevaluation_mu(C, M)
    clear_caches()
    assert evaluation_nu(C, M) is not nu


def test_memo_keys_by_fingerprint():
    class Box:
        def __init__(self, fp):
            self.fingerprint = fp

    calls = []

    @memo.memo
    def one(a):
        calls.append(a.fingerprint)
        return [a.fingerprint]

    @memo.memo
    def three(a, b, c):
        calls.append((a.fingerprint, b.fingerprint, c.fingerprint))
        return object()

    try:
        assert one(Box(b"x")) is one(Box(b"x"))
        assert set(one.store) == {b"x"}
        got = three(Box(b"a"), Box(b"b"), Box(b"c"))
        assert three(Box(b"a"), Box(b"b"), Box(b"c")) is got
        assert set(three.store) == {(b"a", b"b", b"c")}
        assert calls == [b"x", (b"a", b"b", b"c")]
        assert one.__name__ == "one" and one.__wrapped__ is not None
        clear_caches()
        assert not one.store and not three.store
    finally:
        _caches[:] = [c for c in _caches if c is not one.store and c is not three.store]
