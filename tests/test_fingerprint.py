"""Module fingerprints hash a compact encoding of the action.

A module's fingerprint is SHA-256 of the ring's fingerprint, the dimension
and the action matrices written in the smallest unsigned dtype that holds
p - 1 (uint8 up to p = 256, uint16 up to 65,536, uint32 above).  Entries lie
in [0, p), so the encoding is injective and equal fingerprints still mean
equal structure.  A power hashes its base's fingerprint and the number of
copies.  The ring fingerprint is unchanged, because the random module
pools are seeded from it: SHA-256 of (p, the dense structure constants,
the unit), hashed one (d, d) slab at a time from the product table, so no
(d, d, d) array is built.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from semidual import modules as mo
from semidual.algebra import algebra_from_monomial_quotient
from semidual.corpus import corpus_rings, corpus_sessions, random_module_pool
from semidual.linalg import Field

# SHA-256 of (p, structure constants, unit) as int64 bytes
RING_FINGERPRINTS = {
    "R1": "cdabbb49079ae6cec546bb9e2e3e4f5742b0be2097eebc6eb49f2a94b297f86a",
    "R2": "a6ac331b30a105a5ceb466eddc25437150285e260a170b863f50aef4c7c6faa2",
    "R3": "bf41a4013a843bd8e768b14b4c37be4ad880f2c79023cea03a4d51a1ade19b8a",
    "R4": "5254f5aff3d41a567e984f17dc4ad8b11f4ac7350894f80f556cbb3acbe38b75",
}

# dimensions of random_module_pool(R, 6, 10), which is seeded from R's fingerprint
POOL_DIMS = {
    "R1": [3, 6, 3, 2, 6, 3],
    "R2": [4, 4, 9, 6, 6, 9],
    "R3": [6, 1, 2, 4, 8, 2],
    "R4": [4, 4, 8, 8, 8, 8],
}

DTYPES = [(2, np.uint8), (5, np.uint8), (257, np.uint16), (2 ** 31 - 1, np.uint32)]
PRIMES = [p for p, _ in DTYPES]


@pytest.fixture(autouse=True)
def _cold():
    mo.clear_caches()
    yield
    mo.clear_caches()


def _line(p):
    return algebra_from_monomial_quotient(Field(p), ["x"], ["x^3"], name=f"L{p}")


def _expected(M, dtype):
    h = hashlib.sha256()
    h.update(M.ring.fingerprint)
    h.update(str(M.dim).encode())
    h.update(M.action.astype(dtype).tobytes())
    return h.digest()


@pytest.mark.parametrize("p, dtype", DTYPES)
def test_action_is_hashed_in_the_smallest_dtype(p, dtype):
    R = _line(p)
    M = mo.presentation_to_module(R, 2, 1, [["x"], ["x^2"]])[0]
    for X in (mo.regular_module(R), mo.residue_field_module(R), mo.dualizing_module(R), M):
        assert X.fingerprint == _expected(X, dtype), (p, X.label)


@pytest.mark.parametrize("p", PRIMES)
def test_equal_actions_give_equal_fingerprints(p):
    R = _line(p)
    act = R.left_mult.copy()
    a = mo.Module(R, act, label="a", check=False)
    b = mo.Module(R, act.copy(), label="b", check=False)
    assert a is not b and a.fingerprint == b.fingerprint
    assert a.fingerprint == mo.regular_module(R).fingerprint
    assert a.relabelled("c").fingerprint == a.fingerprint


@pytest.mark.parametrize("p", PRIMES)
def test_one_changed_entry_changes_the_fingerprint(p):
    R = _line(p)
    base = mo.Module(R, np.zeros((R.dim, 2, 2), dtype=np.int64), check=False).fingerprint
    seen = {base}
    # p - 1 and every power of 256 below p: a narrower dtype would wrap them to 0
    values = sorted({p - 1} | {256 ** k for k in (1, 2, 3) if 256 ** k < p})
    for v in values:
        for pos in [(0, 0, 0), (1, 0, 1), (2, 1, 1)]:
            act = np.zeros((R.dim, 2, 2), dtype=np.int64)
            act[pos] = v
            fp = mo.Module(R, act, check=False).fingerprint
            assert fp not in seen, (p, v, pos)
            seen.add(fp)


def test_a_power_keeps_its_pow_form():
    R = _line(5)
    for base in (mo.regular_module(R), mo.dualizing_module(R),
                 mo.presentation_to_module(R, 1, 1, [["x^2"]])[0]):
        P = mo.power_module(base, 3)
        h = hashlib.sha256()
        h.update(R.fingerprint)
        h.update(b"pow")
        h.update(base.fingerprint)
        h.update(b"3")
        assert P.fingerprint == h.digest()
        # the materialised action is never hashed, so the two encodings differ
        dense = mo.Module(R, P.action, check=False)
        assert dense.fingerprint != P.fingerprint


def test_ring_fingerprints_are_unchanged():
    for name, R in corpus_rings().items():
        assert R.fingerprint.hex() == RING_FINGERPRINTS[name]
    for name, session in corpus_sessions().items():
        assert session.ring().fingerprint.hex() == RING_FINGERPRINTS[name]
        pool = random_module_pool(session.ring(), 6, max_dim=10)
        assert [M.dim for M in pool] == POOL_DIMS[name]


def test_ring_fingerprint_hashes_the_dense_structure_constants():
    rings = list(corpus_rings().values()) + [
        algebra_from_monomial_quotient(Field(p), ["x", "y", "z"], [f"{v}^4" for v in "xyz"])
        for p in (3, 2 ** 31 - 1)]
    for R in rings:
        h = hashlib.sha256()
        h.update(str(R.field.p).encode())
        h.update(R.structure.tobytes())
        h.update(R.unit.tobytes())
        assert R.fingerprint == h.digest(), R.name


def test_ring_fingerprint_builds_no_cube():
    R = algebra_from_monomial_quotient(Field(3), ["x", "y", "z"], [f"{v}^5" for v in "xyz"])
    d = R.dim
    tracemalloc.start()
    try:
        R.fingerprint
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (d, d) int64 slab is 125 kB; the (d, d, d) constants would be 15.6 MB
    assert d == 125 and peak < 4 * d * d * 8
