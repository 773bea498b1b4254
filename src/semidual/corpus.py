"""Curated example rings and the seeded random module generator.

Four small local algebras exercise the distinct regimes: a non-Gorenstein
ring of type 2, a Gorenstein principal quotient, a Gorenstein complete
intersection, and a type-3 ring in three variables.  All test batteries and
golden values are stated against these rings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .algebra import Algebra, algebra_from_monomial_quotient
from .errors import InputError
from .linalg import Field
from .modules import Module, presentation_to_module
from .sessions import SessionFile, parse_session_text


def ring_square_zero_two_vars() -> Algebra:
    """R1 = GF(2)[x,y]/(x^2, xy, y^2): local, socle dim 2, not Gorenstein."""
    return algebra_from_monomial_quotient(
        Field(2), ["x", "y"], ["x^2", "x*y", "y^2"], name="R1")


def ring_truncated_line() -> Algebra:
    """R2 = GF(3)[x]/(x^3): Gorenstein, Loewy length 3."""
    return algebra_from_monomial_quotient(Field(3), ["x"], ["x^3"], name="R2")


def ring_complete_intersection() -> Algebra:
    """R3 = GF(2)[x,y]/(x^2, y^2): Gorenstein complete intersection."""
    return algebra_from_monomial_quotient(
        Field(2), ["x", "y"], ["x^2", "y^2"], name="R3")


def ring_type_three() -> Algebra:
    """R4 = GF(5)[x,y,z]/(all quadratics): socle dim 3, not Gorenstein."""
    return algebra_from_monomial_quotient(
        Field(5), ["x", "y", "z"],
        ["x^2", "y^2", "z^2", "x*y", "x*z", "y*z"], name="R4")


def corpus_rings() -> dict[str, Algebra]:
    return {
        "R1": ring_square_zero_two_vars(),
        "R2": ring_truncated_line(),
        "R3": ring_complete_intersection(),
        "R4": ring_type_three(),
    }


def random_module(ring: Algebra, seed: int, max_n: int = 3, max_m: int = 4) -> Module:
    """Cokernel of a random max_n x max_m matrix over the ring, deterministic
    per (ring, seed).  The ring fingerprint is folded into the stream so the
    same seed gives unrelated modules over different rings."""
    fp_words = np.frombuffer(ring.fingerprint[:16], dtype=np.uint32)
    rng = np.random.default_rng([seed, *[int(w) for w in fp_words]])
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(0, max_m + 1))
    p = ring.field.p
    d = ring.dim
    entries = [[rng.integers(0, p, size=d) for _ in range(m)] for _ in range(n)]
    mod, _ = presentation_to_module(ring, n, m, entries)
    return mod.relabelled(f"M[{ring.name};{seed}]")


def random_module_pool(ring: Algebra, count: int, max_dim: int,
                       start_seed: int = 0) -> list[Module]:
    """First `count` nonzero random modules of k-dimension <= max_dim,
    scanning seeds upward from start_seed.  Deterministic."""
    out = []
    seed = start_seed
    while len(out) < count:
        mod = random_module(ring, seed)
        if 0 < mod.dim <= max_dim:
            out.append(mod)
        seed += 1
        if seed - start_seed > 200 * count:
            raise InputError(f"random module pool did not fill: fewer than {count} nonzero "
                             f"modules of dimension <= {max_dim} in {200 * count} seeds")
    return out


# -- packaged session files and golden expected reports -----------------------


def data_text(filename: str) -> str:
    return (resources.files("semidual") / "data" / filename).read_text(encoding="utf-8")


def data_path(filename: str) -> str:
    """Filesystem path of a packaged data file (session files are real files)."""
    return str(resources.files("semidual") / "data" / filename)


def corpus_sessions() -> dict[str, SessionFile]:
    """The four curated rings as parsed session files.

    Each declares the same module names: k (residue field), D (dualizing),
    F (free of rank 1), M (a small cokernel).  The rings agree with
    corpus_rings() up to structure-constant identity.
    """
    out = {}
    for name in ("R1", "R2", "R3", "R4"):
        out[name] = parse_session_text(data_text(f"{name}.session"))
    return out


@dataclass(frozen=True)
class GoldenCase:
    """One expected CLI report, pinned against an independent oracle.

    expect holds a verdict plus a subset of report dimensions that must match
    exactly and witness substrings that must appear; oracle names how the
    expected numbers were obtained without the engine under test.
    """

    session: str
    command: str
    options: dict
    expect: dict
    oracle: str


def golden_cases() -> list[GoldenCase]:
    payload = json.loads(data_text("goldens.json"))
    return [GoldenCase(c["session"], c["command"], c.get("options", {}),
                       c["expect"], c["oracle"])
            for c in payload["cases"]]
