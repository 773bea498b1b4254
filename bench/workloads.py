"""Seeded input generator for the semidual benchmark.

Every workload is a set of session files (the text format documented in
src/semidual/sessions.py) plus, per seeded module, the facts a checker needs
to verify answers by closed form.  The program under test only ever sees the
session text.

Seeded modules are presented as coker(P * diag(f_1..f_n) * Q) with P and Q
random unit-triangular matrices over the ring and f_i fixed "normal form"
blocks scaled by random units.  The presentation is random; the isomorphism
class, and hence the amount of work per op, is the same for every seed.  That
keeps run-to-run spread across seeds down to machine noise.

Run as a script to print one workload's sessions with its provenance header:

    python3 bench/workloads.py --workload deep-r4 --seed 7
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
from itertools import product

WORKLOADS = ("small-rings", "deep-r4", "hom-tensor")

# name -> (p, variables, monomial relations); exponents are per variable
RINGS = {
    "R1": (2, ("x", "y"), ("x^2", "x*y", "y^2")),
    "R2": (3, ("x",), ("x^3",)),
    "R3": (2, ("x", "y"), ("x^2", "y^2")),
    "R4": (5, ("x", "y", "z"), ("x^2", "y^2", "z^2", "x*y", "x*z", "y*z")),
    "T27": (3, ("x", "y", "z"), ("x^3", "y^3", "z^3")),
}


# -- polynomials over a monomial quotient: {exponent tuple: coefficient} -------


def _parse_mono(text: str, variables) -> tuple[int, ...]:
    exps = [0] * len(variables)
    for factor in text.split("*"):
        name, _, e = factor.partition("^")
        exps[variables.index(name)] += int(e or 1)
    return tuple(exps)


class Ring:
    def __init__(self, name: str):
        self.name = name
        self.p, self.variables, rels = RINGS[name]
        self.relations = [_parse_mono(r, self.variables) for r in rels]
        bound = max(max(r) for r in self.relations)
        self.basis = sorted(
            (e for e in product(range(bound + 1), repeat=len(self.variables))
             if not self._zero(e)),
            key=lambda e: (sum(e), tuple(-x for x in e)))

    def _zero(self, e) -> bool:
        return any(all(a >= b for a, b in zip(e, r)) for r in self.relations)

    def mul(self, f: dict, g: dict) -> dict:
        out: dict = {}
        for ea, ca in f.items():
            for eb, cb in g.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                if not self._zero(e):
                    out[e] = (out.get(e, 0) + ca * cb) % self.p
        return {e: c for e, c in out.items() if c}

    def add(self, f: dict, g: dict) -> dict:
        out = dict(f)
        for e, c in g.items():
            out[e] = (out.get(e, 0) + c) % self.p
        return {e: c for e, c in out.items() if c}

    def random_element(self, rng: random.Random, unit: bool = False,
                       min_degree: int = 0) -> dict:
        f = {e: rng.randrange(self.p) for e in self.basis if sum(e) >= min_degree}
        if unit:
            f[self.basis[0]] = rng.randrange(1, self.p)
        return {e: c for e, c in f.items() if c}

    def render(self, f: dict) -> str:
        if not f:
            return "0"
        terms = []
        for e in sorted(f, key=lambda e: (sum(e), tuple(-x for x in e))):
            c = f[e]
            mono = "*".join(v if k == 1 else f"{v}^{k}"
                            for v, k in zip(self.variables, e) if k)
            if not mono:
                terms.append(str(c))
            else:
                terms.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(terms)

    def linear(self, coeffs) -> dict:
        n = len(self.variables)
        return {tuple(int(i == j) for j in range(n)): c % self.p
                for i, c in enumerate(coeffs) if c % self.p}


def _independent_linear_forms(ring: Ring, count: int, rng: random.Random) -> list[dict]:
    """`count` linear forms with linearly independent coefficient vectors,
    each plus random terms of degree >= 2."""
    n, p = len(ring.variables), ring.p
    while True:
        vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(count)]
        if _rank_mod_p(vecs, p) == count:
            break
    return [ring.add(ring.linear(v), ring.random_element(rng, min_degree=2))
            for v in vecs]


def _rank_mod_p(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _unit_triangular(ring: Ring, n: int, rng: random.Random, upper: bool) -> list[list[dict]]:
    one = {ring.basis[0]: 1}
    return [[one if i == j else
             (ring.random_element(rng) if (j > i) == upper else {})
             for j in range(n)] for i in range(n)]


def _matmul(ring: Ring, a, b):
    return [[_dot(ring, row, [b[k][j] for k in range(len(b))])
             for j in range(len(b[0]))] for row in a]


def _dot(ring: Ring, u, v) -> dict:
    acc: dict = {}
    for x, y in zip(u, v):
        if x and y:
            acc = ring.add(acc, ring.mul(x, y))
    return acc


def scrambled_cokernel(ring: Ring, blocks: list[list[dict]], rng: random.Random):
    """Presentation matrix P * diag(blocks) * Q, where block i is a 1 x c_i
    row of relations on generator i, each scaled by a random unit."""
    n = len(blocks)
    m = sum(len(b) for b in blocks)
    diag = [[{} for _ in range(m)] for _ in range(n)]
    col = 0
    for i, rels in enumerate(blocks):
        for f in rels:
            diag[i][col] = ring.mul(f, ring.random_element(rng, unit=True))
            col += 1
    P = _matmul(ring, _unit_triangular(ring, n, rng, True),
                _unit_triangular(ring, n, rng, False))
    Q = _matmul(ring, _unit_triangular(ring, m, rng, False),
                _unit_triangular(ring, m, rng, True))
    return _matmul(ring, _matmul(ring, P, diag), Q)


# -- module shapes per ring ------------------------------------------------------
# Each shape is a direct sum of cyclic modules R/(relations); the facts after
# it are closed forms the checker uses (dim, Betti numbers from b_0).


def _shapes(ring: Ring, rng: random.Random) -> dict[str, tuple[list[list[dict]], dict]]:
    lin = lambda count: _independent_linear_forms(ring, count, rng)  # noqa: E731
    if ring.name == "R1":
        # m^2 = 0, e = 2: b_0 = n, b_j = r * e^(j-1) with r = n * dim R - dim M
        l1, l2, l3 = lin(1) + lin(2)
        return {
            "A": ([[l1]], {"dim": 2, "betti": [1, 1, 2, 4]}),
            "B": ([[l1], [l2, l3]], {"dim": 3, "betti": [2, 3, 6, 12]}),
        }
    if ring.name == "R2":
        # R/(x^a) has the periodic resolution; every Betti number is 1
        unit = lambda: ring.random_element(rng, unit=True)  # noqa: E731
        x = ring.linear([1])
        x1 = ring.mul(x, unit())
        x2 = ring.mul(ring.mul(x, x), unit())
        return {
            "A": ([[x2]], {"dim": 2, "betti": [1, 1, 1, 1]}),
            "B": ([[x1], [x2]], {"dim": 3, "betti": [2, 2, 2, 2]}),
        }
    if ring.name == "R3":
        # R/(l) for a linear form l is periodic over (x^2, y^2) in char 2
        l1, l2 = lin(2)
        return {
            "A": ([[l1]], {"dim": 2, "betti": [1, 1, 1, 1]}),
            "B": ([[l1], [l2]], {"dim": 4, "betti": [2, 2, 2, 2]}),
        }
    if ring.name == "R4":
        # m^2 = 0, e = 3: R/(l1, l2) has dim 2, r = 2, b_j = 2 * 3^(j-1)
        l1, l2 = lin(2)
        return {"M": ([[l1, l2]], {"dim": 2, "betti": [1, 2, 6, 18, 54]})}
    if ring.name == "T27":
        # char 3: (l + h)^3 = 0 for h in m, so R/(l) ~ GF(3)[y,z]/(y^3,z^3)
        l1, l2, l3 = lin(3)
        return {
            "M3": ([[l1, l2]], {"dim": 3}),
            "M9": ([[l3]], {"dim": 9}),
            "M6": ([[l1, l2], [l2, l3]], {"dim": 6}),
            "M12": ([[l2], [l1, l3]], {"dim": 12}),
        }
    raise ValueError(ring.name)


FIXED_MODULES = {
    "k": {"kind": "residue_field"},
    "D": {"kind": "dualizing"},
    "F": {"kind": "free", "rank": 1},
}

WORKLOAD_RINGS = {
    "small-rings": ("R1", "R2", "R3"),
    "deep-r4": ("R4",),
    "hom-tensor": ("T27",),
}


def session_text(ring: Ring, rng: random.Random, extra_free: int = 0):
    """Session text for one ring and the closed-form facts of its modules."""
    lines = [f"# {ring.name}: seeded benchmark session",
             "[ring]", f'name = "{ring.name}"', f"field = {ring.p}",
             "variables = [" + ", ".join(f'"{v}"' for v in ring.variables) + "]",
             "relations = [" + ", ".join(f'"{r}"' for r in RINGS[ring.name][2]) + "]"]
    modules = dict(FIXED_MODULES)
    if extra_free:
        modules["F2"] = {"kind": "free", "rank": extra_free}
    facts = {}
    for name, (blocks, fact) in _shapes(ring, rng).items():
        mat = scrambled_cokernel(ring, blocks, rng)
        modules[name] = {"kind": "cokernel", "rows": len(mat), "cols": len(mat[0]),
                         "entries": [ring.render(f) for row in mat for f in row]}
        facts[name] = fact
    for name, spec in modules.items():
        lines += ["", f"[module.{name}]", f'kind = "{spec["kind"]}"']
        if spec["kind"] == "free":
            lines.append(f"rank = {spec['rank']}")
        if spec["kind"] == "cokernel":
            lines += [f"rows = {spec['rows']}", f"cols = {spec['cols']}",
                      "entries = [" + ", ".join(f'"{e}"' for e in spec["entries"]) + "]"]
    return "\n".join(lines) + "\n", facts


def provenance(seed: int) -> dict:
    """Where and how the inputs were made: seed, commit, versions, threads."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=10
                                ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"seed": seed, "commit": commit, "python": platform.python_version(),
            "numpy": numpy_version, "blas_threads": blas_threads(),
            "nproc": os.cpu_count()}


def blas_threads() -> str:
    """Thread count the BLAS pool is allowed, from the usual variables;
    'default' means the library's own choice (at most nproc)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return f"default (nproc={os.cpu_count()})"


def generate(workload: str, seed: int) -> dict:
    """The workload's session texts, module facts and provenance."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    sessions, facts = {}, {}
    for name in WORKLOAD_RINGS[workload]:
        text, fact = session_text(Ring(name), rng,
                                  extra_free=2 if workload == "hom-tensor" else 0)
        sessions[name], facts[name] = text, fact
    return {"workload": workload, "provenance": provenance(seed),
            "sessions": sessions, "facts": facts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    out = generate(args.workload, args.seed)
    print("# " + json.dumps(out["provenance"], sort_keys=True))
    for name, text in out["sessions"].items():
        print(f"# ---- {name}.session ----")
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
