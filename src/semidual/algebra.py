"""Finite-dimensional commutative algebras over GF(p).

An Algebra is given by structure constants c[i,j,k] (e_i * e_j = sum_k
c[i,j,k] e_k) and a unit vector.  Commutativity, associativity and the unit
law are checked eagerly at construction; there is no way to hold an invalid
Algebra.  Elements are coordinate vectors (int64, length dim).

The main constructor is the monomial quotient GF(p)[x_1..x_r]/(monomials),
which is where polynomial input makes sense: its basis is the set of
standard monomials in degree-then-lexicographic order, and each Algebra
built this way keeps the exponent data so polynomial strings can be parsed
and reduced.  Raw structure constants are also accepted.

The radical is computed as the kernel of an iterated Frobenius map: in
characteristic p the map x -> x^p is GF(p)-linear, and an element of a
d-dimensional commutative algebra is nilpotent iff x^(p^t) = 0 once
p^t >= d.  This realises "the set of nilpotent elements" as the kernel of
an explicit matrix.  The Frobenius matrix is computed for all basis
elements at once: square-and-multiply runs on the d x d array whose rows
are the powers of e_1..e_d, and each step multiplies all rows in one
contraction of their Khatri-Rao product with the structure constants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotCofiniteError, ParseError
from .linalg import Field, Mat, _mul_arrays, kernel_basis, rank, vstack
from .memo import memo


class Algebra:
    __slots__ = (
        "field", "dim", "labels", "structure", "unit", "left_mult",
        "monomial_data", "name", "_fingerprint",
    )

    def __init__(self, field: Field, structure, unit, labels=None,
                 monomial_data=None, name: str = "R"):
        p = field.p
        c = np.asarray(structure, dtype=np.int64) % p
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[1] != c.shape[2]:
            raise InputError(f"structure constants must be d x d x d, got {c.shape}")
        d = c.shape[0]
        if d == 0:
            raise InputError("zero-dimensional algebra has no unit")
        u = np.asarray(unit, dtype=np.int64) % p
        if u.shape != (d,):
            raise InputError(f"unit must be a vector of length {d}")
        if not np.array_equal(c, c.transpose(1, 0, 2)):
            raise InputError("structure constants are not commutative")
        # prod[i, j, l, m] = coefficient of e_m in (e_i e_j) e_l; by
        # commutativity e_i (e_j e_l) = (e_j e_l) e_i is prod[j, l, i, m].
        # The contraction runs through _mul_arrays, which is exact for any p.
        prod = _mul_arrays(c.reshape(d * d, d), c.reshape(d, d * d), p)
        prod = prod.reshape(d, d, d, d)
        if not np.array_equal(prod, prod.transpose(2, 0, 1, 3)):
            raise InputError("structure constants are not associative")
        eye = np.eye(d, dtype=np.int64)
        if not np.array_equal(_mul_arrays(u.reshape(1, d), c.reshape(d, d * d), p)
                              .reshape(d, d), eye):
            raise InputError("unit vector does not act as identity")
        if labels is None:
            labels = [f"e{i}" for i in range(d)]
        if len(labels) != d:
            raise InputError("label count does not match dimension")
        c.setflags(write=False)
        u.setflags(write=False)
        self.field = field
        self.dim = d
        self.labels = list(labels)
        self.structure = c
        self.unit = u
        # left_mult[i] = matrix of multiplication by e_i (acts on columns)
        lm = np.ascontiguousarray(c.transpose(0, 2, 1))
        lm.setflags(write=False)
        self.left_mult = lm
        self.monomial_data = monomial_data
        self.name = name
        self._fingerprint = None

    # -- element arithmetic ------------------------------------------------

    def mul(self, u, v) -> np.ndarray:
        # (u*) applied to v: two reduced contractions, since one three-factor
        # int64 sum overflows once (p-1)^3 >= 2^63
        v = np.asarray(v, dtype=np.int64).reshape(-1, 1) % self.field.p
        return _mul_arrays(self.mult_matrix(u), v, self.field.p)[:, 0]

    def mult_matrix(self, u) -> np.ndarray:
        """Matrix of multiplication by the element u."""
        p = self.field.p
        d = self.dim
        u = np.asarray(u, dtype=np.int64).reshape(1, d) % p
        return _mul_arrays(u, self.left_mult.reshape(d, d * d), p).reshape(d, d)

    def one(self) -> np.ndarray:
        return self.unit.copy()

    def element_from_string(self, text: str) -> np.ndarray:
        if self.monomial_data is None:
            raise InputError("algebra has no polynomial coordinates; "
                             "element strings need a monomial quotient")
        terms = parse_polynomial(text, self.monomial_data.variables)
        return self.monomial_data.element_from_terms(self.field, terms)

    def element_to_string(self, vec) -> str:
        vec = np.asarray(vec, dtype=np.int64) % self.field.p
        parts = []
        for i in range(self.dim):
            a = int(vec[i])
            if a == 0:
                continue
            if self.labels[i] == "1":
                parts.append(str(a))
            elif a == 1:
                parts.append(self.labels[i])
            else:
                parts.append(f"{a}*{self.labels[i]}")
        return " + ".join(parts) if parts else "0"

    @property
    def fingerprint(self) -> bytes:
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(str(self.field.p).encode())
            h.update(self.structure.tobytes())
            h.update(self.unit.tobytes())
            self._fingerprint = h.digest()
        return self._fingerprint

    def __repr__(self) -> str:
        return f"Algebra({self.name}, dim={self.dim} over {self.field!r})"


# -- polynomials -----------------------------------------------------------


def parse_polynomial(text: str, variables: list[str]) -> list[tuple[int, tuple[int, ...]]]:
    """Parse 'coeff*mono + ...' into (coefficient, exponent tuple) terms.

    Grammar: a polynomial is a signed sum of terms; a term is '*'-separated
    factors, each an integer or var or var^exp.  Raises ParseError with a
    1-based column on bad input.
    """
    var_index = {v: i for i, v in enumerate(variables)}
    nvars = len(variables)
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos] in " \t":
            pos += 1

    def fail(msg):
        raise ParseError(msg, 1, pos + 1)

    def parse_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if start == pos:
            fail("expected a number")
        return int(text[start:pos])

    def parse_name() -> str:
        nonlocal pos
        start = pos
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    def parse_term() -> tuple[int, tuple[int, ...]]:
        nonlocal pos
        coeff = 1
        exps = [0] * nvars
        while True:
            skip_ws()
            if pos < n and text[pos].isdigit():
                coeff *= parse_int()
            elif pos < n and (text[pos].isalpha() or text[pos] == "_"):
                col = pos
                name = parse_name()
                if name not in var_index:
                    pos = col
                    fail(f"unknown variable '{name}'")
                e = 1
                skip_ws()
                if pos < n and text[pos] == "^":
                    pos += 1
                    skip_ws()
                    if pos >= n or not text[pos].isdigit():
                        fail("expected an exponent after '^'")
                    e = parse_int()
                exps[var_index[name]] += e
            else:
                fail("expected a coefficient or variable")
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            return coeff, tuple(exps)

    terms = []
    skip_ws()
    if pos == n:
        fail("empty polynomial")
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    while True:
        coeff, exps = parse_term()
        terms.append((sign * coeff, exps))
        skip_ws()
        if pos == n:
            return terms
        if text[pos] == "+":
            sign = 1
        elif text[pos] == "-":
            sign = -1
        else:
            fail(f"unexpected character {text[pos]!r}")
        pos += 1


def _divides(rel: tuple[int, ...], mono: tuple[int, ...]) -> bool:
    return all(r <= m for r, m in zip(rel, mono))


@dataclass
class MonomialData:
    variables: list[str]
    relations: list[tuple[int, ...]]
    basis_exponents: list[tuple[int, ...]]
    index: dict

    def reduce_monomial(self, exps: tuple[int, ...]) -> int | None:
        """Basis index of the monomial, or None if it lies in the ideal.

        A monomial lies outside the monomial ideal exactly when it is a
        standard monomial: one outside the exponent box is a multiple of a
        pure-power relation.
        """
        return self.index.get(exps)

    def element_from_terms(self, field: Field, terms) -> np.ndarray:
        vec = np.zeros(len(self.basis_exponents), dtype=np.int64)
        for coeff, exps in terms:
            idx = self.reduce_monomial(exps)
            if idx is not None:
                vec[idx] = (vec[idx] + coeff) % field.p
        return vec


def _monomial_label(variables: list[str], exps: tuple[int, ...]) -> str:
    parts = []
    for v, e in zip(variables, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def algebra_from_monomial_quotient(field: Field, variables: list[str],
                                   relations: list[str], name: str = "R") -> Algebra:
    """GF(p)[variables] / (monomial relations).

    Every relation must be a single monomial (a lone nonzero coefficient is
    tolerated and ignored, sums are rejected).  The quotient must be finite
    dimensional: each variable needs a pure power among the relations,
    otherwise a NotCofiniteError names the first variable without one.
    """
    if len(set(variables)) != len(variables):
        raise InputError("duplicate variable names")
    rel_exps: list[tuple[int, ...]] = []
    for rel in relations:
        terms = parse_polynomial(rel, variables)
        if len(terms) != 1:
            raise InputError(f"relation {rel!r} is not a monomial")
        coeff, exps = terms[0]
        if coeff % field.p == 0:
            raise InputError(f"relation {rel!r} has zero coefficient")
        if all(e == 0 for e in exps):
            raise InputError(f"relation {rel!r} is a unit; quotient would be zero")
        rel_exps.append(exps)
    nvars = len(variables)
    bounds = []
    for v in range(nvars):
        pure = [r[v] for r in rel_exps if all(r[u] == 0 for u in range(nvars) if u != v) and r[v] > 0]
        if not pure:
            raise NotCofiniteError(variables[v])
        bounds.append(min(pure))
    total = 1
    for b in bounds:
        total *= b
        if total > 10 ** 6:
            raise InputError("quotient basis would exceed 10^6 monomials")
    # standard monomials, sorted degree-first then x-before-y within a degree
    candidates = [()]
    for b in bounds:
        candidates = [e + (i,) for e in candidates for i in range(b)]
    standard = [e for e in candidates if not any(_divides(r, e) for r in rel_exps)]
    standard.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    index = {e: i for i, e in enumerate(standard)}
    d = len(standard)
    structure = np.zeros((d, d, d), dtype=np.int64)
    for i, ei in enumerate(standard):
        for j, ej in enumerate(standard):
            prod = tuple(a + b for a, b in zip(ei, ej))
            if not any(_divides(r, prod) for r in rel_exps):
                structure[i, j, index[prod]] = 1
    unit = np.zeros(d, dtype=np.int64)
    unit[index[tuple([0] * nvars)]] = 1
    labels = [_monomial_label(variables, e) for e in standard]
    data = MonomialData(list(variables), rel_exps, standard, index)
    return Algebra(field, structure, unit, labels, monomial_data=data, name=name)


def algebra_from_structure_constants(field: Field, structure, unit,
                                     labels=None, name: str = "R") -> Algebra:
    return Algebra(field, structure, unit, labels, name=name)


# -- invariants ------------------------------------------------------------


@memo
def radical(R: Algebra) -> Mat:
    """Basis (columns) of the nilradical, memoised per ring fingerprint.

    Kernel of the t-fold Frobenius where p^t >= dim, see module docstring.
    """
    p = R.field.p
    d = R.dim
    t = 0
    power = 1
    while power < d:
        power *= p
        t += 1
    # left-to-right square-and-multiply on all rows at once: row i of
    # `power` is e_i^m, m the number formed by the leading bits of p read
    eye = np.eye(d, dtype=np.int64)
    power = eye
    for bit in bin(p)[3:]:
        power = _rowwise_products(R, power, power)
        if bit == "1":
            power = _rowwise_products(R, power, eye)
    frob = power.T                    # column i is e_i^p
    total = np.eye(d, dtype=np.int64)
    for _ in range(t):
        total = _mul_arrays(frob, total, p)
    return kernel_basis(Mat(R.field, total))


def _rowwise_products(R: Algebra, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row i is the product u_i * v_i, for every row in one contraction.

    Row i of the Khatri-Rao product holds u_ia * v_ib at (a, b); each entry
    is below p^2 < 2^62, so it is exact in int64 before the reduction, and
    the structure constants then contract it through _mul_arrays.
    """
    p, d = R.field.p, R.dim
    kr = (U[:, :, None] * V[:, None, :]).reshape(len(U), d * d) % p
    return _mul_arrays(kr, R.structure.reshape(d * d, d), p)


@dataclass(frozen=True)
class RingReport:
    dim: int
    is_local: bool
    radical_dim: int
    socle_dim: int
    is_gorenstein: bool
    loewy_length: int
    radical_basis: Mat

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "is_local": self.is_local,
            "radical_dim": self.radical_dim,
            "socle_dim": self.socle_dim,
            "is_gorenstein": self.is_gorenstein,
            "loewy_length": self.loewy_length,
        }


@memo
def ring_report(R: Algebra) -> RingReport:
    """Local / socle / Gorenstein / Loewy data, memoised per ring fingerprint.

    is_local means local with residue field GF(p) itself, i.e. the radical
    has codimension 1.  is_gorenstein is local with 1-dimensional socle;
    for non-local rings it is reported False rather than guessed.
    """
    p = R.field.p
    d = R.dim
    rad = radical(R)
    r = rad.cols
    is_local = (r == d - 1)
    if r == 0:
        socle_dim = d
    else:
        stacked = vstack([Mat(R.field, R.mult_matrix(rad.data[:, j])) for j in range(r)])
        socle_dim = kernel_basis(stacked).cols
    is_gorenstein = bool(is_local and socle_dim == 1)
    # Loewy length: least t with rad^t = 0
    loewy = 1
    span = rad.data
    while span.shape[1] > 0:
        cols = [_mul_arrays(R.mult_matrix(rad.data[:, j]), span, p) for j in range(r)]
        nxt = np.hstack(cols) if cols else np.zeros((d, 0), dtype=np.int64)
        nxt_mat, piv = _col_space(nxt, R.field)
        loewy += 1
        if not piv:
            break
        span = nxt_mat
        if loewy > d + 1:
            raise AssertionError("radical is not nilpotent; not a nilradical?")
    return RingReport(d, is_local, r, socle_dim, is_gorenstein, loewy, rad)


def _col_space(cols: np.ndarray, field: Field):
    from .linalg import rref, transpose
    m = Mat(field, cols)
    r, piv = rref(transpose(m))
    basis = r.data[: len(piv)].T
    return basis, piv


def require_local(R: Algebra) -> RingReport:
    rep = ring_report(R)
    if not rep.is_local:
        from .errors import UnsupportedRingError
        raise UnsupportedRingError(
            "ring is not local with prime residue field; radical has "
            f"dimension {rep.radical_dim}, expected {R.dim - 1}")
    return rep
