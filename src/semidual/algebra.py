"""Artinian monomial quotients GF(p)[x_1..x_r]/(monomials).

The ring is given by its monomial data: its basis is the set of standard
monomials, the monomials outside the ideal, in degree-then-lexicographic
order, so the unit 1 is e_0; and the products, quotients and divisors of
basis monomials are index tables (MonomialData).  A monomial quotient is
commutative, associative and unital by construction, and local: every
monomial other than 1 is nilpotent, and a unit relation is rejected, so
the maximal ideal m is the span of e_1..e_(d-1), generated as an ideal by
the variables (radical_generators), and m * N = sum_v x_v * N for every
submodule N.  MonomialData.divisors gives, for each standard monomial and
variable, the basis index of the quotient by that variable, which
modules.presentation uses to keep only the relations at minimal
positions, and MonomialData.quotients the division table that
modules.presentation_to_module reads.  Elements are coordinate vectors
(int64, length dim).

The dense structure constants c[i,j,k] (e_i * e_j = sum_k c[i,j,k] e_k)
and the left multiplication matrices are made from the product table on
first use; ring construction builds neither.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotCofiniteError, ParseError
from .linalg import Field, Mat, _mul_arrays
from .memo import memo


class Algebra:
    __slots__ = ("field", "dim", "labels", "unit", "monomial_data", "name",
                 "_structure", "_left_mult", "_fingerprint")

    def __init__(self, field: Field, data: MonomialData, name: str = "R"):
        d = len(data.basis_exponents)
        unit = np.zeros(d, dtype=np.int64)
        unit[0] = 1
        unit.setflags(write=False)
        self.field = field
        self.dim = d
        self.labels = [_monomial_label(data.variables, e) for e in data.basis_exponents]
        self.unit = unit
        self.monomial_data = data
        self.name = name
        self._structure = self._left_mult = self._fingerprint = None

    @property
    def structure(self) -> np.ndarray:
        """c[i, j, k] = 1 when e_i * e_j = e_k, read-only."""
        if self._structure is None:
            self._structure = self._dense(transpose=False)
        return self._structure

    @property
    def left_mult(self) -> np.ndarray:
        """left_mult[i] = matrix of multiplication by e_i (acts on columns):
        structure with its last two axes swapped, read-only."""
        if self._left_mult is None:
            self._left_mult = self._dense(transpose=True)
        return self._left_mult

    def _dense(self, transpose: bool) -> np.ndarray:
        """The (d, d, d) 0/1 table with a 1 at (i, j, k), or at (i, k, j)
        when transposed, for every product e_i * e_j = e_k."""
        products = self.monomial_data.products
        out = np.zeros((self.dim,) * 3, dtype=np.int64)
        i, j = np.nonzero(products >= 0)
        k = products[i, j]
        out[(i, k, j) if transpose else (i, j, k)] = 1
        out.setflags(write=False)
        return out

    # -- element arithmetic ------------------------------------------------

    def mul(self, u, v) -> np.ndarray:
        # (u*) applied to v through _mul_arrays, exact for every p
        v = np.asarray(v, dtype=np.int64).reshape(-1, 1) % self.field.p
        return _mul_arrays(self.mult_matrix(u), v, self.field.p)[:, 0]

    def mult_matrix(self, u) -> np.ndarray:
        """Matrix of multiplication by the element u: entry (r, c) is the
        coefficient of e_r / e_c in u (MonomialData.quotients), or 0."""
        u = np.asarray(u, dtype=np.int64).reshape(self.dim) % self.field.p
        q = self.monomial_data.quotients
        return np.where(q >= 0, u[q], 0)

    def one(self) -> np.ndarray:
        return self.unit.copy()

    def element_from_string(self, text: str) -> np.ndarray:
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
        # SHA-256 of (p, structure constants, unit) as int64 bytes, the
        # constants hashed one (d, d) slab c[i] at a time
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(str(self.field.p).encode())
            d, products = self.dim, self.monomial_data.products
            slab = np.zeros((d, d), dtype=np.int64)
            for row in products:
                j = np.flatnonzero(row >= 0)
                slab[j, row[j]] = 1
                h.update(slab.data)
                slab[j, row[j]] = 0
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
    """Exponent data of a monomial quotient, built with its basis.

    divisors[i, v] is the basis index of e_i / x_v, or -1 when x_v does not
    divide e_i.  variable_columns holds, as identity columns, the variables
    that are nonzero in the quotient: they generate the maximal ideal.
    products[i, c] is the basis index of e_i * e_c, or -1 when the product
    lies in the ideal.  quotients[r, c] is the basis index of e_r / e_c, or
    -1 when e_c does not divide e_r: the one monomial that sends e_c to e_r.
    All four arrays are read-only.
    """

    variables: list[str]
    relations: list[tuple[int, ...]]
    basis_exponents: list[tuple[int, ...]]
    index: dict
    divisors: np.ndarray
    variable_columns: np.ndarray
    products: np.ndarray
    quotients: np.ndarray

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
    divisors, variable_columns, quotients = _divisor_tables(standard, bounds)
    # a product outside the ideal lies in the exponent box, so it is standard
    products = np.array([[index.get(tuple(a + b for a, b in zip(ei, ej)), -1)
                          for ej in standard] for ei in standard], dtype=np.int64)
    products.setflags(write=False)
    data = MonomialData(list(variables), rel_exps, standard, index,
                        divisors, variable_columns, products, quotients)
    return Algebra(field, data, name=name)


def _divisor_tables(standard: list[tuple[int, ...]], bounds: list[int]):
    """(divisors, variable_columns, quotients) of MonomialData by lookups:
    exponent tuples in the box are coded in mixed radix, linearly, and a
    table over the box maps codes of standard monomials to their index.
    divisors is the columns of quotients at the variables."""
    d, nvars = len(standard), len(bounds)
    exps = np.array(standard, dtype=np.int64).reshape(d, nvars)
    strides = np.ones(nvars, dtype=np.int64)
    for v in range(nvars - 2, -1, -1):
        strides[v] = strides[v + 1] * bounds[v + 1]
    codes = exps @ strides
    lookup = np.full(int(np.prod(bounds, dtype=np.int64)), -1, dtype=np.int64)
    lookup[codes] = np.arange(d)
    r, c = np.nonzero((exps[:, None, :] >= exps[None, :, :]).all(axis=2))
    quotients = np.full((d, d), -1, dtype=np.int64)
    quotients[r, c] = lookup[codes[r] - codes[c]]
    # x_v is standard unless x_v itself is a relation, when its bound is 1
    present = [v for v in range(nvars) if bounds[v] > 1]
    at = lookup[strides[present]]
    variable_columns = np.zeros((d, len(present)), dtype=np.int64)
    variable_columns[at, np.arange(len(present))] = 1
    divisors = np.full((d, nvars), -1, dtype=np.int64)
    divisors[:, present] = quotients[:, at]
    for table in (divisors, variable_columns, quotients):
        table.setflags(write=False)
    return divisors, variable_columns, quotients


# -- invariants ------------------------------------------------------------


@memo
def radical(R: Algebra) -> Mat:
    """Basis (columns) of the maximal ideal, memoised per ring fingerprint:
    the standard monomials other than 1."""
    return Mat._wrap(R.field, np.eye(R.dim, dtype=np.int64)[:, 1:])


def radical_generators(R: Algebra) -> np.ndarray:
    """Columns generating the maximal ideal as an ideal: the variables that
    are nonzero in the quotient."""
    return R.monomial_data.variable_columns


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

    A monomial quotient is local with residue field GF(p) itself: its
    radical is every monomial but 1, of codimension 1.  is_gorenstein is a
    1-dimensional socle.  No product or echelon: a variable sends distinct
    monomials to distinct monomials or to 0, so the socle (the variables'
    common kernel) is spanned by the monomials they all send to -1, and m^t
    by those of degree >= t, zero past the top degree.
    """
    data = R.monomial_data
    at = np.flatnonzero(data.variable_columns.any(axis=1))
    socle_dim = int((data.products[at] < 0).all(axis=0).sum())
    loewy = max(map(sum, data.basis_exponents)) + 1
    return RingReport(R.dim, True, R.dim - 1, socle_dim, socle_dim == 1, loewy, radical(R))
