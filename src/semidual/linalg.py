"""Exact dense linear algebra over prime fields GF(p).

Matrices are immutable values: int64 numpy arrays with entries reduced to
[0, p), wrapped together with their field.  Every reduction computes the
reduced row echelon form, which is unique, so every result -- echelon form,
pivot columns, kernel basis order, solve output -- is deterministic whatever
row each pivot is taken from.

The method is chosen by operand size, because tiny operands pay mostly
fixed per-call cost, and every tier is exact by a bound.  Products
(`_mul_arrays`) of at most _INT64_MAX_MACS multiply-adds are taken directly
in int64 when inner * (p-1)^2 < 2^63, so no sum can overflow; larger ones go
through BLAS in float64 when inner * (p-1)^2 < 2^52, below which every float
sum is an exact integer; the rest is summed in int64 chunks.

Matrices of at most _SMALL_CELLS cells are row reduced on a list of rows of
Python ints, which are exact at any p.  Larger ones (an all-zero one returns
at once) are restricted to their nonzero rows and columns and go through
Faugere-Lachartre rounds (Faugere and Lachartre, PASCO 2010; Bouillaguet
and Delaplace, CASC 2016).  A round reads every row's leading column off
the nonzero mask and takes the first row for each distinct leading column
as a pivot row, scaled to a leading 1.  On their own leading columns u the
pivot rows form a unit upper triangular T, and T^-1 = (I - N)(I + N^2)
(I + N^4)... with N = T - I nilpotent, so a few products bring them to
reduced form; when T = I, as for private rows that share no column with
any other, there is no product at all, and over a monomial quotient most
matrices have only such rows.  One product then clears u from the other
rows (their Schur complement, which the next round takes) and one from
the pivot rows of earlier rounds; the columns u are dropped, being unit
vectors in the result.  A round that would take fewer than _FL_MIN_PIVOTS
pivots, from more rows than that, hands its rows to the panel elimination
instead, and one product merges that result like a round's.

The rounds work in float64 on integers of absolute value below p, each
standing for its residue, and run only when (columns + 1) * (p-1)^2 <
2^52: a product of inner dimension at most the column count, plus one
such entry, sums integers below that bound and is exact, and it is
brought back below p by subtracting p times the nearest integer to x / p,
which costs a fraction of a `% p` (_reduce).  For larger p or more
columns, the panel elimination takes the whole nonzero block, as it does
when the first round would take too few pivots.

The panel elimination copies each panel of columns transposed, so that a
column is a contiguous row, and reduces it by rank-1 updates of the
columns from the pivot onward; rows are not swapped, pivot rows are marked
and moved to the top at the end.  An update subtracts a product of two
entries in [0, p), at most (p-1)^2, so after t updates without a `% p`
every entry lies in [-t(p-1)^2, p-1].  Then one accumulated update is
applied to the trailing block per panel, a float64 matrix product exact as
long as width * (p-1)^2 stays below 2^52; the panel width shrinks
automatically for large p (to one column once 2(p-1)^2 reaches 2^52, for p
above about 4.7 * 10^7).  A column takes fewer than width updates inside
its panel, so by the same bound no entry can leave int64 there, and the
panel is reduced mod p once, at its end: after every column near p = 2^31,
once per 64 columns at small p.  The reduced row echelon form is unique,
so neither the rounds, the size tier nor the hand-over to the panel
changes any output.  Everything else (kernel, solve, rank, inverse) is
derived from the echelon form.

`_sparse_rank` ranks a matrix given only by coordinates, with no array of
its full shape: repeated positions are summed, the private rows are split
off by their column counts (_private_split) and each counts 1, and only
the coupled rows, on the columns they touch, are densified and ranked by
`rank`.  The rank does not depend on how the pivots are chosen, so the
private rows are simply counted.  The Ext and Tor differentials over
monomial quotients are ranked this way (complexes._differential_rank).

The surface is what the library uses: `Field`, `Mat` and the six
reductions `rref`, `rank`, `kernel_basis`, `solve`, `expressor` and
`extend_basis`, which take `Mat` arguments; the library also imports the
private helpers `_mul_arrays`, for products of bare arrays, and
`_sparse_rank`.  Transposes, stacks and sums are taken on the arrays with
numpy.  The reductions keep their `Mat` arguments because
`bench/tracer.py` wraps them by name and counts cells from the arguments'
`rows` and `cols`; `_sparse_rank` passes its dense remainder through
`rank`, so every dense reduction is still counted there.

One cell budget, _MAX_CELLS, bounds every large array the library builds
for a matrix; `_check_cells` refuses a larger one with an InputError that
names its shape, before numpy is asked for the memory.

Arrays are reduced mod p once.  `Mat(field, data)` takes `% p` of whatever
it is given, since sessions, tests and user code enter there.  Every array
this module produces is already in [0, p), so `rref`, `kernel_basis`,
`solve` and `expressor` wrap their results with `Mat._wrap`, which takes no
modulo and copies only to make an array contiguous.  `_echelon` likewise
expects entries in [0, p) and takes no `% p` of its input, which it never
writes; it copies only what it eliminates in place.  An int64 `% p` costs
about ten times a plain copy, and the large differentials of deep
resolutions were reduced again by every wrapper they passed through.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from .errors import InputError

_FLOAT_EXACT = 2 ** 52
_INT64_EXACT = 2 ** 63
# Products of at most this many multiply-adds (stack included) are taken in
# int64 without BLAS.  Measured on the products of one small-rings benchmark
# pass (52,209 calls), best of 3 per call: up to 2^12 multiply-adds int64
# saves 1.4-2.6 us of the float path's 4-7 us per call; at 2^13 the two tie,
# and from 2^14 up the float path wins (at 2^16, 47 us against 71 us).
_INT64_MAX_MACS = 2 ** 12
# Matrices of at most this many cells are reduced over Python ints; larger
# ones go through the pivot rounds and the panel elimination.
# Measured on the echelon inputs of one small-rings benchmark pass, best of
# 3 per call: at 129-256 cells 31 us against 81 us per call (270 calls), at
# 257-512 cells 45 us against 70 us, at 513-1024 cells 84 us against 90 us.
_SMALL_CELLS = 256
# A Faugere-Lachartre round (_pivot_round) that would take fewer pivots
# than this, from more rows, hands its matrix to the panel elimination: a
# round costs a few dozen numpy calls, about what the panel spends on 5-10
# pivots of the matrices reduced here.  Measured on the echelon inputs of
# one hom-tensor pass against the private-row split and panel elimination
# that the rounds replaced (interleaved, best of 9 each): at 4 the few-row
# wide cokernels (12, 66), (12, 48) and (6, 60) took 1.16-1.35x the time,
# their rounds taking 3-5 pivots each; at 8 they take 0.9-1.03x, and the
# rounds of 13-30 pivots of the (81, 54) and (108, 54) cokernels still run
# 1.6-1.8x faster; 12 changes nothing there and loses on small-rings.
_FL_MIN_PIVOTS = 8
# The cell budget: the most int64 cells one matrix or stack may have when it
# is built by radical_span, cover_matrix, block_matrix_from_entries, the
# ring entries or the coordinate arrays of a differential, a product
# (_mul_arrays) or a kernel basis, or reduced by _echelon.  2^27 cells are
# 1 GiB.  A larger array is refused by _check_cells with an InputError that
# names its shape (the CLI exits 2) before numpy is asked for it.  Over R4
# (m^2 = 0) the resolution of k past its first syzygy is read in closed
# form, with no cover and no kernel, so the largest array that `ext R4
# --from k --to D --bound B` checks is the coordinate list of its last
# differential, (3^(B+1), 1): 19683 cells at --bound 8.  The largest in the
# acceptance criteria with R4 at degree 4 and bound 5 is an induced
# differential (2916, 8748) and its reduction, about 2^24.6 cells.
_MAX_CELLS = 2 ** 27
# glibc's malloc serves a block above its mmap threshold with fresh pages
# and returns them on free.  The threshold starts at 128 KiB and rises to
# the size of each such block freed, up to 32 MiB, and the top of the heap
# is returned once more than twice the threshold is free there.  So whether
# a multi-megabyte array lands on memory the process has already touched or
# on fresh pages, each one a minor page fault, depends on which arrays
# happened to be freed before it: in the benchmark's deep-r4 ops the same
# computation took 8,000 or 15,800 faults per pass, and 15-20% more time,
# depending on unrelated small allocations.  Both thresholds are pinned at
# the ceiling that rule reaches; with them a pass takes about 250 faults.
_MALLOC_MMAP_THRESHOLD = 32 * 2 ** 20
_MALLOC_TRIM_THRESHOLD = 2 * _MALLOC_MMAP_THRESHOLD


def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds; other C libraries are left
    alone."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, _MALLOC_MMAP_THRESHOLD)      # M_MMAP_THRESHOLD
    mallopt(-1, _MALLOC_TRIM_THRESHOLD)      # M_TRIM_THRESHOLD


_pin_malloc_thresholds()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond 2^31
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """GF(p) for a prime p < 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise InputError(f"field order must be prime, got {p!r}")
        if p >= 2 ** 31:
            raise InputError(f"field order too large: {p}")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class Mat:
    """Immutable matrix over a prime field.

    data is an int64 array of shape (rows, cols) with entries in [0, p).
    The constructor reduces whatever it is given; `_wrap` trusts its caller.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise InputError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        arr = arr % field.p
        arr.setflags(write=False)
        self.field = field
        self.data = arr

    @classmethod
    def _wrap(cls, field: Field, arr: np.ndarray) -> "Mat":
        """Wrap a 2-dimensional int64 array whose entries already lie in
        [0, p): no modulo, and no copy unless arr is not C-contiguous.  The
        array is made read-only, so the caller must not write to it later."""
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self = object.__new__(cls)
        self.field = field
        self.data = arr
        return self

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and other.data.shape == self.data.shape
            and bool(np.array_equal(other.data, self.data))
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.data.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"Mat({self.field!r}, {self.data.tolist()!r})"


def _mul_arrays(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for a matrix a and a matrix b, or a stack b of
    shape (s, n, k) of matrices, which gives the (s, m, k) stack of products.
    Entries lie in [0, p).

    Three tiers, each exact because no partial sum can leave the range it is
    computed in: small int64 products, of at most _INT64_MAX_MACS
    multiply-adds with inner * (p-1)^2 < 2^63, are taken directly, which skips
    the float round trip but has no BLAS behind it; larger ones use BLAS
    through float64 when inner * (p-1)^2 < 2^52; otherwise the sum is
    chunked in int64.  A result of more than _MAX_CELLS cells is refused
    by _check_cells."""
    inner = a.shape[1]
    shape = b.shape[:-2] + (a.shape[0], b.shape[-1])
    if a.shape[0] * b.shape[-1] * (b.shape[0] if b.ndim == 3 else 1) > _MAX_CELLS:
        _check_cells(shape, "product")
    if inner == 0:
        return np.zeros(shape, dtype=np.int64)
    per = (p - 1) ** 2
    if (a.shape[0] * b.size <= _INT64_MAX_MACS and per * inner < _INT64_EXACT
            and a.dtype == b.dtype == np.int64):
        out = a @ b
        return np.remainder(out, p, out=out)
    if per * inner < _FLOAT_EXACT:
        # rounded and reduced in place: one float and one int result alive
        prod = a.astype(np.float64) @ b.astype(np.float64)
        np.rint(prod, out=prod)
        out = prod.astype(np.int64)
        del prod
        return np.remainder(out, p, out=out)
    # large p: int64 accumulation, chunked so sums stay below 2^62
    chunk = max(1, (2 ** 62) // per)
    acc = np.zeros(shape, dtype=np.int64)
    for lo in range(0, inner, chunk):
        hi = min(lo + chunk, inner)
        acc += a[:, lo:hi] @ b[..., lo:hi, :]
        np.remainder(acc, p, out=acc)
    return acc


def _check_cells(shape, what: str) -> None:
    """Raise an InputError naming `what` and its shape when an array of that
    shape would have more than _MAX_CELLS cells."""
    cells = 1
    for n in shape:
        cells *= int(n)
    if cells > _MAX_CELLS:
        raise InputError(f"{what} of shape {tuple(int(n) for n in shape)} has {cells} cells, "
                         f"over the budget of {_MAX_CELLS} cells per array")


def _private_split(rows: np.ndarray, cols: np.ndarray,
                   ncols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a matrix's nonzero positions, listed row by row with columns
    ascending inside a row (the order of np.nonzero), into private rows
    (nonzero rows that share no column with any other row) and coupled rows.

    Returns (starts, private, coupled): starts[q] is the position of the
    first entry of the q-th nonzero row, which is its leading entry,
    private[q] says whether that row is private, and coupled says for each
    entry whether its row is coupled."""
    shared = np.bincount(cols, minlength=ncols)[cols] > 1
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    row_coupled = np.logical_or.reduceat(shared, starts)
    lengths = np.diff(np.append(starts, rows.size))
    return starts, ~row_coupled, np.repeat(row_coupled, lengths)


def _echelon(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p with first-nonzero pivoting, of an
    int64 array with entries in [0, p).

    The input is never written: the rounds read it and build new arrays,
    and the panel elimination works on a copy.  An all-zero input returns
    as soon as it is seen to have no nonzero row.  Otherwise the nonzero
    rows, on the nonzero columns, go through Faugere-Lachartre rounds
    (_pivot_round) when (columns + 1) * (p-1)^2 < 2^52, so that the
    rounds' float64 products are exact (_reduce), and when the first round
    would take at least _FL_MIN_PIVOTS pivots (or every row); else the
    panel elimination takes them whole.  Rounds run until no row is left,
    or until a round would take too few pivots; the panel elimination then
    reduces what is left (_panel_round).  A column that becomes a pivot
    column is dropped from the working arrays, since it is a unit vector
    in the result.  Matrices of at most _SMALL_CELLS cells are reduced
    over Python ints instead.  The cell budget is checked before the
    output and the copies of a nonzero input are allocated.
    """
    if arr.size <= _SMALL_CELLS:
        return _small_echelon(arr, p)
    R = np.asarray(arr, dtype=np.int64)
    nz = R != 0
    rows = np.flatnonzero(nz.any(axis=1))
    if rows.size == 0:
        return np.zeros(R.shape, dtype=np.int64), []
    _check_cells(R.shape, "matrix to reduce")
    cols = np.flatnonzero(nz.any(axis=0))
    A = R
    if rows.size < R.shape[0]:
        A, nz = A[rows], nz[rows]
    if cols.size < R.shape[1]:
        A, nz = A[:, cols], nz[:, cols]
    rounds = (cols.size + 1) * (p - 1) ** 2 < _FLOAT_EXACT
    if rounds:
        first, u = _distinct_leads(nz)
        rounds = u.size >= min(_FL_MIN_PIVOTS, A.shape[0])
    if not rounds:
        if A is R:
            return _panel_echelon(R.copy(order="K"), p)
        Q, local = _panel_echelon(A, p)           # A is a gathered copy
        out = np.zeros(R.shape, dtype=np.int64)
        out[:len(local), cols] = Q[:len(local)]
        return out, cols[local].tolist()
    # the working arrays replace A and nz, so that a large input's copies
    # are freed as the rounds go
    A = A.astype(np.float64)
    # P: the pivot rows found so far, reduced, on the columns in cols, the
    # columns that are not pivot columns yet; piv: their pivot columns
    P, piv = A[:0], []
    while True:
        if u.size < min(_FL_MIN_PIVOTS, A.shape[0]):
            local, keep, P, A = _panel_round(A, P, p)
        else:
            local, keep, P, A = _pivot_round(A, first, u, P, p)
        piv.append(cols[local])
        cols = cols[keep]
        nz = A != 0
        live = nz.any(axis=1)
        if not live.any():
            break
        if not live.all():
            A, nz = A[live], nz[live]
        first, u = _distinct_leads(nz)
    piv = np.concatenate(piv)
    order = np.argsort(piv)
    piv = piv[order]
    out = np.zeros(R.shape, dtype=np.int64)
    out[np.arange(piv.size), piv] = 1
    if cols.size:
        out[:piv.size, cols] = _residues(P[order], p)
    return out, piv.tolist()


# The rounds' arithmetic.  Every working entry is a float64 integer of
# absolute value below p that represents its residue, and a matrix reduced
# by rounds has n columns with (n + 1) * (p-1)^2 < 2^52, so a product of
# inner dimension at most n, plus one more such entry, is a sum of integers
# below that bound in absolute value and is computed exactly.  _reduce
# brings it back by subtracting p times the nearest integer to the computed
# x / p, which lies within 1/p of the true quotient, so the result, an
# exact integer congruent to x, is at most p/2 + 1 in absolute value:
# below p for p >= 3, and for p = 2 the quotient is computed exactly.  This
# avoids numpy's float and int64 `%`, which cost several times a product on
# the small matrices reduced here.  A value is zero mod p exactly when it
# is 0, so nonzero masks read the same.

def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x, a fresh float64 array of exact sums, brought below p in absolute
    value in place."""
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """A float64 working array as a new int64 array in [0, p)."""
    return np.remainder(a.astype(np.int64), p)


def _product(X: np.ndarray, Q: np.ndarray, p: int) -> np.ndarray:
    return _reduce(X @ Q, p)


def _add_product(C: np.ndarray, X: np.ndarray, Q: np.ndarray, sign: int,
                 p: int) -> np.ndarray:
    """C + sign * X @ Q, sign +1 or -1."""
    out = X @ Q
    if sign > 0:
        np.add(C, out, out=out)
    else:
        np.subtract(C, out, out=out)
    return _reduce(out, p)


def _scale(B: np.ndarray, lead: np.ndarray, p: int) -> np.ndarray:
    """B, a fresh working array, with row i divided by its nonzero entry
    lead[i], in place.  A residue of +-1 is its own inverse, and negating a
    row keeps every absolute value, so when every row is led by +-1 the rows
    led by -1 are negated and nothing is reduced; else each leading entry is
    inverted by Python's pow."""
    one = lead == 1
    if one.all():
        return B
    minus = (lead == -1) | (lead == p - 1)
    if (one | minus).all():
        return np.negative(B, out=B, where=minus[:, None])
    vals = np.remainder(lead.astype(np.int64), p).tolist()
    B *= np.array([pow(v, p - 2, p) for v in vals], dtype=np.float64)[:, None]
    return _reduce(B, p)


def _eliminate(C: np.ndarray, u: np.ndarray, keep: np.ndarray, Q: np.ndarray,
               p: int) -> np.ndarray:
    """C with its columns u cleared by the rows of a reduced block whose row
    j has a 1 at column u[j] and 0 at the rest of u, Q being that block on
    the columns `keep` (the complement of u): C[:, keep] - C[:, u] @ Q, one
    product, none when C is zero on u."""
    X = C[:, u]
    if not X.any():
        return C[:, keep]
    return _add_product(C[:, keep], X, Q, -1, p)


def _distinct_leads(nz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, u) for the nonzero mask nz of a matrix with no zero row: u
    the distinct leading columns of its rows, ascending, and first[j] the
    first row that leads at u[j]."""
    lead = nz.argmax(axis=1)
    order = lead.argsort(kind="stable")
    sl = lead[order]
    head = np.empty(sl.size, dtype=bool)
    head[0] = True
    np.not_equal(sl[1:], sl[:-1], out=head[1:])
    return order[head], sl[head]


def _pivot_round(A: np.ndarray, first: np.ndarray, u: np.ndarray, P: np.ndarray,
                 p: int):
    """One Faugere-Lachartre round on A, a working array with no zero row,
    against the reduced pivot rows P found so far on the same columns;
    u are the distinct leading columns of A's rows and first the first row
    leading at each (_distinct_leads).

    Those rows become pivot rows, scaled to a leading 1.  Sorted by leading
    column, the pivot rows restricted to the columns u form T, unit upper
    triangular: row i is zero before its leading column u[i].  With
    N = T - I, nilpotent, T^-1 = (I - N)(I + N^2)(I + N^4)..., applied to
    the pivot rows by two products per factor until the power of N
    vanishes; no product is made when T = I, which includes every private
    row (one that shares no column with another).  That brings the pivot
    rows to reduced form on u.  The other rows of A then lose their entries
    on u by one product (their Schur complement), and P loses its entries
    there by one more.

    Returns (u, keep, P', S): the mask keep of the columns outside u, P
    with the new pivot rows appended and S the Schur complement, both
    restricted to keep."""
    k = u.size
    B = A[first]
    diag = np.arange(k)
    B = _scale(B, B[diag, u], p)
    keep = np.ones(A.shape[1], dtype=bool)
    keep[u] = False
    T = B[:, u]
    Bk = B[:, keep]
    if np.count_nonzero(T) > k:
        Nk = T
        Nk[diag, diag] = 0
        sign = -1
        while True:
            Bk = _add_product(Bk, Nk, Bk, sign, p)
            Nk = _product(Nk, Nk, p)
            if not Nk.any():
                break
            sign = 1
    if k == A.shape[0]:
        S = A[:0, keep]
    else:
        others = np.ones(A.shape[0], dtype=bool)
        others[first] = False
        S = _eliminate(A[others], u, keep, Bk, p)
    return u, keep, np.concatenate([_eliminate(P, u, keep, Bk, p), Bk]), S


def _panel_round(A: np.ndarray, P: np.ndarray, p: int):
    """The panel elimination of A, the Schur complement a round left,
    merged like a round (_pivot_round): its pivot rows are already
    reduced, so one product clears their pivot columns from P.  Returns
    (local pivot columns, keep, P', an empty Schur complement)."""
    Q, local = _panel_echelon(_residues(A, p), p)
    local = np.asarray(local, dtype=np.int64)
    keep = np.ones(A.shape[1], dtype=bool)
    keep[local] = False
    Q = Q[:local.size, keep].astype(np.float64)
    return local, keep, np.concatenate([_eliminate(P, local, keep, Q, p), Q]), A[:0, keep]


def _small_echelon(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p of a small matrix with entries in
    [0, p), by first-nonzero pivoting on a list of rows of Python ints,
    which are exact at any p.  Only rows with a nonzero multiplier are
    touched."""
    rows, cols = arr.shape
    M = arr.tolist()
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if M[i][c]:
                break
        else:
            continue
        if i != r:
            M[r], M[i] = M[i], M[r]
        row = M[r]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = M[r] = [x * inv % p for x in row]
        for i in range(rows):
            m = M[i][c]
            if m and i != r:
                M[i] = [(x - m * y) % p for x, y in zip(M[i], row)]
        pivots.append(c)
        r += 1
    return np.array(M, dtype=np.int64).reshape(rows, cols), pivots


def _panel_echelon(R: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of R, an int64 array with entries in [0, p),
    by elimination in place.

    Each panel of columns is copied transposed, so panel column c is the
    contiguous row P[c], and reduced by rank-1 updates:
    - the pivot of column c is its first nonzero entry in a row that is not
      yet a pivot row.  Rows are never swapped; pivot rows are recorded, and
      moved to the top, in pivot order, at the end, when every other row is
      zero;
    - only the panel columns after c are updated.  Every earlier column is
      zero in the pivot row, which was not a pivot row when that column was
      eliminated (or found zero outside the pivot rows).  Column c itself
      keeps the multipliers, with 0 at the pivot row, for the trailing
      update, and becomes the unit vector at its pivot row at the panel's
      end;
    - `% p` is taken of column c before its pivot is sought, of the scaled
      pivot row and of the whole panel once, at its end, but not after each
      update.  That is exact: the multipliers and the pivot row lie in
      [0, p), so an update subtracts at most (p-1)^2 from an entry, and a
      column takes at most width - 1 updates, so every entry stays in
      [-(width-1)(p-1)^2, p-1], inside 2^52 by the width rule below and so
      far inside int64.  At width 1 (p above about 4.7 * 10^7) no update
      happens in the panel at all.
    The trailing columns then take one accumulated update per panel, a
    product exact by the tiers of _mul_arrays; the panel width adapts so
    width * (p-1)^2 < 2^52, which keeps that product in float64 (at width 1
    this is plain rank-1 elimination).
    """
    rows, cols = R.shape
    pivots: list[int] = []
    if rows == 0 or cols == 0:
        return R, pivots
    width = 64
    while width > 1 and width * (p - 1) ** 2 >= _FLOAT_EXACT:
        width //= 2
    free = np.ones(rows, dtype=bool)              # rows not yet pivot rows
    order: list[int] = []                         # pivot row of each pivot
    c0 = 0
    while len(order) < rows and c0 < cols:
        c1 = min(c0 + width, cols)
        P = R[:, c0:c1].T.copy()
        batch: list[int] = []     # pivot row per panel pivot
        local: list[int] = []     # its column in the panel
        invs: list[int] = []      # inverse applied when scaling that pivot row
        for c in range(c1 - c0):
            if len(order) == rows:
                break
            col = P[c]
            if batch:
                np.remainder(col, p, out=col)
            cand = np.logical_and(col, free)
            pr = int(cand.argmax())
            if not cand[pr]:
                continue
            inv = pow(int(col[pr]), p - 2, p)
            col[pr] = 0               # col now holds the multiplier of each row
            rest = P[c + 1:]
            prow = rest[:, pr] % p
            if inv != 1:
                prow *= inv
                prow %= p
            rest -= np.outer(prow, col)
            rest[:, pr] = prow
            free[pr] = False
            order.append(pr)
            pivots.append(c0 + c)
            batch.append(pr)
            local.append(c)
            invs.append(inv)
        np.remainder(P, p, out=P)
        M = P[local].T            # rows x k, multiplier per step
        P[local] = 0
        P[local, batch] = 1
        R[:, c0:c1] = P.T
        if batch and c1 < cols:   # the trailing update; the last panel has none
            k = len(batch)
            T0 = R[batch, c1:]                    # stale trailing of pivot rows
            # S[j] = trailing of pivot row j as it stood when step j used it:
            # corrections from earlier steps, then the scaling.
            S = np.zeros_like(T0)
            for j in range(k):
                acc = T0[j]
                if j:
                    upd = _mul_arrays(M[batch[j], :j].reshape(1, j), S[:j], p)
                    acc = (acc - upd[0]) % p
                S[j] = (acc * invs[j]) % p if invs[j] != 1 else acc
            # final pivot rows: step j replaced the row by S[j], later steps
            # subtract their multiples.
            U = np.zeros((k, k), dtype=np.int64)
            for j in range(k):
                U[j, j + 1:] = M[batch[j], j + 1:]
            R[batch, c1:] = (S - _mul_arrays(U, S, p)) % p
            others = np.ones(rows, dtype=bool)
            others[batch] = False
            Mo = M[others]
            if Mo.size and Mo.any():
                R[others, c1:] = (R[others, c1:] - _mul_arrays(Mo, S, p)) % p
        c0 = c1
    r = len(order)
    if order != list(range(r)):
        R[:r] = R[order]          # the right side is gathered first
        R[r:] = 0
    return R, pivots


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    R, piv = _echelon(a.data, a.field.p)
    return Mat._wrap(a.field, R), piv


def rank(a: Mat) -> int:
    _, piv = _echelon(a.data, a.field.p)
    return len(piv)


def _sparse_rank(field: Field, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray,
                vals: np.ndarray) -> int:
    """Rank of the matrix of the given shape whose entries are given as
    coordinates: vals[e], in [0, p), sits at (rows[e], cols[e]), and the
    values at a repeated position add mod p (they may cancel).

    No matrix of the full shape is built.  After the repeats are summed and
    the zeros dropped, the private rows are split off by _private_split;
    each one adds 1 to the rank.  Only the coupled rows, on the
    columns they touch, are densified, and that remainder is ranked by
    `rank`.  No coordinates give rank 0 with nothing built."""
    if rows.size == 0:
        return 0
    p = field.p
    n = shape[1]
    key = rows.astype(np.int64) * n + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    summed = np.add.reduceat(np.asarray(vals, dtype=np.int64)[order], head) % p
    live = summed != 0
    key, summed = key[head][live], summed[live]
    if key.size == 0:
        return 0
    rows, cols = np.divmod(key, n)
    starts, private, coupled = _private_split(rows, cols, n)
    crow = rows[starts[~private]]
    n_private = starts.size - crow.size
    if crow.size == 0:
        return n_private
    used = np.bincount(cols[coupled], minlength=n) > 0
    ccol = np.flatnonzero(used)
    _check_cells((crow.size, ccol.size), "coupled part of a sparse matrix")
    sub = np.zeros((crow.size, ccol.size), dtype=np.int64)
    sub[np.searchsorted(crow, rows[coupled]), np.cumsum(used)[cols[coupled]] - 1] = summed[coupled]
    return n_private + rank(Mat._wrap(field, sub))


def kernel_basis(a: Mat) -> Mat:
    """Columns form a basis of the right null space.

    One basis column per free column of the echelon form, ordered by free
    column index ascending; the free coordinate is set to 1.
    """
    R, piv = _echelon(a.data, a.field.p)
    return Mat._wrap(a.field, _kernel_of_echelon(R, piv, a.field.p))


def _kernel_of_echelon(R: np.ndarray, piv: list[int], p: int) -> np.ndarray:
    """The kernel_basis columns read off a reduced row echelon form R with
    pivot columns piv."""
    n = R.shape[1]
    is_free = np.ones(n, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    _check_cells((n, free.size), "kernel basis")
    K = np.zeros((n, free.size), dtype=np.int64)
    K[free, np.arange(free.size)] = 1
    K[piv] = (-R[:len(piv)][:, free]) % p
    return K


def solve(a: Mat, b: Mat) -> Mat | None:
    """One solution X of a @ X = b, or None if inconsistent.

    Free coordinates are set to 0, so the answer is deterministic.  b may
    have several columns; they are solved together.
    """
    if a.field != b.field:
        raise InputError(f"field mismatch: {a.field} vs {b.field}")
    if a.rows != b.rows:
        raise InputError(f"row mismatch: {a.rows} vs {b.rows}")
    p = a.field.p
    aug = np.hstack([a.data, b.data])
    R, piv = _echelon(aug, p)
    if piv and piv[-1] >= a.cols:
        return None
    X = np.zeros((a.cols, b.cols), dtype=np.int64)
    for i, pc in enumerate(piv):
        X[pc] = R[i, a.cols:]
    return Mat._wrap(a.field, X)


def expressor(basis: Mat) -> Mat:
    """For a matrix whose columns are linearly independent, return E with
    E @ basis = identity.  Applying E to any vector inside the column span
    yields its coordinates; behaviour outside the span is unspecified."""
    p = basis.field.p
    n, k = basis.rows, basis.cols
    aug = np.hstack([basis.data, np.eye(n, dtype=np.int64)])
    R, piv = _echelon(aug, p)
    if len([c for c in piv if c < k]) != k:
        raise InputError("expressor: columns are not independent")
    return Mat._wrap(basis.field, R[:k, k:])


def extend_basis(have: Mat, candidates: Mat) -> list[int]:
    """Indices of candidate columns that extend the span of `have`.

    Greedy in column order: a candidate is taken iff it is outside the span
    of `have` plus the candidates already taken.  Deterministic.
    """
    if have.cols and candidates.cols:
        assert have.rows == candidates.rows
    p = have.field.p
    aug = np.hstack([have.data, candidates.data])
    _, piv = _echelon(aug, p)
    return [c - have.cols for c in piv if c >= have.cols]
