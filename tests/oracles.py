"""Independent brute-force oracles used to pin expected values.

Everything here is intentionally naive: pure-python row reduction, full
enumeration over tiny fields, quotient-of-tensor-space constructions.  The
oracles share no code with the package internals they check (beyond using
the same numpy arrays as containers), and they are only ever run on small
instances.
"""

from __future__ import annotations

import itertools

import numpy as np


def naive_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Textbook rref over GF(p) on a list of rows.  First-nonzero pivoting."""
    R = [[x % p for x in row] for row in rows]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if R[i][c] % p != 0:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [(x * inv) % p for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c] % p != 0:
                f = R[i][c]
                R[i] = [(a - f * b) % p for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def enumerate_kernel(rows: list[list[int]], p: int) -> list[tuple[int, ...]]:
    """All vectors v over GF(p)^n with A v = 0, by full enumeration."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    out = []
    for v in itertools.product(range(p), repeat=ncols):
        if all(sum(rows[i][j] * v[j] for j in range(ncols)) % p == 0 for i in range(nrows)):
            out.append(v)
    return out


def enumerate_solutions(rows: list[list[int]], b: list[int], p: int) -> list[tuple[int, ...]]:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    out = []
    for v in itertools.product(range(p), repeat=ncols):
        if all(sum(rows[i][j] * v[j] for j in range(ncols)) % p == b[i] % p for i in range(nrows)):
            out.append(v)
    return out


def naive_rank(rows: list[list[int]], p: int) -> int:
    return len(naive_rref(rows, p)[1])


# ---------------------------------------------------------------------------
# module-level oracles.  A module is taken here in raw form: a list of d
# action matrices (numpy int64, n x n) over GF(p), one per algebra basis
# element, together with the algebra's structure data where needed.


def enumerate_homs(p: int, act_src: list[np.ndarray], act_dst: list[np.ndarray]) -> list[np.ndarray]:
    """All linear maps f with f A_i = B_i f, by full enumeration.

    Only usable when p ** (n*m) is tiny.
    """
    n = act_src[0].shape[0] if act_src else 0
    m = act_dst[0].shape[0] if act_dst else 0
    out = []
    for flat in itertools.product(range(p), repeat=n * m):
        f = np.array(flat, dtype=np.int64).reshape(m, n)
        if all(
            np.array_equal((f @ a) % p, (b @ f) % p)
            for a, b in zip(act_src, act_dst)
        ):
            out.append(f)
    return out


def hom_space_dim(p: int, act_src: list[np.ndarray], act_dst: list[np.ndarray]) -> int:
    """dim Hom_R(M, N) by solving the commutation system with naive rref."""
    n = act_src[0].shape[0]
    m = act_dst[0].shape[0]
    rows = []
    for a, b in zip(act_src, act_dst):
        # constraint (f @ a - b @ f) = 0, unknowns f[r, s] flattened row-major
        for i in range(m):
            for j in range(n):
                row = [0] * (m * n)
                for s in range(n):
                    row[i * n + s] = (row[i * n + s] + int(a[s, j])) % p
                for r in range(m):
                    row[r * n + j] = (row[r * n + j] - int(b[i, r])) % p
                rows.append(row)
    if not rows:
        return m * n
    return m * n - naive_rank(rows, p)


def tensor_dim_quotient(p: int, act_m: list[np.ndarray], act_n: list[np.ndarray]) -> int:
    """dim (M tensor_R N) as dim of the k-tensor space modulo the span of
    (a m) x n - m x (a n) over algebra basis elements a."""
    n1 = act_m[0].shape[0]
    n2 = act_n[0].shape[0]
    rels = []
    for a, b in zip(act_m, act_n):
        for i in range(n1):
            for j in range(n2):
                row = [0] * (n1 * n2)
                for r in range(n1):
                    row[r * n2 + j] = (row[r * n2 + j] + int(a[r, i])) % p
                for s in range(n2):
                    row[i * n2 + s] = (row[i * n2 + s] - int(b[s, j])) % p
                rels.append(row)
    if not rels:
        return n1 * n2
    return n1 * n2 - naive_rank(rels, p)


# ---------------------------------------------------------------------------
# ring-level oracles.  A ring is read only through its element arithmetic
# (R.dim, R.field.p, R.one(), R.mul), with exact Python-int linear algebra.


def naive_kernel_basis(rows: list[list[int]], ncols: int, p: int) -> np.ndarray:
    """Kernel basis of the matrix with these rows, in the reduced form:
    one column per non-pivot column f of the rref, with a 1 at f and minus
    the pivot rows' entries in column f at the pivots."""
    red, piv = naive_rref(rows, p) if rows else ([], [])
    free = [c for c in range(ncols) if c not in piv]
    K = np.zeros((ncols, len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        K[f, j] = 1
        for i, c in enumerate(piv):
            K[c, j] = -red[i][f] % p
    return K


def element_power(R, u: np.ndarray, exp: int) -> np.ndarray:
    """u^exp by square-and-multiply, one element at a time."""
    acc = R.one()
    base = u.copy()
    while exp:
        if exp & 1:
            acc = R.mul(acc, base)
        base = R.mul(base, base)
        exp >>= 1
    return acc


def radical_by_elements(R) -> np.ndarray:
    """The nilradical of a commutative GF(p)-algebra as a kernel basis: the
    kernel of the t-fold Frobenius, p^t >= dim R.  In characteristic p the
    map x -> x^p is linear, and an element of a d-dimensional commutative
    algebra is nilpotent iff x^(p^t) = 0 once p^t >= d.  The Frobenius
    matrix is built column by column, its power with Python ints."""
    p, d = R.field.p, R.dim
    t, power = 0, 1
    while power < d:
        power *= p
        t += 1
    eye = np.eye(d, dtype=np.int64)
    frob = [[int(x) for x in element_power(R, eye[i], p)] for i in range(d)]  # row i: e_i^p
    total = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(t):                   # total: the transpose of the t-fold Frobenius
        total = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*frob)]
                 for row in total]
    return naive_kernel_basis([list(col) for col in zip(*total)], d, p)


def socle_and_loewy(R) -> tuple[int, int]:
    """(socle dimension, Loewy length) of a local GF(p)-algebra, from the
    radical basis of radical_by_elements: the socle is the common kernel
    of multiplication by the radical, the Loewy length the least t with
    rad^t = 0.  Every product is one R.mul."""
    p, d = R.field.p, R.dim
    rad = radical_by_elements(R).T
    if len(rad) == 0:
        return d, 1
    eye = np.eye(d, dtype=np.int64)
    rows = [list(col) for u in rad
            for col in zip(*[R.mul(u, eye[c]).tolist() for c in range(d)])]
    socle = d - naive_rank(rows, p)
    loewy, span = 1, rad                 # span: rows spanning rad^loewy
    while len(span):
        red, piv = naive_rref([R.mul(u, v).tolist() for u in rad for v in span], p)
        span = np.array(red[:len(piv)], dtype=np.int64).reshape(len(piv), d)
        loewy += 1
    return socle, loewy


def direct_sum(parts: list, label: str | None = None):
    """Dense direct sum of modules over one ring: the block-diagonal stack
    of their action matrices, wrapped unchecked in semidual's Module."""
    from semidual.modules import Module
    assert parts, "direct sum of nothing"
    ring = parts[0].ring
    d = ring.dim
    n = sum(m.dim for m in parts)
    act = np.zeros((d, n, n), dtype=np.int64)
    off = 0
    for m in parts:
        act[:, off:off + m.dim, off:off + m.dim] = m.action
        off += m.dim
    if label is None:
        label = " + ".join(m.label for m in parts)
    return Module(ring, act, label=label, check=False)
