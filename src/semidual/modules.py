"""Finite-dimensional modules over a commutative local algebra.

A Module is a coordinate space k^n with one action matrix per algebra basis
element.  Modules built directly from action matrices are validated (unit
acts as identity, the representation law holds entrywise; commutativity of
the action matrices follows from the law since the algebra is commutative,
and is re-checked by the same comparison).  Modules derived by the
constructions in this file -- kernels, quotients, duals, hom and tensor
carriers -- are correct by construction and skip re-validation; validate()
can always be called explicitly.

Direct powers W^b (used pervasively by resolutions: free modules are powers
of the regular module, injective resolutions are powers of its dual) carry
their block structure instead of materialised action matrices.  Basis order
inside a power is copy-major: b consecutive copies of W's basis.

act_all applies every basis element of R to a set of columns, a (d, dim, k)
stack; a power applies its base's action.  Covers (cover_matrix, the stack
laid out by generator), submodule and quotient structures, and the action
matrices of ring elements (element_matrices) are each read off one such
stack rather than a loop over the d basis elements.  Over a monomial
quotient R, k and the dual D of R act by partial permutations: every
action matrix is 0/1 with at most one 1 in each row and each column, since
a monomial sends each monomial to one monomial or to 0.  They carry this
record (partial_permutation, the positions of the 1s) from construction,
and other modules read it on demand.  Three readers move entries through
it, never multiplying or adding them, so each is exact and equals the
contraction mod p: act_all on a power of such a base scatters rows into
copy-major blocks (the free and injective modules of resolutions are such
powers); _quotient_by_columns over R, k, D or a power of one gathers the
quotient's action Q A_i sigma from the columns of Q, as A_i sends each
kept position to one position or to 0 (below _mul_arrays' int64 tier it
keeps the product, which is cheaper there); and minimal_generators and
_record_presentation present D with no echelon.  Any other module keeps
the contraction: most are small carriers acted on once.

Hom and tensor are both read off one presentation R^a -> R^g -> M of the
source (left factor) M: its g minimal generators, a relations among them
that generate the relation module over R, and a k-linear section of the
cover R^g -> M.  With the relation coefficients acting on N,
Hom(M, N) is the kernel of N^g -> N^a and M (x) N the cokernel of
N^a -> N^g; a map M -> N is stored as its values on the generators.  A
free module has no relations, so Hom(R, N) and R (x) N are N itself.
Powers are routed around: Hom(W^b, N), Hom(M, V^b), W^b (x) N and
M (x) V^b are b copies of the small answer, and M (x) R^b is M^b in M's
own coordinates.  Over a monomial quotient R, k and every cokernel whose
entries lie in m keep the presentation they were built from (its
generators are the Nakayama picks; presentation_to_module gives the
proof), and D reads its own off its record; any other module computes
one (_computed_presentation), cached.

The relations are R-generators, not a k-basis.  Their images span the same
row space (Hom) and column space (tensor) as a k-basis of the relation
module would, and the reductions depend only on that span; mats_of gives
the same map for any section, and the pure tensors of two sections differ
by relations, which the quotient kills.  So the carriers are bit-identical
whichever presentation is read: a recorded cokernel's relations are its
entries, a computed presentation's the staircase of the kernel basis.
Positions (s, mu) of R^g are ordered copy-major in the ring's monomial
order, which is multiplicative, and the kernel basis has one column K_f per
free position f, with its 1 at f and its other entries at pivots before f.
K_f is dropped when f = (s, x_v * mu') with (s, mu') also free, because
then x_v * K_(s,mu') - K_f is a kernel vector supported before f, a
combination of earlier columns; by induction on f the kept columns
generate.  The test is one vectorised lookup in the ring's
divide-by-variable table (presentation gives the proof in full).  Other
algebras keep the whole kernel basis.  Minimal generators come from
one Nakayama step (nakayama_generators), shared with the free resolutions
over rings with m^2 != 0, which spans m * N by the generators of m (the
variables of a monomial quotient, every radical basis vector otherwise)
and keeps the columns outside that span.

Hom spaces and tensor products both come as "space" objects holding the
carrier Module plus the translation between coordinates and honest matrices
or pure tensors.  The translations are batched, and the batched forms are the
one implementation: HomSpace.mats_of turns a (dim, k) block of coordinates
into the (k, target.dim, source.dim) stack of maps and coords_of_all goes
back, each in a fixed number of contractions; TensorSpace.pure_matrix gives
every e_i (x) e_j at once, and u (x) v is its product with kron(u, v);
the natural maps (chi, nu, mu, the adjunction, the functor maps) translate
whole bases in one call.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np

from .algebra import Algebra
from .errors import InputError, TheoremViolationError
from .linalg import (_INT64_MAX_MACS, Mat, _check_cells, _kernel_of_echelon, _mul_arrays,
                     expressor, extend_basis, kernel_basis, rank, rref, solve)
# _caches and clear_caches are also reached through this module
from .memo import _caches, clear_caches, memo


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


class Module:
    """R-module on k^dim.  Do not mutate; construct through the helpers.

    With check=True the action matrices are reduced mod p and validated.
    check=False is a promise by the caller that `action` is an int64 array
    with entries in [0, p) that already satisfies the module axioms: it is
    taken without a modulo, and without a copy when it is contiguous (it is
    then made read-only).
    """

    __slots__ = ("ring", "dim", "label", "_action", "_block", "_fp", "_perm", "_pres")

    def __init__(self, ring: Algebra, action, label: str = "M", check: bool = True):
        arr = np.asarray(action, dtype=np.int64)
        if check:
            arr = arr % ring.field.p
        if arr.ndim != 3 or arr.shape[0] != ring.dim or arr.shape[1] != arr.shape[2]:
            raise InputError(
                f"need {ring.dim} square action matrices, got shape {arr.shape}")
        self.ring = ring
        self.dim = int(arr.shape[1])
        self.label = label
        self._action = _frozen(arr)
        self._block = None
        self._fp = None
        self._perm = None
        self._pres = None
        if check:
            self.validate()

    @classmethod
    def _power(cls, base: "Module", copies: int, label: str) -> "Module":
        self = object.__new__(cls)
        self.ring = base.ring
        self.dim = base.dim * copies
        self.label = label
        self._action = None
        self._block = (base, copies)
        self._fp = None
        self._perm = None
        self._pres = None
        return self

    @property
    def block(self) -> tuple["Module", int] | None:
        return self._block

    @property
    def action(self) -> np.ndarray:
        """The d action matrices, materialised if this is a power."""
        if self._action is None:
            base, b = self._block
            self._action = _frozen(_block_diagonal(base.action, b))
        return self._action

    def act(self, i: int, cols: np.ndarray) -> np.ndarray:
        """Apply the action of basis element e_i to column vectors."""
        p = self.ring.field.p
        if self._block is None:
            return _mul_arrays(self._action[i], cols, p)
        base, b = self._block
        return _block_apply(base.action[i], b, cols, p)

    def partial_permutation(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(i, r, c) index arrays of the nonzero entries of the action when
        every action matrix is a 0/1 partial permutation matrix (at most one
        1 in each row and each column, zeros elsewhere), else None.  The
        entries are listed by ring index i ascending.  Read off the action
        once and kept, unless set at construction (R over a monomial
        quotient, from its product table; D from R's).  Not defined on a
        power, whose action is its base's."""
        assert self._block is None, "a power acts through its base"
        if self._perm is None:
            act = self._action
            self._perm = ()
            # entries lie in [0, p): a row sum of at most 1 is one 1 or none
            if act.max(initial=0) <= 1:
                ones = act.sum(axis=2)
                if ones.max(initial=0) <= 1 and act.sum(axis=1).max(initial=0) <= 1:
                    i, r = np.nonzero(ones)
                    self._perm = (i, r, np.nonzero(act[i, r])[1])
        return self._perm or None

    def act_all(self, cols: np.ndarray) -> np.ndarray:
        """(d, dim, k) stack whose slice i is the action of e_i on the k
        columns, entries in [0, p); a power acts through its base.  On a
        power whose base acts by partial permutations it is one scatter of
        rows of cols (see the module docstring), otherwise one contraction."""
        p = self.ring.field.p
        d = self.ring.dim
        k = cols.shape[1]
        if self._block is None:
            n = self.dim
            return _mul_arrays(self._action.reshape(d * n, n), cols, p).reshape(d, n, k)
        base, b = self._block
        w = base.dim
        perm = base.partial_permutation()
        if perm is not None:
            i, r, c = perm
            out = np.zeros((d, b, w, k), dtype=np.int64)
            out[i, :, r] = cols.reshape(b, w, k)[:, c].swapaxes(0, 1)
            return out.reshape(d, b * w, k)
        shaped = cols.reshape(b, w, k).transpose(1, 0, 2).reshape(w, b * k)
        out = _mul_arrays(base.action.reshape(d * w, w), shaped, p)
        return out.reshape(d, w, b, k).transpose(0, 2, 1, 3).reshape(d, b * w, k)

    def element_matrix(self, elem: np.ndarray) -> np.ndarray:
        """Dense matrix of the action of a ring element (small modules)."""
        return self.element_matrices(np.asarray(elem).reshape(-1, 1))[0]

    def element_matrices(self, elems: np.ndarray) -> np.ndarray:
        """(m, dim, dim) stack of the dense action matrices of the m ring
        elements given as the columns of elems, in one contraction."""
        p = self.ring.field.p
        d = self.ring.dim
        coeffs = np.ascontiguousarray((np.asarray(elems, dtype=np.int64) % p).T)
        if self._block is None:
            n = self.dim
            return _mul_arrays(coeffs, self._action.reshape(d, n * n), p).reshape(len(coeffs), n, n)
        base, b = self._block
        return _block_diagonal(base.element_matrices(elems), b)

    def validate(self) -> None:
        ring = self.ring
        p = ring.field.p
        d = ring.dim
        act = self.action
        if not np.array_equal(self.element_matrix(ring.unit),
                              np.eye(self.dim, dtype=np.int64)):
            raise InputError(f"unit does not act as identity on {self.label}")
        for i in range(d):
            for j in range(i, d):
                prod = _mul_arrays(act[i], act[j], p)
                if not np.array_equal(prod, self.element_matrix(ring.structure[i, j])):
                    raise InputError(
                        f"action matrices violate the ring relations on {self.label}")
                if i != j and not np.array_equal(prod, _mul_arrays(act[j], act[i], p)):
                    raise InputError(f"action matrices do not commute on {self.label}")

    @property
    def fingerprint(self) -> bytes:
        # entries lie in [0, p): the smallest dtype holding p - 1 is injective
        if self._fp is None:
            h = hashlib.sha256()
            h.update(self.ring.fingerprint)
            if self._block is not None:
                base, b = self._block
                h.update(b"pow")
                h.update(base.fingerprint)
                h.update(str(b).encode())
            else:
                h.update(str(self.dim).encode())
                h.update(self._action.astype(np.min_scalar_type(self.ring.field.p - 1)).tobytes())
            self._fp = h.digest()
        return self._fp

    def relabelled(self, label: str) -> "Module":
        """Shallow copy under another label.  Shares the fingerprint, so
        every cache keyed by it still hits."""
        out = copy.copy(self)
        out.label = label
        return out

    def __repr__(self) -> str:
        return f"Module({self.label}, dim={self.dim})"


class ModuleHom:
    """R-linear map between modules, stored as a dst.dim x src.dim matrix.

    With check=True the matrix is reduced mod p and R-linearity is checked.
    check=False is a promise by the caller that `mat` is an int64 array
    with entries in [0, p) of an R-linear map: it is taken without a
    modulo, and without a copy when it is contiguous (it is then made
    read-only).
    """

    __slots__ = ("src", "dst", "mat", "_rank")

    def __init__(self, src: Module, dst: Module, mat, check: bool = True):
        if src.ring is not dst.ring and src.ring.fingerprint != dst.ring.fingerprint:
            raise InputError("source and target live over different rings")
        arr = np.asarray(mat, dtype=np.int64)
        if check:
            arr = arr % src.ring.field.p
        if arr.shape != (dst.dim, src.dim):
            raise InputError(f"matrix shape {arr.shape} does not match "
                             f"({dst.dim}, {src.dim})")
        self.src = src
        self.dst = dst
        self.mat = _frozen(arr)
        self._rank = None
        if check:
            self.validate()

    def validate(self) -> None:
        for i in range(self.src.ring.dim):
            lhs = self.dst.act(i, self.mat)
            rhs = _right_act(self.src, i, self.mat)
            if not np.array_equal(lhs, rhs):
                raise InputError(
                    f"map {self.src.label} -> {self.dst.label} is not R-linear "
                    f"(fails on basis element {i})")

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        return _mul_arrays(self.mat, np.asarray(vec).reshape(-1, 1),
                           self.src.ring.field.p)[:, 0]

    def matrix(self) -> Mat:
        """The matrix as a Mat sharing `mat`'s memory."""
        return Mat._wrap(self.src.ring.field, self.mat)

    def rank(self) -> int:
        """Rank of the matrix, computed once: `mat` is frozen."""
        if self._rank is None:
            self._rank = rank(self.matrix())
        return self._rank

    def is_injective(self) -> bool:
        return self.rank() == self.src.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.dst.dim

    def is_bijective(self) -> bool:
        return self.src.dim == self.dst.dim and self.rank() == self.src.dim

    def __repr__(self) -> str:
        return f"ModuleHom({self.src.label} -> {self.dst.label})"


def _block_diagonal(small: np.ndarray, b: int) -> np.ndarray:
    """(m, b*w, b*w) stack of I_b kron small[i], by one assignment."""
    m, w = small.shape[0], small.shape[1]
    out = np.zeros((m, b, w, b, w), dtype=np.int64)
    diag = np.arange(b)
    out[:, diag, :, diag, :] = small
    return out.reshape(m, b * w, b * w)


def _block_apply(small: np.ndarray, b: int, cols: np.ndarray, p: int) -> np.ndarray:
    """(I_b kron small) @ cols, exactly, without building the big matrix:
    block s of the answer is small @ (block s of cols), all b blocks in one
    stacked product."""
    k = cols.shape[1] if cols.ndim == 2 else 1
    out = _mul_arrays(small, cols.reshape(b, small.shape[1], k), p)
    return out.reshape(b * small.shape[0], k)


def _block_apply_right(rows: np.ndarray, small: np.ndarray, b: int, p: int) -> np.ndarray:
    """rows @ (I_b kron small), exactly, without building the big matrix:
    the b column blocks of every row are rows of rows.reshape(-1, w), all
    multiplied by small in one product."""
    w, v = small.shape
    out = _mul_arrays(np.ascontiguousarray(rows).reshape(rows.shape[0] * b, w), small, p)
    return out.reshape(rows.shape[0], b * v)


def _right_act(module: Module, i: int, rows: np.ndarray) -> np.ndarray:
    """rows @ A_i(module) without materialising block actions."""
    p = module.ring.field.p
    if module.block is None:
        return _mul_arrays(rows, module.action[i], p)
    base, b = module.block
    return _block_apply_right(rows, base.action[i], b, p)


def identity_hom(m: Module) -> ModuleHom:
    return ModuleHom(m, m, np.eye(m.dim, dtype=np.int64), check=False)


# -- basic constructors ------------------------------------------------------

@memo
def regular_module(R: Algebra) -> Module:
    """R as a module over itself.  Over a monomial quotient its partial
    permutation and its presentation (generator 1, no relations) are set
    from the ring's monomial data."""
    reg = Module(R, R.left_mult, label=R.name, check=False)
    data = R.monomial_data
    if data is not None:
        # the 1 of e_i's matrix in column c sits in row e_i * e_c; the basis
        # order is multiplicative, so for each i the rows ascend with c
        i, c = np.nonzero(data.products >= 0)
        reg._perm = (i, data.products[i, c], c)
        d = R.dim
        reg._pres = (_frozen(np.eye(d, 1)), _frozen(np.zeros((d, 0))), _frozen(np.eye(d)))
    return reg


def zero_module(R: Algebra) -> Module:
    return Module(R, np.zeros((R.dim, 0, 0), dtype=np.int64), label="0", check=False)


def power_module(base: Module, copies: int, label: str | None = None) -> Module:
    if copies < 0:
        raise InputError("negative power")
    if base.block is not None:
        inner, a = base.block
        return power_module(inner, a * copies, label)
    if copies == 0 or base.dim == 0:
        return zero_module(base.ring)
    if label is None:
        label = f"{base.label}^{copies}" if copies != 1 else base.label
    if copies == 1:
        return base
    return Module._power(base, copies, label)


def free_module(R: Algebra, n: int) -> Module:
    return power_module(regular_module(R), n, label=f"{R.name}^{n}")


def direct_sum(parts: list[Module], label: str | None = None) -> Module:
    """Dense direct sum; meant for small modules."""
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


@memo
def residue_field_module(R: Algebra) -> Module:
    """R / rad(R) as a module; one-dimensional when R is local.  Over a
    monomial quotient its action is the unit vector (1 acts by 1, every
    monomial in m by 0), set with its record (the 1 at the unit) and its
    presentation (generator 1, the variables as relations)."""
    data = R.monomial_data
    if data is None:
        from .algebra import radical
        return _quotient_by_columns(regular_module(R), radical(R).data, "k").carrier
    k = Module(R, R.unit.reshape(R.dim, 1, 1), label="k", check=False)
    k._perm = (np.flatnonzero(R.unit),) + (np.zeros(1, dtype=np.int64),) * 2
    k._pres = (_frozen(np.ones((1, 1))), data.variable_columns, _frozen(np.eye(R.dim, 1)))
    return k


@memo
def radical_submodule(R: Algebra) -> Module:
    """rad(R) as a module over R (the maximal ideal, for local R)."""
    from .algebra import radical
    return _submodule_from_columns(regular_module(R), radical(R).data, "m").carrier


@memo
def matlis_dual(M: Module) -> Module:
    """Hom_k(M, k) with the transpose action.  Exact and contravariant."""
    if M.block is not None:
        base, b = M.block
        return power_module(matlis_dual(base), b, label=f"({M.label})*")
    dual = Module(M.ring, M.action.transpose(0, 2, 1), label=f"({M.label})*", check=False)
    if M._perm:
        # the transpose of a partial permutation is one, with rows and
        # columns swapped: a record already read off M serves its dual
        i, r, c = M._perm
        dual._perm = (i, c, r)
    return dual


def dualizing_module(R: Algebra) -> Module:
    """Matlis dual of the ring: the injective hull of the residue field
    (for local R), and the canonical module of the Artinian ring."""
    D = matlis_dual(regular_module(R))
    return D


# -- subquotients -----------------------------------------------------------


class Subquotient:
    """Carrier module plus the structure map and a k-linear section.

    kind 'kernel' / 'image': map embeds the carrier into the ambient module,
    section expresses ambient vectors lying in the subspace in carrier
    coordinates.  kind 'quotient': map projects the ambient module onto the
    carrier, section lifts carrier coordinates to representatives.  A
    kernel's carrier basis is a kernel_basis output, and its section is the
    selection of that basis's free rows, read off without an echelon (see
    _submodule_from_columns); any other section comes from `expressor`.
    """

    __slots__ = ("carrier", "map", "section", "kind")

    def __init__(self, carrier: Module, map_: ModuleHom, section: np.ndarray, kind: str):
        self.carrier = carrier
        self.map = map_
        self.section = _frozen(section)
        self.kind = kind


def _submodule_from_columns(ambient: Module, cols: np.ndarray, label: str,
                            kind: str = "submodule") -> Subquotient:
    """Module structure on the span of the given independent columns.
    The span must be closed under the action; this is asserted.

    The section E, with E @ cols = I, is expressor(cols), the last columns
    of the first k rows of the RREF of [cols | I].  For kind 'kernel' cols
    must be shaped like a kernel_basis output: column j has its 1 at free
    row f_j and its other entries only at earlier pivot rows.  Then E is the
    selection of rows f_0 < f_1 < ..., without an echelon, and it is the
    same array: row j of that RREF is (e_j, y) with y @ cols = e_j and y
    zero at the pivot columns of the rows below, which are the non-free
    rows (the left kernel of cols has a vector with first nonzero entry at
    each non-free row i: 1 at i, and at free rows f > i only).  The row
    selecting f_j is such a y, since row f_j of cols is e_j.
    """
    p = ambient.ring.field.p
    k = cols.shape[1]
    moved = ambient.act_all(cols)
    if kind == "kernel":
        free = _free_rows(cols)
        E = np.zeros((k, ambient.dim), dtype=np.int64)
        E[np.arange(k), free] = 1
        act = moved[:, free]
    else:
        if k:
            E = expressor(Mat._wrap(ambient.ring.field, cols)).data
        else:
            E = np.zeros((0, ambient.dim), dtype=np.int64)
        act = _mul_arrays(E, moved, p)
    assert np.array_equal(_mul_arrays(cols, act, p), moved), \
        "columns do not span a submodule"
    carrier = Module(ambient.ring, act, label=label, check=False)
    inj = ModuleHom(carrier, ambient, cols, check=False)
    return Subquotient(carrier, inj, E, kind)


def kernel(f: ModuleHom, label: str | None = None) -> Subquotient:
    K = kernel_basis(f.matrix()).data
    if label is None:
        label = f"ker({f.src.label}->{f.dst.label})"
    return _submodule_from_columns(f.src, K, label, "kernel")


def image(f: ModuleHom, label: str | None = None) -> Subquotient:
    _, piv = rref(f.matrix())
    cols = f.mat[:, piv] if piv else np.zeros((f.dst.dim, 0), dtype=np.int64)
    if label is None:
        label = f"im({f.src.label}->{f.dst.label})"
    return _submodule_from_columns(f.dst, cols, label, "image")


def _record_images(M: Module) -> np.ndarray | None:
    """(d, dim) table of the position e_i sends each basis vector to, -1
    for 0, read off M's record (set or already read) or its base's on a
    power (read as act_all does); None without one."""
    base, b = M.block or (M, 1)
    perm = base.partial_permutation() if M.block is not None else M._perm or None
    if perm is None:
        return None
    i, r, c = perm
    img = np.full((M.ring.dim, b, base.dim), -1, dtype=np.int64)
    img[i, :, c] = r[:, None] + base.dim * np.arange(b)
    return img.reshape(M.ring.dim, b * base.dim)


def _quotient_by_columns(ambient: Module, cols: np.ndarray, label: str) -> Subquotient:
    """Quotient of the ambient module by the span of the given columns
    (which must be action-stable).  e_i acts by Q A_i sigma, gathered from
    the columns of Q when the ambient has a record (module docstring)."""
    p = ambient.ring.field.p
    n = ambient.dim
    red, piv = rref(Mat._wrap(ambient.ring.field, cols.T))
    E = red.data[: len(piv)]          # echelon basis of the subspace, as rows
    is_kept = np.ones(n, dtype=bool)
    is_kept[piv] = False
    keep = np.flatnonzero(is_kept)
    q = keep.size
    Q = np.zeros((q, n), dtype=np.int64)
    Q[np.arange(q), keep] = 1
    Q[:, piv] = (-E[:, keep].T) % p
    sigma = np.zeros((n, q), dtype=np.int64)
    sigma[keep, np.arange(q)] = 1
    img = _record_images(ambient) if q * q * ambient.ring.dim * n > _INT64_MAX_MACS else None
    if img is None:
        act = _mul_arrays(Q, ambient.act_all(sigma), p)
    else:
        # index -1 (sent to 0) reads the zero column appended to Q
        act = np.hstack([Q, np.zeros((q, 1), dtype=np.int64)])[:, img[:, keep]].transpose(1, 0, 2)
    carrier = Module(ambient.ring, act, label=label, check=False)
    proj = ModuleHom(ambient, carrier, Q, check=False)
    return Subquotient(carrier, proj, sigma, "quotient")


def cokernel(f: ModuleHom, label: str | None = None) -> Subquotient:
    if label is None:
        label = f"coker({f.src.label}->{f.dst.label})"
    return _quotient_by_columns(f.dst, f.mat, label)


# -- generators and freeness --------------------------------------------------


def radical_span(M: Module, cols: np.ndarray | None = None) -> np.ndarray:
    """Columns spanning m * N, N the R-span of cols (all of M when cols is
    None); not reduced to a basis.

    m is generated by radical_generators(R), so m * N = sum_j x_j * N and
    block j of the answer is the j-th generator applied to cols: one
    element_matrices call on M, or on the base of a power, and one stacked
    product (none when cols is None).
    """
    from .algebra import radical_generators
    x = radical_generators(M.ring)
    r = x.shape[1]
    k = M.dim if cols is None else cols.shape[1]
    if r == 0 or M.dim == 0 or k == 0:
        return np.zeros((M.dim, 0), dtype=np.int64)
    _check_cells((M.dim, r * k), "radical span")
    base, b = M.block or (M, 1)
    w = base.dim
    mats = base.element_matrices(x)
    if cols is None:
        return _block_diagonal(mats, b).transpose(1, 0, 2).reshape(M.dim, r * M.dim)
    shaped = cols.reshape(b, w, k).transpose(1, 0, 2).reshape(w, b * k)
    out = _mul_arrays(mats.reshape(r * w, w), shaped, M.ring.field.p)
    return out.reshape(r, w, b, k).transpose(2, 1, 0, 3).reshape(M.dim, r * k)


def nakayama_generators(M: Module, cols: np.ndarray | None = None) -> np.ndarray:
    """Columns of cols (the identity when None) forming a minimal generating
    set of the submodule N they span, which must be action-stable: greedy
    in column order, a column is kept iff it lies outside m * N plus the
    columns kept before it (Nakayama).  One extend_basis over
    [radical_span | cols]: which columns it keeps depends only on the
    column space of the span.  Deterministic.

    The columns must be linearly independent; both callers pass
    independent columns, the identity (minimal_generators) or a kernel
    basis (the free resolutions over rings with m^2 != 0).  So when
    m * N = 0 every column is kept, and cols is returned with nothing
    reduced."""
    field = M.ring.field
    span = radical_span(M, cols)
    if cols is None:
        cols = np.eye(M.dim, dtype=np.int64)
    if cols.shape[1] == 0 or not span.any():
        return cols
    return cols[:, extend_basis(Mat._wrap(field, span), Mat._wrap(field, cols))]


@memo
def minimal_generators(M: Module) -> np.ndarray:
    """Columns forming a minimal generating set (Nakayama): standard basis
    vectors whose classes give a basis of M / rad M.  Deterministic.  A
    recorded presentation's generators are these columns.  With a record
    over a monomial quotient, m * M is spanned by the positions a monomial
    other than 1 reaches: the picks are the identity columns at the others."""
    if M._pres is not None:
        return M._pres[0]
    if _reads_record(M):
        img = _record_images(M)
        reached = np.zeros(M.dim + 1, dtype=bool)       # -1 (sent to 0) marks the spare
        reached[img[M.ring.unit == 0]] = True
        return _frozen(np.eye(M.dim, dtype=np.int64)[:, ~reached[:-1]])
    return _frozen(nakayama_generators(M))


def cover_matrix(M: Module, gens: np.ndarray) -> np.ndarray:
    """Matrix of the map R^g -> M sending the s-th free generator to
    gens[:, s]: act_all(gens) laid out by generator, column (s, mu) is
    e_mu * gens_s (copy-major layout)."""
    g, d = gens.shape[1], M.ring.dim
    _check_cells((M.dim, g * d), "cover matrix")
    return M.act_all(gens).transpose(1, 2, 0).reshape(M.dim, g * d)


@memo
def presentation(M: Module) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gens, rel, sec) presenting M as R^a -> R^g -> M -> 0: the one
    recorded when M was built, else the one read off its partial
    permutation record over a monomial quotient (D, k^v), else
    _computed_presentation(M), which gives the same arrays."""
    if M._pres is not None:
        return M._pres
    if _reads_record(M):
        return _record_presentation(M)
    return _computed_presentation(M)


def _reads_record(M: Module) -> bool:
    return M.block is None and bool(M._perm) and M.ring.monomial_data is not None


def _record_presentation(M: Module) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_computed_presentation(M) over a monomial quotient, read off M's
    record with no echelon.  Each cover column on the generators
    (minimal_generators) is a unit vector e_r or 0, and the RREF of the
    cover has row r pivot on the first column reaching r and 1s at the
    others: the section sends e_r to that column, and the kernel basis has
    e_f - e_first(r) for every other column f reaching r, e_f for one
    reaching nothing."""
    d, n, p = M.ring.dim, M.dim, M.ring.field.p
    gens = minimal_generators(M)
    tops = np.flatnonzero(gens.any(axis=1))
    g = tops.size
    img = _record_images(M)
    rows = img[:, tops].T.ravel()        # the row cover column s*d + mu reaches
    order = np.argsort(rows, kind="stable")
    srt = rows[order]
    new = srt >= 0
    new[1:] &= srt[1:] != srt[:-1]
    first = order[new]                   # ascending rows, so first[r] reaches r
    assert first.size == n, "minimal cover is not surjective"
    sec = np.zeros((g * d, n), dtype=np.int64)
    sec[first, np.arange(n)] = 1
    free = np.flatnonzero(~sec.any(axis=1))
    _check_cells((g * d, free.size), "kernel basis")
    K = np.zeros((g * d, free.size), dtype=np.int64)
    K[free, np.arange(free.size)] = 1
    to = rows[free]
    back = np.flatnonzero(to >= 0)
    K[first[to[back]], back] = p - 1
    return gens, _staircase(M.ring, K), sec


def _computed_presentation(M: Module) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gens, rel, sec) presenting M as R^a -> R^g -> M -> 0.

    gens (M.dim x g) are the minimal generators, rel ((g*d) x a) generators
    of the kernel of the cover R^g -> M as an R-module, and sec
    ((g*d) x M.dim) a k-linear section of the cover.  Block s of a column of
    rel or sec, rows s*d..(s+1)*d, is the ring coefficient of generator s.

    Over a monomial quotient rel is the staircase of the kernel basis.
    Position (s, mu) of R^g is numbered s*d + mu, mu in the ring's basis
    order (degree, then the reversed exponent tuple), and this order is
    multiplicative: multiplying two positions by the same x_v keeps their
    order.  kernel_basis gives one column K_f per free position f, with a 1
    at f and nonzeros only at pivot positions before f.  K_f is dropped
    when f = (s, x_v * mu') with (s, mu') also free: then x_v * K_(s,mu')
    has its 1 at f too and the rest of its support before f, so
    x_v * K_(s,mu') - K_f is a kernel vector whose free coordinates all
    lie before f, a combination of earlier columns.  By induction on f the
    kept columns generate the kernel.  Nothing is reduced: the free
    positions are the last nonzero rows of the columns, and the test is
    one lookup in MonomialData.divisors.  Over other algebras rel is the
    whole kernel basis.

    Section and kernel basis come from one rref of [cover | I].  The cover
    is onto, so all M.dim pivots lie in the cover block, and that block of
    the result is the cover's own RREF (E @ cover is in RREF for the same
    invertible E, and the RREF is unique): the kernel basis is read off it,
    and the identity block gives the section, as solve(cover, I) would.
    """
    field = M.ring.field
    gens = minimal_generators(M)
    cover = cover_matrix(M, gens)
    gd = cover.shape[1]
    red, piv = rref(Mat._wrap(field, np.hstack([cover, np.eye(M.dim, dtype=np.int64)])))
    assert not piv or piv[-1] < gd, "minimal cover is not surjective"
    sec = np.zeros((gd, M.dim), dtype=np.int64)
    sec[piv] = red.data[:, gd:]
    K = _kernel_of_echelon(red.data[:, :gd], piv, field.p)
    return gens, _staircase(M.ring, K), sec


def _free_rows(K: np.ndarray) -> np.ndarray:
    """The free row of each column of a kernel_basis output K: the row of
    its 1, which is its last nonzero row."""
    if K.shape[1] == 0:
        return np.zeros(0, dtype=np.int64)
    return K.shape[0] - 1 - np.argmax(K[::-1] != 0, axis=0)


def _staircase(R: Algebra, K: np.ndarray) -> np.ndarray:
    """The columns of the kernel basis K of a cover R^g -> M at minimal
    free positions (see presentation); all of K without monomial data."""
    data = R.monomial_data
    if data is None or K.shape[1] == 0:
        return K
    d, rows = R.dim, K.shape[0]
    free = _free_rows(K)
    is_free = np.zeros(rows, dtype=bool)
    is_free[free] = True
    s, mu = np.divmod(free, d)
    div = data.divisors[mu]                          # (a, n), -1: no quotient
    drop = ((div >= 0) & is_free[s[:, None] * d + div]).any(axis=1)
    return K[:, ~drop]


def is_free(M: Module) -> int | None:
    """Rank if M is free, else None.

    The g minimal generators span M (Nakayama), so the cover R^g -> M is
    onto and is an isomorphism exactly when g * dim R = dim M.
    """
    g = minimal_generators(M).shape[1]
    return g if g * M.ring.dim == M.dim else None


def is_injective(M: Module) -> int | None:
    """Rank of the dual if M is injective (= dual of a free), else None."""
    return is_free(matlis_dual(M))


def presentation_to_module(R: Algebra, n: int, m: int, entries) -> tuple[Module, ModuleHom]:
    """Cokernel of the R-matrix map R^m -> R^n with the given n x m entries.

    Entries may be polynomial strings or coordinate vectors.  Block (s, t)
    of the matrix R^m -> R^n is the multiplication matrix of entry (s, t),
    whose entry (r, c) is the coefficient of e_r / e_c (MonomialData.
    quotients), the one monomial sending e_c to e_r, or 0; other algebras
    contract the entries against left_mult.  Returns the module together
    with the projection from R^n.

    Over a monomial quotient, when every entry lies in m (no unit term),
    the module keeps this presentation.  Its generators, the images of the
    free generators, are the Nakayama picks: the relations lie in m * R^n,
    so no position (s, 1) is a pivot and each is kept, an identity column
    in order, while every other kept position lies in m * M.  The relations
    are the nonzero entry columns; the cover is the projection, so the
    quotient's section is a section of it.
    """
    if n < 0 or m < 0:
        raise InputError("negative presentation size")
    rows = list(entries)
    if len(rows) != n or any(len(r) != m for r in rows):
        raise InputError(f"need {n} x {m} entries")
    d, p = R.dim, R.field.p
    coeffs = np.zeros((n * m, d), dtype=np.int64)
    for s in range(n):
        for t in range(m):
            e = rows[s][t]
            coeffs[s * m + t] = R.element_from_string(e) if isinstance(e, str) else e
    coeffs %= p
    data = R.monomial_data
    if data is None:
        blocks = _mul_arrays(coeffs, R.left_mult.reshape(d, d * d), p)
    else:
        blocks = np.where(data.quotients >= 0, coeffs[:, data.quotients], 0)
    mat = blocks.reshape(n, m, d, d).transpose(0, 2, 1, 3).reshape(n * d, m * d)
    dst = free_module(R, n)
    f = ModuleHom(free_module(R, m), dst, mat, check=False)
    if not mat.any():
        return dst, identity_hom(dst)
    sq = cokernel(f, label=f"coker({n}x{m})")
    if data is not None and not coeffs[:, 0].any():
        rel = mat[:, ::d]
        sq.carrier._pres = (_frozen(sq.map.mat[:, ::d]), _frozen(rel[:, rel.any(axis=0)]),
                            sq.section)
    return sq.carrier, sq.map


# -- hom spaces ---------------------------------------------------------------


class HomSpace:
    """Hom_R(source, target) as a module plus coordinate translations.

    The translations are batched.  mats_of turns a (dim, k) block of
    coordinate columns into the (k, target.dim, source.dim) stack of honest
    matrices; coords_of_all inverts that on a stack of matrices that really
    are R-linear maps, giving a (dim, k) block.
    """

    def __init__(self, source: Module, target: Module):
        self.source = source
        self.target = target
        self.ring = source.ring
        self.module: Module = None  # set by _build
        self._build()

    @property
    def dim(self) -> int:
        return self.module.dim

    # -- translations, overridden per construction

    def mats_of(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def coords_of_all(self, stack: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def basis_mats(self) -> np.ndarray:
        """(dim, target.dim, source.dim) stack of the basis maps."""
        return self.mats_of(np.eye(self.dim, dtype=np.int64))


def _relation_blocks(rel: np.ndarray, N: Module) -> np.ndarray:
    """(g, n, a, n) array whose block [s, :, t, :] is the action on N of
    rel_st, the coefficient of generator s in relation t."""
    d, n, p = N.ring.dim, N.dim, N.ring.field.p
    g, a = rel.shape[0] // d, rel.shape[1]
    coeffs = rel.reshape(g, d, a).transpose(1, 0, 2).reshape(d, g * a)
    acts = N.action.reshape(d, n * n).T
    blocks = _mul_arrays(np.ascontiguousarray(acts), np.ascontiguousarray(coeffs), p)
    return blocks.reshape(n, n, g, a).transpose(2, 0, 3, 1)


class _PresentedHom(HomSpace):
    """Hom(M, N) = ker(N^g -> N^a), read off M's presentation.

    A map is its values on the g generators of M; the values must satisfy
    every relation.  When M has no relations (M = R) this is N^g itself.
    """

    def _build(self):
        M, N = self.source, self.target
        self._gens, rel, self._sec = presentation(M)
        g, a, n = self._gens.shape[1], rel.shape[1], N.dim
        label = f"Hom({M.label},{N.label})"
        self._K = self._E = None
        if a == 0 or n == 0:
            self.module = power_module(N, g, label=label)
            return
        system = _relation_blocks(rel, N).transpose(2, 1, 0, 3).reshape(a * n, g * n)
        self._K = kernel_basis(Mat._wrap(self.ring.field, system)).data
        sq = _submodule_from_columns(power_module(N, g), self._K, label, "kernel")
        self.module = sq.carrier
        self._E = sq.section

    def mats_of(self, coords):
        p = self.ring.field.p
        vals = np.asarray(coords, dtype=np.int64) % p
        d, g, n, k = self.ring.dim, self._gens.shape[1], self.target.dim, vals.shape[1]
        if self._K is not None:
            vals = _mul_arrays(self._K, vals, p)
        # every basis element moves the values on the generators: map c on
        # the cover R^g, which the section turns into a map on M
        moved = self.target.act_all(vals.reshape(g, n, k).transpose(1, 0, 2).reshape(n, g * k))
        images = moved.reshape(d, n, g, k).transpose(3, 1, 2, 0).reshape(k * n, g * d)
        return _mul_arrays(images, self._sec, p).reshape(k, n, self.source.dim)

    def coords_of_all(self, stack):
        p = self.ring.field.p
        k, n, g = stack.shape[0], self.target.dim, self._gens.shape[1]
        flat = np.ascontiguousarray(stack).reshape(k * n, self.source.dim)
        vals = _mul_arrays(flat, self._gens, p).reshape(k, n, g).transpose(2, 1, 0)
        vals = vals.reshape(g * n, k)
        if self._E is not None:
            vals = _mul_arrays(self._E, vals, p)
        return vals


def _split_copies(coords: np.ndarray, b: int) -> np.ndarray:
    """(b*q, k) coordinates on a b-th power -> (q, b*k), column (s, c)."""
    bq, k = coords.shape
    return coords.reshape(b, bq // b, k).transpose(1, 0, 2).reshape(bq // b, b * k)


def _join_copies(cols: np.ndarray, b: int) -> np.ndarray:
    """Inverse of _split_copies."""
    q, bk = cols.shape
    return cols.reshape(q, b, bk // b).transpose(1, 0, 2).reshape(b * q, bk // b)


class _BlockSourceHom(HomSpace):
    """Hom(W^b, N) = Hom(W, N)^b for a general dense W."""

    def _build(self):
        base, b = self.source.block
        self.copies = b
        self.small = hom_space(base, self.target)
        self.module = power_module(self.small.module, b,
                                   label=f"Hom({self.source.label},{self.target.label})")

    def mats_of(self, coords):
        b, k = self.copies, coords.shape[1]
        n, w = self.target.dim, self.small.source.dim
        small = self.small.mats_of(_split_copies(coords, b))
        return small.reshape(b, k, n, w).transpose(1, 2, 0, 3).reshape(k, n, b * w)

    def coords_of_all(self, stack):
        b, k = self.copies, stack.shape[0]
        n, w = self.target.dim, self.small.source.dim
        small = stack.reshape(k, n, b, w).transpose(2, 0, 1, 3).reshape(b * k, n, w)
        return _join_copies(self.small.coords_of_all(small), b)


class _BlockTargetHom(HomSpace):
    """Hom(M, V^b) = Hom(M, V)^b."""

    def _build(self):
        base, b = self.target.block
        self.copies = b
        self.small = hom_space(self.source, base)
        self.module = power_module(self.small.module, b,
                                   label=f"Hom({self.source.label},{self.target.label})")

    def mats_of(self, coords):
        b, k = self.copies, coords.shape[1]
        v, m = self.small.target.dim, self.source.dim
        small = self.small.mats_of(_split_copies(coords, b))
        return small.reshape(b, k, v, m).transpose(1, 0, 2, 3).reshape(k, b * v, m)

    def coords_of_all(self, stack):
        b, k = self.copies, stack.shape[0]
        v, m = self.small.target.dim, self.source.dim
        small = stack.reshape(k, b, v, m).transpose(1, 0, 2, 3).reshape(b * k, v, m)
        return _join_copies(self.small.coords_of_all(small), b)


def free_copies(module: Module) -> int | None:
    """Number of copies if the module is a canonical-basis free module (a
    power of the regular module, or the regular module itself), else None."""
    reg = regular_module(module.ring)
    if module.block is not None:
        base, b = module.block
        return b if base.fingerprint == reg.fingerprint else None
    if module.fingerprint == reg.fingerprint:
        return 1
    return None


@memo
def hom_space(M: Module, N: Module) -> HomSpace:
    if M.block is not None:
        return _BlockSourceHom(M, N)
    if N.block is not None:
        return _BlockTargetHom(M, N)
    return _PresentedHom(M, N)


_homspace_cache = hom_space.store      # keyed (M.fingerprint, N.fingerprint)


def hom_functor_map(C: Module, f: ModuleHom, side: str = "covariant") -> ModuleHom:
    """Hom(C, f): Hom(C, src) -> Hom(C, dst) for covariant side,
    Hom(f, C): Hom(dst, C) -> Hom(src, C) for contravariant."""
    p = C.ring.field.p
    if side == "covariant":
        hs_src = hom_space(C, f.src)
        hs_dst = hom_space(C, f.dst)
        moved = _mul_arrays(f.mat, hs_src.basis_mats(), p)
    elif side == "contravariant":
        hs_src = hom_space(f.dst, C)
        hs_dst = hom_space(f.src, C)
        h, c = hs_src.dim, C.dim
        basis = hs_src.basis_mats().reshape(h * c, f.dst.dim)
        moved = _mul_arrays(basis, f.mat, p).reshape(h, c, f.src.dim)
    else:
        raise InputError(f"unknown side {side!r}")
    return ModuleHom(hs_src.module, hs_dst.module, hs_dst.coords_of_all(moved), check=False)


# -- tensor products ----------------------------------------------------------


def _copywise(block: np.ndarray, b: int) -> np.ndarray:
    """(b*q, m*b*v) matrix, for a (q, m, v) block, that holds block[:, i, j]
    in the rows of copy s and column (i, s, j), for every s; zero elsewhere."""
    q, m, v = block.shape
    out = np.zeros((b, q, m, b, v), dtype=np.int64)
    diag = np.arange(b)
    out[diag, :, :, diag, :] = block
    return out.reshape(b * q, m * b * v)


class TensorSpace:
    """M tensor_R N as a module plus the pure tensor map.

    pure_matrix() is the dim x (left.dim * right.dim) matrix whose column
    i*right.dim + j is e_i (x) e_j, built once per space by its
    construction's _pure_matrix, without a loop over the pairs, and kept
    read-only; u (x) v is its product with kron(u, v).
    """

    def __init__(self, left: Module, right: Module):
        self.left = left
        self.right = right
        self.ring = left.ring
        self.module: Module = None
        self._pure = None
        self._build()

    @property
    def dim(self) -> int:
        return self.module.dim

    def pure_matrix(self) -> np.ndarray:
        if self._pure is None:
            self._pure = _frozen(self._pure_matrix())
        return self._pure

    def _pure_matrix(self) -> np.ndarray:
        raise NotImplementedError


class _RightFreeTensor(TensorSpace):
    """M (x) R^b = M^b."""

    def _build(self):
        b = free_copies(self.right)
        self.copies = b
        self.module = power_module(self.left, b,
                                   label=f"{self.left.label}(x){self.right.label}")

    def _pure_matrix(self):
        # e_i (x) (e_mu in copy s) is e_mu e_i in copy s of M^b
        moved = self.left.act_all(np.eye(self.left.dim, dtype=np.int64))
        return _copywise(moved.transpose(1, 2, 0), self.copies)


class _BlockLeftTensor(TensorSpace):
    """W^b (x) N = (W (x) N)^b."""

    def _build(self):
        base, b = self.left.block
        self.copies = b
        self.small = tensor_space(base, self.right)
        self.module = power_module(self.small.module, b,
                                   label=f"{self.left.label}(x){self.right.label}")

    def _pure_matrix(self):
        # (e_i in copy s) (x) e_j lies in copy s
        small = self.small.pure_matrix()
        return _copywise(small.reshape(small.shape[0], 1, small.shape[1]), self.copies)


class _BlockRightTensor(TensorSpace):
    """M (x) V^b = (M (x) V)^b."""

    def _build(self):
        base, b = self.right.block
        self.copies = b
        self.small = tensor_space(self.left, base)
        self.module = power_module(self.small.module, b,
                                   label=f"{self.left.label}(x){self.right.label}")

    def _pure_matrix(self):
        # e_i (x) (e_j in copy s) lies in copy s
        small = self.small.pure_matrix()
        return _copywise(small.reshape(small.shape[0], self.left.dim, self.small.right.dim),
                         self.copies)


class _PresentedTensor(TensorSpace):
    """M (x) N = coker(N^a -> N^g), read off the left factor's presentation
    by right-exactness.  When M has no relations (M = R) this is N^g itself.
    """

    def _build(self):
        M, N = self.left, self.right
        gens, rel, self._sec = presentation(M)
        g, a, n = gens.shape[1], rel.shape[1], N.dim
        label = f"{M.label}(x){N.label}"
        self._Q = None
        if a == 0 or n == 0:
            self.module = power_module(N, g, label=label)
            return
        rel_mat = _relation_blocks(rel, N).reshape(g * n, a * n)
        sq = _quotient_by_columns(power_module(N, g), rel_mat, label)
        self.module = sq.carrier
        self._Q = sq.map.mat

    def _pure_matrix(self):
        # e_i = sum_s w_s gens_s for w = sec e_i, so e_i (x) e_j is the class
        # of (w_s e_j)_s in N^g: the actions of all g*m elements w_s at once
        p, d = self.ring.field.p, self.ring.dim
        m, n = self.left.dim, self.right.dim
        g = self._sec.shape[0] // d
        elems = self._sec.reshape(g, d, m).transpose(1, 0, 2).reshape(d, g * m)
        acts = self.right.element_matrices(elems)
        emb = acts.reshape(g, m, n, n).transpose(0, 2, 1, 3).reshape(g * n, m * n)
        if self._Q is not None:
            emb = _mul_arrays(self._Q, emb, p)
        return emb


@memo
def tensor_space(M: Module, N: Module) -> TensorSpace:
    if free_copies(N) is not None:
        return _RightFreeTensor(M, N)
    if M.block is not None:
        return _BlockLeftTensor(M, N)
    if N.block is not None:
        return _BlockRightTensor(M, N)
    return _PresentedTensor(M, N)


_tensorspace_cache = tensor_space.store    # keyed (M.fingerprint, N.fingerprint)


def tensor_functor_map(C: Module, f: ModuleHom) -> ModuleHom:
    """C (x) f : C (x) src -> C (x) dst.  Small modules only: solves the
    defining relation kappa . pure_src = pure_dst . (id (x) f)."""
    p = C.ring.field.p
    ts_src = tensor_space(C, f.src)
    ts_dst = tensor_space(C, f.dst)
    P_src = ts_src.pure_matrix()                      # t1 x (c*m)
    P_dst = ts_dst.pure_matrix()                      # t2 x (c*n)
    t2, c = P_dst.shape[0], C.dim
    # P_dst (id (x) f): f applied to the right index of every column block
    rhs = _mul_arrays(P_dst.reshape(t2 * c, f.dst.dim), f.mat, p).reshape(t2, c * f.src.dim)
    sol = solve(Mat._wrap(C.ring.field, P_src.T), Mat._wrap(C.ring.field, rhs.T))
    if sol is None:
        raise TheoremViolationError("tensor functor map is not well defined")
    return ModuleHom(ts_src.module, ts_dst.module, sol.data.T, check=False)


# -- the natural maps ---------------------------------------------------------


@memo
def evaluation_nu(C: Module, M: Module) -> ModuleHom:
    """nu: C (x) Hom(C, M) -> M, c (x) f -> f(c).  Memoised."""
    hs = hom_space(C, M)
    ts = tensor_space(C, hs.module)
    # column i*h + l is basis map l applied to e_i
    beta = hs.basis_mats().transpose(1, 2, 0).reshape(M.dim, C.dim * hs.dim)
    P = ts.pure_matrix()               # t x (c*h)
    sol = solve(Mat._wrap(C.ring.field, P.T), Mat._wrap(C.ring.field, beta.T))
    if sol is None:
        raise TheoremViolationError("evaluation does not factor through the tensor product")
    return ModuleHom(ts.module, M, sol.data.T, check=False)


@memo
def coevaluation_mu(C: Module, M: Module) -> ModuleHom:
    """mu: M -> Hom(C, C (x) M), m -> (c -> c (x) m).  Memoised."""
    ts = tensor_space(C, M)
    hs = hom_space(C, ts.module)
    # the map c -> c (x) e_j is columns a*m + j of the pure tensor matrix
    P = ts.pure_matrix().reshape(ts.dim, C.dim, M.dim)
    return ModuleHom(M, hs.module, hs.coords_of_all(P.transpose(2, 0, 1)), check=False)


def adjunction_iso(C: Module, M: Module, N: Module) -> ModuleHom:
    """Hom(C (x) M, N) -> Hom(M, Hom(C, N)), g -> (m -> (c -> g(c (x) m))).

    The classical tensor-hom bijection, as an explicit R-linear map between
    the constructed carriers.  Small modules only.
    """
    p = C.ring.field.p
    ts = tensor_space(C, M)
    hs_t = hom_space(ts.module, N)
    hs_cn = hom_space(C, N)
    hs_out = hom_space(M, hs_cn.module)
    h, c, m, n = hs_t.dim, C.dim, M.dim, N.dim
    # g_l after the pure tensors, regrouped into the maps c -> g_l(c (x) e_j)
    gp = _mul_arrays(hs_t.basis_mats().reshape(h * n, ts.dim), ts.pure_matrix(), p)
    inner = gp.reshape(h, n, c, m).transpose(0, 3, 1, 2).reshape(h * m, n, c)
    ghat = hs_cn.coords_of_all(inner).reshape(hs_cn.dim, h, m).transpose(1, 0, 2)
    return ModuleHom(hs_t.module, hs_out.module, hs_out.coords_of_all(ghat), check=False)


def homothety_chi(R: Algebra, C: Module) -> ModuleHom:
    """chi: R -> Hom(C, C), r -> multiplication by r."""
    hs = hom_space(C, C)
    cols = hs.coords_of_all(C.element_matrices(np.eye(R.dim, dtype=np.int64)))
    return ModuleHom(free_module(R, 1), hs.module, cols, check=False)
