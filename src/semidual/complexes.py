"""Complexes, minimal resolutions, homology, absolute Ext and Tor.

Free resolutions are minimal by construction: each step picks minimal
generators of the syzygy (kernel columns extending a basis of rad times the
kernel), so differentials land in the radical and betti numbers are read
off directly.  Over a ring with m^2 = 0 no step past the first takes a
kernel at all: a minimal arrow d_j (j >= 1) sends m * F_j into m^2 * F_{j-1}
= 0, and the images of its generators are independent over k, so its
kernel is exactly m * F_j, whose kernel basis is one copy of the radical's
per generator.  A free resolution is kept as the ring entries of its
differentials, stored as coordinates (RingEntries: row, column, ring index,
scalar; no dense array of the entries is kept), and every complex built
from one is an InducedComplex: those entries realised through the action
of a module N on powers of N, since Hom(R^b, N) and R^b (x) N are N^b.  The
resolution itself is its entries realised through R (cover_matrix); a
minimal injective resolution is the free resolution of the dual realised
through D, the dual of R (Matlis duality); the Hom and tensor complexes
behind Ext, Tor and the proper resolutions realise them through N, C or
Hom(C, D).  All but the first are realised by modules.realise, the one
realiser of a matrix over R, from the entries scattered into coefficient
rows (RingEntries.coefficients).  A differential is realised on first use
and then kept, so nothing builds the matrix of a differential that no one
reads: Ext and Tor dimensions rank the entries directly (_homology_dims),
from the coordinates that modules._entries_coords lists when N acts by
partial permutations (this file never reads the record), and one whose
entries all act by zero on N (m * N = 0) is known to be zero
(_known_zero).  A homology module (homology_data) is the
modules.subquotient of the kernel_basis of the arrow out by the image of
the arrow in, and skips the known-zero arrows.

Dimension verdicts over an Artinian local ring are exact: finite projective
(resp. injective) dimension forces dimension zero, so pd and id are decided
by the freeness (resp. dual-freeness) test, never by truncating a
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, radical, require_local, ring_report
from .errors import InputError, InvalidComplexError
from .linalg import Mat, _check_cells, _mul_arrays, _sparse_rank, kernel_basis, rank
from .memo import cache
from .modules import (Module, ModuleHom, Subquotient, _entries_coords, cover_matrix, is_free,
                      is_injective, matlis_dual, minimal_generators, nakayama_generators,
                      power_module, realise, regular_module, subquotient, zero_module)

# -- dimension verdicts --------------------------------------------------------


@dataclass(frozen=True)
class DimensionValue:
    """Exact homological dimension: finite n, infinite, or the zero-module
    sentinel (dimension of the zero module is taken as -infinity; two zero
    sentinels compare equal)."""

    kind: str                   # "finite" | "infinite" | "zero"
    n: int | None = None
    witness: str | None = None

    @staticmethod
    def finite(n: int, witness: str | None = None) -> "DimensionValue":
        return DimensionValue("finite", n, witness)

    @staticmethod
    def infinite(witness: str | None = None) -> "DimensionValue":
        return DimensionValue("infinite", None, witness)

    @staticmethod
    def zero_sentinel() -> "DimensionValue":
        return DimensionValue("zero", None, "zero module")

    def __eq__(self, other):
        if not isinstance(other, DimensionValue):
            return NotImplemented
        return self.kind == other.kind and self.n == other.n

    def __hash__(self):
        return hash((self.kind, self.n))

    def __str__(self):
        if self.kind == "finite":
            return str(self.n)
        if self.kind == "infinite":
            return "infinite"
        return "zero module"


# -- complexes -------------------------------------------------------------------


class AugmentedComplex:
    """A bounded complex with an optional augmentation module at the end.

    Homological orientation: arrows step down, arrow(i): X_i -> X_{i-1} for
    1 <= i <= top, augmentation X_0 -> M.  Cohomological orientation: arrows
    step up, arrow(i): X^i -> X^{i+1} for 0 <= i <= top-1, augmentation
    M -> X^0.
    """

    def __init__(self, ring: Algebra, modules: list[Module], arrows: list[ModuleHom],
                 orientation: str = "homological",
                 augmentation: Module | None = None,
                 aug_map: ModuleHom | None = None,
                 check: bool = True):
        if orientation not in ("homological", "cohomological"):
            raise InputError(f"unknown orientation {orientation!r}")
        if len(arrows) != max(len(modules) - 1, 0):
            raise InputError("need one arrow between each consecutive pair")
        self.ring = ring
        self.modules = list(modules)
        self._arrows = list(arrows)
        self.orientation = orientation
        self.augmentation = augmentation
        self.aug_map = aug_map
        if check:
            self.validate()

    @property
    def top(self) -> int:
        return len(self.modules) - 1

    @property
    def arrows(self) -> list[ModuleHom]:
        return [self._arrow(k) for k in range(self.top)]

    def _arrow(self, k: int) -> ModuleHom:
        """The k-th arrow in degree order, 0 <= k < top: X_{k+1} -> X_k
        (homological) or X^k -> X^{k+1} (cohomological).  Every arrow is
        read through here."""
        return self._arrows[k]

    def module(self, i: int) -> Module:
        if 0 <= i <= self.top:
            return self.modules[i]
        if i == -1 and self.augmentation is not None:
            return self.augmentation
        return zero_module(self.ring)

    def arrow(self, i: int) -> ModuleHom | None:
        """Homological: the differential X_i -> X_{i-1} (i = 0 gives the
        augmentation).  Cohomological: X^i -> X^{i+1} (i = -1 gives the
        augmentation)."""
        if self.orientation == "homological":
            if i == 0:
                return self.aug_map
            if 1 <= i <= self.top:
                return self._arrow(i - 1)
            return None
        if i == -1:
            return self.aug_map
        if 0 <= i <= self.top - 1:
            return self._arrow(i)
        return None

    def validate(self) -> None:
        p = self.ring.field.p
        arrows = self.arrows
        pairs = []
        if self.orientation == "homological":
            if self.aug_map is not None and arrows:
                pairs.append((self.aug_map, arrows[0]))
            for i in range(len(arrows) - 1):
                pairs.append((arrows[i], arrows[i + 1]))
        else:
            if self.aug_map is not None and arrows:
                pairs.append((arrows[0], self.aug_map))
            for i in range(len(arrows) - 1):
                pairs.append((arrows[i + 1], arrows[i]))
        for later, earlier in pairs:
            if _mul_arrays(later.mat, earlier.mat, p).any():
                raise InvalidComplexError("differentials do not compose to zero")

    # -- dimension bookkeeping via ranks only

    def _in_out(self, n: int) -> tuple[ModuleHom | None, ModuleHom | None]:
        """(arrow into degree n, arrow out of degree n), None where there is
        none or it is _known_zero (then not realised).  Augmented positions
        count: degree -1 holds the augmentation module."""
        shift = 1 if self.orientation == "homological" else 0   # arrow(i) is arrow i - shift
        into = n + 1 if shift else n - 1
        return tuple(None if 0 <= i - shift < self.top and self._known_zero(i - shift)
                     else self.arrow(i) for i in (into, n))

    def _known_zero(self, k: int) -> bool:
        """True when the k-th arrow is known to be zero unread (sufficient only)."""
        return False

    def _arrow_rank(self, k: int) -> int:
        """Rank of the k-th arrow."""
        return self._arrow(k).rank()

    def _rank_at(self, i: int) -> int:
        """Rank of arrow(i), 0 where there is none."""
        if self.orientation == "homological":
            aug, k = 0, i - 1
        else:
            aug, k = -1, i
        if i == aug:
            return 0 if self.aug_map is None else self.aug_map.rank()
        return self._arrow_rank(k) if 0 <= k < self.top else 0

    def homology_dim(self, n: int) -> int:
        """dim H_n from the ranks of the arrows into and out of degree n;
        an InducedComplex ranks an unrealised arrow without realising it."""
        into = n + 1 if self.orientation == "homological" else n - 1
        return self.module(n).dim - self._rank_at(into) - self._rank_at(n)


def homology_data(X: AugmentedComplex, n: int, label: str | None = None) -> Subquotient:
    """H_n as a modules.subquotient (carrier, represent, reduce): Z_n is the
    kernel_basis of the arrow out of degree n, B_n the image of the arrow
    in, represent lifts carrier coordinates to cycles in X_n and reduce
    sends a cycle to its class.  The carrier is labelled H_n unless a label
    is given.  An arrow known to be zero (_known_zero) is not realised and
    counts as absent: no echelon out, no quotient in, and with both H is
    X_n's action as a plain Module and represent = reduce = I."""
    into, out = X._in_out(n)
    return subquotient(X.module(n), None if out is None else kernel_basis(out.matrix()).data,
                       None if into is None else into.mat, f"H_{n}" if label is None else label)


def homology(X: AugmentedComplex, n: int, label: str | None = None) -> Module:
    carrier, _, _ = homology_data(X, n, label)
    return carrier


def exactness_profile(X: AugmentedComplex) -> list[int]:
    """Degrees -1 .. top-1 where homology does not vanish.  The top degree is
    excluded: nothing maps into it, so its homology is a syzygy, not a
    failure of exactness."""
    bad = []
    degrees = range(-1, X.top) if X.augmentation is not None else range(0, X.top)
    for n in degrees:
        if X.homology_dim(n) != 0:
            bad.append(n)
    return bad


def syzygy(X: AugmentedComplex, n: int) -> Module:
    """n-th syzygy of an augmented complex: the augmentation module at n = 0,
    the kernel of the arrow out of degree n-1 (homological) or the image of
    the arrow into degree n-1 (cohomological) for n >= 1."""
    if n < 0:
        raise InputError("syzygy degree must be >= 0")
    if X.augmentation is None:
        raise InputError("syzygy needs an augmented complex")
    if n == 0:
        return X.augmentation
    m = n - 1
    if m > X.top:
        raise InputError(f"degree {n} beyond resolution length {X.top}")
    from .modules import image, kernel
    label = f"syzygy_{n}"
    if X.orientation == "homological":
        out = X.arrow(m) if m >= 1 else X.aug_map
        return kernel(out, label).carrier
    into = X.arrow(m)               # the map X^{n-1} -> X^n
    if into is None:
        return zero_module(X.ring)
    return image(into, label).carrier


# -- complexes induced by a resolution ------------------------------------------


@dataclass(frozen=True, eq=False)
class RingEntries:
    """The ring entries of a differential F_j -> F_{j-1} of free modules,
    the b_{j-1} x b_j matrix over R of shape[:2], as coordinates: entry
    (s, t) is the sum of v[e] * e_{i[e]} over the e with s[e] = s and
    t[e] = t, e_i the i-th basis element of R (d = shape[2] of them).
    Every v[e] lies in (0, p).  The coordinates are listed in the row-major
    order of the generator matrix (generators): by s, then i, then t.  No
    dense form is kept; generators builds one on request."""

    shape: tuple[int, int, int]
    s: np.ndarray
    t: np.ndarray
    i: np.ndarray
    v: np.ndarray

    @classmethod
    def from_generators(cls, gens: np.ndarray, b_prev: int, d: int) -> "RingEntries":
        """The coordinates of the differential R^b -> R^{b_prev} that sends
        generator t to column t of gens, whose rows s*d..(s+1)*d are its
        ring coefficient at generator s of R^{b_prev}."""
        rows, t = np.nonzero(gens)
        s = rows // d
        return cls((b_prev, gens.shape[1], d), s, t, rows - s * d, gens[rows, t])

    @classmethod
    def square_zero(cls, b_prev: int, basis: np.ndarray) -> "RingEntries":
        """from_generators(kron(I_{b_prev}, basis), b_prev, d) for a (d, e)
        basis, built from basis's nonzeros alone: generator s*e + c of the
        result is column c of basis in copy s."""
        d, e = basis.shape
        i, c = np.nonzero(basis)
        s = np.repeat(np.arange(b_prev), i.size)
        return cls((b_prev, b_prev * e, d), s, s * e + np.tile(c, b_prev),
                   np.tile(i, b_prev), np.tile(basis[i, c], b_prev))

    def coefficients(self) -> np.ndarray:
        """The (b_{j-1}, b_j, d) array of the entries' ring coordinates,
        which modules.realise takes."""
        _check_cells((self.shape[0] * self.shape[1], self.shape[2]), "ring entries")
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.s, self.t, self.i] = self.v
        return out

    def generators(self) -> np.ndarray:
        """The (b_{j-1} * d, b_j) matrix whose column t is the image of
        generator t (the inverse of from_generators)."""
        b_prev, b, d = self.shape
        _check_cells((b_prev * d, b), "generator matrix")
        out = np.zeros((b_prev * d, b), dtype=np.int64)
        out[self.s * d + self.i, self.t] = self.v
        return out


class InducedComplex(AugmentedComplex):
    """The complex that a resolution's ring entries induce on powers of N,
    in degrees lo..hi of the resolution (all of it by default), degree lo
    at position 0, with an optional augmentation.

    entries[j] holds the ring entries (RingEntries) of the j-th
    differential of a free resolution F with ranks betti.  Covariant:
    F (x) N, homological, on N^{b_j}, block (s, t) of the j-th arrow
    realising entry (s, t) through N's action.  Contravariant:
    Hom(F, N), cohomological, block (t, s).  Each differential is realised
    the first time arrow or arrows asks for it, and then kept.  aug is the
    matrix of the augmentation X_0 -> augmentation (covariant) or
    augmentation -> X^0 (contravariant).  Modules are labelled label_j when
    a label is given.

    complete is True once a rank past the first is zero: the resolution
    ended within these degrees.
    """

    def __init__(self, N: Module, betti: list[int], entries: list, contravariant: bool,
                 lo: int = 0, hi: int | None = None,
                 augmentation: Module | None = None, aug: np.ndarray | None = None,
                 label: str | None = None):
        hi = len(betti) - 1 if hi is None else hi
        self.N = N
        self.contravariant = contravariant
        self.betti = list(betti[lo:hi + 1])
        self.entries = list(entries[lo:hi + 1])     # entries[k] is degree lo + k
        modules = [power_module(N, b, None if label is None else f"{label}_{j}")
                   for j, b in enumerate(self.betti, lo)]
        aug_map = None
        if augmentation is not None:
            aug_map = (ModuleHom(augmentation, modules[0], aug, check=False) if contravariant
                       else ModuleHom(modules[0], augmentation, aug, check=False))
        super().__init__(N.ring, modules, [None] * (hi - lo),
                         "cohomological" if contravariant else "homological",
                         augmentation, aug_map, check=False)
        self._ranks: dict[int, int] = {}       # k -> rank of the unrealised k-th arrow

    @property
    def complete(self) -> bool:
        return 0 in self.betti[1:]

    def _arrow(self, k: int) -> ModuleHom:
        got = self._arrows[k]
        if got is None:
            src, dst = self.modules[k + 1], self.modules[k]
            if self.contravariant:
                src, dst = dst, src
            got = self._arrows[k] = ModuleHom(src, dst, self._realise(k + 1), check=False)
            got._rank = self._ranks.pop(k, None)
        return got

    def _realise(self, k: int) -> np.ndarray:
        """Matrix of the differential with entries[k]: X_k -> X_{k-1}
        (covariant) or X^{k-1} -> X^k (contravariant)."""
        return realise(self.N.action, self.entries[k].coefficients(), self.contravariant,
                       self.ring.field.p)

    def _known_zero(self, k: int) -> bool:
        """True when every ring index in the k-th arrow's entries acts by
        zero on N's base: a minimal resolution's entries lie in m, which
        kills N = k or Hom(D, k)."""
        base = (self.N.block or (self.N, 1))[0]
        acts = base.action.reshape(self.ring.dim, -1).any(axis=1)
        return not acts[self.entries[k + 1].i].any()

    def _arrow_rank(self, k: int) -> int:
        """Rank of the k-th arrow.  A realised arrow keeps its
        ModuleHom.rank(); an unrealised one is ranked from its ring entries
        by _differential_rank, from coordinates when N or its base acts by
        partial permutations, with no matrix of its full shape built and
        without realising it, and the rank is kept, to be handed to the
        arrow if it is realised later (_arrow)."""
        if self._arrows[k] is not None:
            return self._arrows[k].rank()
        got = self._ranks.get(k)
        if got is None:
            got = self._ranks[k] = _differential_rank(self.N, self.entries[k + 1],
                                                      self.contravariant)
        return got


class MinimalFreeResolution(InducedComplex):
    """Augmented minimal free resolution F_B -> ... -> F_0 -> M -> 0: its
    own entries realised through R.  A differential is realised by
    cover_matrix from its generators, which on a power of R that acts by
    partial permutations is act_all's scatter of rows (see modules).

    The kernel of the last arrow (the syzygy that F_{B+1} would cover) is
    taken, and so the last arrow realised, only when the resolution is
    extended, and over a ring with m^2 = 0 only at the augmentation; so
    `complete` may read False for a resolution that a further degree would
    show to terminate: a free M resolved to length 0 is not yet complete,
    and becomes complete at length >= 1.
    """

    def _realise(self, k: int) -> np.ndarray:
        return cover_matrix(self.modules[k - 1], self.entries[k].generators())

    def _extend(self) -> None:
        """Append degree top + 1: minimal generators of the kernel of the
        last arrow (the augmentation at top 0).

        A minimal arrow's kernel lies in m * F; with m^2 = 0, m kills it, so
        its kernel basis is minimal and no Nakayama step is taken.  Past the
        augmentation (top >= 1) the kernel is known: the arrow d is minimal,
        so d(m * F) lies in m^2 * F' = 0, and d is injective on F / m * F
        (the images of the generators minimally generate the syzygy, which
        m kills, so they are independent over k); so ker d = m * F, the
        direct sum of one copy of m per generator.  Its kernel_basis is
        kron(I_b, B) with B the kernel_basis form of m in R: that form
        depends only on the subspace, and on disjoint coordinate blocks it
        is block diagonal.  radical(R) is B: the unit vectors of the
        monomials other than 1 over a monomial quotient, a kernel_basis
        output otherwise.  So no differential is realised and no kernel
        taken, and the entries are those of the kernel path bit for bit."""
        b_prev, d = self.betti[-1], self.ring.dim
        square_zero = ring_report(self.ring).loewy_length <= 2
        if square_zero and self.top >= 1:
            ent = RingEntries.square_zero(b_prev, radical(self.ring).data)
        else:
            K = kernel_basis(self.arrow(self.top).matrix()).data
            gens = K if square_zero else nakayama_generators(self.modules[-1], K)
            ent = RingEntries.from_generators(gens, b_prev, d)
        b = ent.shape[1]
        self.entries.append(ent)
        self.betti.append(b)
        self.modules.append(power_module(self.N, b))
        self._arrows.append(None)


_freeres_cache = cache()          # M.fingerprint -> resolution, extended in place


def minimal_free_resolution(M: Module, length: int) -> MinimalFreeResolution:
    """Minimal free resolution of M out to homological degree `length`."""
    require_local(M.ring)
    if length < 0:
        raise InputError("resolution length must be >= 0")
    res = _freeres_cache.get(M.fingerprint)
    if res is None:
        gens = minimal_generators(M)
        res = MinimalFreeResolution(regular_module(M.ring), [gens.shape[1]], [None], False,
                                    augmentation=M, aug=cover_matrix(M, gens))
        _freeres_cache[M.fingerprint] = res
    while res.top < length:
        res._extend()
    return res


def betti_numbers(M: Module, length: int) -> list[int]:
    return list(minimal_free_resolution(M, length).betti[: length + 1])


# -- minimal injective resolutions ---------------------------------------------


def minimal_injective_resolution(M: Module, length: int) -> InducedComplex:
    """0 -> M -> I^0 -> ... -> I^B, the Matlis dual of the minimal free
    resolution F of the dual of M: F's entries realised through D, the dual
    of R, so I^j = D^{b_j} and betti holds the Bass numbers of M.  Actions
    transpose under duality, so each arrow is the transpose of F's, and so
    is the augmentation M -> I^0 (double dualizing is the coordinate
    identity)."""
    res = minimal_free_resolution(matlis_dual(M), length)
    return InducedComplex(matlis_dual(regular_module(M.ring)), res.betti, res.entries, True,
                          augmentation=M, aug=res.aug_map.mat.T)


def bass_numbers(M: Module, length: int) -> list[int]:
    return list(minimal_injective_resolution(M, length).betti[: length + 1])


# -- induced differentials, Ext, Tor --------------------------------------------------


def _differential_rank(N: Module, ent: RingEntries, contravariant: bool) -> int:
    """Rank of the induced differential with ring entries ent on powers
    of N.  When N or its base has a partial-permutation record the rank is
    read off coordinates (modules._entries_coords, linalg._sparse_rank),
    and only the rows that are not private are densified; otherwise the
    matrix is realised and ranked."""
    field = N.ring.field
    coords = _entries_coords(N, ent, contravariant)
    if coords is None:
        return rank(Mat._wrap(field, realise(N.action, ent.coefficients(), contravariant,
                                             field.p)))
    b_prev, b_next, _ = ent.shape
    n = N.dim
    shape = (b_next * n, b_prev * n) if contravariant else (b_prev * n, b_next * n)
    return _sparse_rank(field, shape, *coords)


_ranks_cache = cache()   # (contravariant, M fp, N fp) -> [0, rank D^1, ...], extended in place


def _homology_dims(contravariant: bool, M: Module, N: Module, top: int) -> list[int]:
    """[dim H_i for i = 0..top] of Hom(F, N) (contravariant) or F (x) N,
    F the minimal free resolution of M, from ranks only.

    The one store behind ext_dims and tor_dims, and so behind both
    relative Exts: the ranks of the differentials are kept per (M, N), so a
    longer request ranks only the differentials it has not seen, each by
    one _differential_rank call.  When N or its base acts by partial
    permutations (R, k and D of a monomial quotient, and their powers) a
    differential is ranked from its nonzero coordinates: no matrix of its
    full shape is built, and when m * N = 0 (N = k, Hom(D, k)) the entries
    of the minimal resolution, which lie in m, give no coordinates at all
    and rank 0.  Other N build the dense matrix, which is dropped once
    ranked."""
    ranks = _ranks_cache.setdefault(
        (contravariant, M.fingerprint, N.fingerprint), [0])    # D^0 = 0
    res = minimal_free_resolution(M, top + 1)
    for j in range(len(ranks), top + 2):
        ranks.append(_differential_rank(N, res.entries[j], contravariant))
    return [res.betti[i] * N.dim - ranks[i] - ranks[i + 1] for i in range(top + 1)]


def ext_dims(M: Module, N: Module, top: int) -> list[int]:
    """[dim Ext^i(M, N) for i = 0..top], ranks only."""
    return _homology_dims(True, M, N, top)


def tor_dims(M: Module, N: Module, top: int) -> list[int]:
    """[dim Tor_i(M, N) for i = 0..top], ranks only."""
    return _homology_dims(False, M, N, top)


def ext_abs(i: int, M: Module, N: Module) -> Module:
    """Ext^i_R(M, N) as a module (subquotient carrier)."""
    if i < 0:
        raise InputError("Ext degree must be >= 0")
    res = minimal_free_resolution(M, i + 1)
    cx = InducedComplex(N, res.betti, res.entries, True)
    return homology(cx, i, f"Ext^{i}({M.label},{N.label})")


def tor_abs(i: int, M: Module, N: Module) -> Module:
    """Tor_i^R(M, N) as a module (subquotient carrier)."""
    if i < 0:
        raise InputError("Tor degree must be >= 0")
    res = minimal_free_resolution(M, i + 1)
    cx = InducedComplex(N, res.betti, res.entries, False)
    return homology(cx, i, f"Tor_{i}({M.label},{N.label})")


# -- exact projective / injective dimension ------------------------------------


def pd_exact(M: Module) -> DimensionValue:
    """Projective dimension over the Artinian local ring: the zero module
    sentinel, 0 (free), or infinite.  Finite nonzero pd cannot occur: the
    ring has depth zero, so a finite resolution forces freeness."""
    require_local(M.ring)
    if M.dim == 0:
        return DimensionValue.zero_sentinel()
    r = is_free(M)
    if r is not None:
        return DimensionValue.finite(0, witness=f"free of rank {r}")
    return DimensionValue.infinite(witness="not free; depth 0 forces pd in {0, infinity}")


def id_exact(M: Module) -> DimensionValue:
    """Injective dimension, decided through the Matlis dual."""
    require_local(M.ring)
    if M.dim == 0:
        return DimensionValue.zero_sentinel()
    r = is_injective(M)
    if r is not None:
        return DimensionValue.finite(0, witness=f"dual is free of rank {r}")
    return DimensionValue.infinite(witness="dual not free; depth 0 forces id in {0, infinity}")
