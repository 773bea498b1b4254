"""Complexes, minimal resolutions, homology, absolute Ext and Tor.

Free resolutions are minimal by construction: each step picks minimal
generators of the syzygy (kernel columns extending a basis of rad times the
kernel), so differentials land in the radical and betti numbers are read off
directly.  Injective resolutions are Matlis duals of free resolutions of the
dual.  Both ends of the pipeline keep the R-entry block structure of the
differentials, which is what makes the induced Hom/tensor complexes cheap:
Hom(R^b, N) and R^b (x) N are powers of N, and the induced differentials are
assembled from entrywise action matrices without ever touching the carriers.

Dimension verdicts over an Artinian local ring are exact: finite projective
(resp. injective) dimension forces dimension zero, so pd and id are decided
by the freeness (resp. dual-freeness) test, never by truncating a
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, require_local
from .errors import InputError, InvalidComplexError
from .linalg import Mat, _mul_arrays, kernel_basis, rank
from .memo import cache
from .modules import (Module, ModuleHom, _quotient_by_columns,
                      _submodule_from_columns, cover_matrix, free_module,
                      is_free, is_injective, matlis_dual, minimal_generators,
                      nakayama_generators, power_module, regular_module,
                      zero_module)

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
        self.arrows = list(arrows)
        self.orientation = orientation
        self.augmentation = augmentation
        self.aug_map = aug_map
        if check:
            self.validate()

    @property
    def top(self) -> int:
        return len(self.modules) - 1

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
                return self.arrows[i - 1]
            return None
        if i == -1:
            return self.aug_map
        if 0 <= i <= self.top - 1:
            return self.arrows[i]
        return None

    def validate(self) -> None:
        p = self.ring.field.p
        pairs = []
        if self.orientation == "homological":
            if self.aug_map is not None and self.arrows:
                pairs.append((self.aug_map, self.arrows[0]))
            for i in range(len(self.arrows) - 1):
                pairs.append((self.arrows[i], self.arrows[i + 1]))
        else:
            if self.aug_map is not None and self.arrows:
                pairs.append((self.arrows[0], self.aug_map))
            for i in range(len(self.arrows) - 1):
                pairs.append((self.arrows[i + 1], self.arrows[i]))
        for later, earlier in pairs:
            if _mul_arrays(later.mat, earlier.mat, p).any():
                raise InvalidComplexError("differentials do not compose to zero")

    # -- dimension bookkeeping via ranks only

    def _in_out(self, n: int) -> tuple[ModuleHom | None, ModuleHom | None]:
        """(arrow into degree n, arrow out of degree n), either may be None.
        Augmented positions count: degree -1 holds the augmentation module."""
        if self.orientation == "homological":
            into = self.arrow(n + 1) if n + 1 <= self.top else None
            if n == -1:
                return self.aug_map, None
            out = self.arrow(n) if n >= 1 else self.aug_map
            return into, out
        # cohomological: arrows increase degree
        if n == -1:
            return None, self.aug_map
        into = self.arrow(n - 1) if n >= 1 else self.aug_map
        out = self.arrow(n) if n <= self.top - 1 else None
        return into, out

    def homology_dim(self, n: int) -> int:
        into, out = self._in_out(n)
        dim = self.module(n).dim
        r_out = out.rank() if out is not None else 0
        r_in = into.rank() if into is not None else 0
        return dim - r_out - r_in


def homology_data(X: AugmentedComplex, n: int, label: str | None = None):
    """Subquotient presentation of H_n: (carrier, represent, reduce) where
    represent lifts carrier coordinates to cycles in X_n and reduce sends a
    cycle to its class.  The carrier is labelled H_n unless a label is
    given."""
    p = X.ring.field.p
    into, out = X._in_out(n)
    amb = X.module(n)
    # K is in kernel_basis form (the identity is the kernel basis of the
    # zero map), so the section of Z_n is a row selection, not an echelon
    if out is not None:
        K = kernel_basis(out.matrix()).data
    else:
        K = np.eye(amb.dim, dtype=np.int64)
    sub = _submodule_from_columns(amb, K, f"Z_{n}", "kernel")
    if label is None:
        label = f"H_{n}"
    if into is not None and K.shape[1]:
        coords = _mul_arrays(sub.section, into.mat, p)
    else:
        coords = np.zeros((K.shape[1], 0), dtype=np.int64)
    quot = _quotient_by_columns(sub.carrier, coords, label)
    if K.shape[1]:
        represent = _mul_arrays(K, quot.section, p)
        reduce_ = _mul_arrays(quot.map.mat, sub.section, p)
    else:
        represent = np.zeros((amb.dim, 0), dtype=np.int64)
        reduce_ = np.zeros((0, amb.dim), dtype=np.int64)
    return quot.carrier, represent, reduce_


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


# -- minimal free resolutions -----------------------------------------------------


class MinimalFreeResolution(AugmentedComplex):
    """Augmented minimal free resolution F_B -> ... -> F_0 -> M -> 0.

    Extra fields: betti (list of ranks), entries[j] ((b_{j-1}, b_j, d) array
    of ring-element entries of the j-th differential, j >= 1), complete
    (True once a zero syzygy has been found).

    The kernel of the last arrow (the syzygy that F_{B+1} would cover) is
    computed only when the resolution is extended, so `complete` may read
    False for a resolution that a further degree would show to terminate:
    a free M resolved to length 0 is not yet complete, and becomes complete
    at length >= 1.
    """

    def __init__(self, ring, modules, arrows, augmentation, aug_map,
                 betti, entries):
        super().__init__(ring, modules, arrows, "homological",
                         augmentation, aug_map, check=False)
        self.betti = betti
        self.entries = entries
        self.complete = False
        self._kernel_cols = None   # kernel of the last arrow, None until needed


_freeres_cache = cache()          # M.fingerprint -> resolution, extended in place


def minimal_free_resolution(M: Module, length: int) -> MinimalFreeResolution:
    """Minimal free resolution of M out to homological degree `length`."""
    require_local(M.ring)
    if length < 0:
        raise InputError("resolution length must be >= 0")
    cached = _freeres_cache.get(M.fingerprint)
    if cached is not None and cached.top >= length:
        return cached
    R = M.ring
    if cached is None:
        gens = minimal_generators(M)
        b0 = gens.shape[1]
        F0 = free_module(R, b0)
        eps = ModuleHom(F0, M, cover_matrix(M, gens), check=False)
        res = MinimalFreeResolution(R, [F0], [], M, eps, [b0], [None])
    else:
        res = cached
    d = R.dim
    while res.top < length:
        j = res.top + 1
        F_prev = res.modules[-1]
        if res._kernel_cols is None:
            last = res.arrows[-1] if res.arrows else res.aug_map
            res._kernel_cols = kernel_basis(last.matrix()).data
        K = res._kernel_cols
        if K.shape[1] == 0:
            res.modules.append(zero_module(R))
            res.arrows.append(ModuleHom(zero_module(R), F_prev,
                                        np.zeros((F_prev.dim, 0), dtype=np.int64),
                                        check=False))
            res.betti.append(0)
            res.entries.append(np.zeros((res.betti[j - 1], 0, d), dtype=np.int64))
            res.complete = True
            res._kernel_cols = np.zeros((0, 0), dtype=np.int64)
            continue
        gens = nakayama_generators(F_prev, K)
        bj = gens.shape[1]
        Fj = free_module(R, bj)
        diff = ModuleHom(Fj, F_prev, cover_matrix(F_prev, gens), check=False)
        res.modules.append(Fj)
        res.arrows.append(diff)
        res.betti.append(bj)
        res.entries.append(np.ascontiguousarray(
            gens.reshape(res.betti[j - 1], d, bj).transpose(0, 2, 1)))
        res._kernel_cols = None
    _freeres_cache[M.fingerprint] = res
    return res


def betti_numbers(M: Module, length: int) -> list[int]:
    return list(minimal_free_resolution(M, length).betti[: length + 1])


# -- minimal injective resolutions ---------------------------------------------


class MinimalInjectiveResolution(AugmentedComplex):
    """0 -> M -> I^0 -> ... -> I^B, the Matlis dual of a minimal free
    resolution of the dual.  bass holds the ranks (I^j is a power of the
    dual of the ring by bass[j])."""

    def __init__(self, ring, modules, arrows, augmentation, aug_map,
                 bass, entries, complete, dual_resolution):
        super().__init__(ring, modules, arrows, "cohomological",
                         augmentation, aug_map, check=False)
        self.bass = bass
        self.entries = entries
        self.complete = complete
        self.dual_resolution = dual_resolution


def minimal_injective_resolution(M: Module, length: int) -> MinimalInjectiveResolution:
    dual = matlis_dual(M)
    res = minimal_free_resolution(dual, length)
    D = matlis_dual(regular_module(M.ring))
    modules = [power_module(D, b) for b in res.betti]
    arrows = []
    for i in range(1, res.top + 1):
        arrows.append(ModuleHom(modules[i - 1], modules[i],
                                res.arrows[i - 1].mat.T, check=False))
    # dual of (F_0 -> M^dual) is (M -> I^0): double dualizing is the
    # coordinate identity here (actions transpose twice)
    aug = ModuleHom(M, modules[0], res.aug_map.mat.T, check=False)
    return MinimalInjectiveResolution(M.ring, modules, arrows, M, aug,
                                      list(res.betti), res.entries,
                                      res.complete, res)


def bass_numbers(M: Module, length: int) -> list[int]:
    return list(minimal_injective_resolution(M, length).bass[: length + 1])


# -- induced complexes, Ext, Tor --------------------------------------------------


def block_matrix_from_entries(act: np.ndarray, ent: np.ndarray,
                              contravariant: bool, p: int) -> np.ndarray:
    """Expand a ring-entry array ent (b_prev, b_next, d) into a block matrix
    using act[k] as the matrix realising the k-th basis element.

    Covariant layout: (b_prev*n, b_next*n), block (s, t) realises ent[s, t].
    Contravariant layout: (b_next*n, b_prev*n), block (t, s) realises
    ent[s, t].
    """
    b_prev, b_next, d = ent.shape
    n = act.shape[1]
    if n == 0 or b_prev == 0 or b_next == 0:
        shape = (b_next * n, b_prev * n) if contravariant else (b_prev * n, b_next * n)
        return np.zeros(shape, dtype=np.int64)
    blocks = _mul_arrays(ent.reshape(b_prev * b_next, d), act.reshape(d, n * n),
                         p).reshape(b_prev, b_next, n, n)
    if contravariant:
        out = blocks.transpose(1, 2, 0, 3).reshape(b_next * n, b_prev * n)
    else:
        out = blocks.transpose(0, 2, 1, 3).reshape(b_prev * n, b_next * n)
    return np.ascontiguousarray(out)


def _entries_matrix(N: Module, ent: np.ndarray, contravariant: bool) -> np.ndarray:
    """Matrix of the induced map on powers of N for a differential with
    ring-entry array ent, realised through N's action matrices."""
    return block_matrix_from_entries(N.action, ent, contravariant, N.ring.field.p)


def hom_complex_from_resolution(res: MinimalFreeResolution, N: Module,
                                lo: int = 0, hi: int | None = None) -> AugmentedComplex:
    """Hom(F_bullet, N) as a cohomological complex on powers of N, in
    degrees lo..hi of the resolution (all of it by default); degree lo sits
    at position 0."""
    hi = res.top if hi is None else hi
    modules = [power_module(N, res.betti[j]) for j in range(lo, hi + 1)]
    arrows = []
    for j in range(lo + 1, hi + 1):
        mat = _entries_matrix(N, res.entries[j], contravariant=True)
        arrows.append(ModuleHom(modules[j - lo - 1], modules[j - lo], mat, check=False))
    return AugmentedComplex(res.ring, modules, arrows, "cohomological", check=False)


def tensor_complex_from_resolution(res: MinimalFreeResolution, N: Module) -> AugmentedComplex:
    """F_bullet (x) N as a homological complex on powers of N."""
    modules = [power_module(N, b) for b in res.betti]
    arrows = []
    for j in range(1, res.top + 1):
        mat = _entries_matrix(N, res.entries[j], contravariant=False)
        arrows.append(ModuleHom(modules[j], modules[j - 1], mat, check=False))
    return AugmentedComplex(res.ring, modules, arrows, "homological", check=False)


_ranks_cache = cache()   # (contravariant, M fp, N fp) -> [0, rank D^1, ...], extended in place


def _homology_dims(contravariant: bool, M: Module, N: Module, top: int) -> list[int]:
    """[dim H_i for i = 0..top] of Hom(F, N) (contravariant) or F (x) N,
    F the minimal free resolution of M, from ranks only.

    The one store behind ext_dims and tor_dims, and so behind both
    relative Exts: the ranks of the differentials are kept per (M, N), so a
    longer request assembles and ranks only the differentials it has not
    seen, and each matrix is dropped once ranked."""
    ranks = _ranks_cache.setdefault(
        (contravariant, M.fingerprint, N.fingerprint), [0])    # D^0 = 0
    res = minimal_free_resolution(M, top + 1)
    for j in range(len(ranks), top + 2):
        mat = _entries_matrix(N, res.entries[j], contravariant)
        ranks.append(rank(Mat._wrap(M.ring.field, mat)))
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
    cx = hom_complex_from_resolution(res, N)
    return homology(cx, i, f"Ext^{i}({M.label},{N.label})")


def tor_abs(i: int, M: Module, N: Module) -> Module:
    """Tor_i^R(M, N) as a module (subquotient carrier)."""
    if i < 0:
        raise InputError("Tor degree must be >= 0")
    res = minimal_free_resolution(M, i + 1)
    cx = tensor_complex_from_resolution(res, N)
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
