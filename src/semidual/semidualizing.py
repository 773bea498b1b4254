"""Semidualizing modules and relative homological algebra.

A module C is semidualizing when the homothety map R -> Hom(C,C) is bijective
and Ext^i(C,C) vanishes for i >= 1 (verified up to an explicit bound).  Around
a certified C this module builds the whole relative theory:

  * the C-projectives {C (x) free} and C-injectives {Hom(C, injective)},
  * proper resolutions obtained by transport: C (x) (minimal free resolution
    of Hom(C,M)), and dually Hom(C, injective resolution of C (x) M),
  * relative Ext along two independent routes (proper resolution vs the
    Hom/tensor transfer formula) together with the explicit comparison map,
  * Auslander and Bass classes with witnessed membership reports,
  * relative projective/injective dimension and Foxby transport,
  * consistency checks for the structural theorems tying all of it together.

Vanishing conditions are always verified to a bound carried in the report;
nothing here pretends to certify infinitely many degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import (AugmentedComplex, DimensionValue,
                        block_matrix_from_entries, exactness_profile, ext_dims,
                        homology_data, id_exact, minimal_free_resolution,
                        minimal_injective_resolution, pd_exact, syzygy,
                        tor_dims, _entries_matrix)
from .errors import InputError, NotSemidualizingError, TheoremViolationError
from .linalg import Mat, _mul_arrays, rank as _rank
from .modules import (Module, ModuleHom, _cache, adjunction_iso,
                      coevaluation_mu, direct_sum, dualizing_module,
                      evaluation_nu, hom_functor_map, hom_space, homothety_chi,
                      is_free, is_injective, kernel, minimal_generators,
                      power_module, tensor_functor_map, tensor_space)


def _np_rank(arr: np.ndarray, field) -> int:
    if arr.size == 0:
        return 0
    return _rank(Mat(field, arr))


# -- natural map caches --------------------------------------------------------

_nu_cache = _cache()
_mu_cache = _cache()


def evaluation_map(C: Module, M: Module) -> ModuleHom:
    """Cached nu: C (x) Hom(C,M) -> M."""
    key = (C.fingerprint, M.fingerprint)
    got = _nu_cache.get(key)
    if got is None:
        got = evaluation_nu(C, M)
        _nu_cache[key] = got
    return got


def coevaluation_map(C: Module, M: Module) -> ModuleHom:
    """Cached mu: M -> Hom(C, C (x) M)."""
    key = (C.fingerprint, M.fingerprint)
    got = _mu_cache.get(key)
    if got is None:
        got = coevaluation_mu(C, M)
        _mu_cache[key] = got
    return got


# -- semidualizing certificates ------------------------------------------------


@dataclass
class SemidualizingCertificate:
    """Outcome of the semidualizing test for a candidate module.

    The certificate passes when the homothety map is bijective and no
    nonvanishing Ext^i(C,C) was found for 1 <= i <= the verified bound.
    """

    homothety_bijective: bool
    ext_vanishing_verified_to: int
    failure_witness: str | None

    @property
    def passed(self) -> bool:
        return self.homothety_bijective and self.failure_witness is None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "homothety_bijective": self.homothety_bijective,
            "ext_vanishing_verified_to": self.ext_vanishing_verified_to,
            "failure_witness": self.failure_witness,
        }


def check_semidualizing(C: Module, B: int = 5) -> SemidualizingCertificate:
    """Decide the semidualizing conditions for C up to degree bound B.

    After the homothety checks, a free or injective C passes without a
    resolution: Ext^i(P, -) = 0 and Ext^i(-, E) = 0 for i >= 1, so the
    vanishing holds in every degree and is reported verified to B.  Any
    other C is resolved and Ext^i(C,C) computed for 1 <= i <= B.

    Failures are reported in the certificate, never raised.
    """
    if B < 1:
        raise InputError("semidualizing bound must be >= 1")
    chi = homothety_chi(C.ring, C)
    if not chi.is_injective():
        return SemidualizingCertificate(False, 0, "homothety not injective")
    if not chi.is_surjective():
        return SemidualizingCertificate(False, 0, "homothety not surjective")
    if is_free(C) is not None or is_injective(C) is not None:
        return SemidualizingCertificate(True, B, None)
    dims = ext_dims(C, C, B)
    for j in range(1, B + 1):
        if dims[j] != 0:
            return SemidualizingCertificate(
                True, j - 1, f"Ext^{j}(C,C) has dimension {dims[j]}")
    return SemidualizingCertificate(True, B, None)


_cert_cache = _cache()          # fingerprint -> best bound certified


def require_semidualizing(C: Module, B: int = 1) -> None:
    """Raise unless C is certified semidualizing to bound B (cached)."""
    got = _cert_cache.get(C.fingerprint)
    if got is not None and got >= B:
        return
    cert = check_semidualizing(C, B)
    if not cert.passed:
        raise NotSemidualizingError(
            f"{C.label} is not semidualizing: {cert.failure_witness}")
    _cert_cache[C.fingerprint] = max(B, got or 0)


# -- C-projectives and C-injectives ---------------------------------------------


def is_c_projective(C: Module, M: Module) -> bool:
    """True iff M lies in the class {C (x) free}: Hom(C,M) must be free and
    the evaluation map C (x) Hom(C,M) -> M bijective."""
    require_semidualizing(C)
    if is_free(hom_space(C, M).module) is None:
        return False
    return evaluation_map(C, M).is_bijective()


def is_c_injective(C: Module, M: Module) -> bool:
    """True iff M lies in the class {Hom(C, injective)}: C (x) M must be
    injective and the coevaluation map M -> Hom(C, C (x) M) bijective."""
    require_semidualizing(C)
    if is_injective(tensor_space(C, M).module) is None:
        return False
    return coevaluation_map(C, M).is_bijective()


# -- proper resolutions by transport ---------------------------------------------


class ProperResolution(AugmentedComplex):
    """An augmented complex of C-projectives (or C-injectives) built by
    transporting a minimal resolution through the Foxby functors.  Carries the
    base resolution it was transported from."""

    def __init__(self, ring, modules, arrows, orientation, augmentation,
                 aug_map, C, base_resolution):
        super().__init__(ring, modules, arrows, orientation, augmentation,
                         aug_map, check=False)
        self.C = C
        self.base_resolution = base_resolution


def _generator_vectors(res) -> np.ndarray:
    """Columns: images of the free-cover unit generators, read off the
    augmentation of a minimal free resolution.  Shape (dim, b_0)."""
    R = res.ring
    b0 = res.betti[0]
    d = R.dim
    out = np.zeros((res.augmentation.dim, b0), dtype=np.int64)
    unit = R.unit.reshape(-1, 1)
    for s in range(b0):
        block = np.ascontiguousarray(res.aug_map.mat[:, s * d:(s + 1) * d])
        out[:, s] = _mul_arrays(block, unit, R.field.p)[:, 0]
    return out


def proper_pc_resolution(C: Module, M: Module, B: int) -> ProperResolution:
    """Proper C-projective resolution X of M to length B.

    X_j = C (x) F_j for F the minimal free resolution of Hom(C,M); the
    augmentation X_0 -> M is evaluation after C (x) (free cover).  On the
    canonical power bases the augmentation block for the s-th cover generator
    g_s is just the matrix of g_s: C -> M, since nu(c (x) g_s) = g_s(c).
    Hom(C, X) is exact by construction, which is the properness condition.
    """
    require_semidualizing(C)
    if B < 0:
        raise InputError("resolution length must be >= 0")
    hs = hom_space(C, M)
    res = minimal_free_resolution(hs.module, B)
    c = C.dim
    modules = [power_module(C, res.betti[j], label=f"X_{j}")
               for j in range(B + 1)]
    arrows = []
    for j in range(1, B + 1):
        mat = _entries_matrix(C, res.entries[j], contravariant=False)
        arrows.append(ModuleHom(modules[j], modules[j - 1], mat, check=False))
    gens = _generator_vectors(res)
    aug = np.zeros((M.dim, res.betti[0] * c), dtype=np.int64)
    for s in range(gens.shape[1]):
        aug[:, s * c:(s + 1) * c] = hs.mat_of(gens[:, s])
    aug_map = ModuleHom(modules[0], M, aug, check=False)
    return ProperResolution(C.ring, modules, arrows, "homological", M,
                            aug_map, C, res)


def proper_ic_resolution(C: Module, M: Module, B: int) -> ProperResolution:
    """Proper C-injective coresolution Y of M to length B.

    Y^j = Hom(C, I^j) for I the minimal injective resolution of C (x) M; the
    augmentation M -> Y^0 is Hom(C, inclusion) after coevaluation.
    """
    require_semidualizing(C)
    if B < 0:
        raise InputError("resolution length must be >= 0")
    ts = tensor_space(C, M)
    ires = minimal_injective_resolution(ts.module, B)
    hcd = hom_space(C, dualizing_module(C.ring))
    W = hcd.module
    modules = [power_module(W, ires.bass[j], label=f"Y_{j}")
               for j in range(B + 1)]
    arrows = []
    for j in range(1, B + 1):
        mat = _entries_matrix(W, ires.entries[j], contravariant=True)
        arrows.append(ModuleHom(modules[j - 1], modules[j], mat, check=False))
    mu = coevaluation_map(C, M)
    lift = hom_functor_map(C, ires.aug_map, side="covariant")
    p = C.ring.field.p
    aug_map = ModuleHom(M, modules[0], _mul_arrays(lift.mat, mu.mat, p),
                        check=False)
    return ProperResolution(C.ring, modules, arrows, "cohomological", M,
                            aug_map, C, ires)


def apply_hom_covariant(C: Module, X: AugmentedComplex) -> AugmentedComplex:
    """Hom(C, -) applied degreewise to an augmented complex (orientation is
    preserved).  Small complexes only: each arrow goes through the generic
    functor map."""
    modules = [hom_space(C, X.modules[j]).module for j in range(X.top + 1)]
    arrows = [hom_functor_map(C, f, side="covariant") for f in X.arrows]
    aug_mod = None
    aug_map = None
    if X.augmentation is not None:
        aug_mod = hom_space(C, X.augmentation).module
        aug_map = hom_functor_map(C, X.aug_map, side="covariant")
    return AugmentedComplex(X.ring, modules, arrows, X.orientation,
                            aug_mod, aug_map, check=False)


def apply_hom_contravariant(X: AugmentedComplex, W: Module) -> AugmentedComplex:
    """Hom(-, W) applied degreewise (orientation flips).  Small complexes
    only."""
    flipped = ("cohomological" if X.orientation == "homological"
               else "homological")
    modules = [hom_space(X.modules[j], W).module for j in range(X.top + 1)]
    arrows = [hom_functor_map(W, f, side="contravariant") for f in X.arrows]
    aug_mod = None
    aug_map = None
    if X.augmentation is not None:
        aug_mod = hom_space(X.augmentation, W).module
        aug_map = hom_functor_map(W, X.aug_map, side="contravariant")
    return AugmentedComplex(X.ring, modules, arrows, flipped,
                            aug_mod, aug_map, check=False)


def is_proper_pc(C: Module, X: AugmentedComplex) -> bool:
    """Properness of a C-projective resolution: Hom(C, X) stays exact.  Maps
    out of every C-projective C (x) R^n factor through powers of Hom(C, -),
    so exactness against C alone decides it."""
    return exactness_profile(apply_hom_covariant(C, X)) == []


def is_proper_ic(C: Module, Y: AugmentedComplex) -> bool:
    """Properness of a C-injective coresolution: Hom(Y, Hom(C, injective))
    stays exact.  Every injective is a power of the ring's dual here, so one
    cogenerator suffices."""
    W = hom_space(C, dualizing_module(C.ring)).module
    return exactness_profile(apply_hom_contravariant(Y, W)) == []


# -- relative Ext: two routes plus the comparison map ------------------------------


@dataclass
class RelExtResult:
    """Relative Ext in one degree.  dim_via_proper comes from the proper
    resolution route, dim_via_formula from the transfer formula; agree is set
    in mode "both" once the comparison succeeded, and iso_map holds the
    explicit homology-level comparison when it was materialized."""

    i: int
    dim_via_proper: int | None
    dim_via_formula: int | None
    agree: bool | None
    iso_map: ModuleHom | None

    @property
    def dim(self) -> int:
        got = self.dim_via_proper if self.dim_via_proper is not None \
            else self.dim_via_formula
        return got


_precomp_cache = _cache()


def _precomposition_action(hs) -> np.ndarray:
    """Q[mu]: the matrix, on Hom(C,N) coordinates, of f -> f after
    (multiplication by e_mu on C).

    For R-linear f this agrees with the carrier action of Hom(C,N), but it is
    assembled through the source action and the coordinate translations
    instead; the relative-Ext comparison leans on that independence.
    """
    key = (hs.source.fingerprint, hs.target.fingerprint)
    got = _precomp_cache.get(key)
    if got is not None:
        return got
    C = hs.source
    d = C.ring.dim
    h = hs.dim
    p = C.ring.field.p
    Q = np.zeros((d, h, h), dtype=np.int64)
    eye = np.eye(d, dtype=np.int64)
    for mu in range(d):
        cm = C.element_matrix(eye[mu])
        for l in range(h):
            Q[mu, :, l] = hs.coords_of(_mul_arrays(hs.basis_mat(l), cm, p))
    _precomp_cache[key] = Q
    return Q


class _PCExtEngine:
    """Both routes to Ext over the C-projectives for one triple (C, M, N).

    Formula route: Hom(F, Hom(C,N)) for F the minimal free resolution of
    Hom(C,M), differentials realized through the carrier action of Hom(C,N).
    Proper route: Hom(C (x) F, N) = Hom(C,N)-power coordinates, differentials
    realized through precomposition with the C-action.  The two differential
    matrices must coincide (naturality of the module structure on Hom); the
    comparison map of the transfer theorem is the identity in these
    coordinates, and checking the assembled matrices against each other is
    exactly checking that the adjunction squares commute.  Once they are
    checked, both routes are one complex, so the homology that the
    comparison map is materialized on is computed once, not once per route.
    """

    def __init__(self, C: Module, M: Module, N: Module):
        self.C, self.M, self.N = C, M, N
        self.hcm = hom_space(C, M)
        self.hcn = hom_space(C, N)
        self.field = C.ring.field
        self._formula: list[np.ndarray] = []     # D^j: degree j-1 -> j
        self._proper: list[np.ndarray] = []
        self._compared: list[bool] = []
        self._ranks: dict[str, list[int]] = {"formula": [], "proper": []}

    def extend(self, top: int) -> None:
        """Ensure differentials D^1..D^top for both routes."""
        if len(self._formula) >= top:
            return
        res = minimal_free_resolution(self.hcm.module, top)
        Q = _precomposition_action(self.hcn)
        act = self.hcn.module.action
        p = self.field.p
        for j in range(len(self._formula) + 1, top + 1):
            ent = res.entries[j]
            self._formula.append(
                block_matrix_from_entries(act, ent, True, p))
            self._proper.append(
                block_matrix_from_entries(Q, ent, True, p))
            self._compared.append(False)

    def compare(self, top: int) -> None:
        self.extend(top)
        for j in range(top):
            if self._compared[j]:
                continue
            if not np.array_equal(self._formula[j], self._proper[j]):
                raise TheoremViolationError(
                    f"relative Ext routes disagree at differential {j + 1} "
                    f"for C={self.C.label}, M={self.M.label}, N={self.N.label}")
            self._compared[j] = True

    def rank(self, j: int, route: str = "formula") -> int:
        """Rank of D^j (j >= 1); D^0 and differentials past the resolution
        count as zero.  Once the routes are compared their matrices are
        equal, so either cache serves; before that, ranks stay per-route."""
        if j < 1:
            return 0
        self.extend(j)
        mats = self._formula if route == "formula" else self._proper
        have = self._ranks[route]
        while len(have) < j:
            k = len(have)
            if k < len(self._compared) and self._compared[k]:
                other = self._ranks["proper" if route == "formula"
                                    else "formula"]
                if len(other) > k:
                    have.append(other[k])
                    continue
            have.append(_np_rank(mats[k], self.field))
        return have[j - 1]

    def space_dim(self, i: int) -> int:
        res = minimal_free_resolution(self.hcm.module, i)
        return res.betti[i] * self.hcn.dim

    def dim(self, i: int, route: str = "formula") -> int:
        self.extend(i + 1)
        return (self.space_dim(i) - self.rank(i, route)
                - self.rank(i + 1, route))

    def _complex(self, top: int) -> AugmentedComplex:
        res = minimal_free_resolution(self.hcm.module, top)
        modules = [power_module(self.hcn.module, res.betti[j])
                   for j in range(top + 1)]
        arrows = [ModuleHom(modules[j - 1], modules[j], self._formula[j - 1],
                            check=False) for j in range(1, top + 1)]
        return AugmentedComplex(self.C.ring, modules, arrows,
                                "cohomological", check=False)

    def homology_iso(self, i: int, limit: int = 600) -> ModuleHom | None:
        """Materialize the comparison on homology in degree i, when the
        chain groups are small enough; asserts bijectivity.  After compare()
        the two routes are one complex, so the map is reduce after
        represent on its one homology."""
        self.compare(i + 1)
        for j in range(max(i - 1, 0), i + 2):
            if self.space_dim(j) > limit:
                return None
        H, represent, reduce_ = homology_data(self._complex(i + 1), i)
        p = self.field.p
        iso = ModuleHom(H, H, _mul_arrays(reduce_, represent, p), check=False)
        if not iso.is_bijective():
            raise TheoremViolationError(
                "comparison map is not bijective on homology in degree "
                f"{i} for C={self.C.label}, M={self.M.label}, N={self.N.label}")
        return iso


_pc_engines = _cache()


def _pc_engine(C: Module, M: Module, N: Module) -> _PCExtEngine:
    key = (C.fingerprint, M.fingerprint, N.fingerprint)
    got = _pc_engines.get(key)
    if got is None:
        got = _PCExtEngine(C, M, N)
        _pc_engines[key] = got
    return got


def rel_ext(i: int, C: Module, M: Module, N: Module,
            mode: str = "both") -> RelExtResult:
    """Relative Ext^i over the C-projectives.

    mode "proper" computes H^i Hom(X, N) for X the proper C-projective
    resolution of M; mode "formula" computes Ext^i(Hom(C,M), Hom(C,N));
    mode "both" runs the two routes, checks the comparison squares, and
    materializes the homology-level comparison map on small inputs.
    Disagreement raises a theorem-violation error.
    """
    if i < 0:
        raise InputError("relative Ext degree must be >= 0")
    if mode not in ("proper", "formula", "both"):
        raise InputError(f"unknown relative Ext mode {mode!r}")
    require_semidualizing(C)
    eng = _pc_engine(C, M, N)
    if mode == "proper":
        return RelExtResult(i, eng.dim(i, route="proper"), None, None, None)
    if mode == "formula":
        return RelExtResult(i, None, eng.dim(i), None, None)
    eng.compare(i + 1)
    dim = eng.dim(i)
    iso = eng.homology_iso(i)
    return RelExtResult(i, dim, dim, True, iso)


# -- relative Ext over the C-injectives (dual route) --------------------------------


_postcomp_cache = _cache()


def _postcomposition_action(hs) -> np.ndarray:
    """T[mu]: the matrix, on Hom(A,B) coordinates, of f -> (multiplication by
    e_mu on B) after f.  Assembled through the target action and the
    coordinate translations."""
    key = (hs.source.fingerprint, hs.target.fingerprint)
    got = _postcomp_cache.get(key)
    if got is not None:
        return got
    B = hs.target
    d = B.ring.dim
    h = hs.dim
    p = B.ring.field.p
    T = np.zeros((d, h, h), dtype=np.int64)
    eye = np.eye(d, dtype=np.int64)
    for mu in range(d):
        bm = B.element_matrix(eye[mu])
        for l in range(h):
            T[mu, :, l] = hs.coords_of(_mul_arrays(bm, hs.basis_mat(l), p))
    _postcomp_cache[key] = T
    return T


class _ICExtEngine:
    """Both routes to Ext over the C-injectives for one triple (C, M, N).

    Proper route: Hom(M, Y) for Y = Hom(C, I), I the minimal injective
    resolution of C (x) N; differentials are assembled by pushing the
    injective-resolution entries through two composition stages.  Transport
    route: Hom(C (x) M, I), linked to the proper route degreewise by the
    adjunction isomorphism; the chain squares are checked exactly.  Formula
    route: Ext^i(C (x) M, C (x) N) from a minimal free resolution of
    C (x) M, a fully independent computation.
    """

    def __init__(self, C: Module, M: Module, N: Module):
        self.C, self.M, self.N = C, M, N
        self.field = C.ring.field
        self.ts_m = tensor_space(C, M)
        self.ts_n = tensor_space(C, N)
        DD = dualizing_module(C.ring)
        self.hcd = hom_space(C, DD)
        self.hmw = hom_space(M, self.hcd.module)
        self.htd = hom_space(self.ts_m.module, DD)
        self.alpha = adjunction_iso(C, M, DD)
        if not self.alpha.is_bijective():
            raise TheoremViolationError("adjunction map is not bijective")
        self._proper: list[np.ndarray] = []      # D^j: degree j-1 -> j
        self._transport: list[np.ndarray] = []
        self._checked: list[bool] = []
        self._ranks: list[int] = []

    def _bass(self, top: int) -> list[int]:
        return minimal_injective_resolution(self.ts_n.module, top).bass

    def extend(self, top: int) -> None:
        if len(self._proper) >= top:
            return
        ires = minimal_injective_resolution(self.ts_n.module, top)
        p = self.field.p
        T = _postcomposition_action(self.hcd)
        # push each basis-element stage through Hom(M, -)
        d = self.C.ring.dim
        w = self.hmw.dim
        V = np.zeros((d, w, w), dtype=np.int64)
        for mu in range(d):
            for l in range(w):
                V[mu, :, l] = self.hmw.coords_of(
                    _mul_arrays(T[mu], self.hmw.basis_mat(l), p))
        act_t = self.htd.module.action
        for j in range(len(self._proper) + 1, top + 1):
            ent = ires.entries[j]
            self._proper.append(block_matrix_from_entries(V, ent, True, p))
            self._transport.append(
                block_matrix_from_entries(act_t, ent, True, p))
            self._checked.append(False)

    def check_squares(self, top: int) -> None:
        """Phi_j = blockdiag(adjunction) must intertwine the transport and
        proper differentials."""
        self.extend(top)
        p = self.field.p
        a = self.alpha.mat
        bass = self._bass(top)
        for j in range(top):
            if self._checked[j]:
                continue
            phi_prev = np.kron(np.eye(bass[j], dtype=np.int64), a)
            phi_next = np.kron(np.eye(bass[j + 1], dtype=np.int64), a)
            lhs = _mul_arrays(phi_next, self._transport[j], p)
            rhs = _mul_arrays(self._proper[j], phi_prev, p)
            if not np.array_equal(lhs, rhs):
                raise TheoremViolationError(
                    f"adjunction square fails at differential {j + 1} for "
                    f"C={self.C.label}, M={self.M.label}, N={self.N.label}")
            self._checked[j] = True

    def rank(self, j: int) -> int:
        if j < 1:
            return 0
        self.extend(j)
        while len(self._ranks) < j:
            k = len(self._ranks)
            self._ranks.append(_np_rank(self._proper[k], self.field))
        return self._ranks[j - 1]

    def space_dim(self, i: int) -> int:
        return self._bass(i)[i] * self.hmw.dim

    def dim_proper(self, i: int) -> int:
        self.extend(i + 1)
        return self.space_dim(i) - self.rank(i) - self.rank(i + 1)

    def dim_formula(self, i: int) -> int:
        return ext_dims(self.ts_m.module, self.ts_n.module, i)[i]

    def homology_iso(self, i: int, limit: int = 600) -> ModuleHom | None:
        """The adjunction leg of the comparison, materialized on homology:
        H^i Hom(C (x) M, I) -> H^i Hom(M, Y).  Small inputs only."""
        self.check_squares(i + 1)
        bass = self._bass(i + 1)
        for j in range(max(i - 1, 0), i + 2):
            if bass[j] * max(self.hmw.dim, self.htd.dim) > limit:
                return None
        p = self.field.p
        mods_t = [power_module(self.htd.module, b) for b in bass[: i + 2]]
        mods_p = [power_module(self.hmw.module, b) for b in bass[: i + 2]]
        arr_t = [ModuleHom(mods_t[j - 1], mods_t[j], self._transport[j - 1],
                           check=False) for j in range(1, i + 2)]
        arr_p = [ModuleHom(mods_p[j - 1], mods_p[j], self._proper[j - 1],
                           check=False) for j in range(1, i + 2)]
        ct = AugmentedComplex(self.C.ring, mods_t, arr_t, "cohomological",
                              check=False)
        cp = AugmentedComplex(self.C.ring, mods_p, arr_p, "cohomological",
                              check=False)
        Ht, rep_t, _ = homology_data(ct, i)
        Hp, _, red_p = homology_data(cp, i)
        phi = np.kron(np.eye(bass[i], dtype=np.int64), self.alpha.mat)
        iso = ModuleHom(Ht, Hp,
                        _mul_arrays(red_p, _mul_arrays(phi, rep_t, p), p),
                        check=False)
        if not iso.is_bijective():
            raise TheoremViolationError(
                "adjunction comparison is not bijective on homology in "
                f"degree {i}")
        return iso


_ic_engines = _cache()


def _ic_engine(C: Module, M: Module, N: Module) -> _ICExtEngine:
    key = (C.fingerprint, M.fingerprint, N.fingerprint)
    got = _ic_engines.get(key)
    if got is None:
        got = _ICExtEngine(C, M, N)
        _ic_engines[key] = got
    return got


def rel_ext_ic(i: int, C: Module, M: Module, N: Module,
               mode: str = "both") -> RelExtResult:
    """Relative Ext^i over the C-injectives.

    mode "proper" computes H^i Hom(M, Y) for Y the proper C-injective
    coresolution of N; mode "formula" computes Ext^i(C (x) M, C (x) N) from
    a minimal free resolution of C (x) M, a fully independent route; mode
    "both" runs both, checks the adjunction squares linking Hom(M, Hom(C,I))
    with Hom(C (x) M, I), and compares dimensions.  Disagreement raises a
    theorem-violation error.
    """
    if i < 0:
        raise InputError("relative Ext degree must be >= 0")
    if mode not in ("proper", "formula", "both"):
        raise InputError(f"unknown relative Ext mode {mode!r}")
    require_semidualizing(C)
    eng = _ic_engine(C, M, N)
    if mode == "proper":
        return RelExtResult(i, eng.dim_proper(i), None, None, None)
    if mode == "formula":
        return RelExtResult(i, None, eng.dim_formula(i), None, None)
    eng.check_squares(i + 1)
    dp = eng.dim_proper(i)
    df = eng.dim_formula(i)
    if dp != df:
        raise TheoremViolationError(
            f"relative Ext over the C-injectives disagrees in degree {i}: "
            f"proper {dp} vs formula {df} for C={C.label}, M={M.label}, "
            f"N={N.label}")
    iso = eng.homology_iso(i)
    return RelExtResult(i, dp, df, True, iso)


# -- Auslander and Bass classes -----------------------------------------------------


@dataclass
class MembershipReport:
    """Witnessed verdict for membership in the Auslander or Bass class."""

    class_name: str                    # "Auslander" | "Bass"
    structural_map_bijective: bool
    vanishing_verified_to: int
    witness: str | None

    @property
    def passed(self) -> bool:
        return self.structural_map_bijective and self.witness is None

    def to_dict(self) -> dict:
        return {
            "class": self.class_name,
            "passed": self.passed,
            "structural_map_bijective": self.structural_map_bijective,
            "vanishing_verified_to": self.vanishing_verified_to,
            "witness": self.witness,
        }


def bass_membership(C: Module, M: Module, B: int = 5) -> MembershipReport:
    """Bass class test: nu_M bijective, Ext^{1..B}(C,M) = 0, and
    Tor_{1..B}(C, Hom(C,M)) = 0.  First failure is the witness."""
    require_semidualizing(C)
    if B < 1:
        raise InputError("membership bound must be >= 1")
    if not evaluation_map(C, M).is_bijective():
        return MembershipReport("Bass", False, 0, "nu not bijective")
    dims = ext_dims(C, M, B)
    for j in range(1, B + 1):
        if dims[j] != 0:
            return MembershipReport(
                "Bass", True, j - 1,
                f"Ext^{j}(C,M) has dimension {dims[j]}")
    hcm = hom_space(C, M).module
    tors = tor_dims(C, hcm, B)
    for j in range(1, B + 1):
        if tors[j] != 0:
            return MembershipReport(
                "Bass", True, j - 1,
                f"Tor_{j}(C,Hom(C,M)) has dimension {tors[j]}")
    return MembershipReport("Bass", True, B, None)


def auslander_membership(C: Module, M: Module, B: int = 5) -> MembershipReport:
    """Auslander class test: mu_M bijective, Tor_{1..B}(C,M) = 0, and
    Ext^{1..B}(C, C (x) M) = 0.  First failure is the witness."""
    require_semidualizing(C)
    if B < 1:
        raise InputError("membership bound must be >= 1")
    if not coevaluation_map(C, M).is_bijective():
        return MembershipReport("Auslander", False, 0, "mu not bijective")
    tors = tor_dims(C, M, B)
    for j in range(1, B + 1):
        if tors[j] != 0:
            return MembershipReport(
                "Auslander", True, j - 1,
                f"Tor_{j}(C,M) has dimension {tors[j]}")
    cm = tensor_space(C, M).module
    dims = ext_dims(C, cm, B)
    for j in range(1, B + 1):
        if dims[j] != 0:
            return MembershipReport(
                "Auslander", True, j - 1,
                f"Ext^{j}(C,C(x)M) has dimension {dims[j]}")
    return MembershipReport("Auslander", True, B, None)


# -- relative dimensions ------------------------------------------------------------


def pc_pd(C: Module, M: Module) -> DimensionValue:
    """Projective dimension over the C-projectives.

    Equals pd(Hom(C,M)) with one refinement: Finite(0) is reported only when
    M itself is C-projective.  If Hom(C,M) is free but evaluation fails to be
    bijective, a surjective C-projective resolution of M cannot exist, so the
    dimension is infinite.  Over an Artinian local ring the value set is
    {zero module, 0, infinity}.
    """
    require_semidualizing(C)
    if M.dim == 0:
        return DimensionValue.zero_sentinel()
    hs = hom_space(C, M)
    base = pd_exact(hs.module)
    if base.kind != "finite":
        mu = minimal_generators(hs.module).shape[1]
        return DimensionValue.infinite(
            witness=f"Hom(C,M) not free, mu={mu}; depth 0 forces the "
                    "relative dimension into {0, infinity}")
    if evaluation_map(C, M).is_bijective():
        return DimensionValue.finite(0, witness=f"C-projective: Hom(C,M) {base.witness}")
    return DimensionValue.infinite(
        witness="Hom(C,M) free but evaluation not bijective: no surjective "
                "C-projective resolution exists")


def ic_id(C: Module, M: Module) -> DimensionValue:
    """Injective dimension over the C-injectives: id(C (x) M), refined so
    that Finite(0) is reported only when M is C-injective."""
    require_semidualizing(C)
    if M.dim == 0:
        return DimensionValue.zero_sentinel()
    base = id_exact(tensor_space(C, M).module)
    if base.kind != "finite":
        return DimensionValue.infinite(
            witness="C(x)M not injective; depth 0 forces the relative "
                    "dimension into {0, infinity}")
    if coevaluation_map(C, M).is_bijective():
        return DimensionValue.finite(0, witness=f"C-injective: C(x)M {base.witness}")
    return DimensionValue.infinite(
        witness="C(x)M injective but coevaluation not bijective: no "
                "injective C-injective coresolution exists")


# -- Foxby equivalence ---------------------------------------------------------------


def foxby_transport(C: Module, M: Module,
                    direction: str) -> tuple[Module, ModuleHom]:
    """One leg of the Foxby equivalence.

    direction "tensor" returns (C (x) M, mu_M: M -> Hom(C, C (x) M));
    direction "hom" returns (Hom(C,M), nu_M: C (x) Hom(C,M) -> M).  The
    round-trip map is bijective exactly when M lies in the matching class.
    """
    require_semidualizing(C)
    if direction == "tensor":
        return tensor_space(C, M).module, coevaluation_map(C, M)
    if direction == "hom":
        return hom_space(C, M).module, evaluation_map(C, M)
    raise InputError(f"unknown Foxby direction {direction!r}")


# -- structural theorem checks --------------------------------------------------------


def composition_identity_check(C: Module, M: Module) -> bool:
    """The triangle identities of the (C (x) -, Hom(C, -)) adjunction.

    Hom(C, nu_M) o mu_{Hom(C,M)} is the identity on Hom(C,M), and
    nu_{C(x)M} o (C (x) mu_M) is the identity on C (x) M, as exact matrix
    equalities.  Additionally, when nu_M is injective Hom(C, nu_M) must be
    bijective.  Returns whether all three statements hold.
    """
    require_semidualizing(C)
    p = C.ring.field.p
    nu = evaluation_map(C, M)
    mu = coevaluation_map(C, M)
    hs = hom_space(C, M)
    hom_nu = hom_functor_map(C, nu, side="covariant")
    left = _mul_arrays(hom_nu.mat, coevaluation_map(C, hs.module).mat, p)
    ok = np.array_equal(left, np.eye(hs.dim, dtype=np.int64))
    ts = tensor_space(C, M)
    right = _mul_arrays(evaluation_map(C, ts.module).mat,
                        tensor_functor_map(C, mu).mat, p)
    ok = ok and np.array_equal(right, np.eye(ts.dim, dtype=np.int64))
    if nu.is_injective():
        ok = ok and hom_nu.is_bijective()
    return ok


def membership_transfer_check(C: Module, M: Module, B: int = 5) -> bool:
    """Membership transfers through the Foxby functors: M is Bass iff
    Hom(C,M) is Auslander, and M is Auslander iff C (x) M is Bass.  Returns
    whether both equivalences hold at bound B."""
    a = (bass_membership(C, M, B).passed
         == auslander_membership(C, hom_space(C, M).module, B).passed)
    b = (auslander_membership(C, M, B).passed
         == bass_membership(C, tensor_space(C, M).module, B).passed)
    return a and b


def exactness_equivalence_check(C: Module, M: Module, B: int = 5) -> bool:
    """Exactness of the transported resolutions in low degrees matches the
    structural-map/vanishing characterization.

    For each n <= B: the proper C-projective resolution of M is exact in
    degrees < n iff nu_M is bijective and Tor_i(C, Hom(C,M)) = 0 for
    0 < i < n; dually the C-injective coresolution is exact in degrees < n
    iff mu_M is bijective and Ext^i(C, C (x) M) = 0 for 0 < i < n.
    """
    require_semidualizing(C)
    ok = True
    X = proper_pc_resolution(C, M, B)
    prof = exactness_profile(X)
    nu_ok = evaluation_map(C, M).is_bijective()
    tors = tor_dims(C, hom_space(C, M).module, B)
    for n in range(1, B + 1):
        lhs = all(deg >= n for deg in prof)
        rhs = nu_ok and all(t == 0 for t in tors[1:n])
        ok = ok and (lhs == rhs)
    Y = proper_ic_resolution(C, M, B)
    prof_y = exactness_profile(Y)
    mu_ok = coevaluation_map(C, M).is_bijective()
    exts = ext_dims(C, tensor_space(C, M).module, B)
    for n in range(1, B + 1):
        lhs = all(deg >= n for deg in prof_y)
        rhs = mu_ok and all(e == 0 for e in exts[1:n])
        ok = ok and (lhs == rhs)
    return ok


def projectivity_vanishing_check(C: Module, M: Module) -> bool:
    """The functional criterion for C-projectivity agrees with the
    structural one: Ext^1 over the C-projectives into the kernel of the
    augmentation vanishes iff M is C-projective."""
    X = proper_pc_resolution(C, M, 1)
    K0 = kernel(X.aug_map).carrier
    functional = rel_ext(1, C, M, K0, mode="both").dim == 0
    return functional == is_c_projective(C, M)


def dimension_vanishing_check(C: Module, M: Module, samples: list[Module],
                              degrees: tuple[int, ...] = (1, 2)) -> bool:
    """Vanishing of relative Ext detects relative projective dimension: a
    module of finite dimension kills Ext^i for i >= 1 against every sample,
    an infinite one is caught by Ext^1 into the augmentation kernel."""
    v = pc_pd(C, M)
    if v.kind in ("finite", "zero"):
        return all(rel_ext(i, C, M, N, mode="both").dim == 0
                   for N in samples for i in degrees)
    X = proper_pc_resolution(C, M, 1)
    K0 = kernel(X.aug_map).carrier
    return rel_ext(1, C, M, K0, mode="both").dim != 0


def two_of_three_check(C: Module, f: ModuleHom, g: ModuleHom,
                       B: int = 5) -> bool:
    """Closure of finite relative dimension and of the Auslander/Bass
    classes along a short exact sequence 0 -> A -f-> E -g-> Q -> 0: whenever
    two of the three modules qualify, so does the third."""
    require_semidualizing(C)
    p = C.ring.field.p
    if f.dst.fingerprint != g.src.fingerprint:
        raise InputError("maps do not form a composable sequence")
    exact = (f.is_injective() and g.is_surjective()
             and not _mul_arrays(g.mat, f.mat, p).any()
             and f.rank() + g.rank() == g.src.dim)
    if not exact:
        raise InputError("sequence is not short exact")
    mods = (f.src, g.src, g.dst)
    ok = True
    fin = [pc_pd(C, X).kind in ("finite", "zero") for X in mods]
    if sum(fin) >= 2:
        ok = ok and all(fin)
    for test in (bass_membership, auslander_membership):
        mem = [test(C, X, B).passed for X in mods]
        if sum(mem) >= 2:
            ok = ok and all(mem)
    return ok


def _padded_resolution(C: Module, X: ProperResolution,
                       pad_spec: tuple[tuple[int, int], ...]) -> AugmentedComplex:
    """Direct-sum split complexes 0 -> C^j -> C^j -> 0 into the degrees
    (t, t-1) named by pad_spec; the result is still a proper resolution."""
    c = C.dim
    placements: list[list[int]] = [[] for _ in range(X.top + 1)]
    for pid, (t, _) in enumerate(pad_spec):
        if not 1 <= t <= X.top:
            raise InputError(f"pad degree {t} outside resolution range")
        placements[t].append(pid)
        placements[t - 1].append(pid)
    modules = []
    offset: dict[tuple[int, int], int] = {}   # (degree, pad id) -> column
    for i in range(X.top + 1):
        parts = [X.modules[i]]
        pos = X.modules[i].dim
        for pid in placements[i]:
            offset[(i, pid)] = pos
            parts.append(power_module(C, pad_spec[pid][1]))
            pos += pad_spec[pid][1] * c
        modules.append(direct_sum(parts, label=f"Xpad_{i}")
                       if len(parts) > 1 else X.modules[i])
    arrows = []
    for i in range(1, X.top + 1):
        mat = np.zeros((modules[i - 1].dim, modules[i].dim), dtype=np.int64)
        base = X.arrows[i - 1].mat
        mat[: base.shape[0], : base.shape[1]] = base
        for pid, (t, j) in enumerate(pad_spec):
            if t == i and j > 0:
                r0 = offset[(i - 1, pid)]
                c0 = offset[(i, pid)]
                mat[r0: r0 + j * c, c0: c0 + j * c] = np.eye(j * c,
                                                             dtype=np.int64)
        arrows.append(ModuleHom(modules[i], modules[i - 1], mat, check=False))
    aug = np.zeros((X.augmentation.dim, modules[0].dim), dtype=np.int64)
    aug[:, : X.modules[0].dim] = X.aug_map.mat
    aug_map = ModuleHom(modules[0], X.augmentation, aug, check=False)
    return AugmentedComplex(X.ring, modules, arrows, "homological",
                            X.augmentation, aug_map, check=True)


def syzygy_projectivity_invariance(C: Module, M: Module, n: int,
                                   pad_spec: tuple[tuple[int, int], ...] = ((1, 1),)
                                   ) -> bool:
    """C-projectivity of the n-th syzygy does not depend on the choice of
    proper resolution: compare the transported resolution against a padded
    one."""
    X = proper_pc_resolution(C, M, max(n, 1) + 1)
    Xp = _padded_resolution(C, X, pad_spec)
    return (is_c_projective(C, syzygy(X, n))
            == is_c_projective(C, syzygy(Xp, n)))


def absolute_comparison_check(i: int, C: Module, M: Module,
                              N: Module) -> bool | None:
    """For Bass-class M and N, relative Ext over the C-projectives has the
    same dimension as absolute Ext.  Returns None when the membership
    precondition fails (nothing to check)."""
    bound = max(i + 1, 1)
    if not (bass_membership(C, M, bound).passed
            and bass_membership(C, N, bound).passed):
        return None
    r = rel_ext(i, C, M, N, mode="both")
    return r.dim == ext_dims(M, N, i)[i]


def absolute_comparison_check_ic(i: int, C: Module, M: Module,
                                 N: Module) -> bool | None:
    """Dual comparison: for Auslander-class M and N, relative Ext over the
    C-injectives matches absolute Ext."""
    bound = max(i + 1, 1)
    if not (auslander_membership(C, M, bound).passed
            and auslander_membership(C, N, bound).passed):
        return None
    r = rel_ext_ic(i, C, M, N, mode="both")
    return r.dim == ext_dims(M, N, i)[i]


def dimension_shift_check(C: Module, M: Module, N: Module,
                          i: int, n: int) -> bool:
    """Relative Ext shifts along syzygies of a proper resolution:
    Ext^i(M, N) and Ext^{i-n}(syzygy_n, N) have the same dimension for
    0 <= n < i.  The syzygy is resolved afresh, so the agreement compares
    two genuinely different proper resolutions."""
    if not 0 <= n < i:
        raise InputError("need 0 <= n < i for dimension shifting")
    lhs = rel_ext(i, C, M, N, mode="both").dim
    om = syzygy(proper_pc_resolution(C, M, n + 1), n)
    rhs = rel_ext(i - n, C, om, N, mode="both").dim
    return lhs == rhs
