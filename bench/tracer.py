"""Outside-in tracer: spans around calls into semidual's public functions.

The library is not edited.  install() replaces each listed function by a
wrapper in every semidual.* namespace that holds it (so `from .linalg import
_mul_arrays` copies are caught too), and uninstall() puts the originals back.
Spans live in memory as parallel arrays (name, parent, op, start, end) and are
written out once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and nested, so the children never
overlap.  Work counts come from argument shapes: `cells` is rows * cols of
every matrix a reduction is asked to echelonize, `mac` is m * k * n
multiply-adds per product.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, group).  A group names the per-layer metrics a span
# feeds; every span also feeds its layer's total <layer>.self_s.
SPECS = [
    ("semidual.linalg", "rref", "linalg.reduce"),
    ("semidual.linalg", "rank", "linalg.reduce"),
    ("semidual.linalg", "kernel_basis", "linalg.reduce"),
    ("semidual.linalg", "solve", "linalg.reduce"),
    ("semidual.linalg", "expressor", "linalg.reduce"),
    ("semidual.linalg", "extend_basis", "linalg.reduce"),
    ("semidual.linalg", "_mul_arrays", "linalg.matmul"),
    ("semidual.algebra", "Algebra.__init__", "algebra"),
    ("semidual.algebra", "algebra_from_monomial_quotient", "algebra"),
    ("semidual.algebra", "parse_polynomial", "algebra"),
    ("semidual.algebra", "radical", "algebra"),
    ("semidual.algebra", "ring_report", "algebra.ring_report"),
    ("semidual.modules", "hom_space", "modules.hom_space"),
    ("semidual.modules", "tensor_space", "modules.tensor_space"),
    ("semidual.modules", "presentation_to_module", "modules"),
    ("semidual.modules", "minimal_generators", "modules"),
    ("semidual.modules", "matlis_dual", "modules"),
    ("semidual.modules", "kernel", "modules"),
    ("semidual.modules", "cokernel", "modules"),
    ("semidual.modules", "image", "modules"),
    ("semidual.modules", "hom_functor_map", "modules"),
    ("semidual.modules", "tensor_functor_map", "modules"),
    ("semidual.modules", "evaluation_nu", "modules"),
    ("semidual.modules", "coevaluation_mu", "modules"),
    ("semidual.modules", "adjunction_iso", "modules"),
    ("semidual.modules", "homothety_chi", "modules"),
    ("semidual.complexes", "minimal_free_resolution", "complexes.free_res"),
    ("semidual.complexes", "minimal_injective_resolution", "complexes.inj_res"),
    ("semidual.complexes", "ext_dims", "complexes.ext_tor"),
    ("semidual.complexes", "tor_dims", "complexes.ext_tor"),
    ("semidual.complexes", "ext_abs", "complexes.ext_tor"),
    ("semidual.complexes", "tor_abs", "complexes.ext_tor"),
    ("semidual.complexes", "homology_data", "complexes"),
    ("semidual.complexes", "pd_exact", "complexes"),
    ("semidual.complexes", "id_exact", "complexes"),
    ("semidual.semidualizing", "check_semidualizing", "semidualizing.certify"),
    ("semidual.semidualizing", "rel_ext", "semidualizing.rel_ext"),
    ("semidual.semidualizing", "rel_ext_ic", "semidualizing.rel_ext"),
    ("semidual.semidualizing", "proper_pc_resolution", "semidualizing.proper_res"),
    ("semidual.semidualizing", "proper_ic_resolution", "semidualizing.proper_res"),
    ("semidual.semidualizing", "bass_membership", "semidualizing.classes"),
    ("semidual.semidualizing", "auslander_membership", "semidualizing.classes"),
    ("semidual.semidualizing", "pc_pd", "semidualizing.classes"),
    ("semidual.semidualizing", "ic_id", "semidualizing.classes"),
    ("semidual.semidualizing", "foxby_transport", "semidualizing.classes"),
    ("semidual.semidualizing", "composition_identity_check", "semidualizing"),
    ("semidual.semidualizing", "membership_transfer_check", "semidualizing"),
    ("semidual.semidualizing", "exactness_equivalence_check", "semidualizing"),
    ("semidual.semidualizing", "projectivity_vanishing_check", "semidualizing"),
    ("semidual.semidualizing", "syzygy_projectivity_invariance", "semidualizing"),
    ("semidual.semidualizing", "absolute_comparison_check", "semidualizing"),
    ("semidual.semidualizing", "absolute_comparison_check_ic", "semidualizing"),
    ("semidual.semidualizing", "dimension_shift_check", "semidualizing"),
    ("semidual.sessions", "parse_session_text", "sessions"),
    ("semidual.sessions", "SessionFile.ring", "sessions"),
    ("semidual.sessions", "SessionFile.module", "sessions"),
    ("semidual.cli", "run_command", "cli"),
    ("semidual.cli", "Report.to_json", "cli"),
    ("semidual.cli", "Report.to_text", "cli"),
]

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = [
    ("linalg.reduce.calls", "count"), ("linalg.reduce.self_s", "s"),
    ("linalg.reduce.cells", "count"), ("linalg.reduce.max_cells", "count"),
    ("linalg.matmul.calls", "count"), ("linalg.matmul.self_s", "s"),
    ("linalg.matmul.mac", "count"),
    ("algebra.ring_report.calls", "count"), ("algebra.self_s", "s"),
    ("modules.hom_space.calls", "count"), ("modules.hom_space.built", "count"),
    ("modules.hom_space.self_s", "s"),
    ("modules.tensor_space.calls", "count"), ("modules.tensor_space.built", "count"),
    ("modules.tensor_space.self_s", "s"),
    ("modules.self_s", "s"), ("modules.cache_entries", "count"),
    ("complexes.free_res.calls", "count"), ("complexes.free_res.self_s", "s"),
    ("complexes.free_res.generators", "count"),
    ("complexes.inj_res.self_s", "s"), ("complexes.ext_tor.self_s", "s"),
    ("complexes.self_s", "s"),
    ("semidualizing.certify.calls", "count"), ("semidualizing.certify.self_s", "s"),
    ("semidualizing.rel_ext.self_s", "s"), ("semidualizing.proper_res.self_s", "s"),
    ("semidualizing.classes.self_s", "s"), ("semidualizing.self_s", "s"),
    ("sessions.self_s", "s"), ("cli.self_s", "s"),
    ("setup.algebra.self_s", "s"), ("setup.sessions.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_pct", "%"),
]


def _cells_of(name, args):
    a = args[0]
    if name == "solve":
        return a.rows * (a.cols + args[1].cols)
    if name == "expressor":
        return a.rows * (a.cols + a.rows)
    if name == "extend_basis":
        return a.rows * (a.cols + args[1].cols)
    return a.rows * a.cols


class Tracer:
    def __init__(self):
        self.labels: list[str] = []       # span label per name id
        self.name_of = array("i")
        self.parent_of = array("l")
        self.op_of = array("l")
        self.start_of = array("d")
        self.end_of = array("d")
        self.op = -1                      # id of the op being run
        self._stack: list[int] = []       # open span ids
        self._child: list[float] = []     # child time per open span
        self._sites: list[tuple] = []     # (owner, key, original, wrapper)
        self._op_labels: dict[str, int] = {}
        self.reset_counts()

    def reset_counts(self) -> None:
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self.start_of)
        self.name_of.append(idx)
        self.parent_of.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end_of.append(0.0)
        self._stack.append(sid)
        self._child.append(0.0)
        self.start_of.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> float:
        """End span sid; returns its self time."""
        t1 = time.perf_counter()
        self.end_of[sid] = t1
        self._stack.pop()
        child = self._child.pop()
        dur = t1 - self.start_of[sid]
        if self._child:
            self._child[-1] += dur
        return dur - child

    def run_op(self, label: str, fn):
        """Run one benchmark op as a root span."""
        idx = self._op_labels.get(label)
        if idx is None:
            idx = self._op_labels[label] = len(self.labels)
            self.labels.append("op:" + label)
        sid = self._open(idx)
        try:
            return fn()
        finally:
            self._close(sid)

    def _wrap(self, func, label: str, group: str):
        idx = len(self.labels)
        self.labels.append(label)
        short = label.rsplit(".", 1)[-1]
        layer = group.split(".", 1)[0]
        tr = self
        modules = sys.modules["semidual.modules"]
        complexes = sys.modules["semidual.complexes"]
        cache = getattr(modules, {"hom_space": "_homspace_cache",
                                  "tensor_space": "_tensorspace_cache"}.get(short, ""), None)
        freeres = short == "minimal_free_resolution" and hasattr(complexes, "_freeres_cache")

        def wrapper(*args, **kwargs):
            if cache is not None:
                key = (args[0].fingerprint, args[1].fingerprint)
                cached = key in cache
            elif freeres:
                got = complexes._freeres_cache.get(args[0].fingerprint)
                before = sum(got.betti) if got is not None else 0
            sid = tr._open(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                own = tr._close(sid)
                tr.calls[group] += 1
                tr.self_s[group] += own
                if group != layer:
                    tr.self_s[layer] += own
            if group == "linalg.reduce":
                cells = _cells_of(short, args)
                tr.counts["linalg.reduce.cells"] += cells
                if cells > tr.counts["linalg.reduce.max_cells"]:
                    tr.counts["linalg.reduce.max_cells"] = cells
            elif group == "linalg.matmul":
                a, b = args[0], args[1]
                tr.counts["linalg.matmul.mac"] += a.shape[0] * a.shape[1] * b.shape[1]
            elif cache is not None:
                tr.counts[group + ".built"] += not cached and key in cache
            elif freeres:
                tr.counts["complexes.free_res.generators"] += sum(result.betti) - before
            return result

        return wrapper

    def _collect_sites(self) -> None:
        """Find every place a listed function is bound.  A function the
        library no longer has is skipped, so its metrics read 0."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "semidual" or n.startswith("semidual.")]
        for modname, attr, group in SPECS:
            mod = importlib.import_module(modname)
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(fname) if owner is not None else None
            if orig is None:
                continue
            wrapper = self._wrap(orig, f"{modname}.{attr}", group)
            if owner_name:
                self._sites.append((owner, fname, orig, wrapper))
                continue
            for ns in namespaces:
                for key, value in vars(ns).items():
                    if value is orig:
                        self._sites.append((ns, key, orig, wrapper))

    def install(self) -> None:
        """Patch every listed function in every semidual.* namespace."""
        if not self._sites:
            self._collect_sites()
        for owner, key, _orig, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig, _wrapper in self._sites:
            setattr(owner, key, orig)

    # -- results -------------------------------------------------------------

    def layer_values(self) -> dict:
        """Per-layer totals accumulated since the last reset_counts().
        Metrics the tracer does not own (setup.*, trace.*, cache entries)
        read 0 here and are filled in by the caller."""
        out = {}
        for name, _unit in PER_LAYER:
            group, _, stat = name.rpartition(".")
            if name in self.counts:
                out[name] = self.counts[name]
            elif stat == "calls":
                out[name] = self.calls.get(group, 0)
            elif stat == "self_s":
                out[name] = self.self_s.get(group, 0.0)
            else:
                out[name] = 0
        return out

    @property
    def span_count(self) -> int:
        return len(self.start_of)

    def write_spans(self, path: str, op_records: list[dict]) -> None:
        """First line: the label table.  Then one JSON object per traced op
        (op id, label, seconds, cache entries after it), then one JSON array
        per span: [id, parent id, op id, label id, start s, end s]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"labels": self.labels}) + "\n")
            for rec in op_records:
                fh.write(json.dumps(rec) + "\n")
            for sid in range(len(self.start_of)):
                fh.write(f"[{sid},{self.parent_of[sid]},{self.op_of[sid]},"
                         f"{self.name_of[sid]},{self.start_of[sid]:.9f},"
                         f"{self.end_of[sid]:.9f}]\n")
