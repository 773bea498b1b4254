"""Command-line front end.

Every command reads a session file (see sessions.py for the format), runs
one computation or check, and prints a report: human text by default, one
JSON document with --json.  Both forms carry the same fields: command, ring,
verdict, dimensions, witnesses, bound, millis.

Exit codes: 0 when the computation succeeded and every internal assertion
passed, 1 when a mathematical check failed (a certificate does not pass, two
computation paths disagree), 2 for input or usage errors (bad session file,
unknown module name, bad flags).

Vanishing statements are always bounded claims, so every report prints the
bound in force; the default is 5 and --bound overrides it.

verify-all runs the P1..P10 property battery, defined once as
semidualizing.property_battery, and only formats its result here.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .algebra import Algebra, ring_report
from .complexes import (DimensionValue, bass_numbers, betti_numbers, exactness_profile,
                        ext_dims, id_exact, pd_exact, tor_dims)
from .errors import CheckError, InputError
from .modules import dualizing_module, free_module
from .semidualizing import (auslander_membership, bass_membership, check_semidualizing,
                            foxby_transport, ic_id, is_proper_ic, is_proper_pc, pc_pd,
                            property_battery, proper_ic_resolution, proper_pc_resolution,
                            rel_ext, rel_ext_ic, require_semidualizing)
from .sessions import SessionFile, parse_session

DEFAULT_BOUND = 5

# statements whose hypotheses no supported ring can meet; verify-all reports
# them explicitly instead of letting their absence look like a silent pass
OUT_OF_SCOPE = (
    "not applicable (Artinian model): regularity detection through finite "
    "relative dimensions needs a regular local ring of positive Krull "
    "dimension; every supported ring has Krull dimension 0",
    "not applicable (Artinian model): intersection-style bounds of the form "
    "'length of a finite free complex >= Krull dimension' are vacuous at "
    "Krull dimension 0",
    "not applicable (Artinian model): the equivalence between noetherianness "
    "and closure of the relatively-finite-dimension class under direct sums "
    "cannot be exercised; every supported ring is a finite-dimensional "
    "algebra, hence noetherian",
)


@dataclass
class Report:
    command: str
    ring: str
    verdict: str                      # "pass" | "fail" | "computed"
    dimensions: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    bound: int = DEFAULT_BOUND
    millis: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "ring": self.ring,
            "verdict": self.verdict,
            "dimensions": self.dimensions,
            "witnesses": list(self.witnesses),
            "bound": self.bound,
            "millis": self.millis,
        }, ensure_ascii=False)

    def to_text(self) -> str:
        lines = [f"command: {self.command}",
                 f"ring: {self.ring}",
                 f"verdict: {self.verdict}"]
        dims = list(self.dimensions.items())
        if len(dims) == 1 and len(self.witnesses) == 1:
            key, value = dims[0]
            lines.append(f"{key} = {_fmt(value)} (witness: {self.witnesses[0]})")
        else:
            lines += [f"{key} = {_fmt(value)}" for key, value in dims]
            lines += [f"witness: {w}" for w in self.witnesses]
        lines.append(f"bound: {self.bound}")
        lines.append(f"time: {self.millis} ms")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _dim_value(v: DimensionValue):
    """JSON-friendly rendering of an exact dimension."""
    if v.kind == "finite":
        return v.n
    if v.kind == "infinite":
        return "∞"
    return "-∞ (zero module)"


# -- command handlers --------------------------------------------------------
# each returns (verdict, dimensions, witnesses)


def _cmd_check_ring(session: SessionFile, ring: Algebra, opt) -> tuple:
    return "pass", ring_report(ring).to_dict(), []


def _cmd_check_semidualizing(session, ring, opt) -> tuple:
    C = session.module(opt["module"], ring)
    cert = check_semidualizing(C, B=opt["bound"])
    dims = {"homothety_bijective": cert.homothety_bijective,
            "ext_vanishing_verified_to": cert.ext_vanishing_verified_to}
    wits = [cert.failure_witness] if cert.failure_witness else []
    return ("pass" if cert.passed else "fail"), dims, wits


def _cmd_ext_tor(session, ring, opt, dims_of, prefix: str) -> tuple:
    """ext (ext_dims, "Ext^") and tor (tor_dims, "Tor_"): degree --i, or 0..--bound."""
    M = session.module(opt["src"], ring)
    N = session.module(opt["dst"], ring)
    if opt["i"] is not None:
        i = _degree(opt["i"])
        dims = {f"{prefix}{i}": dims_of(M, N, i)[i]}
    else:
        vals = dims_of(M, N, opt["bound"])
        dims = {f"{prefix}{j}": vals[j] for j in range(opt["bound"] + 1)}
    return "computed", dims, []


def _degree(i: int) -> int:
    if i < 0:
        raise InputError(f"degree must be nonnegative, got {i}")
    return i


def _cmd_relext(session, ring, opt, dual: bool = False) -> tuple:
    C = session.module(opt["c"], ring)
    require_semidualizing(C, B=opt["bound"])
    M = session.module(opt["src"], ring)
    N = session.module(opt["dst"], ring)
    i = _degree(opt["i"])
    compute = rel_ext_ic if dual else rel_ext
    res = compute(i, C, M, N, mode=opt["via"])
    dims = {"dim": res.dim, "via": opt["via"]}
    wits = []
    if opt["via"] == "both":
        dims["dim_via_proper"] = res.dim_via_proper
        dims["dim_via_formula"] = res.dim_via_formula
        dims["paths_agree"] = res.agree
        if res.iso_map is not None:
            dims["comparison_map_bijective"] = res.iso_map.is_bijective()
        else:
            wits.append("comparison map not materialized: chain groups "
                        "exceed the explicit-matrix budget")
    return "computed", dims, wits


def _cmd_dimension(session, ring, opt, key: str, dimension, relative: bool) -> tuple:
    """pd and id, or with relative the P_C-pd and I_C-id of --module
    against --c, which must be semidualizing."""
    args = []
    if relative:
        C = session.module(opt["c"], ring)
        require_semidualizing(C, B=opt["bound"])
        args.append(C)
    v = dimension(*args, session.module(opt["module"], ring))
    return "computed", {key: _dim_value(v)}, ([v.witness] if v.witness else [])


def _cmd_classify(session, ring, opt) -> tuple:
    C = session.module(opt["c"], ring)
    require_semidualizing(C, B=opt["bound"])
    M = session.module(opt["module"], ring)
    a = auslander_membership(C, M, B=opt["bound"])
    b = bass_membership(C, M, B=opt["bound"])
    dims = {"auslander": "pass" if a.passed else "fail",
            "bass": "pass" if b.passed else "fail"}
    wits = []
    if a.witness:
        wits.append(f"A_C: {a.witness}")
    if b.witness:
        wits.append(f"B_C: {b.witness}")
    return "computed", dims, wits


def _cmd_foxby(session, ring, opt) -> tuple:
    C = session.module(opt["c"], ring)
    require_semidualizing(C, B=opt["bound"])
    M = session.module(opt["module"], ring)
    image, structural = foxby_transport(C, M, opt["direction"])
    dims = {"direction": opt["direction"],
            "source_dim": M.dim,
            "image_dim": image.dim,
            "structural_map_bijective": structural.is_bijective()}
    return "computed", dims, []


def _cmd_resolve(session, ring, opt) -> tuple:
    M = session.module(opt["module"], ring)
    length = opt["length"]
    if length < 0:
        raise InputError(f"length must be nonnegative, got {length}")
    kind = opt["kind"]
    if kind == "free":
        return "computed", {"betti": betti_numbers(M, length)}, []
    if kind == "injective":
        return "computed", {"bass": bass_numbers(M, length)}, []
    if opt["c"] is None:
        raise InputError("--c is required for proper resolution kinds")
    C = session.module(opt["c"], ring)
    require_semidualizing(C, B=opt["bound"])
    if kind == "proper-pc":
        X = proper_pc_resolution(C, M, length)
        proper = is_proper_pc(C, X)
    else:
        X = proper_ic_resolution(C, M, length)
        proper = is_proper_ic(C, X)
    dims = {"sizes": [m.dim for m in X.modules],
            "proper": proper,
            "exactness_defects": exactness_profile(X)}
    return "computed", dims, []


def _cmd_verify_all(session, ring, opt) -> tuple:
    """semidualizing.property_battery over C = R and C = D on a seeded pool."""
    from .corpus import random_module_pool
    for flag in ("bound", "pairs", "max_dim"):
        if opt[flag] < 1:
            raise InputError(f"--{flag.replace('_', '-')} must be at least 1, got {opt[flag]}")
    pool = random_module_pool(ring, opt["pairs"], max_dim=opt["max_dim"])
    cs = [free_module(ring, 1), dualizing_module(ring)]
    failures = property_battery(cs, pool, opt["bound"])
    results = {tag: "fail" if detail is not None else "pass" for tag, detail in failures.items()}
    wits = [f"{tag} failed{': ' + detail if detail else ''}"
            for tag, detail in failures.items() if detail is not None]
    results["out_of_scope_items"] = len(OUT_OF_SCOPE)
    return ("fail" if wits else "pass"), results, wits + list(OUT_OF_SCOPE)


_HANDLERS = {
    "check-ring": _cmd_check_ring,
    "check-semidualizing": _cmd_check_semidualizing,
    "ext": lambda s, r, o: _cmd_ext_tor(s, r, o, ext_dims, "Ext^"),
    "tor": lambda s, r, o: _cmd_ext_tor(s, r, o, tor_dims, "Tor_"),
    "relext": _cmd_relext,
    "relext-ic": lambda s, r, o: _cmd_relext(s, r, o, dual=True),
    "pd": lambda s, r, o: _cmd_dimension(s, r, o, "pd", pd_exact, False),
    "id": lambda s, r, o: _cmd_dimension(s, r, o, "id", id_exact, False),
    "cpd": lambda s, r, o: _cmd_dimension(s, r, o, "P_C-pd", pc_pd, True),
    "cid": lambda s, r, o: _cmd_dimension(s, r, o, "I_C-id", ic_id, True),
    "classify": _cmd_classify,
    "foxby": _cmd_foxby,
    "resolve": _cmd_resolve,
    "verify-all": _cmd_verify_all,
}

_DEFAULTS = {"module": None, "c": None, "src": None, "dst": None, "i": None,
             "via": "both", "direction": "tensor", "kind": "free",
             "length": 4, "bound": DEFAULT_BOUND, "pairs": 4, "max_dim": 6}


def run_command(command: str, session: SessionFile, **options) -> Report:
    """Dispatch one command against a parsed session; raises on errors.

    InputError propagates for bad names or flags (exit 2 in the CLI);
    CheckError propagates when a mathematical check fails (exit 1).
    """
    if command not in _HANDLERS:
        raise InputError(f"unknown command '{command}'")
    unknown = set(options) - set(_DEFAULTS)
    if unknown:
        raise InputError(f"unknown options: {sorted(unknown)}")
    opt = {**_DEFAULTS, **options}
    if opt["bound"] < 0:
        raise InputError(f"bound must be nonnegative, got {opt['bound']}")
    ring = session.ring()
    start = time.perf_counter()
    verdict, dims, wits = _HANDLERS[command](session, ring, opt)
    millis = int((time.perf_counter() - start) * 1000)
    wits = list(wits) + [f"session warning: {w}" for w in session.warnings]
    return Report(command, ring.name, verdict, dims, wits,
                  bound=opt["bound"], millis=millis)


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="semidual",
        description="Exact relative homological algebra over finite "
                    "dimensional local algebras.")
    sub = top.add_subparsers(dest="command", metavar="COMMAND")

    def cmd(name, helptext, *flags):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("session", help="session file describing the ring and modules")
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document instead of text")
        p.add_argument("--bound", type=int, default=_DEFAULTS["bound"],
                       help=f"vanishing-check bound (default {_DEFAULTS['bound']})")
        if "module" in flags:
            p.add_argument("--module", required=True, help="module name")
        if "c" in flags:
            p.add_argument("--c", required=True,
                           help="semidualizing module name")
        if "fromto" in flags:
            p.add_argument("--from", dest="src", required=True,
                           help="source module name")
            p.add_argument("--to", dest="dst", required=True,
                           help="target module name")
        if "i" in flags:
            p.add_argument("--i", type=int, default=_DEFAULTS["i"], help="degree")
        if "i-req" in flags:
            p.add_argument("--i", type=int, required=True, help="degree")
        if "via" in flags:
            p.add_argument("--via", choices=("proper", "formula", "both"),
                           default=_DEFAULTS["via"],
                           help=f"computation route (default {_DEFAULTS['via']})")
        if "direction" in flags:
            p.add_argument("--direction", choices=("tensor", "hom"),
                           required=True, help="Foxby transport direction")
        if "kind" in flags:
            p.add_argument("--kind",
                           choices=("free", "injective", "proper-pc", "proper-ic"),
                           default=_DEFAULTS["kind"],
                           help=f"resolution kind (default {_DEFAULTS['kind']})")
            p.add_argument("--c", default=_DEFAULTS["c"],
                           help="semidualizing module (proper kinds only)")
            p.add_argument("--length", type=int, default=_DEFAULTS["length"],
                           help=f"resolution length (default {_DEFAULTS['length']})")
        if "battery" in flags:
            p.add_argument("--pairs", type=int, default=_DEFAULTS["pairs"],
                           help=f"random modules in the sample pool (default {_DEFAULTS['pairs']})")
            p.add_argument("--max-dim", dest="max_dim", type=int, default=_DEFAULTS["max_dim"],
                           help=f"max k-dimension of sampled modules "
                                f"(default {_DEFAULTS['max_dim']})")
        return p

    cmd("check-ring", "report local/socle/Gorenstein data for the ring")
    cmd("check-semidualizing", "certify a module as semidualizing", "module")
    cmd("ext", "absolute Ext dimensions", "fromto", "i")
    cmd("tor", "absolute Tor dimensions", "fromto", "i")
    cmd("relext", "relative Ext over the C-projectives", "c", "fromto",
        "i-req", "via")
    cmd("relext-ic", "relative Ext over the C-injectives", "c", "fromto",
        "i-req", "via")
    cmd("pd", "projective dimension", "module")
    cmd("id", "injective dimension", "module")
    cmd("cpd", "relative projective dimension over the C-projectives",
        "c", "module")
    cmd("cid", "relative injective dimension over the C-injectives",
        "c", "module")
    cmd("classify", "Auslander and Bass class membership", "c", "module")
    cmd("foxby", "Foxby transport and its structural map", "c", "module",
        "direction")
    cmd("resolve", "resolution data (free, injective, or proper)", "module",
        "kind")
    cmd("verify-all", "run the full property battery on this session",
        "battery")
    return top


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    options = {key: getattr(ns, key) for key in _DEFAULTS if hasattr(ns, key)}
    try:
        session = parse_session(ns.session)
        report = run_command(ns.command, session, **options)
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    print(report.to_json() if ns.json else report.to_text())
    return 1 if report.verdict == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
