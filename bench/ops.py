"""Op lists and correctness checks for each benchmark workload.

An op is one thing a user waits for: a `semidual` command through
cli.run_command, rendered as both JSON and text, or one Hom/tensor space
dimension.  Checks run after a pass, outside the timed region, and see the
outputs of every op of that pass, so an op can be checked against another
route to the same number.  A check returns None when the output is right and
otherwise a message naming what is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from semidual import cli, complexes, corpus, modules

GORENSTEIN = {"R2", "R3", "T27"}      # D is isomorphic to R on these rings
# m^2 = 0 rings: embedding dimension e and type t
SQUARE_ZERO = {"R1": (2, 2), "R4": (3, 3)}


@dataclass
class Op:
    label: str
    run: Callable[[], object]                 # the timed call
    summarize: Callable[[object], object]     # raw output -> comparable value
    check: Callable[[object, dict], str | None]
    key: tuple = ()


def _cli_op(session, ring: str, command: str, options: dict, check):
    def run():
        report = cli.run_command(command, session, **options)
        text = report.to_text()
        return report.to_json(), text

    def summarize(raw):
        out = json.loads(raw[0])
        out.pop("millis")
        return out

    flags = " ".join(f"--{k} {v}" for k, v in options.items())
    return Op(f"{ring} {command} {flags}".strip(), run, summarize, check,
              key=(ring, command, tuple(sorted(options.items()))))


# -- small-rings ----------------------------------------------------------------


def _golden_check(case):
    expect = case.expect

    def check(out, peers):
        if out["verdict"] != expect["verdict"]:
            return f"verdict {out['verdict']!r}, expected {expect['verdict']!r}"
        for k, v in expect.get("dimensions", {}).items():
            if out["dimensions"].get(k) != v:
                return f"{k} = {out['dimensions'].get(k)!r}, expected {v!r}"
        for needle in expect.get("witness_contains", []):
            if not any(needle in w for w in out["witnesses"]):
                return f"no witness contains {needle!r}"
        return None
    return check


def _verify_all_check(out, peers):
    failed = [k for k, v in out["dimensions"].items() if k.startswith("P") and v != "pass"]
    if out["verdict"] != "pass" or failed:
        return f"verdict {out['verdict']}, failing properties {failed}"
    return None


def _betti_check(prefix: str, betti):
    def check(out, peers):
        got = [out["dimensions"][f"{prefix}{i}"] for i in range(len(betti))]
        return None if got == betti else f"{got}, expected Betti numbers {betti}"
    return check


def _absolute_equals_relative(ring: str, c: str) -> bool:
    return c == "F" or ring in GORENSTEIN


def _relext_check(ring, c, i, betti):
    def check(out, peers):
        d = out["dimensions"]
        if d.get("paths_agree") is not True:
            return f"routes disagree: proper {d.get('dim_via_proper')}, formula {d.get('dim_via_formula')}"
        if not d["dim"] == d["dim_via_proper"] == d["dim_via_formula"]:
            return f"dim {d['dim']} differs from a route"
        if d.get("comparison_map_bijective", True) is not True:
            return "comparison map not bijective"
        # C = R, or D = R up to isomorphism: relative Ext is Ext^i(M, k) = b_i
        if _absolute_equals_relative(ring, c) and d["dim"] != betti[i]:
            return f"dim {d['dim']}, expected Ext^{i}(M,k) = {betti[i]}"
        return None
    return check


def _dim_value_check(ring, c, key):
    def check(out, peers):
        got = out["dimensions"][key]
        if _absolute_equals_relative(ring, c):
            # the modules are neither free nor injective over these rings
            return None if got == "∞" else f"{key} = {got!r}, expected ∞"
        return None if got == "∞" or isinstance(got, int) else f"{key} = {got!r} malformed"
    return check


def _classify_check(ring, c):
    def check(out, peers):
        d = out["dimensions"]
        if _absolute_equals_relative(ring, c) and (d["auslander"], d["bass"]) != ("pass", "pass"):
            return f"auslander {d['auslander']}, bass {d['bass']}; every module is in both classes"
        return None
    return check


def _foxby_check(ring, c, direction, dim, classify_key):
    def check(out, peers):
        d = out["dimensions"]
        if d["source_dim"] != dim:
            return f"source_dim {d['source_dim']}, expected {dim}"
        if _absolute_equals_relative(ring, c):
            if not d["structural_map_bijective"] or d["image_dim"] != dim:
                return f"image_dim {d['image_dim']}, bijective {d['structural_map_bijective']}; C ~ R"
            return None
        classes = peers.get(classify_key)
        cls = "auslander" if direction == "tensor" else "bass"
        if classes and classes["dimensions"][cls] == "pass" and not d["structural_map_bijective"]:
            return f"{cls} class passed but the structural map is not bijective"
        return None
    return check


def small_rings_ops(sessions: dict, facts: dict) -> list[Op]:
    ops = []
    for case in corpus.golden_cases():
        ring = case.session.split(".")[0]
        op = _cli_op(sessions[ring], ring, case.command, case.options, _golden_check(case))
        op.label = "golden " + op.label
        ops.append(op)
    for ring in ("R1", "R2", "R3"):
        ops.append(_cli_op(sessions[ring], ring, "verify-all", {}, _verify_all_check))
    for ring in ("R1", "R2", "R3"):
        s = sessions[ring]
        for m, fact in facts[ring].items():
            betti = fact["betti"]
            ops.append(_cli_op(s, ring, "ext", {"src": m, "dst": "k", "bound": 3},
                               _betti_check("Ext^", betti)))
            ops.append(_cli_op(s, ring, "tor", {"src": m, "dst": "k", "bound": 3},
                               _betti_check("Tor_", betti)))
            for c in ("F", "D"):
                for cmd in ("relext", "relext-ic"):
                    for i in range(4):
                        ops.append(_cli_op(s, ring, cmd, {"c": c, "src": m, "dst": "k", "i": i},
                                           _relext_check(ring, c, i, betti)))
                ops.append(_cli_op(s, ring, "cpd", {"c": c, "module": m},
                                   _dim_value_check(ring, c, "P_C-pd")))
                ops.append(_cli_op(s, ring, "cid", {"c": c, "module": m},
                                   _dim_value_check(ring, c, "I_C-id")))
                classify = _cli_op(s, ring, "classify", {"c": c, "module": m},
                                   _classify_check(ring, c))
                ops.append(classify)
                for direction in ("tensor", "hom"):
                    ops.append(_cli_op(s, ring, "foxby",
                                       {"c": c, "module": m, "direction": direction},
                                       _foxby_check(ring, c, direction, fact["dim"],
                                                    classify.key)))
    return ops


# -- deep-r4 --------------------------------------------------------------------

DEEP_BOUND = 4


def deep_r4_ops(sessions: dict, facts: dict) -> list[Op]:
    s = sessions["R4"]
    e, t = SQUARE_ZERO["R4"]
    B = DEEP_BOUND
    powers = [e ** i for i in range(B + 1)]

    def relext_check(out, peers):
        d = out["dimensions"]
        want = t * t * e ** 3
        if d.get("paths_agree") is not True or d["dim"] != want:
            return f"dim {d['dim']} (routes agree: {d.get('paths_agree')}), expected t^2 e^3 = {want}"
        return None

    def certify_check(out, peers):
        d = out["dimensions"]
        if out["verdict"] != "pass" or not d["homothety_bijective"] \
                or d["ext_vanishing_verified_to"] != B:
            return f"certificate {out['verdict']} {d}"
        return None

    def ext_k_d_check(out, peers):
        got = [out["dimensions"][f"Ext^{i}"] for i in range(B + 1)]
        return None if got == [1] + [0] * B else f"Ext(k,D) = {got}, expected [1, 0, ...]"

    (m, fact), = facts["R4"].items()
    return [
        _cli_op(s, "R4", "ext", {"src": "k", "dst": "k", "bound": B},
                _betti_check("Ext^", powers)),
        _cli_op(s, "R4", "tor", {"src": "k", "dst": "k", "bound": B},
                _betti_check("Tor_", powers)),
        _cli_op(s, "R4", "ext", {"src": "k", "dst": "D", "bound": B}, ext_k_d_check),
        _cli_op(s, "R4", "relext", {"c": "D", "src": "k", "dst": "k", "i": 3, "bound": B},
                relext_check),
        _cli_op(s, "R4", "relext-ic", {"c": "D", "src": "k", "dst": "k", "i": 3, "bound": B},
                relext_check),
        _cli_op(s, "R4", "check-semidualizing", {"module": "D", "bound": B}, certify_check),
        _cli_op(s, "R4", "resolve", {"module": m, "kind": "free", "length": B},
                lambda out, peers: None if out["dimensions"]["betti"] == fact["betti"]
                else f"betti {out['dimensions']['betti']}, expected {fact['betti']}"),
    ]


# -- hom-tensor -------------------------------------------------------------------

# Hom(D, R^n) repeats the d*t*s Kronecker solve of Hom(D, D) at full size;
# one such solve per pass is enough to show that path.
SKIPPED_HOMS = {("D", "F"), ("D", "F2")}


def hom_tensor_ops(sessions: dict, facts: dict) -> list[Op]:
    s = sessions["T27"]
    R = s.ring()
    d = R.dim
    names = ["k", "D", "F", "F2"] + list(facts["T27"])
    dims = {"k": 1, "D": d, "F": d, "F2": 2 * d}
    dims.update({m: f["dim"] for m, f in facts["T27"].items()})
    free_rank = {"F": 1, "F2": 2}

    def space_op(kind, a, b):
        name = "hom_space" if kind == "hom" else "tensor_space"

        def run():  # looked up per call, so the tracer's wrapper is seen
            return getattr(modules, name)(s.module(a, R), s.module(b, R)).dim

        return Op(f"T27 {kind} {a} {b}", run, lambda raw: raw,
                  space_check(kind, a, b), key=(kind, a, b))

    def expected(kind, a, b, peers):
        """Closed forms: Matlis duality, free modules, D ~ R (Gorenstein)."""
        if kind == "hom":
            if b == "D":
                return dims[a], "dim Hom(M,D) = dim M"
            if a in free_rank:
                return free_rank[a] * dims[b], "Hom(R^n,M) = M^n"
            if a == "D":
                return dims[b], "D ~ R"
            if b in free_rank:
                return free_rank[b] * dims[a], "Hom(M,R^n) ~ Hom(M,D^n)"
            return None, ""
        if a in free_rank:
            return free_rank[a] * dims[b], "R^n (x) M = M^n"
        if b in free_rank:
            return free_rank[b] * dims[a], "M (x) R^n = M^n"
        if "D" in (a, b):
            return dims[b if a == "D" else a], "D ~ R"
        if b == "k" and ("hom", a, "k") in peers:
            return peers[("hom", a, "k")], "dim M(x)k = dim Hom(M, k^v), k^v = k"
        return None, ""

    def space_check(kind, a, b):
        def check(out, peers):
            want, why = expected(kind, a, b, peers)
            if want is not None and out != want:
                return f"dim {out}, expected {want} ({why})"
            A, B = s.module(a, R), s.module(b, R)
            if kind == "hom":
                other = complexes.ext_dims(A, B, 0)[0]
                route = "Ext^0 through a free resolution"
            else:
                other = complexes.tor_dims(A, B, 0)[0]
                route = "Tor_0 through a free resolution"
            if out != other:
                return f"dim {out}, but {route} gives {other}"
            if kind == "tensor" and b in facts["T27"]:
                dual = modules.hom_space(A, modules.matlis_dual(B)).dim
                if out != dual:
                    return f"dim {out}, but dim Hom(M, N^v) = {dual}"
            return None
        return check

    ops = []
    for a in names:
        for b in names:
            if (a, b) not in SKIPPED_HOMS:
                ops.append(space_op("hom", a, b))
            ops.append(space_op("tensor", a, b))
    return ops


BUILDERS = {
    "small-rings": small_rings_ops,
    "deep-r4": deep_r4_ops,
    "hom-tensor": hom_tensor_ops,
}


def check_pass(ops: list[Op], outputs: list, errors: list) -> list[str | None]:
    """Verdict per op for one pass: None if right, else a message."""
    peers = {op.key: out for op, out, err in zip(ops, outputs, errors) if err is None}
    verdicts = []
    for op, out, err in zip(ops, outputs, errors):
        if err is not None:
            verdicts.append(err)
            continue
        modules.clear_caches()
        try:
            verdicts.append(op.check(out, peers))
        except Exception as exc:  # a crashing check is a failed op, not a crash
            verdicts.append(f"check raised {type(exc).__name__}: {exc}")
    modules.clear_caches()
    return verdicts
