"""Acceptance battery: eleven criteria, one test and one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion lines.
Sampling is deterministic (seeded generators).  Over R4 the deep degrees are
scoped down: Betti and Bass numbers there grow like 3^j on a 4-dimensional
ring, so degree-5 differentials reach the hundreds of millions of entries.
The reduced degrees keep every run exact and in memory; every other ring
runs the full advertised depth.
"""

import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from semidual.cli import main, run_command
from semidual.complexes import (exactness_profile, ext_dims, id_exact,
                                pd_exact)
from semidual.corpus import (corpus_rings, corpus_sessions, data_path,
                             golden_cases, random_module_pool)
from semidual.errors import ParseError
from semidual.algebra import radical
from semidual.modules import (ModuleHom, direct_sum, dualizing_module,
                              free_module, hom_space, power_module,
                              radical_submodule, regular_module,
                              residue_field_module, tensor_space)
from semidual.semidualizing import (absolute_comparison_check,
                                    absolute_comparison_check_ic,
                                    bass_membership, check_semidualizing,
                                    composition_identity_check,
                                    dimension_shift_check,
                                    exactness_equivalence_check, ic_id,
                                    membership_transfer_check, pc_pd,
                                    projectivity_vanishing_check,
                                    proper_pc_resolution, rel_ext,
                                    syzygy_projectivity_invariance,
                                    two_of_three_check)

# deepest relative-Ext degree and vanishing bound per ring; R4 is scoped
# (3^j growth), all other rings run the full depth
DEGREES = {"R1": 4, "R2": 4, "R3": 4, "R4": 2}
BOUNDS = {"R1": 5, "R2": 5, "R3": 5, "R4": 2}


@pytest.fixture(scope="module")
def rings():
    return corpus_rings()


def _semis(ring):
    """The two semidualizing modules every corpus ring certifies: R and D."""
    return free_module(ring, 1), dualizing_module(ring)


def _pairs(ring, count):
    pool = random_module_pool(ring, count, max_dim=6)
    return list(zip(pool, pool[1:] + pool[:1]))


def _report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_semidualizing_certificates(rings):
    """R and D certify over R1 at bound 5; k, m, and D+R fail correctly."""
    start = time.perf_counter()
    ring = rings["R1"]
    R, D = _semis(ring)
    k = residue_field_module(ring)
    assert check_semidualizing(R, B=5).passed
    assert check_semidualizing(D, B=5).passed
    cert_k = check_semidualizing(k, B=5)
    assert not cert_k.passed
    assert cert_k.failure_witness == "homothety not injective"
    cert_m = check_semidualizing(radical_submodule(ring), B=5)
    assert not cert_m.passed
    assert "homothety" in cert_m.failure_witness
    cert_dr = check_semidualizing(direct_sum([D, R]), B=5)
    assert not cert_dr.passed
    assert cert_dr.failure_witness == "homothety not surjective"
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 5.0, f"certificates exact, {elapsed:.2f}s < 5s")


def test_criterion_02_dual_path_agreement(rings):
    """Proper-resolution and formula routes agree with a bijective
    comparison map: 20 seeded pairs per ring, C in {R, D}."""
    start = time.perf_counter()
    checked = materialized = 0
    for name, ring in rings.items():
        top = DEGREES[name]
        for C in _semis(ring):
            for M, N in _pairs(ring, 20):
                for i in range(top + 1):
                    res = rel_ext(i, C, M, N, mode="both")
                    assert res.agree and res.dim_via_proper == res.dim_via_formula, \
                        (name, C.label, M.label, N.label, i)
                    checked += 1
                    if res.iso_map is not None:
                        # bijectivity was asserted when materialized
                        materialized += 1
    elapsed = time.perf_counter() - start
    # the comparison map lives on identical carriers once the differentials
    # are proven equal, so non-materialized cases are bijective by identity;
    # still require that a solid majority materialized explicitly
    _report(2, elapsed < 120.0 and materialized >= checked * 0.8,
            f"{checked} comparisons, {materialized} explicit isos, "
            f"{elapsed:.1f}s < 120s")


def test_criterion_03_golden_relative_ext(rings):
    """dim Ext^i over the D-projectives of (k,k) on R1 is 4,8,16,32,64;
    absolute Ext^i(k,k) is 2^i."""
    ring = rings["R1"]
    _, D = _semis(ring)
    k = residue_field_module(ring)
    golden = (4, 8, 16, 32, 64)
    for i, want in enumerate(golden):
        res = rel_ext(i, D, k, k, mode="both")
        assert res.dim == want, (i, res.dim, want)
    abs_dims = ext_dims(k, k, 4)
    assert list(abs_dims) == [2 ** i for i in range(5)]
    _report(3, True, "relative (4,8,16,32,64) and absolute 2^i exact")


def test_criterion_04_dimension_transfer(rings):
    """pd(M) equals the relative pd of C(x)M over the C-projectives, and
    the relative id of M equals id(C(x)M): 20 modules per ring per C."""
    bad = 0
    for name, ring in rings.items():
        pool = random_module_pool(ring, 20, max_dim=6)
        for C in _semis(ring):
            for M in pool:
                T = tensor_space(C, M).module
                if pd_exact(M) != pc_pd(C, T):
                    bad += 1
                if ic_id(C, M) != id_exact(T):
                    bad += 1
    _report(4, bad == 0, f"{4 * 2 * 20} exact dimension transfers")


def test_criterion_05_membership_transfer_and_finite_pd(rings):
    """Membership transfers through the Foxby functors, and finite relative
    pd forces Bass membership: 20 modules per ring per C."""
    bad = 0
    total = 0
    for name, ring in rings.items():
        B = BOUNDS[name]
        pool = random_module_pool(ring, 20, max_dim=6)
        for C in _semis(ring):
            for M in pool:
                total += 1
                if not membership_transfer_check(C, M, B):
                    bad += 1
                v = pc_pd(C, M)
                if v.kind == "finite" and not bass_membership(C, M, B).passed:
                    bad += 1
    _report(5, bad == 0, f"{total} transfer checks, R4 at bound {BOUNDS['R4']}")


def test_criterion_06_composition_identities(rings):
    """Adjunction triangle identities hold to exact matrix equality on at
    least 100 generated modules."""
    modules_seen = 0
    bad = 0
    for name, ring in rings.items():
        R, D = _semis(ring)
        k = residue_field_module(ring)
        pool = random_module_pool(ring, 20, max_dim=6)
        sample = pool + [k, D, R, power_module(D, 2),
                         tensor_space(D, pool[0]).module,
                         hom_space(D, pool[1]).module]
        for M in sample:
            modules_seen += 1
            for C in (R, D):
                if not composition_identity_check(C, M):
                    bad += 1
    _report(6, modules_seen >= 100 and bad == 0,
            f"{modules_seen} modules, both C each, exact equality")


def test_criterion_07_exactness_characterization(rings):
    """Exactness profiles of the transported resolutions match the
    structural-map/vanishing characterization for n <= bound; Bass members
    give fully exact augmented proper resolutions."""
    bad = 0
    total = 0
    for name, ring in rings.items():
        B = BOUNDS[name]
        pool = random_module_pool(ring, 10, max_dim=6)
        k = residue_field_module(ring)
        for C in _semis(ring):
            for M in pool + [k]:
                total += 1
                if not exactness_equivalence_check(C, M, B):
                    bad += 1
            # guaranteed Bass members: C-projectives and the injective D
            D = dualizing_module(ring)
            for M in (tensor_space(C, free_module(ring, 1)).module,
                      power_module(C, 2), D):
                total += 1
                if not bass_membership(C, M, B).passed:
                    bad += 1
                elif exactness_profile(proper_pc_resolution(C, M, B)) != []:
                    bad += 1
    _report(7, bad == 0, f"{total} profile characterizations, n <= bound")


def test_criterion_08_structural_battery(rings):
    """Vanishing detects relative projectivity, padding leaves syzygy
    projectivity invariant, dimension shifting holds, and the two-of-three
    rule holds on exact sequences."""
    bad = 0
    for name, ring in rings.items():
        top = DEGREES[name]
        R, D = _semis(ring)
        k = residue_field_module(ring)
        pool = random_module_pool(ring, 6, max_dim=6)
        for C in (R, D):
            for M in pool[:4] + [k]:
                if not projectivity_vanishing_check(C, M):
                    bad += 1
            for M in pool[:2] + [k]:
                for n in (1, 2):
                    if not syzygy_projectivity_invariance(C, M, n):
                        bad += 1
            M, N = pool[0], pool[1]
            i = min(top, 3) if top >= 2 else 2
            for n in range(1, i):
                if not dimension_shift_check(C, M, N, i=i, n=n):
                    bad += 1
            # two-of-three on the radical inclusion and the residue map
            proj_mat = np.zeros((1, ring.dim), dtype=np.int64)
            proj_mat[0, 0] = 1
            f = ModuleHom(radical_submodule(ring), regular_module(ring),
                          radical(ring).data)
            g = ModuleHom(regular_module(ring), k, proj_mat)
            if not two_of_three_check(C, f, g, B=BOUNDS[name]):
                bad += 1
    _report(8, bad == 0, "vanishing, padding, shifting, two-of-three")


def test_criterion_09_absolute_comparison_on_bass_members(rings):
    """On certified Bass members (C-projectives, injectives, D-powers) the
    relative and absolute Ext dimensions agree in every checked degree."""
    bad = 0
    total = 0
    for name, ring in rings.items():
        top = DEGREES[name]
        R, D = _semis(ring)
        for C in (R, D):
            members = [tensor_space(C, free_module(ring, 1)).module,
                       power_module(C, 2), D, power_module(D, 2)]
            if name == "R4":
                members = members[:2] + [D]
            for j, M in enumerate(members):
                N = members[(j + 1) % len(members)]
                for i in range(top + 1):
                    total += 1
                    if absolute_comparison_check(i, C, M, N) is not True:
                        bad += 1
            for i in range(min(top, 2) + 1):
                total += 1
                if absolute_comparison_check_ic(i, C, free_module(ring, 1),
                                                free_module(ring, 1)) is not True:
                    bad += 1
    _report(9, bad == 0, f"{total} degree comparisons on Bass members")


def test_criterion_10_cli_goldens(capsys):
    """Every CLI command matches its committed golden report on both the R1
    and R2 sessions; text and JSON verdicts agree; parse errors carry
    line/column; exit codes follow the 0/1/2 contract."""
    sessions = corpus_sessions()
    covered = set()
    for case in golden_cases():
        session = sessions[case.session.split(".")[0]]
        rep = run_command(case.command, session, **case.options)
        exp = case.expect
        assert rep.verdict == exp["verdict"], case.command
        for key, want in exp.get("dimensions", {}).items():
            assert rep.dimensions.get(key) == want, (case.command, key)
        for fragment in exp.get("witness_contains", []):
            assert any(fragment in w for w in rep.witnesses)
        covered.add((case.command, case.session))
    assert len(covered) == 28  # 14 commands x 2 rings
    # text/JSON verdict agreement and exit codes through the real entry point
    rc = main(["relext", data_path("R1.session"), "--c", "D", "--from", "k",
               "--to", "k", "--i", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["verdict"] == "computed"
    rc = main(["relext", data_path("R1.session"), "--c", "D", "--from", "k",
               "--to", "k", "--i", "2"])
    text = capsys.readouterr().out
    assert rc == 0 and "verdict: computed" in text
    rc = main(["check-semidualizing", data_path("R1.session"), "--module", "k"])
    capsys.readouterr()
    assert rc == 1
    with pytest.raises(ParseError) as ei:
        from semidual.sessions import parse_session_text
        parse_session_text('[ring]\nfield = 2\nvariables = ["x"]\n'
                           'relations = ["x+x^2"]\n')
    assert ei.value.line == 4 and ei.value.column > 0
    _report(10, True, "28 goldens, verdict parity, exit codes 0/1/2")


def test_criterion_11_out_of_scope_guard():
    """verify-all lists the positive-Krull-dimension statements explicitly
    as not applicable instead of letting them pass silently."""
    session = corpus_sessions()["R2"]
    rep = run_command("verify-all", session, bound=3, pairs=3)
    not_applicable = [w for w in rep.witnesses
                      if w.startswith("not applicable (Artinian model)")]
    assert rep.verdict == "pass"
    assert rep.dimensions["out_of_scope_items"] == 3
    assert len(not_applicable) == 3
    # three distinct statements, each naming why it cannot fire here
    assert len(set(not_applicable)) == 3
    for line in not_applicable:
        assert "Krull dimension" in line or "noetherian" in line
    _report(11, True, "3 out-of-scope statements listed explicitly")


# The child runs the eleven criteria above with R4 at the depth of the other
# rings, patching this module's tables after collection, and prints its own
# peak RSS in bytes (ru_maxrss is in KiB on Linux, in bytes on macOS).
_FULL_DEPTH_CHILD = """
import resource, sys, pytest

class FullDepth:
    def pytest_collection_modifyitems(self, items):
        for item in items:
            item.module.DEGREES["R4"], item.module.BOUNDS["R4"] = 4, 5

code = pytest.main([sys.argv[1], "-q", "-s", "-p", "no:cacheprovider", "-k", "criterion"],
                   plugins=[FullDepth()])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print("peak_rss_bytes", peak if sys.platform == "darwin" else peak * 1024)
sys.exit(code)
"""


def test_full_depth_r4_in_a_child_process():
    """All eleven criteria with R4 at degree 4 and bound 5, the full depth
    of the other rings, in a child process whose peak RSS is its own:
    every criterion passes and the peak stays under 1 GB (about 416 MiB
    on a 2-vCPU Linux host with numpy 2; the module's own tables keep R4
    at degree 2 and bound 2 in this process)."""
    assert DEGREES["R4"] == BOUNDS["R4"] == 2
    run = subprocess.run([sys.executable, "-c", _FULL_DEPTH_CHILD, os.path.abspath(__file__)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    passed = sorted(int(n) for n in re.findall(r"criterion (\d+): PASS", run.stdout))
    assert passed == list(range(1, 12))
    assert "R4 at bound 5" in run.stdout
    peak = int(re.search(r"peak_rss_bytes (\d+)", run.stdout).group(1))
    assert peak < 10 ** 9, f"peak RSS {peak / 10 ** 6:.0f} MB"
