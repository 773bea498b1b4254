"""Self-test of the benchmark's checks: wrong expectations must be caught.

    python3 bench/selftest.py

Runs a handful of fast small-rings ops through the same op builder and
check_pass the benchmark uses.  With the true expectations nothing fails.
Then one golden expectation and one generated Betti number are made wrong,
and exactly the ops that rely on them must fail, each named in its message,
so the error rate rises from 0.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import ops as bench_ops  # noqa: E402
from semidual import corpus  # noqa: E402
from semidual.sessions import parse_session_text  # noqa: E402
from workloads import generate  # noqa: E402

PICKED = (
    "golden R2 ext --src k --dst k --bound 5",
    "R2 ext --src A --dst k --bound 3",
    "R2 tor --src A --dst k --bound 3",
    "R2 relext --c F --src A --dst k --i 2",
    "R1 foxby --c F --module A --direction tensor",
)


def error_rate(inputs: dict) -> tuple[float, list[str]]:
    sessions = {n: parse_session_text(t) for n, t in inputs["sessions"].items()}
    ops = [op for op in bench_ops.small_rings_ops(sessions, inputs["facts"])
           if op.label in PICKED]
    assert len(ops) == len(PICKED), sorted(op.label for op in ops)
    outputs = []
    for op in ops:
        bench_ops.modules.clear_caches()
        outputs.append(op.summarize(op.run()))
    verdicts = bench_ops.check_pass(ops, outputs, [None] * len(ops))
    failures = [f"{op.label}: {v}" for op, v in zip(ops, verdicts) if v is not None]
    return len(failures) / len(ops), failures


def main() -> int:
    inputs = generate("small-rings", 0)
    rate, failures = error_rate(inputs)
    if rate != 0:
        print("FAIL: true expectations reported failures:", *failures, sep="\n  ")
        return 1

    # a wrong golden value: Ext^1(k, k) over R2 is 1, claim 2
    real_cases = corpus.golden_cases

    def wrong_cases():
        cases = real_cases()
        for i, c in enumerate(cases):
            if c.session == "R2.session" and c.command == "ext":
                expect = copy.deepcopy(c.expect)
                expect["dimensions"]["Ext^1"] = 2
                cases[i] = dataclasses.replace(c, expect=expect)
        return cases

    # a wrong generated fact: b_2 of R2's module A is 1, claim 5
    bad = copy.deepcopy(inputs)
    bad["facts"]["R2"]["A"]["betti"][2] = 5
    corpus.golden_cases = wrong_cases
    try:
        rate, failures = error_rate(bad)
    finally:
        corpus.golden_cases = real_cases
    expected = {"golden R2 ext --src k --dst k --bound 5",
                "R2 ext --src A --dst k --bound 3",
                "R2 tor --src A --dst k --bound 3",
                "R2 relext --c F --src A --dst k --i 2"}
    named = {f.split(":", 1)[0] for f in failures}
    if named != expected or rate != len(expected) / len(PICKED):
        print(f"FAIL: expected failures {sorted(expected)}, got:", *failures, sep="\n  ")
        return 1
    print(f"ok: error rate 0 with true expectations, {rate:.2f} with wrong ones")
    for f in failures:
        print("  caught", f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
