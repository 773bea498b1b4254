"""The benchmark tracer's contract with the library.

`bench/tracer.py` wraps the six `linalg` reductions and `_mul_arrays` by
name, in every `semidual.*` namespace that holds them, and counts the cells
of a reduction from its arguments' `rows` and `cols`.  A traced relative Ext
and a traced Hom/tensor pair must give the untraced outputs, and every
linalg counter must read nonzero: a renamed function, a binding the tracer
cannot find, or a reduction that takes a bare array shows up here.
"""

import importlib.util
import json
from pathlib import Path

from semidual import modules as mo
from semidual.cli import run_command
from semidual.corpus import corpus_sessions


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _outputs():
    """relext over R1 and the dimensions of one Hom/tensor pair, each from
    cold caches."""
    session = corpus_sessions()["R1"]
    mo.clear_caches()
    report = json.loads(run_command("relext", session, c="D", src="k", dst="k", i=2).to_json())
    report.pop("millis")
    R = session.ring()
    D, M = session.module("D", R), session.module("M", R)
    mo.clear_caches()
    hom = mo.hom_space(D, M).dim
    mo.clear_caches()
    tensor = mo.tensor_space(D, M).dim
    mo.clear_caches()
    return report, hom, tensor


def test_traced_run_matches_untraced_and_counts_linalg_work():
    want = _outputs()
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        got = _outputs()
    finally:
        tracer.uninstall()
    assert got == want
    values = tracer.layer_values()
    for name in ("linalg.reduce.calls", "linalg.reduce.cells", "linalg.matmul.calls",
                 "linalg.matmul.mac"):
        assert values[name] > 0, name
    assert values["modules.hom_space.calls"] and values["modules.tensor_space.calls"]
