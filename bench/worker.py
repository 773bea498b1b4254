"""One benchmark process: import semidual, parse the sessions, then run the
workload's op list in a closed loop (one client, next op after the previous
one returns) until the time is up.

    python3 bench/worker.py setup INPUTS.json
    python3 bench/worker.py run INPUTS.json --seconds S --trace 0|1 --spans FILE

`setup` times import + session parsing + ring construction, then the host-speed
reference, and exits.  `run` prints one JSON object: each op's fastest run,
the reference's fastest run at each of its places in a pass, failures, peak
RSS and, when tracing, the per-layer metrics.  Before every op all of
semidual's caches are cleared, because a command-line user starts cold on
every invocation; reuse inside one op is still measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

# Host-speed reference.  A shared machine's speed drifts: on the 2-vCPU VM
# this was written on, the same op list took 4.0 s in one five-minute spell
# and 5.6 s in the next.  A fixed piece of work that involves no semidual code
# is timed at REF_POINTS places in every pass, the same way as the ops, and
# the end-to-end times are scaled to the speed at which it takes
# REF_NOMINAL_S (see README.md, "Host speed").
REF_POINTS = 8        # reference runs per pass, spread over the op list
REF_NOMINAL_S = 0.020
SETUP_REF_RUNS = 5    # reference runs after each set-up
_REF_MATRIX: list = []


def reference() -> float:
    """Seconds for a fixed piece of work that involves no semidual code:
    pure-Python integer and dict work and a float matrix product, the two
    kinds of work semidual's ops are made of."""
    import numpy as np
    if not _REF_MATRIX:
        _REF_MATRIX.append(np.random.default_rng(0).integers(0, 5, (200, 200)).astype(np.float64))
    a = _REF_MATRIX[0]
    t0 = time.perf_counter()
    for _ in range(4):
        x, d = 0, {}
        for i in range(20000):
            x += i * i % 7
            d[i & 255] = x
        np.fmod(a @ a, 5.0)
    return time.perf_counter() - t0


def setup(inputs: dict):
    """Import the library and parse every session (which builds the rings).
    Returns the parsed sessions and the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  -- the import is part of what a user waits for
    from semidual.sessions import parse_session_text
    sessions = {name: parse_session_text(text)
                for name, text in inputs["sessions"].items()}
    return sessions, time.perf_counter() - t0


def run(inputs: dict, seconds: float, trace: bool, spans_path: str | None) -> dict:
    sessions, setup_s = setup(inputs)
    sys.path.insert(0, BENCH)
    import ops as bench_ops
    import semidual.sessions as sessions_mod
    from semidual import modules
    from tracer import Tracer

    ops = bench_ops.BUILDERS[inputs["workload"]](sessions, inputs["facts"])
    tracer = Tracer() if trace else None
    setup_layers = {}
    if tracer:
        # one traced re-parse shows where set-up time goes
        tracer.install()
        for text in inputs["sessions"].values():
            tracer.run_op("setup", lambda text=text: sessions_mod.parse_session_text(text))
        setup_layers = {"setup.algebra.self_s": tracer.self_s.get("algebra", 0.0),
                        "setup.sessions.self_s": tracer.self_s.get("sessions", 0.0)}
        tracer.uninstall()
    setup_spans = tracer.span_count if tracer else 0

    def attempt(op, traced: bool):
        """Run op once from cold caches: (seconds, signature, output, error)."""
        nonlocal op_id
        modules.clear_caches()
        err = raw = None
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.op = op_id
                raw = tracer.run_op(op.label, op.run)
            else:
                raw = op.run()
        except Exception as exc:  # a raising op is a failed op
            err = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        op_id += 1
        out = None if err else op.summarize(raw)
        return seconds, json.dumps([out, err], sort_keys=True), out, err

    n = len(ops)
    first: list = [None] * n              # (signature, output, error) of each op's first run
    samples = {False: [[] for _ in ops], True: [[] for _ in ops]}   # seconds, per op
    ref_step = max(1, n // REF_POINTS)
    ref_samples: list[list[float]] = [[] for _ in range(0, n, ref_step)]
    reference()                           # first use builds its matrix
    mismatches: list[tuple[int, str]] = []
    op_records: list[dict] = []           # traced ops, written with the spans
    layers: list[dict] = []
    light: list[int] = []
    op_id = passes = 0
    last_pass = 0.0
    start = time.perf_counter()
    # Untraced passes run until the window is used up, the last one cut
    # short.  A traced pass is only started when it should end in time:
    # per-layer values are per whole pass.
    while passes < 2 or time.perf_counter() - start + (last_pass if trace else 0.0) < seconds:
        pass_start = time.perf_counter()
        traced = bool(tracer) and passes % 2 == 1
        if traced:
            tracer.reset_counts()
            tracer.install()
        entries = []
        # Every op once, then, in untraced runs, the light ops once more:
        # the ops around the median get twice the samples for little time.
        # Not in traced runs, whose traced and untraced passes must match.
        # Light is set well below the 90th percentile op, so that no op
        # near op_p90_ms flips between one and two runs per pass.
        for k, i in enumerate(list(range(n)) + light):
            if not trace and passes >= 2 and time.perf_counter() - start >= seconds:
                break
            if k < n and i % ref_step == 0 and not traced:
                ref_samples[i // ref_step].append(reference())
            seconds_, sig, out, err = attempt(ops[i], traced)
            entries.append(sum(len(c) for c in getattr(modules, "_caches", ())))
            if traced:
                op_records.append({"op": op_id - 1, "label": ops[i].label,
                                   "seconds": seconds_, "cache_entries": entries[-1]})
            samples[traced][i].append(seconds_)
            if first[i] is None:
                first[i] = (sig, out, err)
            elif sig != first[i][0]:
                mismatches.append((i, f"output differs from the first run: {sig}"))
        if traced:
            tracer.uninstall()
            values = tracer.layer_values()
            values["modules.cache_entries"] = max(entries)
            layers.append(values)
        if passes == 0 and not trace:
            cut = 2 * statistics.median(t[0] for t in samples[False])
            light = [i for i in range(n) if samples[False][i][0] < cut]
        passes += 1
        last_pass = time.perf_counter() - pass_start

    # checks, after the timed window so that they take none of it: the first
    # run of every op is checked in full, every later run must reproduce it
    verdicts = bench_ops.check_pass(ops, [f[1] for f in first], [f[2] for f in first])
    runs = [len(samples[False][i]) + len(samples[True][i]) for i in range(n)]
    failed = sum(r for r, v in zip(runs, verdicts) if v is not None)
    failed += sum(1 for i, _ in mismatches if verdicts[i] is None)
    failures = [f"{op.label}: {v}" for op, v in zip(ops, verdicts) if v is not None]
    failures += [f"{ops[i].label}: {why}" for i, why in mismatches if verdicts[i] is None]

    out = {
        "setup_s": setup_s,
        "op_labels": [op.label for op in ops],
        "passes": passes,
        "light_ops": len(light),
        "op_best": [min(t) for t in samples[False]],
        "ref_best": [min(t) for t in ref_samples],
        "attempted": sum(runs),
        "failed": failed,
        "failures": failures[:50],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        per_layer = {k: statistics.median(v[k] for v in layers) for k in layers[0]}
        per_layer.update(setup_layers)
        per_layer["trace.spans"] = (tracer.span_count - setup_spans) / len(layers)
        per_layer["trace.overhead_pct"] = 100.0 * (
            sum(min(t) for t in samples[True]) / sum(min(t) for t in samples[False]) - 1.0)
        out["per_layer"] = per_layer
        if spans_path:
            tracer.write_spans(spans_path, op_records)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one semidual benchmark process")
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("inputs")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    if args.mode == "setup":
        _, setup_s = setup(inputs)
        ref_s = min(reference() for _ in range(SETUP_REF_RUNS))
        print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))
    else:
        print(json.dumps(run(inputs, args.seconds, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
