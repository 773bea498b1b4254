"""semidual benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload small-rings --seed 1 --seconds 35 --trace 0

Generates the workload's session files from the seed, times set-up in fresh
processes, then runs the op list in one worker process for --seconds and
checks every output.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics, with
times scaled to a reference host speed, with --trace 0, the per-layer
metrics with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_build", "semidual")
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True

from tracer import PER_LAYER  # noqa: E402
from worker import REF_NOMINAL_S  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# One BLAS thread: on a machine shared with other tenants a second BLAS
# thread mostly waits for a core, which made the large-matrix ops slower and
# less steady from run to run.  Set before numpy is imported anywhere, and
# inherited by the workers.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

SETUP_REPEATS = 7
DEADLINE_S = 170      # a run must end within 180 s; children are killed past this
# op_p90_ms has ten ops beyond it only from 100 ops on
P90_MIN_OPS = 100


def _child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(res: dict, setups: list[dict], scaled: bool = True) -> dict:
    """The end-to-end metrics; times scaled to the reference host speed
    unless `scaled` is false."""
    best = res["op_best"]
    scale = REF_NOMINAL_S / statistics.mean(res["ref_best"]) if scaled else 1.0
    return {
        "wall_s": (scale * sum(best), "s"),
        "op_p50_ms": (scale * 1000 * statistics.median(best), "ms"),
        "op_p90_ms": (scale * 1000 * statistics.quantiles(best, n=10, method="inclusive")[-1], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(
            s["setup_s"] * (REF_NOMINAL_S / s["ref_s"] if scaled else 1.0) for s in setups), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="semidual benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "semidual", "__init__.py")):
        print("error: src/semidual not found next to bench/; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    inputs = generate(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    inputs_path = os.path.join(OUT, f"inputs-{tag}.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    print("provenance: " + json.dumps(inputs["provenance"], sort_keys=True))

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            _child(["setup", inputs_path], timeout=deadline - time.monotonic())
            for _ in range(SETUP_REPEATS)]
        spans = os.path.join(OUT, f"spans-{tag}.jsonl")
        res = _child(["run", inputs_path, "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--spans", spans],
                     timeout=deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n = len(res["op_labels"])
    print(f"workload {args.workload}: {n} ops per pass, {res['passes']} passes (the "
          f"last may be cut short), {res['attempted']} op runs; each op timed by its "
          "fastest run")
    if not args.trace:
        print(f"{res['light_ops']} ops below twice the median op time ran twice per pass")
    print(f"error_rate: {res['failed']}/{res['attempted']}")
    for line in res["failures"][:20]:
        print(f"FAILED {line}")
    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
        print(f"every other pass traced; spans written to "
              f"{os.path.relpath(spans, ROOT)}; tracing overhead "
              f"{res['per_layer']['trace.overhead_pct']:.1f}% of untraced pass time")
    else:
        if n < P90_MIN_OPS:
            print(f"note: op_p90_ms is taken over {n} ops, fewer than "
                  f"{P90_MIN_OPS}, so fewer than ten lie beyond it")
        ref_ms = 1000 * statistics.mean(res["ref_best"])
        print(f"host speed: reference {ref_ms:.2f} ms, nominal {1000 * REF_NOMINAL_S:.0f} ms; "
              "unscaled " + ", ".join(f"{name} {value:.4g} {unit}" for name, (value, unit)
                                      in _end_to_end(res, setups, scaled=False).items()))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in _end_to_end(res, setups).items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
