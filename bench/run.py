"""Benchmark of mllp: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``.
Set-up (importing mllp afresh, building the seeded operations, warming
up) is repeated SETUP_REPEATS times and its median reported as
``setup_s``.  All reported times are scaled to a reference host speed
(see ``measure.py``); the report line also gives them unscaled.  Then whole passes over the operations run: at least one, and
more while another fits in ``--seconds``.  Every operation's output is
checked; a wrong output makes the run fail with exit code 1.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the same untraced measurement is followed by one traced pass
(see ``tracing.py``), and the result holds the per-layer metrics of that
pass; the spans go to ``.bench_out/``.

Standard output ends with a report line (``# report {...}``: failure
counts by kind, the failed fraction, the tail percentile, a digest of all
verdicts, and the machine and thread settings) and then the result line.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before NumPy loads them.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5


class SetupFailed(Exception):
    pass


def setup(name: str, seed: int, scratch: Path):
    """Import mllp from scratch, build the operations and warm up.  Returns
    the wall-clock time and the mean speed probe around it."""
    before = measure.speed_probe()
    start = time.perf_counter()
    for mod in [k for k in sys.modules if k == "mllp" or k.startswith("mllp.")]:
        del sys.modules[mod]
    m = workloads.import_mllp()
    ops = workloads.build_ops(m, name, seed, scratch)
    solver_errors = m.errors.MllpError
    budget = measure.Budget()
    for i, op in enumerate(workloads.warmup_ops(m, name, scratch)):
        rec = measure.run_op(i, op, budget, workloads.BUDGET_S[name], solver_errors)
        if rec.failure is not None:
            raise SetupFailed(f"warm-up {op.kind} failed: {rec.failure} {rec.detail}")
    seconds = time.perf_counter() - start
    return seconds, (before + measure.speed_probe()) / 2, m, ops


def digest(records: list[measure.Record], pass_size: int) -> str:
    first = sorted(records[:pass_size], key=lambda r: r.op)
    text = "\n".join(f"{r.op}:{r.verdict}" for r in first)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_spans(spans: list[tracing.Span], path: Path) -> None:
    with path.open("w") as f:
        f.write("name\tstart\tend\tparent\top\tfailed\tcount\n")
        for s in spans:
            f.write(
                f"{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t{s.op}\t"
                f"{int(s.failed)}\t{s.count:g}\n"
            )


def traced_pass(m, ops, budget_s: float, solver_errors, path: Path):
    before = tracing.bindings()
    tracer = tracing.Tracer()
    with tracer:
        records, _ = measure.run_passes(
            ops, budget_s, 0.0, solver_errors, on_op=tracer.begin_op
        )
    if tracing.bindings() != before:
        raise RuntimeError("tracing left mllp module bindings changed")
    write_spans(tracer.spans, path)
    # Operations stopped by the budget end at a time-dependent point, and
    # runaway recursions end at a depth the wrappers' own frames move, so
    # their counts would not repeat; leave their spans out.
    skip = {r.op for r in records if r.failure in ("budget", "recursion")}
    layers = tracing.layer_metrics(
        tracer.spans, skip, m.classify.DEFAULT_MOVE_LIMIT
    )
    return records, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUDGET_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mllp" / "__init__.py").is_file():
        print(f"error: no mllp package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scratch = OUT_DIR / f"{args.workload}-seed{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)

    name, budget_s = args.workload, workloads.BUDGET_S[args.workload]
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            seconds, probe, m, ops = setup(name, args.seed, scratch)
            setups.append((seconds, probe))
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    solver_errors = m.errors.MllpError

    records, passes = measure.run_passes(ops, budget_s, args.seconds, solver_errors)
    e2e = measure.end_to_end(records, len(ops), budget_s)
    wall = measure.end_to_end(records, len(ops), budget_s, scaled=False)
    failures = Counter(r.failure for r in records if r.failure is not None)
    wrong = [r for r in records if r.failure == "wrong"]

    if args.trace:
        traced, layers = traced_pass(
            m, ops, budget_s, solver_errors, scratch / "spans.tsv"
        )
        traced_e2e = measure.end_to_end(traced, len(ops), budget_s)
        layers["trace.overhead_frac"] = (
            e2e["throughput_ops_s"] - traced_e2e["throughput_ops_s"]
        ) / e2e["throughput_ops_s"]
        wrong += [r for r in traced if r.failure == "wrong"]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        values = {
            "throughput_ops_s": (e2e["throughput_ops_s"], "1/s"),
            "latency_p50_ms": (e2e["latency_p50_ms"], "ms"),
            "latency_tail_ms": (e2e["latency_tail_ms"], "ms"),
            "setup_s": (
                statistics.median(t * measure.PROBE_REF_S / c for t, c in setups), "s"
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    report = {
        "workload": name,
        "seed": args.seed,
        "passes": passes,
        "ops_per_pass": len(ops),
        "attempted": len(records),
        "failed": e2e["failed"],
        "failed_frac": e2e["failed"] / len(records),
        "failures_by_kind": failures,
        "budget_s": budget_s,
        "tail": f"p{e2e['tail_percentile']:g} of {len(records)} samples",
        "wall_clock": {
            k: wall[k] for k in ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms")
        },
        "probe_median_s": statistics.median(r.probe for r in records),
        "probe_ref_s": measure.PROBE_REF_S,
        "verdict_digest": digest(records, len(ops)),
        "setup_wall_s": [t for t, _ in setups],
        "failure_examples": [
            f"op {r.op} ({ops[r.op].kind}) {r.failure}: {r.detail}"
            for r in [r for r in records if r.failure is not None][:5]
        ],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    print("# report " + json.dumps(report))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": e2e["failed"],
        "metrics": metrics,
    }))
    return 0 if not wrong else 1


def unit_of(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith(("success_ratio", "overhead_frac")):
        return "ratio"
    if metric.endswith("cells"):
        return "cells"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
