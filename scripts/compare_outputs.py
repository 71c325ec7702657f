#!/usr/bin/env python3
"""Operation-by-operation outputs of two checkouts, side by side.

    python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR --seeds 3 11 \\
        [--workloads invert-routes fallback-models large-tables]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each side
runs in its own subprocess, with one BLAS thread, which imports that
checkout's ``src/mllp`` and ``bench/workloads.py`` and runs every
operation of each workload and seed once, in the benchmark's order.  Per
operation it keeps the output table, ``method_used`` and the iteration
count when the output has them, the error when the operation raised, and
the result of the operation's own check.

Prints, per workload and seed, the number of operations whose tables
differ and the largest cell difference, then every operation whose
``method_used``, iteration count, error or check result differs.  Exits 0.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WORKLOADS = ("invert-routes", "fallback-models", "large-tables")
FIELDS = ("method_used", "iterations", "error", "check")


def outcome(op) -> dict:
    """What one operation returned: its table, method and iterations, or
    the error it raised, and its check."""
    try:
        result = op.run()
    except Exception as exc:  # the workload's own failures are outputs here
        return {"table": None, "error": f"{type(exc).__name__}: {getattr(exc, 'kind', exc)}"}
    if isinstance(result, dict):  # a CLI document
        table = result.get("table", {}).get("p")
        method, iterations = result.get("method_used"), result.get("iterations")
    else:
        table = getattr(getattr(result, "table", result), "p", None)
        method = getattr(result, "method_used", None)
        iterations = getattr(result, "iterations", None)
    return {
        "table": None if table is None else np.asarray(table, dtype=float),
        "method_used": method,
        "iterations": iterations,
        "error": None,
        "check": op.check(result),
    }


def collect(checkout: Path, workloads: list[str], seeds: list[int]) -> dict:
    """Outcomes of every operation, keyed by (workload, seed); runs inside
    the side's subprocess."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads as wl

    m = wl.import_mllp()
    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads:
            for seed in seeds:
                ops = wl.build_ops(m, name, seed, Path(scratch))
                out[(name, seed)] = [(op.kind, outcome(op)) for op in ops]
    return out


def run_side(checkout: Path, workloads: list[str], seeds: list[int]) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "outcomes.pickle"
        cmd = [sys.executable, __file__, str(checkout), str(checkout),
               "--collect", str(dump), "--seeds", *map(str, seeds),
               "--workloads", *workloads]
        subprocess.run(cmd, env=env, check=True)
        return pickle.loads(dump.read_bytes())


def compare(parent: dict, change: dict) -> None:
    for key, ops in parent.items():
        tables_differ, worst, lines = 0, 0.0, []
        for i, ((kind, a), (_, b)) in enumerate(zip(ops, change[key])):
            ta, tb = a["table"], b["table"]
            if (ta is None) != (tb is None) or (ta is not None and ta.shape != tb.shape):
                tables_differ += 1
                worst = float("inf")
            elif ta is not None and not np.array_equal(ta, tb):
                tables_differ += 1
                worst = max(worst, float(np.max(np.abs(ta - tb))))
            for field in FIELDS:
                if a.get(field) != b.get(field):
                    lines.append(f"  op {i} {kind}: {field} {a.get(field)!r} -> "
                                 f"{b.get(field)!r}")
        name, seed = key
        print(f"{name} seed {seed}: {len(ops)} ops ({len(change[key])} in the change), "
              f"{tables_differ} tables differ, largest cell difference {worst:.3g}, "
              f"{len(lines)} other differences")
        print("\n".join(lines), end="\n" if lines else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect is not None:
        outcomes = collect(args.parent.resolve(), args.workloads, args.seeds)
        args.collect.write_bytes(pickle.dumps(outcomes))
        return 0
    sides = [run_side(d.resolve(), args.workloads, args.seeds)
             for d in (args.parent, args.change)]
    compare(*sides)
    return 0


if __name__ == "__main__":
    sys.exit(main())
