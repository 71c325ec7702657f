#!/usr/bin/env python3
"""Warm per-call times of AUTO inversion, the forward map and the mixed solve.

    PYTHONPATH=src python scripts/per_call.py [--seed S]

Run from the repository root with one BLAS thread (the script sets it
before NumPy loads).  For each of CHAIN_THREE, TWO_BLOCK_FIXPOINT,
CYCLE_THREE and PAIRED_SLICES_FOUR it draws 200 Dirichlet(1) tables from
``default_rng(S)`` (S = 0 by default), computes their targets, runs every
call once to warm the caches, and then times AUTO ``invert`` and the
forward map ``lambda_array`` over the 200 with ``timeit``: the best of 5
repeats, divided by 200.  Then ``mixed.reconstruct_mixed`` by its number
of sub-margins at m = 3 and m = 8 variables: none; one that drops one
variable; two that each drop one variable (the shape ``_stratum_fit``
solves); three that each drop one variable (proportional fitting).  Each
mixed solve is given the exact margins and uncovered coefficients of one
of 200 Dirichlet(1) tables, timed the same way.  Prints one JSON line per
row, times in ms; exits 0.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

from mllp import catalog  # noqa: E402
from mllp.mixed import reconstruct_mixed  # noqa: E402
from mllp.mll import MLLVector, lambda_array  # noqa: E402
from mllp.solvers import invert  # noqa: E402
from mllp.tables import fwht, marginal_array  # noqa: E402

COLLECTIONS = ("CHAIN_THREE", "TWO_BLOCK_FIXPOINT", "CYCLE_THREE", "PAIRED_SLICES_FOUR")
DRAWS = 200
REPEATS = 5


def best_ms(calls) -> float:
    """Best of REPEATS timings of running every call once, per call."""
    run = lambda: [call() for call in calls]  # noqa: E731
    run()  # warm
    return min(timeit.repeat(run, number=1, repeat=REPEATS)) / len(calls) * 1e3


def collection_rows(rng: np.random.Generator):
    for name in COLLECTIONS:
        spec = getattr(catalog, name)
        n = spec.vars.n
        tables = rng.dirichlet(np.ones(spec.vars.n_cells), DRAWS)
        targets = [MLLVector(spec, lambda_array(p, n, spec)) for p in tables]
        route = invert(spec, targets[0]).method_used
        yield {"row": "invert", "collection": name, "route": route,
               "ms": best_ms([lambda t=t: invert(spec, t) for t in targets])}
        yield {"row": "lambda_array", "collection": name,
               "ms": best_ms([lambda p=p: lambda_array(p, n, spec) for p in tables])}


def mixed_rows(rng: np.random.Generator):
    for m in (3, 8):
        full = (1 << m) - 1
        drop = [full ^ (1 << v) for v in range(3)]
        for k in range(4):
            masks = drop[:k]
            covered = np.arange(1 << m) == 0  # effect 0 is no coefficient
            for mask in masks:
                covered |= (np.arange(1 << m) & ~mask) == 0
            uncovered = np.flatnonzero(~covered).tolist()
            calls = []
            for p in rng.dirichlet(np.ones(1 << m), DRAWS):
                margins = {mask: marginal_array(p, m, mask) for mask in masks}
                theta = fwht(np.log(p)) / p.size
                targets = {e: float(theta[e]) for e in uncovered}
                calls.append(lambda a=margins, b=targets: reconstruct_mixed(m, a, b))
            yield {"row": "reconstruct_mixed", "m": m, "sub_margins": k,
                   "ms": best_ms(calls)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    for row in (*collection_rows(rng), *mixed_rows(rng)):
        row["ms"] = round(row["ms"], 4)
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
