#!/usr/bin/env python3
"""AUTO inversion of the collections without a proven route, on skewed tables.

    PYTHONPATH=src python scripts/fixed_point_probe.py [--alphas A ...]

Run from the repository root: the script imports ``mllp`` from ``src``,
so it needs ``PYTHONPATH=src``, as the other scripts do.

178 targets: the 43 undecided orbits of the 3-variable census, 4 tables
each (ids 0-171, orbit by orbit in census order), then OPEN_FOUR_MARGIN
(ids 172-174) and TWO_ANCHOR_CYCLE (ids 175-177), 3 tables each.  AUTO
inverts each of them through the damped fixed point and, when that
fails, Newton.  For each Dirichlet concentration alpha (by default 1, 0.3,
0.1 and 0.05) the tables are drawn from a fresh ``default_rng(5050)``,
each one Dirichlet(alpha) redrawn until every cell is at least 1e-12, so
two versions of the package see the same targets.  A target fails when
the inversion raises or misses a cell of the drawn table by more than
1e-8.  Prints, per alpha, the wall time of the inversions and the ids of
the failing targets, then one line per failure with its error kind
(``MISS`` for a cell miss); exits 0.
"""

import argparse
import sys
import time

import numpy as np

from mllp import catalog
from mllp.classify import UNKNOWN, census
from mllp.errors import MllpError
from mllp.mll import MLLSpec, lambda_vector
from mllp.solvers import invert
from mllp.tables import JointTable

SEED = 5050
ALPHAS = (1.0, 0.3, 0.1, 0.05)
PER_ORBIT = 4
PER_EXTRA = 3
MIN_CELL = 1e-12
TOL = 1e-8


def targets() -> list[MLLSpec]:
    """The 178 collections, one entry per target, in id order."""
    rows = [r for r in census(3)["rows"] if r["verdict"] == UNKNOWN]
    specs = [MLLSpec.from_text(r["spec"].replace("; ", "\n")) for r in rows]
    out = [spec for spec in specs for _ in range(PER_ORBIT)]
    for spec in (catalog.OPEN_FOUR_MARGIN, catalog.TWO_ANCHOR_CYCLE):
        out += [spec] * PER_EXTRA
    return out


def draw_table(rng: np.random.Generator, spec: MLLSpec, alpha: float) -> JointTable:
    while True:
        p = rng.dirichlet(np.full(spec.vars.n_cells, alpha))
        if p.min() >= MIN_CELL:
            return JointTable(spec.vars, p)


def probe(specs: list[MLLSpec], alpha: float) -> tuple[dict[int, str], float]:
    """The failing ids with their kinds, and the wall time of the solves."""
    rng = np.random.default_rng(SEED)
    failed: dict[int, str] = {}
    elapsed = 0.0
    for i, spec in enumerate(specs):
        table = draw_table(rng, spec, alpha)
        target = lambda_vector(table, spec)
        t0 = time.perf_counter()
        try:
            res = invert(spec, target)
        except MllpError as exc:
            failed[i] = getattr(exc, "kind", type(exc).__name__)
        else:
            if float(np.max(np.abs(res.table.p - table.p))) > TOL:
                failed[i] = "MISS"
        elapsed += time.perf_counter() - t0
    return failed, elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphas", type=float, nargs="+", default=list(ALPHAS))
    args = ap.parse_args()
    specs = targets()
    for alpha in args.alphas:
        failed, elapsed = probe(specs, alpha)
        print(f"alpha {alpha:g}: {len(failed)} of {len(specs)} fail in "
              f"{elapsed:.2f} s: {sorted(failed)}")
        for i, kind in sorted(failed.items()):
            print(f"  {i}: {kind}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
