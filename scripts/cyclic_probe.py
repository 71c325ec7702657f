#!/usr/bin/env python3
"""AUTO inversion of cyclic collections on skewed tables.

    PYTHONPATH=src python scripts/cyclic_probe.py [--alphas A ...]

Run from the repository root: the script imports ``mllp`` from ``src``,
so it needs ``PYTHONPATH=src``, as the other scripts do.

Two collections that AUTO inverts through the cyclic rule: CYCLE_THREE
and the 4-cycle ``12: 1 12; 23: 2 23; 34: 3 34; 14: 4 14; 1234: 13 24 123
124 134 234 1234``.  For each collection and each Dirichlet concentration
alpha (by default 1, 0.3, 0.1, 0.05 and 0.02) a fresh ``default_rng(2024)``
draws 200 Dirichlet(alpha) tables, each floored at 1e-12 and renormalised,
so two versions of the package see the same targets (draw i of CYCLE_THREE
is the table ``tests/test_solvers.py`` builds for its skewed cyclic cases).
A target fails when the inversion raises or misses a cell of the drawn
table by more than 1e-8.  Prints, per alpha, the failures of each
collection and their draws, then one line per failure with its error kind
(``MISS`` for a cell miss), and last the total; exits 0.
``draw_cases`` yields the 2 000 default cases in that order, for
``scripts/compare_outputs.py``.
"""

import argparse
import sys

import numpy as np

from mllp import catalog, solvers
from mllp.errors import MllpError
from mllp.mll import MLLSpec, lambda_vector
from mllp.tables import JointTable

SEED = 2024
ALPHAS = (1.0, 0.3, 0.1, 0.05, 0.02)
DRAWS = 200
FLOOR = 1e-12
TOL = 1e-8
COLLECTIONS = {
    "CYCLE_THREE": catalog.CYCLE_THREE,
    "CYCLE_FOUR": MLLSpec.from_text(
        "12: 1 12\n23: 2 23\n34: 3 34\n14: 4 14\n1234: 13 24 123 124 134 234 1234\n"
    ),
}


def draw_cases(alphas=ALPHAS):
    """Yield (alpha, name, draw, spec, table) in the probe's order: per
    alpha and collection, draws 0 .. DRAWS - 1 of a fresh generator."""
    for alpha in alphas:
        for name, spec in COLLECTIONS.items():
            draws = np.random.default_rng(SEED).dirichlet(
                np.full(spec.vars.n_cells, alpha), DRAWS
            )
            for i, draw in enumerate(draws):
                p = np.maximum(draw, FLOOR)
                yield alpha, name, i, spec, JointTable(spec.vars, p / p.sum())


def failure(spec: MLLSpec, table: JointTable) -> str | None:
    """The error kind of one target's inversion, ``MISS`` for a cell miss,
    or None when it inverts."""
    try:
        res = solvers.invert(spec, lambda_vector(table, spec))
    except MllpError as exc:
        return getattr(exc, "kind", type(exc).__name__)
    return "MISS" if float(np.max(np.abs(res.table.p - table.p))) > TOL else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphas", type=float, nargs="+", default=list(ALPHAS))
    args = ap.parse_args()
    failed: dict[tuple[float, str], dict[int, str]] = {}
    for alpha, name, i, spec, table in draw_cases(args.alphas):
        kind = failure(spec, table)
        if kind is not None:
            failed.setdefault((alpha, name), {})[i] = kind
    for alpha in args.alphas:
        print(f"alpha {alpha:g}:")
        for name in COLLECTIONS:
            fails = failed.get((alpha, name), {})
            print(f"  {name}: {len(fails)} of {DRAWS} fail: {sorted(fails)}")
            for i, kind in sorted(fails.items()):
                print(f"    {i}: {kind}")
    total = sum(len(f) for f in failed.values())
    cases = len(args.alphas) * len(COLLECTIONS) * DRAWS
    print(f"total: {total} of {cases} fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
