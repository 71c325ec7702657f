#!/usr/bin/env python3
"""Hierarchical round trips on skewed tables.

    PYTHONPATH=src python scripts/skewed_roundtrip.py [--alpha A] [--jitter SEED]

900 round trips, 45 for each of n = 3..7 variables and Dirichlet
concentration alpha in {0.05, 0.1, 0.3, 1}.  Each table is floored at
1e-14 and renormalised; each spec has three distinct random proper
margins, ordered by size, plus the full margin, every effect in the first
margin containing it.  Everything is drawn from one fixed seed, so two
versions of the package see the same cases.  A round trip fails when the
inversion raises or misses a cell by more than 1e-8.  Prints one line per
failing case, the failures per (n, alpha) and the worst cell error of the
round trips that succeeded; exits 0.

``--alpha A`` runs 45 more cases for each n at concentration A, drawn
after the 900, which stay as they are.  ``--jitter SEED`` multiplies each
table by 1 + 1e-15 * U(-1, 1), drawn from its own generator with that seed,
and renormalises: which marginal cases fail can hinge on rounding, and
jitter shows whether a failure count holds under perturbations that small.
"""

import argparse
import sys

import numpy as np

from mllp.errors import MllpError
from mllp.mll import MLLSpec, lambda_vector
from mllp.solvers import invert_hierarchical
from mllp.tables import JointTable, VarSet, popcount

SEED = 1404
SIZES = (3, 4, 5, 6, 7)
ALPHAS = (0.05, 0.1, 0.3, 1.0)
PER_CELL = 45
FLOOR = 1e-14
TOL = 1e-8
JITTER = 1e-15


def draw_case(rng: np.random.Generator, n: int, alpha: float):
    full = (1 << n) - 1
    proper = sorted(
        (int(m) for m in rng.choice(np.arange(1, full), size=3, replace=False)),
        key=lambda m: (popcount(m), m),
    )
    order = proper + [full]
    spec = MLLSpec(VarSet(tuple(str(i + 1) for i in range(n))), tuple(
        (e, next(m for m in order if e & ~m == 0)) for e in range(1, full + 1)
    ))
    p = np.maximum(rng.dirichlet(np.full(full + 1, alpha)), FLOOR)
    return spec, JointTable(spec.vars, p / p.sum())


def draw_cases(extra_alpha: float | None = None, jitter: int | None = None):
    """Yield (case, n, alpha, spec, table) in case order: the 900 default
    cases, then 45 per n at ``extra_alpha`` if given."""
    rng = np.random.default_rng(SEED)
    shake = None if jitter is None else np.random.default_rng(jitter)
    cells = [(n, alpha) for n in SIZES for alpha in ALPHAS]
    if extra_alpha is not None:
        cells += [(n, extra_alpha) for n in SIZES]
    case = 0
    for n, alpha in cells:
        for _ in range(PER_CELL):
            spec, t = draw_case(rng, n, alpha)
            if shake is not None:
                p = t.p * (1.0 + JITTER * shake.uniform(-1.0, 1.0, t.p.size))
                t = JointTable(t.vars, p / p.sum())
            yield case, n, alpha, spec, t
            case += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, help="one extra concentration")
    ap.add_argument("--jitter", type=int, metavar="SEED",
                    help="perturb each table by 1e-15 relative, from this seed")
    args = ap.parse_args(argv)
    alphas = ALPHAS if args.alpha is None else ALPHAS + (args.alpha,)
    failures = {(n, a): 0 for n in SIZES for a in alphas}
    worst = 0.0
    total = 0
    for case, n, alpha, spec, t in draw_cases(args.alpha, args.jitter):
        try:
            res = invert_hierarchical(spec, lambda_vector(t, spec))
            err = float(np.max(np.abs(res.table.p - t.p)))
            outcome = None if err <= TOL else f"cell error {err:.3e}"
        except MllpError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        if outcome is None:
            worst = max(worst, err)
        else:
            failures[(n, alpha)] += 1
            print(f"FAIL case {case} n={n} alpha={alpha}: {outcome}")
        total += 1
    print(f"{'n':>2} " + " ".join(f"{f'a={a}':>8}" for a in alphas))
    for n in SIZES:
        print(f"{n:>2} " + " ".join(f"{failures[(n, a)]:>8}" for a in alphas))
    print(f"failures: {sum(failures.values())} of {total}")
    print(f"worst cell error of the successful round trips: {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
