#!/usr/bin/env python3
"""Numeric rank survey: smallest Jacobian singular value over random
tables for every provably smooth three-variable orbit, plus the repeated
-effect counterexample at the uniform table."""

import sys

import numpy as np

from mllp import catalog
from mllp.census import enumerate_complete
from mllp.classify import PROVEN_SMOOTH, classify
from mllp.cli import pair_map_min_singular_value
from mllp.tables import random_table, uniform_table


def main() -> int:
    samples = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    rng = np.random.default_rng(0)
    reps = enumerate_complete(3, up_to_symmetry=True)
    print(f"{'orbit':>5} {'first rule':<20} {'min sv':>12}")
    worst = np.inf
    for idx, spec in enumerate(reps):
        report = classify(spec)
        if report.verdict != PROVEN_SMOOTH:
            continue
        m = min(
            pair_map_min_singular_value(spec, random_table(spec.vars, rng).p)
            for _ in range(samples)
        )
        worst = min(worst, m)
        print(f"{idx:>5} {report.first_rule:<20} {m:>12.3e}")
    print(f"\nworst over all smooth orbits: {worst:.3e}")

    u = uniform_table(catalog.REPEATED_EFFECT.vars)
    bad = pair_map_min_singular_value(catalog.REPEATED_EFFECT, u.p)
    print(f"repeated-effect collection at uniform: {bad:.3e} (rank deficient)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
