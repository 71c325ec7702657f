#!/usr/bin/env python3
"""Embeddings of random conditional-independence statement lists.

    PYTHONPATH=src python scripts/model_specs.py

Draws 2 000 statement lists from seed 0.  Each list has 3 to 5 variables,
named 1 to n, and 1 to 3 statements; a statement labels every variable a,
b, c or unused at random, drawn again until both independence blocks are
nonempty.  Runs ``cimodels.model_spec`` on each list and prints how many
get a complete embedding, how many get none because two statements
constrain one effect in different margins, and how many raise, with the
first few of those.  Exits 1 when any list raises, else 0.
"""

import sys

import numpy as np

from mllp.cimodels import CIStatement, model_spec
from mllp.tables import VarSet

SEED = 0
COUNT = 2000


def _statement(rng: np.random.Generator, vs: VarSet) -> CIStatement:
    while True:
        labels = rng.integers(0, 4, size=vs.n)  # 0, 1, 2: blocks a, b, c
        a, b, c = (sum(1 << i for i in range(vs.n) if labels[i] == k) for k in range(3))
        if a and b:
            return CIStatement(vs, a, b, c)


def sample() -> list[list[CIStatement]]:
    """The statement lists, in drawing order."""
    rng = np.random.default_rng(SEED)
    lists = []
    for _ in range(COUNT):
        n = int(rng.integers(3, 6))
        vs = VarSet(tuple(str(i + 1) for i in range(n)))
        lists.append([_statement(rng, vs) for _ in range(int(rng.integers(1, 4)))])
    return lists


def main() -> int:
    embedded = conflicting = 0
    raised = []
    for statements in sample():
        try:
            ms = model_spec(statements)
        except Exception as exc:  # the failures are what this script counts
            raised.append((statements, exc))
            continue
        if ms.embedding is None:
            conflicting += 1
        else:
            embedded += 1
    print(f"{COUNT} statement lists (seed {SEED})")
    print(f"  complete embedding: {embedded}")
    print(f"  no embedding (an effect in two margins): {conflicting}")
    print(f"  raised: {len(raised)}")
    for statements, exc in raised[:5]:
        text = " / ".join(s.to_text() for s in statements)
        print(f"    {text} on {statements[0].vars.n} variables: "
              f"{type(exc).__name__}: {exc}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
