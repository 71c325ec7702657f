#!/usr/bin/env python3
"""Search sizes of classification on a fresh collection sample.

    PYTHONPATH=src python scripts/search_sizes.py

Classifies 550 random complete collections, 400 on 4 variables and 150 on
5, drawn as the benchmark's classification sample is drawn
(``few_margin_collection`` in ``bench/inputs.py``) but from seed 7777, so
that none of them is a benchmark item.  Prints, for the proven and the
``UNKNOWN`` collections apart, how many expanded each number of specs
(``search.specs_expanded``), and how many ``UNKNOWN`` searches were
stopped at ``SEARCH_LIMIT`` rather than exhausted.  ``SEARCH_LIMIT``
should sit well above the largest proof; exits 0.
"""

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from inputs import few_margin_collection  # noqa: E402
from mllp.classify import PROVEN_SMOOTH, SEARCH_LIMIT, classify  # noqa: E402
from mllp.mll import MLLSpec  # noqa: E402
from mllp.tables import VarSet  # noqa: E402

SEED = 7777
SIZES = ((4, 400), (5, 150))  # (variables, collections)


def main() -> int:
    rng = np.random.default_rng(SEED)
    sizes: dict[str, Counter] = {PROVEN_SMOOTH: Counter(), "UNKNOWN": Counter()}
    stopped = 0
    slowest = 0.0
    for n, count in SIZES:
        vs = VarSet(tuple(str(i + 1) for i in range(n)))
        for _ in range(count):
            spec = MLLSpec(vs, few_margin_collection(rng, n))
            t0 = time.perf_counter()
            report = classify(spec)
            slowest = max(slowest, time.perf_counter() - t0)
            verdict = report.verdict if report.verdict == PROVEN_SMOOTH else "UNKNOWN"
            sizes[verdict][report.search.specs_expanded] += 1
            stopped += verdict == "UNKNOWN" and not report.search.exhausted
    print(f"SEARCH_LIMIT = {SEARCH_LIMIT}")
    for verdict, counts in sizes.items():
        print(f"{verdict}: {sum(counts.values())} collections")
        print("  specs_expanded  collections")
        for size in sorted(counts):
            print(f"  {size:>14}  {counts[size]:>11}")
    print(f"UNKNOWN stopped at SEARCH_LIMIT: {stopped}")
    print(f"largest proof: {max(sizes[PROVEN_SMOOTH], default=0)} specs")
    print(f"slowest classification: {slowest:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
