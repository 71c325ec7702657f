#!/usr/bin/env python3
"""Search sizes of classification on a fresh collection sample.

    PYTHONPATH=src python scripts/search_sizes.py

Classifies 550 random complete collections, 400 on 4 variables and 150 on
5, drawn as the benchmark's classification sample is drawn
(``few_margin_collection`` in ``bench/inputs.py``) but from seed 7777, so
that none of them is a benchmark item.  Prints, for the proven and the
``UNKNOWN`` collections apart, how many expanded each number of specs
(``search.specs_expanded``), and how many ``UNKNOWN`` searches were
stopped at ``SEARCH_LIMIT`` rather than exhausted; then the total
classification time and its split between the proofs, the exhausted
``UNKNOWN``s and the stopped ones (wall time, one process), each group
with the sum of its reports' ``search.closure_states``.
``SEARCH_LIMIT`` should sit well above the largest proof; exits 0.
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


def sample() -> list[MLLSpec]:
    """The collections, in drawing order."""
    rng = np.random.default_rng(SEED)
    specs = []
    for n, count in SIZES:
        vs = VarSet(tuple(str(i + 1) for i in range(n)))
        specs += [MLLSpec(vs, few_margin_collection(rng, n)) for _ in range(count)]
    return specs


def main() -> int:
    sizes: dict[str, Counter] = {PROVEN_SMOOTH: Counter(), "UNKNOWN": Counter()}
    stopped = 0
    slowest = 0.0
    seconds = {"proven": 0.0, "exhausted UNKNOWN": 0.0, "stopped UNKNOWN": 0.0}
    states = Counter()
    for spec in sample():
        t0 = time.perf_counter()
        report = classify(spec)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        verdict = report.verdict if report.verdict == PROVEN_SMOOTH else "UNKNOWN"
        sizes[verdict][report.search.specs_expanded] += 1
        if verdict == PROVEN_SMOOTH:
            group = "proven"
        elif report.search.exhausted:
            group = "exhausted UNKNOWN"
        else:
            group = "stopped UNKNOWN"
            stopped += 1
        seconds[group] += elapsed
        states[group] += report.search.closure_states
    print(f"SEARCH_LIMIT = {SEARCH_LIMIT}")
    for verdict, counts in sizes.items():
        print(f"{verdict}: {sum(counts.values())} collections")
        print("  specs_expanded  collections")
        for size in sorted(counts):
            print(f"  {size:>14}  {counts[size]:>11}")
    print(f"UNKNOWN stopped at SEARCH_LIMIT: {stopped}")
    print(f"largest proof: {max(sizes[PROVEN_SMOOTH], default=0)} specs")
    print(f"slowest classification: {slowest:.3f} s")
    print(f"classification time: {sum(seconds.values()):.3f} s")
    for group, total in seconds.items():
        print(f"  {group}: {total:.3f} s, {states[group]} closure states")
    return 0


if __name__ == "__main__":
    sys.exit(main())
