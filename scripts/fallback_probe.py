#!/usr/bin/env python3
"""CI-model members that reach the AUTO inversion's Newton fallback.

    PYTHONPATH=src python scripts/fallback_probe.py

216 members of the benchmark's CI models (``CI_MODELS`` in
``bench/inputs.py``), built as ``member_op`` in ``bench/workloads.py``
builds them.  Free values are drawn from ``default_rng(5)`` and then from
``default_rng(6)``: for each model, for each s in (1, 2, 4), 12 draws of
``uniform(-h * s, h * s, 32)``, where h is the model's half-width.  So
s = 1 is the benchmark's own range and s = 2 and 4 reach past it, where
AUTO's fixed point (capped at 2 000 sweeps) fails more often and AUTO
falls back to Newton.

Prints one line per failing member, then the successes and failures, how
many AUTO inversions fell back to Newton and how many of those Newton
rescued, and the wall time of the failing members; exits 0.  Everything
is drawn from fixed seeds, so two versions of the package see the same
members.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from inputs import CI_MODELS, MAX_FREE_VALUES, parse_spec  # noqa: E402
from mllp import solvers  # noqa: E402
from mllp.cimodels import (  # noqa: E402
    CIStatement,
    ci_to_zero_params,
    model_member,
    model_spec,
)
from mllp.errors import SolverError  # noqa: E402
from mllp.mll import MLLSpec  # noqa: E402
from mllp.tables import VarSet  # noqa: E402

SEEDS = (5, 6)
SCALES = (1, 2, 4)
DRAWS = 12


def model_setup(cfg: dict):
    """The model's statements, embedding and free pairs."""
    n = cfg["n"]
    vs = VarSet(tuple(str(i + 1) for i in range(n)))
    statements = [CIStatement.from_text(vs, s) for s in cfg["statements"]]
    if cfg["embedding"] is None:
        ms = model_spec(statements)
        embedding, zero = ms.embedding, set(ms.zero_pairs)
    else:
        embedding = MLLSpec(vs, tuple(parse_spec(cfg["embedding"], n)[1]))
        zero = {pair for s in statements for pair in ci_to_zero_params(s)}
    free_pairs = [pair for pair in embedding.pairs if pair not in zero]
    return statements, embedding, free_pairs


def draw_members():
    """Yield (member, model, s, free values) in member order."""
    member = 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for name, cfg in CI_MODELS.items():
            hw = cfg["half_width"]
            for s in SCALES:
                for _ in range(DRAWS):
                    yield member, name, s, rng.uniform(-hw * s, hw * s, MAX_FREE_VALUES)
                    member += 1


def main() -> int:
    setups = {name: model_setup(cfg) for name, cfg in CI_MODELS.items()}
    # An AUTO inversion falls back to Newton when it calls invert_newton;
    # model_member's own warm-started Newton runs outside any AUTO call.
    in_auto = fell_back = False
    invert, invert_newton = solvers.invert, solvers.invert_newton

    def counting_invert(*args, **kwargs):
        nonlocal in_auto, fell_back
        in_auto, fell_back = True, False
        try:
            return invert(*args, **kwargs)
        finally:
            in_auto = False

    def counting_newton(*args, **kwargs):
        nonlocal fell_back
        fell_back = fell_back or in_auto
        return invert_newton(*args, **kwargs)

    solvers.invert, solvers.invert_newton = counting_invert, counting_newton
    successes = failures = fallbacks = rescues = 0
    fail_s = total_s = 0.0
    for member, name, s, values in draw_members():
        statements, embedding, free_pairs = setups[name]
        free = {pair: float(v) for pair, v in zip(free_pairs, values)}
        fell_back = False
        t0 = time.perf_counter()
        try:
            model_member(embedding, free, statements=statements)
            outcome = None
        except SolverError as exc:
            outcome = exc
        elapsed = time.perf_counter() - t0
        total_s += elapsed
        fallbacks += fell_back
        if outcome is None:
            successes += 1
            rescues += fell_back
        else:
            failures += 1
            fail_s += elapsed
            print(f"FAIL member {member} {name} s={s}: {outcome.kind}"
                  f"{' after Newton' if fell_back else ''} ({elapsed:.2f} s)")
    print(f"members: {successes + failures}")
    print(f"successes: {successes}")
    print(f"failures: {failures}")
    print(f"AUTO Newton fallbacks: {fallbacks}, rescued: {rescues}")
    print(f"time to fail: {fail_s:.2f} s (all members: {total_s:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
