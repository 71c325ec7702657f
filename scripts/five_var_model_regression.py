#!/usr/bin/env python3
"""Soft regression scenario: the five-variable independence model.

The model below has no repeated effects, yet none of the implemented
sufficient conditions settles its smoothness; member construction goes
through AUTO's fallback for collections without a proven route: the
fixed point, then Newton.  Convergence status is logged per draw and
never asserted.
"""

import sys

import numpy as np

from mllp import catalog
from mllp.cimodels import CIStatement, ci_holds, model_member, model_spec
from mllp.classify import classify
from mllp.tables import VarSet


def main() -> int:
    vs = VarSet(tuple("12345"))
    stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_FIVE_VAR]
    ms = model_spec(stmts)
    print("statements:")
    for s in stmts:
        print("  ", s.to_text())
    print("zero pairs:", len(ms.zero_pairs), " free pairs:", len(ms.free_pairs))
    report = classify(ms.embedding)
    print("embedding verdict:", report.verdict)

    rng = np.random.default_rng(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
    n_draws = 10
    converged = 0
    for i in range(n_draws):
        free = {p: float(rng.uniform(-0.3, 0.3)) for p in ms.free_pairs}
        try:
            t = model_member(ms.embedding, free, statements=stmts)
            holds = all(ci_holds(t, s, 1e-8) for s in stmts)
            converged += 1
            print(f"draw {i}: converged, min cell {t.min_cell:.2e}, "
                  f"statements hold: {holds}")
        except Exception as exc:  # noqa: BLE001 - logged, not judged
            print(f"draw {i}: no member found ({type(exc).__name__}: {exc})")
    print(f"{converged}/{n_draws} draws converged (reported only, not asserted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
