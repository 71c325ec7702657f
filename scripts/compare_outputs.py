#!/usr/bin/env python3
"""Operation-by-operation outputs of two checkouts, side by side.

    python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR --seeds 3 11 \\
        [--workloads classify-sweep invert-routes fallback-models large-tables \\
                     search-sizes labelled-three model-specs skewed-roundtrip \\
                     cyclic-roundtrip]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each side
runs in its own subprocess, with one BLAS thread, which imports that
checkout's ``src/mllp`` and ``bench/workloads.py`` and runs every
operation of each workload and seed once, in the benchmark's order.  Per
operation it keeps the output table (or the parameter vector or Jacobian
of a forward operation), ``method_used``, the iteration count,
``final_residual`` and ``contraction_certificate`` when the output has
them, the whole JSON form of any other output (a classification
report's ``to_json_obj()``, the census document), the error when the
operation raised, and the result of the operation's own check.  The
``search-sizes`` group, a held-out check of the classifier, is the report
JSON of each of the 550 collections of ``scripts/search_sizes.py`` (its
seed stands in for the seeds).  The ``labelled-three`` group is the report
JSON of each of the 512 labelled complete three-variable collections, in
the order of ``census.enumerate_complete(3)``; it has no seed.  The
``model-specs`` group is the ``cimodels.model_spec`` result of each of the
2 000 statement lists of ``scripts/model_specs.py``: the embedding's JSON
form (None when there is none), or the error; both sides draw the lists
from the copy of that script beside this one.  The ``skewed-roundtrip`` group is the hierarchical
inversion of each of the 1 125 cases of ``scripts/skewed_roundtrip.py``
(its 900 default cases and the 225 at ``--alpha 0.02``, as its
``draw_cases`` draws them from the copy beside this one), where the mixed
solve is weakest: the inverted table and the ``REPORTED`` fields, or the
error kind.  The ``cyclic-roundtrip`` group is the same record of the AUTO
inversion of each of the 2 000 cases of ``scripts/cyclic_probe.py``, as
its ``draw_cases`` draws them from the copy beside this one.

Prints, per workload and seed, the number of operations whose tables
differ, the largest cell difference among the operations that return a
table on both sides and the number of those whose ``final_residual``
moved with the table.  When some operations return a table on one side
only (they raise on the other), a second line counts them, per side.
Then it prints every operation whose ``method_used``, iteration count,
error, check result or ``contraction_certificate`` differs, or whose
``final_residual`` differs at an equal table; JSON forms that differ are
counted by the keys at which they differ (``search.fired`` is a key of a
report's ``search`` record).  Exits 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import pickle
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

HELD_OUT = "search-sizes"
LABELLED = "labelled-three"
MODELS = "model-specs"
SKEWED = "skewed-roundtrip"
SKEWED_EXTRA_ALPHA = 0.02
CYCLIC = "cyclic-roundtrip"
GROUPS = (HELD_OUT, LABELLED, MODELS, SKEWED, CYCLIC)
WORKLOADS = ("classify-sweep", "invert-routes", "fallback-models", "large-tables",
             *GROUPS)
FIELDS = ("method_used", "iterations", "error", "check", "contraction_certificate")
REPORTED = ("method_used", "iterations", "final_residual", "contraction_certificate")


def outcome(op) -> dict:
    """What one operation returned: its table and the ``REPORTED`` fields,
    or else its JSON form, or the error it raised, and its check."""
    try:
        result = op.run()
    except Exception as exc:  # the workload's own failures are outputs here
        return {"table": None, "error": f"{type(exc).__name__}: {getattr(exc, 'kind', exc)}"}
    if isinstance(result, dict):  # a CLI document
        table = result.get("table", {}).get("p")
        fields = {f: result.get(f) for f in REPORTED}
        form = result
    else:
        out = getattr(result, "table", result)
        # a table's cells, a parameter vector's values or a Jacobian
        table = getattr(out, "p", getattr(out, "values", out))
        if not isinstance(table, np.ndarray):
            table = None
        fields = {f: getattr(result, f, None) for f in REPORTED}
        form = result.to_json_obj() if hasattr(result, "to_json_obj") else None
    return {
        "table": None if table is None else np.asarray(table, dtype=float),
        **fields,
        "form": None if table is not None else form,
        "error": None,
        "check": op.check(result),
    }


def load_script(path: Path):
    """The module of a script file."""
    loader = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    return script


def model_outcome(cimodels, statements) -> dict:
    """The embedding's JSON form of a statement list, or the error."""
    try:
        ms = cimodels.model_spec(statements)
    except Exception as exc:  # the failures are outputs here
        return {"table": None, "error": f"{type(exc).__name__}: {exc}"}
    form = ms.embedding.to_json_obj() if ms.embedding is not None else None
    return {"table": None, "form": form, "error": None}


def roundtrip_outcome(m, solve, spec, t) -> dict:
    """The inversion ``solve`` of a table's own parameters: its table and
    the ``REPORTED`` fields, or the error kind."""
    try:
        res = solve(spec, m.mll.lambda_vector(t, spec))
    except Exception as exc:  # the failures are outputs here
        return {"table": None, "error": f"{type(exc).__name__}: {getattr(exc, 'kind', exc)}"}
    return {"table": np.asarray(res.table.p, dtype=float),
            **{f: getattr(res, f) for f in REPORTED}, "error": None}


def collect(checkout: Path, workloads: list[str], seeds: list[int]) -> dict:
    """Outcomes of every operation, keyed by (workload, seed); runs inside
    the side's subprocess."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads as wl

    m = wl.import_mllp()
    out = {}
    if HELD_OUT in workloads:
        script = load_script(checkout / "scripts" / "search_sizes.py")
        out[(HELD_OUT, script.SEED)] = [
            ("classify", {"table": None, "form": m.classify.classify(s).to_json_obj()})
            for s in script.sample()
        ]
    if LABELLED in workloads:
        from mllp.census import enumerate_complete

        out[(LABELLED, None)] = [
            ("classify", {"table": None, "form": m.classify.classify(s).to_json_obj()})
            for s in enumerate_complete(3)
        ]
    if MODELS in workloads:
        script = load_script(Path(__file__).resolve().parent / "model_specs.py")
        out[(MODELS, script.SEED)] = [
            ("model_spec", model_outcome(m.cimodels, statements))
            for statements in script.sample()
        ]
    if SKEWED in workloads:
        script = load_script(Path(__file__).resolve().parent / "skewed_roundtrip.py")
        out[(SKEWED, script.SEED)] = [
            ("invert_hierarchical",
             roundtrip_outcome(m, m.solvers.invert_hierarchical, spec, t))
            for _, _, _, spec, t in script.draw_cases(SKEWED_EXTRA_ALPHA)
        ]
    if CYCLIC in workloads:
        script = load_script(Path(__file__).resolve().parent / "cyclic_probe.py")
        out[(CYCLIC, script.SEED)] = [
            ("invert", roundtrip_outcome(m, m.solvers.invert, spec, t))
            for *_, spec, t in script.draw_cases()
        ]
    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads:
            if name in GROUPS:
                continue
            for seed in seeds:
                ops = wl.build_ops(m, name, seed, Path(scratch))
                out[(name, seed)] = [(op.kind, outcome(op)) for op in ops]
    return out


def run_side(checkout: Path, workloads: list[str], seeds: list[int]) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "outcomes.pickle"
        cmd = [sys.executable, __file__, str(checkout), str(checkout),
               "--collect", str(dump), "--seeds", *map(str, seeds),
               "--workloads", *workloads]
        subprocess.run(cmd, env=env, check=True)
        return pickle.loads(dump.read_bytes())


def differing_keys(a, b, prefix: str = "") -> list[str]:
    """Dotted paths of the dict keys at which ``a`` and ``b`` differ."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [prefix or "(whole)"]
    out = []
    for k in dict.fromkeys([*a, *b]):
        path = f"{prefix}.{k}" if prefix else str(k)
        if k not in a or k not in b:
            out.append(path)
        else:
            out += differing_keys(a[k], b[k], path)
    return out


def compare(parent: dict, change: dict) -> None:
    for key, ops in parent.items():
        tables_differ, worst, moved, lines = 0, 0.0, 0, []
        forms: Counter = Counter()
        one_sided = Counter()  # tables only the parent or only the change returned
        for i, ((kind, a), (_, b)) in enumerate(zip(ops, change[key])):
            ta, tb = a["table"], b["table"]
            same = True
            if (ta is None) != (tb is None):
                same = False
                one_sided["parent" if tb is None else "change"] += 1
            elif ta is not None and ta.shape != tb.shape:
                same, worst = False, float("inf")
            elif ta is not None and not np.array_equal(ta, tb):
                same, worst = False, max(worst, float(np.max(np.abs(ta - tb))))
            tables_differ += not same
            fields = FIELDS
            if a.get("final_residual") != b.get("final_residual"):
                if same:
                    fields += ("final_residual",)
                else:
                    moved += 1
            for field in fields:
                if a.get(field) != b.get(field):
                    lines.append(f"  op {i} {kind}: {field} "
                                 f"{a.get(field)!r} -> {b.get(field)!r}")
            paths = differing_keys(a.get("form"), b.get("form"))
            if paths:
                forms[", ".join(paths)] += 1
        name, seed = key
        label = name if seed is None else f"{name} seed {seed}"
        print(f"{label}: {len(ops)} ops ({len(change[key])} in the change), "
              f"{tables_differ} tables differ, largest cell difference {worst:.3g}, "
              f"{moved} residuals moved with their table, "
              f"{len(lines)} other differences, "
              f"{sum(forms.values())} JSON forms differ")
        if one_sided:
            print(f"  a table on one side only: {one_sided['change']} ops in the change "
                  f"only, {one_sided['parent']} in the parent only; the largest "
                  "cell difference is over the ops with a table on both sides")
        print("\n".join(lines), end="\n" if lines else "")
        for paths, count in forms.items():
            print(f"  JSON form differs at {paths}: {count} ops")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect is not None:
        outcomes = collect(args.parent.resolve(), args.workloads, args.seeds)
        args.collect.write_bytes(pickle.dumps(outcomes))
        return 0
    sides = [run_side(d.resolve(), args.workloads, args.seeds)
             for d in (args.parent, args.change)]
    compare(*sides)
    return 0


if __name__ == "__main__":
    sys.exit(main())
