"""Batch command-line front end.

All subcommands read the documented JSON/text file formats, print one JSON
document (or CSV for the census with --csv) and exit with 0 on success,
1 on a domain error (bad input or usage, invalid structure), 2 on solver
failure.  Given the same arguments the output is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import classify as cls
from . import census, cimodels, markov, solvers
from .errors import MllpError, SolverError, SpecError
from .mll import MLLSpec, MLLVector, jacobian, jacobian_array, lambda_vector
from .tables import JointTable, VarSet, float_array, random_table


def _emit(obj, out) -> None:
    """Serialise the whole document before writing: a failure prints nothing."""
    out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_spec(path: str) -> MLLSpec:
    """The JSON form when the file parses as JSON or opens with ``{``, else
    the text form, whose parser would read JSON punctuation as labels."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        if text.lstrip().startswith("{"):
            raise SpecError(f"invalid spec JSON: {exc}") from None
        return MLLSpec.from_text(text)
    return MLLSpec.from_json_obj(obj)


def _load_table(path: str) -> JointTable:
    return JointTable.from_json(Path(path).read_text())


def _load_statements(path: str) -> list[cimodels.CIStatement]:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        try:
            if not isinstance(obj["variables"], list):
                raise TypeError('"variables" must be a list of names')
            vs = VarSet(tuple(obj["variables"]))
            return [
                cimodels.CIStatement.from_json_obj(vs, s) for s in obj["statements"]
            ]
        except TypeError as exc:
            raise SpecError(f"malformed statement JSON: {exc}") from None
    lines = [
        ln.split("#", 1)[0].strip() for ln in text.splitlines()
    ]
    lines = [ln for ln in lines if ln]
    # the names are the tokens CIStatement.from_text reads
    labels = sorted({tok for ln in lines
                     for tok in re.split(r"_\|\|_|\||[,\s]+", ln) if tok})
    vs = VarSet(tuple(labels))
    return [cimodels.CIStatement.from_text(vs, ln) for ln in lines]


def _cmd_classify(args, out) -> int:
    spec = _load_spec(args.spec)
    report = cls.classify(spec)
    _emit(report.to_json_obj(), out)
    return 0


def _cmd_enumerate(args, out) -> int:
    n = args.vars
    # 12 variables' labelled count has 7 398 digits, past Python's printing
    # limit; orbits take about 8 s at 7 (2-vCPU host), ~32 times more per variable
    if not 1 <= n <= 11:
        raise SpecError(f"--vars must be between 1 and 11, got {n}")
    if args.orbits and n > 7:
        raise SpecError(f"--orbits counts at most 7 variables, got {n}")
    doc: dict = {"variables": n, "labeled_complete": census.labeled_complete_count(n)}
    if args.orbits:
        doc["orbit_count"] = census.burnside_orbit_count(n)
        if n <= 3:
            reps = census.enumerate_complete(n, up_to_symmetry=True)
            doc["orbit_representatives"] = [s.to_json_obj() for s in reps]
    _emit(doc, out)
    return 0


def _cmd_census(args, out) -> int:
    report = census.census(args.vars)
    if args.csv:
        writer = csv.DictWriter(
            out, fieldnames=["orbit", "spec", "margins", "verdict", "first_rule"]
        )
        writer.writeheader()
        for row in report["rows"]:
            writer.writerow({k: row[k] for k in writer.fieldnames})
        return 0
    if not args.rows:
        report = {k: v for k, v in report.items() if k != "rows"}
    _emit(report, out)
    return 0


def _cmd_forward(args, out) -> int:
    table = _load_table(args.table)
    spec = _load_spec(args.spec)
    vec = lambda_vector(table, spec)
    _emit(
        {
            "spec": spec.to_json_obj(),
            "values": [float(v) for v in vec.values],
        },
        out,
    )
    return 0


def _load_lambda(path: str) -> MLLVector:
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise SpecError('parameter JSON needs "spec" and "values" fields')
    spec = MLLSpec.from_json_obj(obj["spec"])
    return MLLVector(spec, float_array(obj["values"], SpecError))


def _cmd_invert(args, out) -> int:
    target = _load_lambda(args.lam)
    opts = solvers.SolveOptions(
        tol=args.tol, max_iter=args.max_iter, method=args.method
    )
    result = solvers.invert(target.spec, target, opts)
    _emit(result.to_json_obj(include_trace=args.trace), out)
    return 0


def _cmd_jacobian(args, out) -> int:
    table = _load_table(args.table)
    spec = _load_spec(args.spec)
    jac = jacobian(table, spec)
    doc = {
        "rows": [
            {"effect": list(spec.vars.names_of(e)), "margin": list(spec.vars.names_of(m))}
            for e, m in spec.pairs
        ],
        "columns": [
            list(spec.vars.names_of(K)) for K in range(1, spec.vars.n_cells)
        ],
        "matrix": [[float(x) for x in row] for row in jac],
    }
    if args.check_fd:
        from .tables import EtaVector, eta_from_table, table_from_eta
        from .mll import lambda_array

        h = 1e-5
        eta = eta_from_table(table).values.copy()
        fd = np.zeros_like(jac)
        for K in range(1, spec.vars.n_cells):
            up = eta.copy()
            up[K] += h
            dn = eta.copy()
            dn[K] -= h
            p_up = table_from_eta(EtaVector(spec.vars, up)).p
            p_dn = table_from_eta(EtaVector(spec.vars, dn)).p
            fd[:, K - 1] = (
                lambda_array(p_up, table.n, spec) - lambda_array(p_dn, table.n, spec)
            ) / (2 * h)
        err = float(np.max(np.abs(fd - jac))) / max(1.0, float(np.max(np.abs(jac))))
        doc["fd_max_rel_error"] = err
    _emit(doc, out)
    return 0


def pair_map_min_singular_value(spec: MLLSpec, p: np.ndarray) -> float:
    """Smallest singular value of the parameter map at a table, counting
    one value per pair: the singular values of the Jacobian padded with the
    zeros a pairs-versus-coefficients dimension gap forces.  Zero means the
    pairs are not locally independent."""
    jac = jacobian_array(p, spec.vars.n, spec)
    sv = np.linalg.svd(jac, compute_uv=False)
    if jac.shape[0] > jac.shape[1]:
        return 0.0
    return float(sv.min())


def _cmd_smooth_test(args, out) -> int:
    if args.samples < 1:
        raise SpecError(f"--samples must be at least 1, got {args.samples}")
    spec = _load_spec(args.spec)
    rng = np.random.default_rng(args.seed)
    mins = []
    for _ in range(args.samples):
        t = random_table(spec.vars, rng)
        mins.append(pair_map_min_singular_value(spec, t.p))
    _emit(
        {
            "samples": args.samples,
            "seed": args.seed,
            "min_singular_value": min(mins),
            "per_sample_min": mins,
        },
        out,
    )
    return 0


def _cmd_markov(args, out) -> int:
    obj = json.loads(Path(args.chain).read_text())
    sweep = markov.CycleChainSpec.from_json_obj(obj).sweep
    kernel = markov._sweep_kernel(sweep)
    pi = markov.stationary_distribution(kernel)
    _emit(
        {
            "variables": list(sweep.vars.names_of(sweep.state)),
            "stationary": [float(x) for x in pi],
            "invariance_residual": float(np.max(np.abs(pi @ kernel - pi))),
        },
        out,
    )
    return 0


def _load_member(path: str, vs: VarSet) -> dict:
    """Free values from a list of {"effect", "margin", "value"} objects."""
    free = {}
    try:
        for item in json.loads(Path(path).read_text()):
            value = item["value"]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(f"member value {value!r} is not a number")
            free[(vs.mask_of(item["effect"]), vs.mask_of(item["margin"]))] = value
    except TypeError as exc:
        raise SpecError(
            f'member JSON needs a list of "effect", "margin", "value" objects: {exc}'
        ) from None
    return free


def _cmd_model(args, out) -> int:
    statements = _load_statements(args.ci)
    ms = cimodels.model_spec(statements)
    doc: dict = {
        "statements": [s.to_text() for s in ms.statements],
        "zero_pairs": [
            {
                "effect": list(ms.statements[0].vars.names_of(e)),
                "margin": list(ms.statements[0].vars.names_of(m)),
            }
            for e, m in ms.zero_pairs
        ],
        "embedding": ms.embedding.to_json_obj() if ms.embedding else None,
    }
    if ms.embedding is None:
        doc["failure"] = "an effect is constrained in two different margins"
    if args.member is not None:
        if ms.embedding is None:
            raise SolverError("NO_EMBEDDING", "model has no complete embedding")
        free = _load_member(args.member, ms.embedding.vars)
        table = cimodels.model_member(ms.embedding, free, statements=ms.statements)
        doc["member"] = {
            "variables": list(table.vars.names),
            "p": [float(x) for x in table.p],
        }
    _emit(doc, out)
    return 0


@functools.cache  # one parser per process: main reads it on every call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mllp",
        description=(
            "Marginal log-linear parameterizations of binary tables: "
            "evaluate, classify smoothness, invert."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="smoothness verdict and rule chain")
    p.add_argument("--spec", required=True, help="spec file (JSON or text)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="count complete collections")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--orbits", action="store_true",
                   help="also count (and for <=3 variables list) relabeling orbits;"
                   " at most 7 variables")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("census", help="classify all 3-variable orbits")
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--csv", action="store_true", help="per-orbit CSV table")
    p.add_argument("--rows", action="store_true", help="include per-orbit rows in JSON")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("forward", help="evaluate parameters on a table")
    p.add_argument("--table", required=True)
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("invert", help="recover the table from parameter values")
    p.add_argument("--lambda", dest="lam", required=True,
                   help='JSON file {"spec": ..., "values": [...]}')
    p.add_argument("--method", default="AUTO", choices=solvers.METHODS)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--trace", action="store_true", help="include residual trace")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("jacobian", help="analytic parameter Jacobian at a table")
    p.add_argument("--table", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--check-fd", action="store_true",
                   help="compare against central finite differences")
    p.set_defaults(func=_cmd_jacobian)

    p = sub.add_parser("smooth-test",
                       help="minimum Jacobian singular value over random tables")
    p.add_argument("--spec", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_smooth_test)

    p = sub.add_parser("markov", help="stationary distribution of a conditional cycle")
    p.add_argument("--chain", required=True, help="cycle JSON file")
    p.set_defaults(func=_cmd_markov)

    p = sub.add_parser("model", help="zero pairs and embedding of CI statements")
    p.add_argument("--ci", required=True, help="statement file (text or JSON)")
    p.add_argument("--member", default=None,
                   help="JSON file of free values; solve for a member table")
    p.set_defaults(func=_cmd_model)

    return ap


def main(argv: list[str] | None = None, out=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2, the solver-failure code
        return 1 if exc.code else 0
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (MllpError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
