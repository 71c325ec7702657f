"""The four workloads: operations built from seeded inputs, with checks.

An :class:`Op` runs one user-level operation against ``mllp`` and checks
its output against :mod:`reference`.  ``check`` returns None when the
output is right and a description of the fault otherwise; ``verdict``
condenses the output for the run's verdict digest.
"""

from __future__ import annotations

import functools
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import inputs
import reference

CELL_TOL = 1e-8  # the acceptance suite's cell tolerance for inverted tables
LAMBDA_TOL = 1e-9
JACOBIAN_TOL = 1e-6
CI_TOL = 1e-9
CENSUS_MIN_SMOOTH = 61  # proven-smooth orbits in mllp 0.1.0


class CommandFailed(Exception):
    """The CLI returned a nonzero exit code."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    verdict: Callable[[object], str] = lambda result: "ok"


# Per-operation wall-clock budget of each workload, in seconds.  In the
# classification sweep every classification that completes takes under
# 0.8 s on a 2-core x86 machine, while the known non-terminating ones run
# until stopped; 1.5 s separates the two.
BUDGET_S = {
    "classify-sweep": 1.5,
    "invert-routes": 5.0,
    "fallback-models": 10.0,
    "large-tables": 30.0,
}


def import_mllp() -> SimpleNamespace:
    import mllp  # noqa: F401
    from mllp import cimodels, classify, cli, errors, mll, solvers, tables

    return SimpleNamespace(
        cimodels=cimodels, classify=classify, cli=cli, errors=errors,
        mll=mll, solvers=solvers, tables=tables,
    )


def _vars(m, n: int):
    return m.tables.VarSet(tuple(str(i + 1) for i in range(n)))


def _spec(m, n: int, pairs):
    return m.mll.MLLSpec(_vars(m, n), tuple(pairs))


def _cell_error(got: np.ndarray, want: np.ndarray) -> str | None:
    err = float(np.max(np.abs(np.asarray(got) - want)))
    return None if err <= CELL_TOL else f"max cell error {err:.3e} > {CELL_TOL}"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def census_op(m) -> Op:
    def run():
        out = io.StringIO()
        code = m.cli.main(["census", "--vars", "3", "--rows"], out=out)
        if code != 0:
            raise CommandFailed(f"exit code {code}")
        return json.loads(out.getvalue())

    def check(doc):
        if doc["complete_orbits"] != doc["burnside_orbits"]:
            return (f"{doc['complete_orbits']} orbits, Burnside count "
                    f"{doc['burnside_orbits']}")
        if len(doc["rows"]) != doc["complete_orbits"]:
            return "census rows do not match the orbit count"
        if doc["proven_smooth_total"] < CENSUS_MIN_SMOOTH:
            return f"only {doc['proven_smooth_total']} proven-smooth orbits"
        return None

    def verdict(doc):
        return ";".join(f"{r['spec']}={r['verdict']}" for r in doc["rows"])

    return Op("census", run, check, verdict)


def classify_op(m, n: int, pairs) -> Op:
    spec = _spec(m, n, pairs)
    cls = m.classify

    def check(report):
        if report.spec != spec:
            return "report is about another collection"
        if report.verdict == cls.PROVEN_SMOOTH:
            return None if report.rule_chain else "proof without a rule chain"
        if report.verdict == cls.NOT_SMOOTH_INCOMPLETE:
            return "complete collection reported incomplete"
        return None

    return Op(
        "classify",
        lambda: cls.classify(spec),
        check,
        lambda report: f"{report.verdict}:{'>'.join(report.chain_names())}",
    )


def invert_op(m, n: int, pairs, p: np.ndarray, method: str = "AUTO") -> Op:
    """Forward map of ``p``, then inversion back to a table."""
    spec = _spec(m, n, pairs)
    opts = m.solvers.SolveOptions(method=method)

    def run():
        table = m.tables.JointTable(spec.vars, p)
        return m.solvers.invert(spec, m.mll.lambda_vector(table, spec), opts)

    return Op(
        "invert" if method == "AUTO" else f"invert_{method.lower()}",
        run,
        lambda res: _cell_error(res.table.p, p),
        lambda res: res.method_used,
    )


def invert_cli_op(m, n: int, pairs, p: np.ndarray, path: Path) -> Op:
    spec = _spec(m, n, pairs)
    values = reference.lambdas(p, n, spec.pairs)
    path.write_text(json.dumps(
        {"spec": spec.to_json_obj(), "values": [float(v) for v in values]}
    ))

    def run():
        out = io.StringIO()
        code = m.cli.main(["invert", "--lambda", str(path)], out=out)
        if code != 0:
            raise CommandFailed(f"exit code {code}")
        return json.loads(out.getvalue())

    return Op(
        "invert_cli",
        run,
        lambda doc: _cell_error(doc["table"]["p"], p),
        lambda doc: doc["method_used"],
    )


def member_op(m, model: str, values: np.ndarray) -> Op:
    cfg = inputs.CI_MODELS[model]
    n = cfg["n"]
    vs = _vars(m, n)
    cim = m.cimodels
    statements = [cim.CIStatement.from_text(vs, s) for s in cfg["statements"]]
    ms = cim.model_spec(statements)
    if cfg["embedding"] is None:
        embedding = ms.embedding
        zero = set(ms.zero_pairs)
    else:
        embedding = _spec(m, n, inputs.parse_spec(cfg["embedding"], n)[1])
        zero = {pair for s in statements for pair in cim.ci_to_zero_params(s)}
    free_pairs = [pair for pair in embedding.pairs if pair not in zero]
    free = {pair: float(v) for pair, v in zip(free_pairs, values)}
    want = np.array([free.get(pair, 0.0) for pair in embedding.pairs])

    def check(table):
        got = reference.lambdas(table.p, n, embedding.pairs)
        err = float(np.max(np.abs(got - want)))
        if err > CELL_TOL:
            return f"member parameters off by {err:.3e}"
        for s in statements:
            gap = reference.ci_gap(table.p, n, s.a, s.b, s.c)
            if gap > CI_TOL:
                return f"member violates {s.to_text()!r} by {gap:.3e}"
        return None

    return Op(
        "member",
        lambda: cim.model_member(embedding, free, statements=statements),
        check,
    )


def forward_op(m, n: int, pairs, p: np.ndarray) -> Op:
    spec = _spec(m, n, pairs)

    def check(vec):
        want = reference.lambdas(p, n, spec.pairs)
        err = float(np.max(np.abs(vec.values - want)))
        return None if err <= LAMBDA_TOL else f"parameters off by {err:.3e}"

    return Op(
        "forward",
        lambda: m.mll.lambda_vector(m.tables.JointTable(spec.vars, p), spec),
        check,
    )


def jacobian_op(m, n: int, pairs, p: np.ndarray, direction: np.ndarray) -> Op:
    spec = _spec(m, n, pairs)

    def check(jac):
        want = reference.directional_derivative(p, n, spec.pairs, direction)
        err = float(np.max(np.abs(jac @ direction - want)))
        scale = 1.0 + float(np.max(np.abs(want)))
        if err > JACOBIAN_TOL * scale:
            return f"directional derivative off by {err:.3e}"
        return None

    return Op(
        "jacobian",
        lambda: m.mll.jacobian(m.tables.JointTable(spec.vars, p), spec),
        check,
    )


# ---------------------------------------------------------------------------
# Building a workload
# ---------------------------------------------------------------------------

BUILDERS = {
    "census": census_op,
    "classify": classify_op,
    "invert": invert_op,
    "invert_hierarchical": functools.partial(invert_op, method="HIERARCHICAL"),
    "invert_cli": invert_cli_op,
    "member": member_op,
    "forward": forward_op,
    "jacobian": jacobian_op,
}


def build_ops(m, name: str, seed: int, scratch: Path) -> list[Op]:
    """The workload's operations for ``seed``; item keys are builder arguments."""
    ops = []
    for i, item in enumerate(inputs.WORKLOAD_INPUTS[name](seed)):
        args = {k: v for k, v in item.items() if k != "kind"}
        if item["kind"] == "invert_cli":
            args["path"] = scratch / f"lambda-{i}.json"
        ops.append(BUILDERS[item["kind"]](m, **args))
    return ops


def warmup_ops(m, name: str, scratch: Path) -> list[Op]:
    """Cheap operations of each kind the workload runs, on fixed inputs
    outside the measured set."""
    rng = np.random.default_rng(0)
    n3, chain = inputs.parse_spec("12: 1 2 12; 23: 3 23")
    p3 = inputs.positive_table(rng, 3)
    if name == "classify-sweep":
        return [census_op(m), classify_op(m, n3, chain)]
    if name == "invert-routes":
        return [
            invert_op(m, n3, chain, p3),
            invert_cli_op(m, n3, chain, p3, scratch / "lambda-warmup.json"),
        ]
    if name == "fallback-models":
        n, pairs = inputs.parse_spec(inputs.OPEN_FOUR_MARGIN)
        return [
            invert_op(m, n, pairs, inputs.positive_table(rng, n)),
            member_op(m, "ci_loop_four", rng.uniform(-0.6, 0.6, 32)),
        ]
    if name == "large-tables":
        direction = rng.normal(size=7)
        return [
            forward_op(m, n3, chain, p3),
            jacobian_op(m, n3, chain, p3, direction),
            invert_op(m, n3, chain, p3, "HIERARCHICAL"),
        ]
    raise ValueError(f"unknown workload {name!r}")
