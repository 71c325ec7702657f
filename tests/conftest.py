import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mllp.markov import CycleChainSpec
from mllp.mll import MLLSpec
from mllp.tables import ConditionalTable, JointTable, VarSet

from oracles import chain_from_joint

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def load_script(name: str):
    """The module ``scripts/<name>.py``, imported from its file."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    loader = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    return script


def make_vars(n: int) -> VarSet:
    return VarSet(tuple(str(i + 1) for i in range(n)))


def outside_domain_values() -> list[float]:
    """Free values of the CI_LOOP_THREE model, in ``free_pairs`` order,
    that no member table has."""
    draws = np.random.default_rng(2026).uniform(-1.2, 1.2, (13, 32))
    return [float(v) for v in draws[12, :9]]


def dirichlet_table(vs: VarSet, rng: np.random.Generator) -> JointTable:
    return JointTable(vs, rng.dirichlet(np.ones(vs.n_cells)))


# Cycles whose conditionals list their names out of variable order:
# (number of variables, blocks, {conditional: (target reversed, given reversed)}).
# A block other than the first, reversed in both of its conditionals, only
# relabels an inner state of the cycle; the first block's order is that of
# the stationary vector.
RELISTED_CYCLES = {
    "target-reversed": (3, (0b001, 0b110), {0: (True, False)}),
    "given-reversed": (3, (0b001, 0b110), {1: (False, True)}),
    "first-block-reversed": (
        4, (0b0110, 0b0001, 0b1000), {0: (False, True), 2: (True, False)}
    ),
    "both-blocks-reversed": (4, (0b0011, 0b1100), {0: (True, True), 1: (True, True)}),
}


def relist(cond: ConditionalTable, target: tuple, given: tuple) -> ConditionalTable:
    """The same conditional with its names listed as ``target`` and
    ``given``: a cell index packs the listed names' values, first at bit 0."""

    def old_index(old: tuple, new: tuple) -> np.ndarray:
        cells = np.arange(1 << len(new))
        out = np.zeros_like(cells)
        for j, name in enumerate(old):
            out |= ((cells >> new.index(name)) & 1) << j
        return out

    rows = old_index(cond.target, target)
    cols = old_index(cond.given, given)
    return ConditionalTable(target, given, cond.values[np.ix_(rows, cols)])


def relisted_cycle(
    case: str, rng: np.random.Generator
) -> tuple[JointTable, CycleChainSpec]:
    """A Dirichlet(1) table and its cycle of conditionals, with the names of
    the conditionals of ``RELISTED_CYCLES[case]`` listed in reverse."""
    n, blocks, reversed_names = RELISTED_CYCLES[case]
    t = dirichlet_table(make_vars(n), rng)
    chain = chain_from_joint(t, blocks)
    conds = list(chain.conditionals)
    for i, (rev_target, rev_given) in reversed_names.items():
        c = conds[i]
        conds[i] = relist(
            c,
            c.target[::-1] if rev_target else c.target,
            c.given[::-1] if rev_given else c.given,
        )
    return t, CycleChainSpec(t.vars, blocks, tuple(conds))


def underflow_case() -> tuple[MLLSpec, JointTable]:
    """Hierarchical collection and skewed table (case 182 of
    scripts/skewed_roundtrip.py: Dirichlet(0.05) floored at 1e-14) whose
    margin-by-margin reconstruction by Newton steps alone drives a cell
    to 0."""
    spec = MLLSpec.from_text(
        "123: 1 2 12 3 13 23 123\n4: 4\n134: 14 34 134\n1234: 24 124 234 1234\n"
    )
    p = [
        0.2555199411597697, 8.471715827569135e-13, 1.459465737119959e-08,
        8.041161422692839e-09, 2.1235620863159704e-08, 1.2492040951322629e-14,
        9.999999999999602e-15, 9.999999999999602e-15, 9.999999999999602e-15,
        5.802824459108313e-06, 9.999999999999602e-15, 0.21181522674840333,
        0.17206769598301253, 0.25111728954670837, 0.0739346904398123,
        0.03553930942549541,
    ]
    return spec, JointTable(spec.vars, np.array(p))


def record_criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
