import numpy as np
import pytest

from mllp.mll import MLLSpec
from mllp.tables import JointTable, VarSet

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_vars(n: int) -> VarSet:
    return VarSet(tuple(str(i + 1) for i in range(n)))


def outside_domain_values() -> list[float]:
    """Free values of the CI_LOOP_THREE model, in ``free_pairs`` order,
    that no member table has."""
    draws = np.random.default_rng(2026).uniform(-1.2, 1.2, (13, 32))
    return [float(v) for v in draws[12, :9]]


def dirichlet_table(vs: VarSet, rng: np.random.Generator) -> JointTable:
    return JointTable(vs, rng.dirichlet(np.ones(vs.n_cells)))


def underflow_case() -> tuple[MLLSpec, JointTable]:
    """Hierarchical collection and skewed table (case 182 of
    scripts/skewed_roundtrip.py: Dirichlet(0.05) floored at 1e-14) whose
    margin-by-margin reconstruction drives a cell to 0."""
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
