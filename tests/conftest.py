import numpy as np
import pytest

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
