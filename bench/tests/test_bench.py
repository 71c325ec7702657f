"""Tests of the benchmark itself: inputs, span arithmetic, tracing, budget.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(inputs.WORKLOAD_INPUTS))
def test_same_seed_gives_identical_inputs(name):
    make = inputs.WORKLOAD_INPUTS[name]
    assert _same(make(7), make(7))
    assert not _same(make(7), make(8))


@pytest.mark.parametrize("name", sorted(inputs.WORKLOAD_INPUTS))
def test_generated_collections_are_complete(name):
    for item in inputs.WORKLOAD_INPUTS[name](3):
        if "pairs" not in item:
            continue
        full = (1 << item["n"]) - 1
        effects = sorted(e for e, _ in item["pairs"])
        assert effects == list(range(1, full + 1))
        assert all(e & ~m == 0 and m & ~full == 0 for e, m in item["pairs"])
        if "p" in item:
            assert item["p"].shape == (full + 1,)
            assert item["p"].min() > 0 and abs(item["p"].sum() - 1) < 1e-12


def test_frozen_lists_parse():
    assert len(inputs.spec_lines(inputs.SMOOTH_ORBITS_N3)) == 61
    assert len(inputs.spec_lines(inputs.UNDECIDED_ORBITS_N3)) == 43
    for n, pairs in inputs.spec_lines(inputs.SMOOTH_ROUTES_N45):
        assert n in (4, 5) and sorted(e for e, _ in pairs) == list(range(1, 1 << n))


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("c", 6.0, 7.0, 2, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    # overlapping children are counted once
    overlap = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
    ]
    assert tracing.self_times(overlap)[0] == pytest.approx(5.0)
    assert tracing.nesting_depths(spans, "b") == [0, 0, 1, 1]


def test_layer_metrics_count_calls_failures_and_skip_ops():
    spans = [
        Span("solvers.invert", 0.0, 5.0, -1, 0),
        Span("solvers.invert_newton", 1.0, 2.0, 0, 0, failed=True),
        Span("solvers.invert_newton", 2.0, 4.0, 0, 0, count=7.0),
        Span("tables.fwht", 2.5, 3.0, 2, 0, count=8.0),
        Span("classify.classify", 6.0, 9.0, -1, 1),
        Span("classify.classify", 7.0, 8.0, 4, 1),
        Span("classify.classify", 10.0, 11.0, -1, 2),
    ]
    out = tracing.layer_metrics(spans, skip_ops={2}, move_limit=256)
    assert out["solvers.invert.calls"] == 1
    assert out["solvers.invert.self_s"] == pytest.approx(2.0)
    assert out["solvers.invert_newton.calls"] == 2
    assert out["solvers.invert_newton.failed"] == 1
    assert out["solvers.invert_newton.iterations"] == 7.0
    assert out["solvers.invert_newton.success_ratio"] == 0.5
    assert out["solvers.invert_newton.self_s"] == pytest.approx(2.5)
    assert out["tables.fwht.cells"] == 8.0
    assert out["classify.classify.calls"] == 2
    assert out["classify.classify.max_depth"] == 2
    assert out["solvers.invert_fixed_point.success_ratio"] == 0.0


def test_traced_run_restores_module_bindings():
    from mllp import cimodels, cli, mll, solvers, tables  # noqa: F401
    from mllp.catalog import CHAIN_THREE

    original = tables.fwht
    before = tracing.bindings()
    with tracing.Tracer() as tracer:
        for mod in (tables, mll, solvers, cimodels):
            assert mod.fwht is not original
        tracer.begin_op(0)
        t = tables.JointTable(CHAIN_THREE.vars, inputs.positive_table(
            np.random.default_rng(0), 3))
        res = solvers.invert(CHAIN_THREE, mll.lambda_vector(t, CHAIN_THREE))
        assert np.max(np.abs(res.table.p - t.p)) < 1e-8
    assert tracing.bindings() == before
    assert tables.fwht is original and solvers.fwht is original
    names = {s.name for s in tracer.spans}
    assert {"solvers.invert", "classify.classify", "tables.fwht"} <= names
    top = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in top] == ["mll.lambda_array", "solvers.invert"]


class _Op:
    kind = "test"

    def __init__(self, run):
        self.run = run
        self.check = lambda result: None
        self.verdict = lambda result: "ok"


def test_budget_and_recursion_are_counted_failures():
    budget = measure.Budget()

    def spin():
        while True:
            pass

    def recurse():
        return recurse()

    def deep(k=measure.RECURSION_FRAMES + 10):
        return spin() if k == 0 else deep(k - 1)

    rec = measure.run_op(0, _Op(spin), budget, 0.05, ValueError)
    assert rec.failure == "budget" and 0.05 <= rec.seconds < 1.0
    assert measure.run_op(0, _Op(deep), budget, 0.05, ValueError).failure == "recursion"
    assert measure.run_op(1, _Op(recurse), budget, 5.0, ValueError).failure == "recursion"
    assert measure.run_op(2, _Op(lambda: 1), budget, 5.0, ValueError).failure is None


def test_tail_percentile_leaves_ten_samples_beyond():
    assert measure.tail_percentile(112) == 90.0
    assert measure.tail_percentile(55) == 75.0
    assert measure.tail_percentile(1000) == 99.0
    assert measure.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert measure.percentile([1.0, 2.0], 75.0) == 1.75


def test_end_to_end_scales_to_reference_speed_except_budget_stops():
    ref = measure.PROBE_REF_S
    done = [measure.Record(i, 0.01, ref / 2, None) for i in range(20)]
    stopped = measure.Record(20, 2.0, ref / 2, "budget", stopped=True)
    out = measure.end_to_end(done + [stopped], 21, budget_s=2.0)
    assert out["latency_p50_ms"] == pytest.approx(20.0)  # host twice the reference speed
    assert out["throughput_ops_s"] == pytest.approx(20 / (20 * 0.02 + 2.0))
    assert out["failed"] == 1
    wall = measure.end_to_end(done + [stopped], 21, budget_s=2.0, scaled=False)
    assert wall["latency_p50_ms"] == pytest.approx(10.0)
