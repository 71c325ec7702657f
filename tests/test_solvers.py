import importlib
import itertools
import math
import pkgutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mllp
from mllp import catalog
from mllp import mixed, mll, solvers
from mllp.census import canonical_form, census, enumerate_complete, permute_mask
from mllp.classify import (
    CONTRACTION_RULE,
    PROVEN_SMOOTH,
    UNKNOWN,
    RuleStep,
    _RULE_FUNCS,
    classify,
    rule_applies,
)
from mllp.cimodels import CIStatement, model_member, model_spec
from mllp.errors import (
    ALL_METHODS_FAILED,
    DIVERGENCE,
    IncompleteSpecError,
    INCONSISTENT_MARGINS,
    InvalidTableError,
    NON_CONVERGENCE,
    SolverError,
    SpecError,
    StructureError,
)
from mllp.mll import (
    MLLSpec,
    MLLVector,
    jacobian,
    lambda_vector,
)
from mllp.markov import (
    CycleChainSpec,
    stationary,
    stationary_distribution,
)
from mllp.mixed import reconstruct_mixed
from mllp.solvers import (
    SolveOptions,
    contraction_certificate,
    invert,
    invert_cyclic,
    invert_fixed_point,
    invert_hierarchical,
    invert_newton,
)
from mllp.tables import (
    EtaVector,
    JointTable,
    VarSet,
    compress,
    condition,
    eta_from_table,
    fwht,
    marginal_array,
    marginalize,
    nonempty_submasks,
    popcount,
    table_from_eta,
    table_from_probs,
    uniform_table,
)

from conftest import (
    RELISTED_CYCLES,
    dirichlet_table,
    load_script,
    make_vars,
    relisted_cycle,
    underflow_case,
)
from oracles import (
    _least_squares_step,
    brute_contraction_subsystem,
    brute_fixed_point,
    brute_hierarchical_step,
    brute_lambda,
    brute_reconstruct_mixed,
    brute_shape,
    brute_stationary,
    chain_from_joint,
    conditional_from_lambda,
    hierarchy_order,
    margin_cells,
    stationary_power,
)
from test_classify import full_margin_rest, search_sizes_sample


def zero_target(spec: MLLSpec) -> MLLVector:
    return MLLVector(spec, np.zeros(len(spec)))


def skewed_roundtrip_cases(numbers: set[int]) -> list[tuple[MLLSpec, JointTable]]:
    """The spec and table of the given cases of scripts/skewed_roundtrip.py,
    numbered as it numbers them with ``--alpha 0.02``."""
    draws = load_script("skewed_roundtrip").draw_cases(0.02)
    cases = itertools.islice(draws, max(numbers) + 1)
    return [(spec, t) for case, _, _, spec, t in cases if case in numbers]


class TestFixedPoint:
    def test_zero_target_hits_uniform_first_sweep(self):
        spec = catalog.TWO_BLOCK_FIXPOINT
        res = invert_fixed_point(spec, zero_target(spec))
        assert res.iterations == 1
        assert np.allclose(res.table.p, 1 / 8, atol=1e-12)

    def test_roundtrip_on_fixpoint_example(self, rng):
        spec = catalog.TWO_BLOCK_FIXPOINT
        for _ in range(10):
            t = dirichlet_table(spec.vars, rng)
            res = invert_fixed_point(spec, lambda_vector(t, spec))
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    def test_roundtrip_on_hierarchical_chain(self, rng):
        spec = catalog.CHAIN_THREE
        for _ in range(10):
            t = dirichlet_table(spec.vars, rng)
            res = invert_fixed_point(spec, lambda_vector(t, spec))
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    def test_residual_trace_decreases(self, rng):
        spec = catalog.TWO_BLOCK_FIXPOINT
        t = dirichlet_table(spec.vars, rng)
        res = invert_fixed_point(spec, lambda_vector(t, spec))
        eps = t.min_cell
        for a, b in zip(res.trace, res.trace[1:]):
            if a > 1e-13:
                assert b <= (1 - eps) * a + 1e-15

    def test_non_convergence_reports_trace(self, rng):
        spec = catalog.TWO_BLOCK_FIXPOINT
        t = dirichlet_table(spec.vars, rng)
        with pytest.raises(SolverError) as err:
            invert_fixed_point(
                spec, lambda_vector(t, spec), SolveOptions(tol=1e-14, max_iter=2)
            )
        assert err.value.kind == NON_CONVERGENCE
        assert len(err.value.trace) == 2

    def test_stall_stops_failing_member(self):
        # a CI_FIVE_VAR member outside the parameter domain: the plain
        # sweeps settle at residual 0.29 by sweep 22 and, without the stall
        # stop, sweep on without moving (5 000 sweeps in a probe).  The
        # mixed iteration bottoms out at iteration 20; its stall switches
        # the mixing off at 38, and the plain sweeps after it stall at 138.
        vs = make_vars(5)
        stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_FIVE_VAR]
        ms = model_spec(stmts)
        draw = np.random.default_rng(2026).uniform(-1.2, 1.2, 32)
        free = dict(zip(ms.free_pairs, (float(v) for v in draw)))
        values = [free.get(pair, 0.0) for pair in ms.embedding.pairs]
        target = MLLVector(ms.embedding, np.array(values))
        opts = SolveOptions(max_iter=2000)
        with pytest.raises(SolverError, match="stalled") as err:
            invert_fixed_point(ms.embedding, target, opts)
        assert err.value.kind == NON_CONVERGENCE
        assert len(err.value.trace) <= 150
        assert_matches_oracle(ms.embedding, target, opts)
        with pytest.raises(SolverError) as err:
            model_member(ms.embedding, free, statements=stmts)
        assert err.value.kind == NON_CONVERGENCE

    def test_mixing_takes_half_the_plain_sweeps(self):
        # AUTO's fallback solve over one Dirichlet(1) table of each
        # undecided orbit: the mixed iteration sweeps at most half as often
        # as the plain one, and converges wherever the plain one does
        rng = np.random.default_rng(8)
        rows = [r for r in census(3)["rows"] if r["verdict"] == UNKNOWN]
        opts = SolveOptions(max_iter=2000)
        mixed = plain = 0
        for row in rows:
            spec = _spec_line(row["spec"])
            target = lambda_vector(dirichlet_table(spec.vars, rng), spec)
            want = brute_fixed_point(spec, target, opts)
            mixed += invert_fixed_point(spec, target, opts).iterations
            plain += want.iterations
        assert 2 * mixed <= plain  # 362 and 769

    def test_incomplete_spec_rejected(self):
        with pytest.raises(StructureError):
            invert_fixed_point(
                catalog.REPEATED_EFFECT, zero_target(catalog.REPEATED_EFFECT)
            )


# Collections proven through a fixed-point base rule at 4 and 5 variables
# (the rule chain after the #); AUTO inversion runs the fixed point on them
# or, after the reductions, on a smaller collection.
FIXED_POINT_RULES = {"two_margin", "single_feedback"}
FIXED_POINT_ROUTES_N45 = [
    "1234: 1 2 13 23 123 134 234 1234; 124: 12 14 24 124; 134: 3 4 34",  # single_feedback
    "1234: 1 2 12 13 123 4 14 124 34 134 234 1234; 234: 3 23 24",  # two_margin
    "12: 1; 23: 2 23; 1234: 12 3 13 123 4 14 24 124 34 134 234 1234",  # variable_removal>single_feedback
    "134: 1 14 134; 234: 2 24 234; 1234: 12 3 13 23 123 124 34 1234; 34: 4",  # contraction_reduce>two_margin
    "12345: 1 3 13 4 14 124 34 134 234 1234 5 15 25 35 135 1235 45 145 245 1245 "
    "345 1345 2345 12345; 234: 2 24; 1235: 12 23 123 125 235",  # single_feedback
    "124: 1 14 124; 12345: 2 12 3 13 23 123 4 24 34 134 234 1234 5 15 25 125 35 "
    "135 235 1235 45 145 245 1245 345 1345 2345 12345",  # two_margin
    "145: 1 45; 12345: 2 12 23 123 4 24 124 34 134 234 1234 5 15 25 125 35 135 "
    "235 1235 145 245 1245 345 1345 2345 12345; 1345: 3 13 14",  # variable_removal>two_margin
]


def _spec_line(text: str) -> MLLSpec:
    return MLLSpec.from_text(text.replace("; ", "\n"))


def _drop_one_spec(n: int, dropped: tuple[int, ...]) -> MLLSpec:
    """Each effect in the first of the margins that drop one of the
    ``dropped`` variables, or else in the full margin."""
    full = (1 << n) - 1
    order = [full ^ (1 << v) for v in dropped] + [full]
    return MLLSpec(make_vars(n), tuple(
        (e, next(m for m in order if e & ~m == 0)) for e in range(1, full + 1)
    ))


def cyclic_probe_table(name: str, alpha: float, draw: int) -> JointTable:
    """Table ``draw`` of scripts/cyclic_probe.py for one collection and alpha."""
    probe = load_script("cyclic_probe")
    vs = probe.COLLECTIONS[name].vars
    p = np.random.default_rng(probe.SEED).dirichlet(
        np.full(vs.n_cells, alpha), probe.DRAWS
    )[draw]
    p = np.maximum(p, probe.FLOOR)
    return JointTable(vs, p / p.sum())


def _skewed_table(vs, rng) -> JointTable:
    """Dirichlet(0.3) draw, floored at 1e-9 so that every cell is valid."""
    p = np.maximum(rng.dirichlet(np.full(vs.n_cells, 0.3)), 1e-9)
    return JointTable(vs, p / p.sum())


def _outcome(solve, spec, target, opts):
    try:
        return solve(spec, target, opts)
    except (SolverError, StructureError) as exc:
        return exc


def assert_matches_oracle(spec, target, opts=SolveOptions()):
    """The solver against the per-pair oracle, whose plain iteration runs
    once.  Sweep by sweep: the solver's plain sweep and residual from zero
    eta give the oracle's residuals over all its sweeps and, where a sweep
    of the oracle overflows, the same error kind in the same sweep.  By
    outcome: where the oracle converges, the accelerated solve converges
    to a table within 1e-8 of the oracle's, with a certificate where the
    oracle has one; where it fails, the solve raises SolverError or
    converges.  Returns the oracle's result or error."""
    want = _outcome(brute_fixed_point, spec, target, opts)
    got = _outcome(invert_fixed_point, spec, target, opts)
    if isinstance(want, StructureError):
        assert isinstance(got, StructureError)
        return want
    stages = solvers._stages(spec, target)
    eta = np.zeros(spec.vars.n_cells)
    residuals = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in want.trace:
            eta = solvers._sweep(eta, stages)
            residuals.append(solvers._residual(eta, stages)[0])
        if isinstance(want, SolverError) and "log scale" in str(want):
            with pytest.raises(SolverError) as err:
                solvers._residual(solvers._sweep(eta, stages), stages)
            assert err.value.kind == want.kind
    np.testing.assert_allclose(residuals, want.trace, rtol=1e-9, atol=1e-12)
    if isinstance(want, SolverError):
        assert isinstance(got, (SolverError, solvers.SolveResult))
        return want
    assert isinstance(got, solvers.SolveResult), got
    assert float(np.max(np.abs(got.table.p - want.table.p))) <= 1e-8
    if want.contraction_certificate is None:
        assert got.contraction_certificate is None
    else:
        assert abs(got.contraction_certificate - want.contraction_certificate) <= 1e-7
    return want


class TestCompiledSweep:
    def test_undecided_orbits_match_oracle(self):
        rng = np.random.default_rng(8)
        rows = [r for r in census(3)["rows"] if r["verdict"] == UNKNOWN]
        assert len(rows) == 43
        opts = SolveOptions(max_iter=2000)
        kinds = set()
        for row in rows:
            spec = _spec_line(row["spec"])
            for draw in (dirichlet_table, _skewed_table):
                target = lambda_vector(draw(spec.vars, rng), spec)
                want = assert_matches_oracle(spec, target, opts)
                kinds.add(getattr(want, "kind", "converged"))
        assert "converged" in kinds

    def test_route_stages_match_oracle(self, monkeypatch):
        # every fixed-point stage that AUTO inversion runs on the census
        # orbits proven through a fixed-point rule and on the collections
        # above, with its own spec and target
        stages = []

        def record(spec, target, opts=SolveOptions()):
            stages.append((spec, target, opts))
            return brute_fixed_point(spec, target, opts)

        specs = [
            spec for spec in (_spec_line(r["spec"]) for r in census(3)["rows"])
            if FIXED_POINT_RULES & {s.rule for s in classify(spec).rule_chain}
        ]
        specs += [_spec_line(text) for text in FIXED_POINT_ROUTES_N45]
        rng = np.random.default_rng(9)
        monkeypatch.setattr(solvers, "invert_fixed_point", record)
        for spec in specs:
            for draw in (dirichlet_table, _skewed_table):
                table = draw(spec.vars, rng)
                res = invert(spec, lambda_vector(table, spec))
                assert float(np.max(np.abs(res.table.p - table.p))) < 1e-8
        monkeypatch.undo()
        for rule in FIXED_POINT_RULES:
            assert any(rule_applies(s, rule) is not None for s, *_ in stages)
        assert {s.vars.n for s, *_ in stages} == {3, 4, 5}
        for stage in stages:
            assert_matches_oracle(*stage)

    def test_sweeps_from_the_residual_match_fresh_sweeps(self, monkeypatch):
        # a sweep takes its first proper block from the residual at the same
        # point; computing it afresh changes no bit of any solve: mixed,
        # plain, stalled or diverging, on the undecided orbits and the
        # open collections of the fallback
        rng = np.random.default_rng(36)
        specs = [_spec_line(r["spec"]) for r in census(3)["rows"]
                 if r["verdict"] == UNKNOWN]
        specs += [catalog.OPEN_FOUR_MARGIN, catalog.TWO_ANCHOR_CYCLE]
        cases = [
            (spec, lambda_vector(draw(spec.vars, rng), spec))
            for spec in specs for draw in (dirichlet_table, _skewed_table)
        ]
        # and the draws of scripts/fixed_point_probe.py that the fixed
        # point fails at alpha 0.05
        probe = load_script("fixed_point_probe")
        draws = np.random.default_rng(probe.SEED)
        tables = [probe.draw_table(draws, spec, 0.05) for spec in probe.targets()]
        for i in (9, 94, 154, 175, 176, 177):
            spec = probe.targets()[i]
            cases.append((spec, lambda_vector(tables[i], spec)))
        opts = SolveOptions(max_iter=2000)

        def record(case):
            got = _outcome(invert_fixed_point, *case, opts)
            if isinstance(got, Exception):
                return type(got), str(got), getattr(got, "trace", None)
            return (got.table.p.tobytes(), got.iterations, got.final_residual,
                    got.trace, got.contraction_certificate)

        real = solvers._sweep
        given = []

        def spy(eta, st, first=None):
            given.append(first is not None)
            return real(eta, st, first)

        monkeypatch.setattr(solvers, "_sweep", spy)
        reused = [record(case) for case in cases]
        assert given.count(False) == len(cases) < given.count(True)
        monkeypatch.setattr(solvers, "_sweep",
                            lambda eta, st, first=None: real(eta, st))
        assert [record(case) for case in cases] == reused

    def test_log_scale_overflow_diverges_at_the_oracles_sweep(self):
        # targets far outside the parameter domain: the log scale overflows,
        # or a margin cell underflows to 0, within a few sweeps.  The oracle
        # sums its margins from the same unnormalised weights, so the plain
        # sweep overflows in the oracle's sweep for every seed.
        overflows = 0
        for text in ("1: 1; 12: 2 12; 13: 3; 23: 23; 123: 13 123",
                     "1: 1; 2: 2; 12: 12; 13: 3; 123: 13 23 123"):
            spec = _spec_line(text)
            for seed in range(12):
                values = np.random.default_rng(seed).uniform(-300.0, 300.0, 7)
                target = MLLVector(spec, values)
                for max_iter in (3, 4, 50):
                    opts = SolveOptions(max_iter=max_iter)
                    err = assert_matches_oracle(spec, target, opts)
                    overflows += "log scale" in str(err)
        assert overflows == 69
        # the first spec at seed 20: the transform overflows in sweep 4; one
        # sweep fewer ends in the residual stop, where a margin cell of that
        # sweep's weights has underflowed to 0 and one -inf log makes the
        # block's parameters infinite, not NaN
        spec = _spec_line("1: 1; 12: 2 12; 13: 3; 23: 23; 123: 13 123")
        target = MLLVector(spec, np.random.default_rng(20).uniform(-300.0, 300.0, 7))
        for max_iter in (4, 50):
            opts = SolveOptions(max_iter=max_iter)
            err = assert_matches_oracle(spec, target, opts)
            assert err.kind == DIVERGENCE and "log scale" in str(err)
            assert len(err.trace) == 3
        err = assert_matches_oracle(spec, target, SolveOptions(max_iter=3))
        assert err.kind == NON_CONVERGENCE
        assert len(err.trace) == 3 and err.trace[2] == math.inf

    def test_log_scale_overflow_keeps_the_accepted_trace(self):
        # the first spec above at seed 32: the mixed iteration accepts three
        # iterates with finite residuals, and its fourth sweep overflows.
        # The error carries the same three residuals as the solve stopped
        # by max_iter after them.
        spec = _spec_line("1: 1; 12: 2 12; 13: 3; 23: 23; 123: 13 123")
        target = MLLVector(spec, np.random.default_rng(32).uniform(-300.0, 300.0, 7))
        with pytest.raises(SolverError) as stopped:
            invert_fixed_point(spec, target, SolveOptions(max_iter=3))
        assert stopped.value.kind == NON_CONVERGENCE
        with pytest.raises(SolverError, match="log scale") as overflow:
            invert_fixed_point(spec, target)
        assert overflow.value.kind == DIVERGENCE
        assert len(overflow.value.trace) == 3
        assert np.isfinite(overflow.value.trace).all()
        assert overflow.value.trace == stopped.value.trace

    def test_contraction_subsystem_matches_oracle(self, monkeypatch):
        # every subsystem that AUTO inversion solves for the census orbits
        # and the collections above proven through the contraction rule: a
        # single-feedback collection solved by the fixed point, whose
        # relocated coefficients are the converged eta of the Jacobi oracle
        # on the step's own spec, targets and relocated pairs
        steps, solved = [], []
        contraction = solvers._invert_contraction
        fixed_point = solvers.invert_fixed_point

        def record_step(spec, tmap, relocate, sub_chain, opts):
            steps.append((spec, dict(tmap), relocate, opts))
            return contraction(spec, tmap, relocate, sub_chain, opts)

        def record_solve(spec, target, opts=SolveOptions()):
            res = fixed_point(spec, target, opts)
            if len(solved) < len(steps):  # the step's subsystem comes first
                solved.append((spec, res))
            return res

        texts = [r["spec"] for r in census(3)["rows"]] + FIXED_POINT_ROUTES_N45
        specs = [
            spec for spec in map(_spec_line, texts)
            if CONTRACTION_RULE in {s.rule for s in classify(spec).rule_chain}
        ]
        assert {s.vars.n for s in specs} == {3, 4}
        rng = np.random.default_rng(10)
        monkeypatch.setattr(solvers, "_invert_contraction", record_step)
        monkeypatch.setattr(solvers, "invert_fixed_point", record_solve)
        for spec in specs:
            for draw in (dirichlet_table, _skewed_table):
                table = draw(spec.vars, rng)
                res = invert(spec, lambda_vector(table, spec))
                assert float(np.max(np.abs(res.table.p - table.p))) < 1e-8
        monkeypatch.undo()
        assert len(steps) == len(solved) == 2 * len(specs)
        for step, (system, res) in zip(steps, solved):
            assert rule_applies(system, "single_feedback") is not None
            want_eta, _ = brute_contraction_subsystem(*step)
            eta = fwht(np.log(res.table.p)) / res.table.vars.n_cells
            relocated = [e for e, _ in step[2]]
            assert float(np.max(np.abs(eta[relocated] - want_eta[relocated]))) <= 1e-10

    def test_margins_above_one_product_size_match_oracle(self, monkeypatch):
        # two drop-one margins of 128 cells: their parameter maps run the
        # transform instead of a dense matrix
        spec = _drop_one_spec(8, (2, 6))
        _, *blocks = mll._plan(spec.pairs, 8)
        sizes = []
        monkeypatch.setattr(mll, "fwht", lambda a: sizes.append(a.size) or fwht(a))
        for block in blocks:
            block.params(np.zeros(128))
        monkeypatch.undo()
        assert sizes == [128, 128]
        rng = np.random.default_rng(12)
        for draw in (dirichlet_table, _skewed_table):
            assert_matches_oracle(spec, lambda_vector(draw(spec.vars, rng), spec))

    def test_plan_stays_small_at_twelve_variables(self):
        # per pair its position, effect and compressed index, and per proper
        # margin one index per table cell: no matrix grows with the square
        # of the margin, and building one allocates no such matrix on the way
        n = 12
        spec = _drop_one_spec(n, (2, 6))
        tracemalloc.start()
        plan = mll._plan.__wrapped__(spec.pairs, n)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        indices = 8 * (3 * len(spec.pairs) + (len(plan) - 1) * (1 << n))
        assert kept <= 2 * indices and peak <= 4 * indices
        # and it sweeps: twenty sweeps cut the residual a hundredfold
        t = dirichlet_table(spec.vars, np.random.default_rng(13))
        with pytest.raises(SolverError) as info:
            invert_fixed_point(spec, lambda_vector(t, spec), SolveOptions(max_iter=20))
        assert info.value.kind == NON_CONVERGENCE
        assert info.value.trace[-1] < 1e-2 * info.value.trace[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_full_margin_coefficients_are_eta(self, n, rng):
        # the closed-form full-margin block: lam(L, V) = eta_L exactly
        vs = make_vars(n)
        full = vs.full_mask
        spec = MLLSpec(vs, tuple((e, full) for e in range(1, vs.n_cells)))
        for scale in (0.1, 1.0, 4.0):  # about the spread of the log cells
            sd = scale / math.sqrt(vs.n_cells)
            eta = np.concatenate(([0.0], rng.normal(0.0, sd, vs.n_cells - 1)))
            p = table_from_eta(EtaVector(vs, eta)).p
            lam = lambda_vector(JointTable(vs, p), spec).values
            assert float(np.max(np.abs(lam - eta[1:]))) <= 1e-13

    def test_full_margin_only_converges_in_one_sweep(self, rng):
        for n in (2, 3, 4, 5):
            vs = make_vars(n)
            full = vs.full_mask
            spec = MLLSpec(vs, tuple((e, full) for e in range(1, vs.n_cells)))
            table = dirichlet_table(vs, rng)
            res = invert_fixed_point(spec, lambda_vector(table, spec))
            assert res.iterations == 1
            assert float(np.max(np.abs(res.table.p - table.p))) < 1e-12


class TestContractionCertificate:
    def test_uniform_certificate_zero(self):
        spec = catalog.TWO_BLOCK_FIXPOINT
        assert contraction_certificate(spec, uniform_table(make_vars(3))) == 0.0

    def test_bounded_by_min_cell_complement(self, rng):
        spec = catalog.TWO_BLOCK_FIXPOINT
        for _ in range(20):
            t = dirichlet_table(spec.vars, rng)
            cert = contraction_certificate(spec, t)
            assert cert <= 1 - t.min_cell + 1e-12

    def test_spread_table_certificate_below_complement(self):
        p = np.full(8, 0.3 / 7)
        p[0] = 0.7
        # min cell 0.3/7; use a flatter table with min cell exactly 0.3/7?
        # use instead: min cell 0.03, bound 0.97
        t = JointTable(make_vars(3), p)
        cert = contraction_certificate(catalog.TWO_BLOCK_FIXPOINT, t)
        assert cert <= 1 - t.min_cell

    def test_matches_scalar_loop_derivative(self, rng):
        # the feedback loop of the three-margin example composes two
        # derivative vectors; their dot product is the scalar loop slope
        # and is bounded by the certificate geometry
        spec = catalog.TWO_BLOCK_FIXPOINT
        t = dirichlet_table(spec.vars, rng)
        row = dict(zip(spec.pairs, jacobian(t, spec)))  # column K at K - 1
        a = row[(0b001, 0b101)][[0b010 - 1, 0b110 - 1]]
        b = np.array([row[(0b010, 0b110)][0b001 - 1], row[(0b110, 0b110)][0b001 - 1]])
        psi_prime = float(a @ b)
        eps = t.min_cell
        assert abs(psi_prime) <= 1 - eps
        cert = contraction_certificate(spec, t)
        assert psi_prime**2 <= cert * (1 - eps) + 1e-12

    def test_certified_solve_asks_the_classifier_nothing(self, monkeypatch, rng):
        # the certificate finds each effect's feeder itself, and so decides
        # the single-feedback structure without the classifier's rule
        rules = []
        applies = rule_applies

        def count(spec, rule):
            rules.append(rule)
            return applies(spec, rule)

        spec = catalog.TWO_BLOCK_FIXPOINT
        target = lambda_vector(dirichlet_table(spec.vars, rng), spec)
        monkeypatch.setattr("mllp.classify.rule_applies", count)
        res = invert_fixed_point(spec, target)
        assert res.contraction_certificate is not None
        assert rules == []

    def test_refuses_what_the_rule_refuses(self, rng):
        # the certificate's own feeder count decides the structure as the
        # classifier's single-feedback rule does, on all 512 labelled
        # complete collections of three variables
        t = dirichlet_table(make_vars(3), rng)
        for spec in enumerate_complete(3):
            try:
                contraction_certificate(spec, t)
                certified = True
            except StructureError:
                certified = False
            assert certified == (rule_applies(spec, "single_feedback") is not None)

    def test_requires_complete_spec(self, rng):
        t = dirichlet_table(make_vars(2), rng)
        with pytest.raises(IncompleteSpecError):
            contraction_certificate(MLLSpec.from_text("12: 1 2\n"), t)

    def test_requires_single_feedback_structure(self, rng):
        with pytest.raises(StructureError):
            contraction_certificate(
                catalog.CYCLE_THREE, dirichlet_table(make_vars(3), rng)
            )


class TestReconstructMixed:
    def test_no_margins_is_pure_exponential(self):
        vs = make_vars(2)
        got = reconstruct_mixed(vs.n, {}, {1: 0.3, 2: -0.2, 3: 0.1})
        e = eta_from_table(JointTable(vs, got))
        assert e.value(1) == pytest.approx(0.3, abs=1e-12)
        assert e.value(2) == pytest.approx(-0.2, abs=1e-12)
        assert e.value(3) == pytest.approx(0.1, abs=1e-12)

    def test_uniform_margins_with_odds_ratio(self):
        # uniform one-variable margins plus a pairwise coefficient of
        # log 2 pin the 2x2 table (0.4, 0.1, 0.1, 0.4)
        vs = VarSet(("1", "3"))
        u = table_from_probs(VarSet(("1",)), [0.5, 0.5])
        u3 = table_from_probs(VarSet(("3",)), [0.5, 0.5])
        got = JointTable(vs, reconstruct_mixed(
            vs.n, margin_cells(vs, [u, u3]), {0b11: math.log(2.0)}))
        assert np.allclose(got.p, [0.4, 0.1, 0.1, 0.4], atol=1e-11)
        assert brute_lambda(got, 0b11, 0b11) == pytest.approx(
            math.log(2.0), abs=1e-11
        )

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_drop_one_margins_plus_top_coefficient(self, n, rng):
        # every (n-1)-variable margin, the shape the large-table benchmark
        # inverts at n = 9; only the top coefficient is left uncovered
        t = dirichlet_table(make_vars(n), rng)
        full = t.vars.full_mask
        margins = {full ^ (1 << v): marginalize(t, full ^ (1 << v)).p for v in range(n)}
        eta_top = eta_from_table(t).value(full)
        got = reconstruct_mixed(n, margins, {full: eta_top})
        assert float(np.max(np.abs(got - t.p))) < 1e-8

    @pytest.mark.parametrize("rows, cols", [
        (8, 7), (16, 11), (64, 40), (128, 127), (256, 200), (512, 383),
    ])
    def test_qr_step_matches_svd_least_squares(self, rows, cols):
        # tall full-rank matrices with singular values spread evenly on a
        # log scale from 1 down to 1 / cond, and a generic right-hand side
        rng = np.random.default_rng(rows * 1000 + cols)
        for cond in (1.0, 1e2, 1e4, 1e6, 1e8):
            u = np.linalg.qr(rng.normal(size=(rows, cols)))[0]
            v = np.linalg.qr(rng.normal(size=(cols, cols)))[0]
            jac = (u * np.logspace(0.0, -math.log10(cond), cols)) @ v.T
            r = rng.normal(size=rows)
            want = np.linalg.lstsq(jac, r)[0]
            got = _least_squares_step(jac, r)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= cond * 1e-13

    def test_matches_oracle(self, monkeypatch):
        # the solve against the Newton-only solve it replaced, on one and
        # three drop-one margins (two go to the stratum solve).  Three are
        # fitted once, and the fit either returns None or a table that
        # matches every sub-margin to 1e-12 and keeps the coefficients that
        # no sub-margin covers: it returns one for every Dirichlet(1) table
        # and for 3 of the 7 skewed ones.  One is solved in closed form,
        # with no fit, and the result has those coefficients
        fits = []
        fit = mixed._proportional_fit

        def spy(q, cells, sub_p):
            fits.append((q, cells, sub_p, fit(q, cells, sub_p)))
            return fits[-1][-1]

        monkeypatch.setattr(mixed, "_proportional_fit", spy)
        rng = np.random.default_rng(13)
        matched = 0
        for n in range(3, 10):
            vs = make_vars(n)
            full = vs.full_mask
            shapes = [
                [full ^ (1 << int(v)) for v in rng.choice(n, k, replace=False)]
                for k in (1, 3)
            ]
            for draw in (dirichlet_table, _skewed_table):
                t = draw(vs, rng)
                theta = fwht(np.log(t.p)) / t.p.size
                for masks in shapes:
                    covered = {L for mask in masks for L in nonempty_submasks(mask)}
                    uncovered = [L for L in range(1, full + 1) if L not in covered]
                    margins = [marginalize(t, mask) for mask in masks]
                    targets = {L: float(theta[L]) for L in uncovered}
                    fits.clear()
                    got = reconstruct_mixed(n, margin_cells(vs, margins), targets)
                    want = brute_reconstruct_mixed(vs, margins, targets)
                    assert float(np.max(np.abs(got - want.p))) <= 1e-12
                    if len(masks) == 1:
                        assert fits == []
                        after = (fwht(np.log(got)) / got.size)[uncovered]
                        assert float(np.max(np.abs(after - theta[uncovered]))) <= 1e-12
                        continue
                    [(q, cells, sub_p, fitted)] = fits
                    if fitted is None and draw is _skewed_table:
                        continue
                    matched += draw is _skewed_table
                    for c, ps in zip(cells, sub_p):
                        miss = np.log(ps / np.bincount(c, fitted, minlength=ps.size))
                        assert float(np.max(np.abs(miss))) < 1e-12
                    before = (fwht(np.log(q)) / q.size)[uncovered]
                    after = (fwht(np.log(fitted)) / q.size)[uncovered]
                    assert float(np.max(np.abs(after - before))) <= 1e-12
        assert matched == 3

    def test_closed_forms_match_oracle(self, monkeypatch):
        # no sub-margin, and one drawn sub-margin, at n = 1-9: the solve
        # neither fits nor runs the Newton solve, and matches the Newton-only
        # solve and the drawn table
        def fail(*args):
            raise AssertionError("a closed-form solve fitted")

        for name in ("_stratum_fit", "_proportional_fit", "_scaling_newton"):
            monkeypatch.setattr(mixed, name, fail)
        rng = np.random.default_rng(37)
        for n in range(1, 10):
            vs = make_vars(n)
            full = vs.full_mask
            for draw in (dirichlet_table, _skewed_table):
                t = draw(vs, rng)
                theta = fwht(np.log(t.p)) / t.p.size
                shapes = [[]] if n == 1 else [[], [int(rng.integers(1, full))]]
                for masks in shapes:
                    covered = {L for mask in masks for L in nonempty_submasks(mask)}
                    uncovered = [L for L in range(1, full + 1) if L not in covered]
                    margins = [marginalize(t, mask) for mask in masks]
                    targets = {L: float(theta[L]) for L in uncovered}
                    got = reconstruct_mixed(n, margin_cells(vs, margins), targets)
                    want = brute_reconstruct_mixed(vs, margins, targets)
                    assert float(np.max(np.abs(got - want.p))) <= 1e-12
                    assert float(np.max(np.abs(got - t.p))) <= 1e-12

    def test_slow_first_sweeps_do_not_hand_over(self, monkeypatch):
        # three drop-one margins at n = 9: many fits contract by only
        # 0.9-0.99 per sweep at first and then settle.  The rate is judged
        # over FIT_WINDOW sweeps, so few of them hand over to Newton (none
        # of these 24); a one-sweep rule that stops below a contraction of
        # 0.9 hands over 16.
        ends = []
        fit = mixed._proportional_fit

        def spy(q, cells, sub_p):
            got = fit(q, cells, sub_p)
            assert got is not None
            ends.append(max(
                float(np.max(np.abs(np.log(ps / np.bincount(c, got, minlength=ps.size)))))
                for c, ps in zip(cells, sub_p)
            ))
            return got

        monkeypatch.setattr(mixed, "_proportional_fit", spy)
        rng = np.random.default_rng(9)
        vs = make_vars(9)
        full = vs.full_mask
        for _ in range(24):
            t = dirichlet_table(vs, rng)
            bits = [1 << int(v) for v in rng.choice(9, 3, replace=False)]
            theta = fwht(np.log(t.p)) / t.p.size
            targets = {L: float(theta[L]) for L in range(1, full + 1)
                       if all(L & v for v in bits)}
            margins = {full ^ v: marginalize(t, full ^ v).p for v in bits}
            got = reconstruct_mixed(9, margins, targets)
            assert float(np.max(np.abs(got - t.p))) <= 1e-12
        assert len(ends) == 24
        assert sum(e >= 1e-12 for e in ends) <= 3

    def test_stratum_solve_matches_oracle(self, monkeypatch):
        # two sub-margins S = M \ {b} and T with b in T at n = 3-9: two
        # drop-one margins (the large-table benchmark's shape), S first, and
        # a drawn T, T first.  Every fit the stratum solve returns keeps the
        # coefficients no sub-margin covers; it returns one for every
        # Dirichlet(1) table, and may leave a skewed one to the fit
        fits = []
        direct = mixed._stratum_fit

        def spy(q, *args):
            fits.append((q, direct(q, *args)))
            return fits[-1][1]

        monkeypatch.setattr(mixed, "_stratum_fit", spy)
        rng = np.random.default_rng(31)
        skewed_direct = 0
        for n in range(3, 10):
            vs = make_vars(n)
            full = vs.full_mask
            for draw in (dirichlet_table, _skewed_table):
                t = draw(vs, rng)
                theta = fwht(np.log(t.p)) / t.p.size
                a, b = (1 << int(v) for v in rng.choice(n, 2, replace=False))
                rest = int(rng.integers(full + 1)) & ~(a | b)
                for masks in ([full ^ b, full ^ a], [b | rest, full ^ b]):
                    covered = {L for mask in masks for L in nonempty_submasks(mask)}
                    uncovered = [L for L in range(1, full + 1) if L not in covered]
                    margins = [marginalize(t, mask) for mask in masks]
                    targets = {L: float(theta[L]) for L in uncovered}
                    fits.clear()
                    got = reconstruct_mixed(n, margin_cells(vs, margins), targets)
                    want = brute_reconstruct_mixed(vs, margins, targets)
                    assert float(np.max(np.abs(got - want.p))) <= 1e-12
                    [(q, fitted)] = fits
                    if draw is _skewed_table and fitted is None:
                        continue
                    assert fitted is not None
                    skewed_direct += draw is _skewed_table
                    before = (fwht(np.log(q)) / q.size)[uncovered]
                    after = (fwht(np.log(fitted)) / q.size)[uncovered]
                    assert float(np.max(np.abs(after - before))) <= 1e-12
        assert skewed_direct >= 10

    def test_ill_conditioned_stratum_falls_back_to_the_fit(self, monkeypatch):
        # the 12-margin of the cyclic probe's CYCLE_THREE draw 133 at alpha
        # 0.05, from its own sub-margins 1 and 2: the one stratum's cond is
        # about 1.7e8, so the stratum solve would fix its unknown only to
        # about 4e-8.  It returns None, and the solve returns the table the
        # fit returns, bit for bit
        t = marginalize(cyclic_probe_table("CYCLE_THREE", 0.05, 133), 0b11)
        cells = t.p.reshape(2, 2)  # cells[b, a]: b is variable 2, a variable 1
        cond = 1.0 / float(np.sum(cells[0] * cells[1] / cells.sum(axis=0)))
        assert 1e8 < cond < 1e9
        margins = {0b01: marginalize(t, 0b01).p, 0b10: marginalize(t, 0b10).p}
        targets = {0b11: eta_from_table(t).value(0b11)}
        fits = []
        direct = mixed._stratum_fit

        def spy(*args):
            fits.append(direct(*args))
            return fits[-1]

        monkeypatch.setattr(mixed, "_stratum_fit", spy)
        got = reconstruct_mixed(2, margins, targets)
        assert fits == [None]
        monkeypatch.setattr(mixed, "_stratum_fit", lambda *args: None)
        want = reconstruct_mixed(2, margins, targets)
        assert np.array_equal(got, want)

    def test_slow_newton_tail_converges(self):
        # the last solve of the cyclic probe's CYCLE_FOUR draw 178 at alpha
        # 0.02, over all four variables, from the drawn table's own
        # sub-margins 12, 23, 14 and 34: the fit stalls, and the Newton
        # solve takes 31 steps and one on the log ratios
        t = cyclic_probe_table("CYCLE_FOUR", 0.02, 178)
        masks = [0b0011, 0b0110, 0b1001, 0b1100]
        theta = fwht(np.log(t.p)) / t.p.size
        covered = {L for mask in masks for L in nonempty_submasks(mask)}
        targets = {L: float(theta[L]) for L in range(1, 16) if L not in covered}
        got = reconstruct_mixed(4, {m: marginalize(t, m).p for m in masks}, targets)
        assert float(np.max(np.abs(got - t.p))) <= 1e-12

    def test_skewed_cases_match_their_sub_margins(self, monkeypatch):
        # cases of scripts/skewed_roundtrip.py whose solves end at a stalled
        # fit or a tiny cell: every table reconstruct_mixed returns matches
        # its sub-margins to MARGIN_RTOL relative, or the solve raises.  An
        # absolute check of 1e-10 let case 369 through 3.8e-4 relative off.
        solve = solvers.reconstruct_mixed
        returned = []

        def checked(m, margins, eta_targets):
            got = solve(m, margins, eta_targets)
            for mask, sub in margins.items():
                q = marginal_array(got, m, mask)
                q = q / q.sum()
                assert q.shape == sub.shape
                rel = float(np.max(np.abs(np.log(sub / q))))
                assert rel <= mixed.MARGIN_RTOL
            returned.append(got)
            return got

        monkeypatch.setattr(solvers, "reconstruct_mixed", checked)
        for spec, t in skewed_roundtrip_cases({24, 29, 182, 254, 369}):
            try:
                invert_hierarchical(spec, lambda_vector(t, spec))
            except SolverError:
                pass
        assert returned

    def test_inconsistent_margins_rejected(self, rng):
        vs = make_vars(2)
        p1a = table_from_probs(VarSet(("1",)), [0.9, 0.1])
        p1b_p2 = table_from_probs(VarSet(("1", "2")), [0.1, 0.4, 0.1, 0.4])
        with pytest.raises(SolverError) as err:
            reconstruct_mixed(vs.n, margin_cells(vs, [p1a, p1b_p2]), {})
        assert err.value.kind == INCONSISTENT_MARGINS

    def test_cell_below_floor_rejected(self):
        # one variable with coefficient 20: the smaller cell is about
        # exp(-40), below POSITIVITY_FLOOR; alone, and beside a uniform
        # sub-margin over another variable (both closed forms)
        with pytest.raises(InvalidTableError):
            reconstruct_mixed(1, {}, {1: 20.0})
        with pytest.raises(InvalidTableError):
            reconstruct_mixed(2, {0b01: np.full(2, 0.5)}, {0b10: 20.0, 0b11: 0.0})

    def test_wrong_target_cover_rejected(self):
        # the margin over 1 covers effect 1; the targets must be 2 and 3
        vs = make_vars(2)
        p1 = table_from_probs(VarSet(("1",)), [0.5, 0.5])
        for keys in [
            (1,),  # a covered effect
            (2,),  # 3 missing
            (1, 2, 3),  # 1 extra
            (2, 3, 4),  # 4 extra, outside the margin
            (-1, 2),  # -1 would index the last coefficient
            (np.int64(2),),
            (np.int64(1), np.int64(2), np.int64(3)),
        ]:
            with pytest.raises(SpecError):
                reconstruct_mixed(vs.n, margin_cells(vs, [p1]), dict.fromkeys(keys, 0.0))
        # with no sub-margin every effect is a target
        for keys in [(1, 2), (1, 2, 3, 4)]:
            with pytest.raises(SpecError):
                reconstruct_mixed(vs.n, {}, dict.fromkeys(keys, 0.0))

    def test_numpy_int_targets_of_the_right_cover_are_read(self, rng):
        vs = make_vars(2)
        p1 = table_from_probs(VarSet(("1",)), [0.3, 0.7])
        targets = {2: 0.25, 3: -0.5}
        want = reconstruct_mixed(vs.n, margin_cells(vs, [p1]), targets)
        got = reconstruct_mixed(
            vs.n, margin_cells(vs, [p1]), {np.int64(k): v for k, v in targets.items()}
        )
        assert got.tobytes() == want.tobytes()

    def test_shape_matches_oracle(self):
        # every ordered pair of nonempty sub-masks of a 4-variable margin,
        # and every single one and none
        shapes = [()] + [(a,) for a in range(1, 16)]
        shapes += list(itertools.permutations(range(1, 16), 2))
        shapes += [(0b0111, 0b1011, 0b1101), (0b1101, 0b0111, 0b1011)]
        for sub_masks in shapes:
            got = mixed._shape(4, sub_masks)
            cells, cov, uncovered, picks = brute_shape(4, sub_masks)
            assert np.array_equal(got.cov, cov) and got.cov.dtype == cov.dtype
            assert np.array_equal(got.uncovered, uncovered)
            assert len(got.cells) == len(cells) == len(got.picks) == len(picks)
            for a, b in zip(got.cells, cells):
                assert np.array_equal(a, b)
            for (at, idx), (at_b, idx_b) in zip(got.picks, picks):
                assert np.array_equal(at, at_b) and np.array_equal(idx, idx_b)

    def test_cached_shape_arrays_are_read_only(self, rng):
        vs = make_vars(3)
        t = dirichlet_table(vs, rng)
        subs = [marginalize(t, 0b011), marginalize(t, 0b110)]
        eta = fwht(np.log(t.p)) / 8
        reconstruct_mixed(3, margin_cells(vs, subs), {5: eta[5], 7: eta[7]})
        shape = mixed._shape(3, (0b011, 0b110))
        arrays = [shape.cov, shape.uncovered, *shape.cells]
        arrays += [a for pick in shape.picks for a in pick]
        assert len(arrays) == 8 and all(a.size for a in arrays)
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0


class TestHierarchical:
    def test_roundtrip_chain(self, rng):
        spec = catalog.CHAIN_THREE
        for _ in range(10):
            t = dirichlet_table(spec.vars, rng)
            res = invert_hierarchical(spec, lambda_vector(t, spec))
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    def test_roundtrip_five_margin_chain(self, rng):
        spec = catalog.CYCLE_THREE_RESOLVED
        for _ in range(10):
            t = dirichlet_table(spec.vars, rng)
            res = invert_hierarchical(spec, lambda_vector(t, spec))
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    def test_single_margin_spec_is_direct(self, rng):
        vs = make_vars(2)
        spec = MLLSpec(vs, tuple((L, 0b11) for L in range(1, 4)))
        t = dirichlet_table(vs, rng)
        res = invert_hierarchical(spec, lambda_vector(t, spec))
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-10

    @pytest.mark.parametrize("case", [
        931, 941, 959, 963, 984, 1000, 1001, 1028, 993, 1076,
    ])
    def test_roundtrip_skewed_alpha_cases(self, case):
        # cases of scripts/skewed_roundtrip.py --alpha 0.02: the first eight
        # fail when the mixed solve ends in a dual Newton solve handing over
        # to Gauss-Newton, and 993 and 1076 when the scaling Newton solve
        # stops without its steps on the log ratios (993 at a cell of
        # 7.3e-16, below POSITIVITY_FLOOR)
        [(spec, t)] = skewed_roundtrip_cases({case})
        res = invert_hierarchical(spec, lambda_vector(t, spec))
        assert float(np.max(np.abs(res.table.p - t.p))) <= 1e-8

    def test_roundtrip_skewed_tables(self):
        # Dirichlet(0.1) and (0.3) tables put cells near 1e-15, where
        # moment-matching Newton steps lose the relative accuracy of the
        # small cells; each table must still come back within 1e-8
        rng = np.random.default_rng(3)
        head = [2.6e-7, 1.98e-3, 1.77e-3, 6.2e-6, 9.5e-4, 0.2976, 3.3e-5]
        cases = [(
            MLLSpec.from_text("13: 1 3 13\n123: 2 12 23 123\n"),
            np.array(head + [1.0 - sum(head)]),
        )]
        for n in (3, 4, 5):
            full = (1 << n) - 1
            for alpha in (0.1, 0.3):
                for _ in range(4):
                    proper = sorted(
                        {int(m) for m in rng.integers(1, full, size=3)},
                        key=lambda m: (popcount(m), m),
                    )
                    order = proper + [full]
                    spec = MLLSpec(make_vars(n), tuple(
                        (e, next(m for m in order if e & ~m == 0))
                        for e in range(1, full + 1)
                    ))
                    p = rng.dirichlet(np.full(full + 1, alpha))
                    while p.min() < 1e-15:
                        p = rng.dirichlet(np.full(full + 1, alpha))
                    cases.append((spec, p))
        for spec, p in cases:
            t = JointTable(spec.vars, p)
            res = invert_hierarchical(spec, lambda_vector(t, spec))
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    def test_roundtrip_large_table_shape(self):
        # the large-table benchmark's inversion: n = 9, two margins that
        # each drop one variable, then the full margin (a 512 x 383 solve)
        n = 9
        full = (1 << n) - 1
        order = [full ^ (1 << 2), full ^ (1 << 6), full]
        spec = MLLSpec(make_vars(n), tuple(
            (e, next(m for m in order if e & ~m == 0)) for e in range(1, full + 1)
        ))
        rng = np.random.default_rng(9)
        for t in (dirichlet_table(spec.vars, rng), _skewed_table(spec.vars, rng)):
            res = invert_hierarchical(spec, lambda_vector(t, spec))
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    def test_eta_targets_keyed_by_compressed_effect(self, rng, monkeypatch):
        # each margin's targets: compress(effect, margin) -> value, in the
        # order of the spec's pairs
        spec = catalog.CYCLE_THREE_RESOLVED
        target = lambda_vector(dirichlet_table(spec.vars, rng), spec)
        seen = []
        real = solvers.reconstruct_mixed

        def record(m, margins, eta_targets):
            seen.append(list(eta_targets.items()))
            return real(m, margins, eta_targets)

        monkeypatch.setattr(solvers, "reconstruct_mixed", record)
        invert_hierarchical(spec, target)
        values = dict(zip(spec.pairs, target.values))
        want = [
            [(compress(e, margin), values[(e, m)]) for e, m in spec.pairs if m == margin]
            for margin in hierarchy_order(spec)
        ]
        assert seen == want
        assert all(type(key) is int for items in seen for key, _ in items)

    def test_array_step_matches_named_table_step(self, rng):
        # the step that passes margins as cell arrays against the named-table
        # step it replaced: bitwise the same cells, or the same error kind,
        # on draws of two collections and on skewed cases of
        # scripts/skewed_roundtrip.py, some of which end at a tiny cell
        cases = [(spec, dirichlet_table(spec.vars, rng))
                 for spec in (catalog.CHAIN_THREE, catalog.CYCLE_THREE_RESOLVED)
                 for _ in range(10)]
        cases += skewed_roundtrip_cases({24, 29, 182, 254, 369})

        def outcome(step, spec, tmap, order):
            try:
                res = step(spec, tmap, order)
            except (InvalidTableError, SolverError) as exc:
                return type(exc), getattr(exc, "kind", None)
            return (res.table.vars.names, res.table.p.tobytes(), res.iterations,
                    res.method_used)

        seen = []
        for spec, t in cases:
            tmap = lambda_vector(t, spec).as_dict()
            order = hierarchy_order(spec)
            seen.append(outcome(solvers._hierarchical_step, spec, tmap, order))
            assert seen[-1] == outcome(brute_hierarchical_step, spec, tmap, order)
        # every case inverts, case 29 as well: its last solve, over three
        # variables from three sub-margins, converges from the margins the
        # closed form of one sub-margin built (it missed by 8.4e-6 from the
        # margins the fit built)
        assert all(len(res) == 4 for res in seen)

    def test_rejects_non_hierarchical(self):
        with pytest.raises(StructureError):
            invert_hierarchical(
                catalog.CYCLE_THREE, zero_target(catalog.CYCLE_THREE)
            )


class TestStationary:
    def test_two_block_chain_recovers_marginal(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        chain = chain_from_joint(t, [0b001, 0b110])
        pi = stationary(chain)
        want = marginalize(t, 0b001)
        assert float(np.max(np.abs(pi.p - want.p))) < 1e-10

    def test_three_singleton_blocks(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        chain = chain_from_joint(t, [0b001, 0b010, 0b100])
        pi = stationary(chain)
        want = marginalize(t, 0b001)
        assert float(np.max(np.abs(pi.p - want.p))) < 1e-10

    def test_rank_one_transition(self):
        # conditionals constant in the conditioning value: the stationary
        # vector equals the common row distribution
        vs = make_vars(2)
        row = np.array([0.7, 0.3])
        c12 = condition(
            table_from_probs(vs, np.outer([0.5, 0.5], row).T.reshape(-1) /
                             np.outer([0.5, 0.5], row).sum()),
            0b10, 0b01,
        )
        c21 = condition(
            table_from_probs(vs, np.outer(row, [0.5, 0.5]).T.reshape(-1) /
                             np.outer(row, [0.5, 0.5]).sum()),
            0b01, 0b10,
        )
        chain = CycleChainSpec(vs, (0b01, 0b10), (c12, c21))
        pi = stationary(chain)
        assert np.allclose(pi.p, row, atol=1e-12)

    def test_invariance_and_positivity(self, rng):
        t = dirichlet_table(make_vars(4), rng)
        chain = chain_from_joint(t, [0b0011, 0b1100])
        pi = stationary(chain)
        assert pi.p.min() > 0
        assert abs(pi.p.sum() - 1) < 1e-12

    def test_power_iteration_agrees(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        chain = chain_from_joint(t, [0b011, 0b100])
        assert float(
            np.max(np.abs(stationary(chain).p - stationary_power(chain).p))
        ) < 1e-10

    @pytest.mark.parametrize("case", sorted(RELISTED_CYCLES))
    def test_conditionals_read_by_their_names(self, case):
        # the same conditionals with names listed out of variable order,
        # values permuted to match, give the joint's marginal
        t, chain = relisted_cycle(case, np.random.default_rng(2501))
        want = marginalize(t, chain.blocks[0]).p
        assert float(np.max(np.abs(stationary(chain).p - want))) < 1e-12
        assert float(np.max(np.abs(stationary_power(chain).p - want))) < 1e-12

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 16, 32])
    def test_elimination_matches_direct_solve(self, size):
        # well-conditioned chains: Dirichlet(1) rows mix within a few steps
        rng = np.random.default_rng(4100 + size)
        for _ in range(20):
            m = rng.dirichlet(np.ones(size), size=size)
            got = stationary_distribution(m)
            want = brute_stationary(m)
            assert float(np.max(np.abs(got - want) / want)) < 1e-12

    def test_slow_chain_keeps_relative_accuracy(self):
        # two states that stay put with probability 1 - 1e-9 and 1 - 3e-9:
        # pi = (3, 1) / 4, which 1 - m_ii rounds away in a direct solve
        eps = np.array([1e-9, 3e-9])
        m = np.array([[1 - eps[0], eps[0]], [eps[1], 1 - eps[1]]])
        got = stationary_distribution(m)
        assert float(np.max(np.abs(got / np.array([0.75, 0.25]) - 1))) < 1e-15


class TestCyclic:
    def test_roundtrip(self, rng):
        spec = catalog.CYCLE_THREE
        for _ in range(10):
            t = dirichlet_table(spec.vars, rng)
            res = invert_cyclic(spec, lambda_vector(t, spec))
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    def test_zero_target_gives_uniform(self):
        spec = catalog.CYCLE_THREE
        res = invert_cyclic(spec, zero_target(spec))
        assert np.allclose(res.table.p, 1 / 8, atol=1e-12)

    def test_requires_cycle_structure(self):
        with pytest.raises(StructureError):
            invert_cyclic(catalog.CHAIN_THREE, zero_target(catalog.CHAIN_THREE))

    @pytest.mark.parametrize("name, alpha, draw", [
        # draws of scripts/cyclic_probe.py: the block chains of the first
        # three mix so slowly that solving (M^T - I) pi = 0 missed the
        # marginal by up to 5e-5 relative
        pytest.param("CYCLE_THREE", 0.05, 7, id="0.05-7"),
        pytest.param("CYCLE_THREE", 0.05, 45, id="0.05-45"),
        pytest.param("CYCLE_THREE", 0.1, 176, id="0.1-176"),
        # rebuilding the cycle margins by mixed solves missed these: the
        # first two by 4.5e-9 and 4.2e-5 at the reassembly check
        pytest.param("CYCLE_THREE", 0.05, 49, id="0.05-49"),
        pytest.param("CYCLE_THREE", 0.05, 82, id="0.05-82"),
        pytest.param("CYCLE_THREE", 0.02, 1, id="0.02-1"),
        pytest.param("CYCLE_FOUR", 0.02, 15, id="CYCLE_FOUR-0.02-15"),
        # a dual Newton solve handing over to Gauss-Newton missed these
        # tables' exact sub-margins: the first in mask order by 5.0e-4
        # after 1 000 steps, the other two in every order of the margins
        pytest.param("CYCLE_THREE", 0.05, 10, id="0.05-10"),
        pytest.param("CYCLE_THREE", 0.02, 41, id="0.02-41"),
        pytest.param("CYCLE_FOUR", 0.02, 22, id="CYCLE_FOUR-0.02-22"),
    ])
    def test_auto_inverts_skewed_tables(self, name, alpha, draw):
        spec = load_script("cyclic_probe").COLLECTIONS[name]
        t = cyclic_probe_table(name, alpha, draw)
        res = invert(spec, lambda_vector(t, spec))
        assert res.method_used == "cyclic"
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    @pytest.mark.parametrize("name, alpha, draw", [
        (name, alpha, draw) for name, alpha, draws in [
            ("CYCLE_THREE", 0.1, [18]),
            ("CYCLE_THREE", 0.05, [10, 17, 131, 172, 182, 199]),
            ("CYCLE_FOUR", 0.05, [129]),
            ("CYCLE_THREE", 0.02, [30, 33, 36, 41, 84, 87, 158, 165, 175, 189, 197]),
            ("CYCLE_FOUR", 0.02, [22, 71, 91, 101, 118, 119, 121, 130, 164, 168, 185]),
        ] for draw in draws
    ])
    def test_full_margin_solve_in_every_order(self, name, alpha, draw):
        # the 30 draws of scripts/cyclic_probe.py whose full-margin solve a
        # dual Newton solve handing over to Gauss-Newton missed: from the
        # drawn table's exact cycle margins, given in every order, and its
        # uncovered coefficients, the solve returns the table
        spec = load_script("cyclic_probe").COLLECTIONS[name]
        t = cyclic_probe_table(name, alpha, draw)
        n = spec.vars.n
        margins = rule_applies(spec, "cyclic")["margins"]
        covered = {L for mask in margins for L in nonempty_submasks(mask)}
        theta = fwht(np.log(t.p)) / t.p.size
        targets = {L: float(theta[L]) for L in range(1, 1 << n) if L not in covered}
        for order in itertools.permutations(sorted(margins)):
            subs = {mask: marginal_array(t.p, n, mask) for mask in order}
            got = reconstruct_mixed(n, subs, targets)
            assert float(np.max(np.abs(got - t.p))) <= 1e-12, order

    @pytest.mark.parametrize("name", ["CYCLE_THREE", "CYCLE_FOUR"])
    def test_one_mixed_solve_from_the_cycle_margins(self, name, rng, monkeypatch):
        # the cycle margins are built along the chain and handed, in mask
        # order, to the one mixed solve over the full margin
        spec = load_script("cyclic_probe").COLLECTIONS[name]
        t = dirichlet_table(spec.vars, rng)
        calls = []
        real = solvers.reconstruct_mixed

        def spy(m, margins, eta_targets):
            calls.append((m, dict(margins)))
            return real(m, margins, eta_targets)

        def no_step(*args):
            raise AssertionError("the hierarchical step ran")

        monkeypatch.setattr(solvers, "reconstruct_mixed", spy)
        monkeypatch.setattr(solvers, "_hierarchical_step", no_step)
        res = invert(spec, lambda_vector(t, spec), SolveOptions(method="MARKOV"))
        margins = rule_applies(spec, "cyclic")["margins"]
        assert len(calls) == 1 and res.iterations == len(margins) + 1
        m, subs = calls[0]
        assert m == spec.vars.n and list(subs) == sorted(margins)
        for mask, cells in subs.items():
            want = marginal_array(t.p, spec.vars.n, mask)
            assert float(np.max(np.abs(cells / want - 1.0))) <= 1e-13, mask
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-12

    @pytest.mark.parametrize("name", ["CYCLE_THREE", "CYCLE_FOUR"])
    def test_conditionals_match_the_named_tables(self, name, rng, monkeypatch):
        # the block conditionals built from arrays are, bit for bit, the
        # ones conditional_from_lambda builds through named tables
        spec = load_script("cyclic_probe").COLLECTIONS[name]
        chains = []
        real = solvers.stationary
        monkeypatch.setattr(solvers, "stationary",
                            lambda chain: chains.append(chain) or real(chain))
        for _ in range(5):
            target = lambda_vector(dirichlet_table(spec.vars, rng), spec)
            invert(spec, target, SolveOptions(method="MARKOV"))
            chain = chains.pop()
            blocks = chain.blocks
            for giv, tgt, cond in zip(blocks, blocks[1:] + blocks[:1],
                                      chain.conditionals):
                values = {k: v for k, v in target.as_dict().items()
                          if k[1] == giv | tgt}
                want = conditional_from_lambda(spec.vars, tgt, giv, values)
                assert (cond.target, cond.given) == (want.target, want.given)
                assert np.array_equal(cond.values, want.values)

    @pytest.mark.parametrize("solve, rule, spec, text", [
        (invert_hierarchical, "hierarchical", catalog.CYCLE_THREE,
         "spec is not hierarchical"),
        (invert_cyclic, "cyclic", catalog.CHAIN_THREE,
         "spec does not have the cyclic block structure"),
    ])
    def test_forced_methods_name_what_is_missing(self, solve, rule, spec, text):
        with pytest.raises(StructureError, match=text):
            solve(spec, zero_target(spec))
        incomplete = MLLSpec(spec.vars, spec.pairs[1:])
        with pytest.raises(StructureError, match=f"{rule} inversion needs a complete"):
            solve(incomplete, zero_target(incomplete))

    def test_variable_outside_every_block(self, rng):
        # variable 4 lies in no block: only the full margin reads it
        spec = full_margin_rest("12: 1 12; 23: 2 23; 13: 3 13", 4)
        assert sorted(rule_applies(spec, "cyclic")["blocks"]) == [0b001, 0b010, 0b100]
        for _ in range(5):
            t = dirichlet_table(spec.vars, rng)
            res = invert(spec, lambda_vector(t, spec), SolveOptions(method="MARKOV"))
            assert float(np.max(np.abs(res.table.p - t.p))) <= 1e-12


class TestNewton:
    def test_roundtrip_open_spec(self, rng):
        spec = catalog.OPEN_FOUR_MARGIN
        t = dirichlet_table(spec.vars, rng)
        res = invert_newton(spec, lambda_vector(t, spec))
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    def test_newton_trace_monotone(self, rng):
        spec = catalog.OPEN_FOUR_MARGIN
        t = dirichlet_table(spec.vars, rng)
        res = invert_newton(spec, lambda_vector(t, spec))
        assert all(b < a for a, b in zip(res.trace, res.trace[1:]) if a > 1e-13)

    def test_max_iter_caps_the_steps(self):
        # CYCLE_THREE at this table takes 5 steps; max_iter=k allows k
        spec = catalog.CYCLE_THREE
        t = dirichlet_table(spec.vars, np.random.default_rng(0))
        target = lambda_vector(t, spec)
        for k in (1, 4):
            with pytest.raises(SolverError) as err:
                invert(spec, target, SolveOptions(method="NEWTON", max_iter=k))
            assert err.value.kind == NON_CONVERGENCE
            assert len(err.value.trace) == k + 1
            assert f"after {k} Newton steps" in str(err.value)
        res = invert(spec, target, SolveOptions(method="NEWTON", max_iter=5))
        assert (res.iterations, len(res.trace)) == (5, 6)
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8


class TestInvertAuto:
    @pytest.mark.parametrize(
        "name",
        [
            "CHAIN_THREE",
            "NESTED_SKIP",
            "CROSS_SINGLE",
            "TWO_BLOCK_FIXPOINT",
            "PAIRED_SLICES",
            "SINGLETON_FEEDERS",
            "CYCLE_THREE",
            "CYCLE_THREE_RESOLVED",
            "PAIRED_SLICES_FOUR",
        ],
    )
    def test_roundtrip_catalog(self, name, rng):
        spec = getattr(catalog, name)
        for _ in range(3):
            t = dirichlet_table(spec.vars, rng)
            res = invert(spec, lambda_vector(t, spec))
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8, name
            assert res.final_residual <= 1e-9

    @pytest.mark.filterwarnings("error")
    def test_underflow_case_inverts_or_fails_as_solver_error(self):
        # AUTO inversion returns the table within 1e-8 or raises
        # SolverError, never InvalidTableError
        spec, t = underflow_case()
        try:
            res = invert(spec, lambda_vector(t, spec))
        except SolverError:
            return
        assert float(np.max(np.abs(res.table.p - t.p))) <= 1e-8

    @pytest.mark.filterwarnings("error")
    def test_out_of_domain_targets_fail_as_solver_error(self):
        # one pair at a time at 50, -50 or 400, the others at 0, on the
        # catalog collections of every proven route: no member table has
        # such parameters, and every route says so by SolverError, never by
        # InvalidTableError or a warning
        names = ["CHAIN_THREE", "NESTED_SKIP", "CROSS_SINGLE", "TWO_BLOCK_FIXPOINT",
                 "PAIRED_SLICES", "SINGLETON_FEEDERS", "CYCLE_THREE",
                 "CYCLE_THREE_RESOLVED", "PAIRED_SLICES_FOUR"]
        count = 0
        for name in names:
            spec = getattr(catalog, name)
            for i, value in itertools.product(range(len(spec)), (50.0, -50.0, 400.0)):
                values = np.zeros(len(spec))
                values[i] = value
                with pytest.raises(SolverError):
                    invert(spec, MLLVector(spec, values))
                count += 1
        assert count == 213

    def test_zero_target_uniform_everywhere(self):
        for name in ("CHAIN_THREE", "PAIRED_SLICES", "CYCLE_THREE",
                     "SINGLETON_FEEDERS", "OPEN_FOUR_MARGIN"):
            spec = getattr(catalog, name)
            res = invert(spec, zero_target(spec))
            assert np.allclose(res.table.p, 1.0 / spec.vars.n_cells, atol=1e-9)

    def test_unknown_spec_falls_back(self, rng):
        spec = catalog.OPEN_FOUR_MARGIN
        t = dirichlet_table(spec.vars, rng)
        res = invert(spec, lambda_vector(t, spec))
        assert res.method_used in ("fixed_point_damped", "newton")
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    @staticmethod
    def fallback_case():
        # a collection without a proof whose target both the fallback's
        # fixed point and Newton from the uniform table fail to invert
        spec = MLLSpec.from_text("1: 1\n2: 2\n12: 12\n13: 13\n23: 23\n123: 3 123")
        p = np.random.default_rng(2).dirichlet(np.full(8, 0.1))
        t = table_from_probs(spec.vars, p / p.sum())
        return spec, lambda_vector(t, spec)

    def test_fallback_failure_names_each_stage_once(self):
        # both stages fail (the fixed point stalls near 2.1e-4 and
        # Newton's line search at 0.41), and the error names each once
        spec, target = self.fallback_case()
        with pytest.raises(SolverError) as info:
            invert(spec, target)
        assert info.value.kind == ALL_METHODS_FAILED
        message = str(info.value)
        assert message.count("fixed_point:") == 1
        assert message.count("newton:") == 1

    def test_fallback_runs_newton_once(self, monkeypatch):
        spec, target = self.fallback_case()
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("init_eta"))
            return invert_newton(*args, **kwargs)

        monkeypatch.setattr(solvers, "invert_newton", counting)
        with pytest.raises(SolverError):
            invert(spec, target)
        assert calls == [None]

    def test_newton_line_search_tries_at_most_the_cap(self, monkeypatch):
        # each step evaluates one Jacobian and then at most NEWTON_TRIALS
        # trial points; this solve stalls, so one step uses them all
        spec, target = self.fallback_case()
        trials: list[int] = []  # trial points after each Jacobian
        jacobian, kernel = solvers.jacobian_array, solvers.weights

        def counting_jacobian(*args):
            trials.append(0)
            return jacobian(*args)

        def counting_weights(eta):
            if trials:
                trials[-1] += 1
            return kernel(eta)

        monkeypatch.setattr(solvers, "jacobian_array", counting_jacobian)
        monkeypatch.setattr(solvers, "weights", counting_weights)
        with pytest.raises(SolverError) as info:
            invert(spec, target, SolveOptions(method="NEWTON"))
        assert "line search stalled" in str(info.value)
        assert max(trials) == solvers.NEWTON_TRIALS

    def test_variable_removal_split_reassembles(self, rng):
        # removing the variable confined to the full margin splits the
        # parameters into the reduced block and the conditional block; the
        # reassembled joint reproduces both
        spec = catalog.NESTED_SKIP
        t = dirichlet_table(spec.vars, rng)
        res = invert(spec, lambda_vector(t, spec))
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-9
        got_cond = condition(res.table, 0b001, 0b110)
        want_cond = condition(t, 0b001, 0b110)
        assert float(np.max(np.abs(got_cond.values - want_cond.values))) < 1e-8
        got_marg = marginalize(res.table, 0b110)
        want_marg = marginalize(t, 0b110)
        assert float(np.max(np.abs(got_marg.p - want_marg.p))) < 1e-9

    @pytest.mark.parametrize("name", ["PAIRED_SLICES_FOUR", "NESTED_SKIP"])
    def test_auto_classifies_once(self, name, rng, monkeypatch):
        # reductions replay the rest of the one classification chain, and a
        # relabeled sibling replays its class's chain without classifying
        import mllp.classify as cls

        original = cls.classify
        depth = 0
        top_level_calls = 0

        def counting(*args, **kwargs):
            nonlocal depth, top_level_calls
            top_level_calls += depth == 0
            depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth -= 1

        monkeypatch.setattr(cls, "classify", counting)
        clear_process_caches()
        spec = getattr(catalog, name)
        t = dirichlet_table(spec.vars, rng)
        res = invert(spec, lambda_vector(t, spec))
        assert top_level_calls == 1
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8
        n = spec.vars.n
        sibling = _relabeled(spec, tuple(range(1, n)) + (0,))
        assert set(sibling.pairs) != set(spec.pairs)
        t = dirichlet_table(sibling.vars, rng)
        res = invert(sibling, lambda_vector(t, sibling))
        assert top_level_calls == 1
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

    @pytest.mark.parametrize(
        "text, method",
        [
            ("12: 1; 23: 2 23; 1234: 12 3 13 123 4 14 24 124 34 134 234 1234",
             "variable_removal>single_feedback"),
            ("134: 1 14 134; 234: 2 24 234; 1234: 12 3 13 23 123 124 34 1234; 34: 4",
             "contraction_reduce>two_margin"),
        ],
    )
    def test_nested_miss_fails_the_reassembly_check(self, text, method, rng, monkeypatch):
        # the replay checks only the reassembled table, against the caller's
        # target; a nested fixed point that misses its reduced target by a
        # relative 1e-3 in one cell must still fail that check
        spec = _spec_line(text)
        target = lambda_vector(dirichlet_table(spec.vars, rng), spec)
        assert invert(spec, target).method_used == method
        exact = solvers.invert_fixed_point

        def off(*args, **kwargs):
            res = exact(*args, **kwargs)
            p = res.table.p.copy()
            p[0] *= 1.001
            return replace(res, table=JointTable(res.table.vars, p / p.sum()))

        monkeypatch.setattr(solvers, "invert_fixed_point", off)
        with pytest.raises(SolverError) as info:
            invert(spec, target)
        assert info.value.kind == NON_CONVERGENCE
        assert "reassembled table misses the target" in str(info.value)

    @pytest.mark.parametrize(
        "name, method",
        [
            ("CHAIN_THREE", "AUTO"),
            ("CYCLE_THREE", "AUTO"),
            ("NESTED_SKIP", "AUTO"),
            ("SINGLETON_FEEDERS", "AUTO"),
            ("TWO_BLOCK_FIXPOINT", "AUTO"),
            ("CHAIN_THREE", "HIERARCHICAL"),
            ("CYCLE_THREE", "MARKOV"),
        ],
    )
    def test_each_inversion_checks_the_table_once(self, name, method, rng, monkeypatch):
        # one replay checks the reassembled table, against the caller's
        # collection and target; no step of the chain checks its own
        checked = []
        verify = solvers._verify

        def counting(spec, target, p, tol):
            checked.append((spec, target))
            return verify(spec, target, p, tol)

        monkeypatch.setattr(solvers, "_verify", counting)
        spec = getattr(catalog, name)
        t = dirichlet_table(spec.vars, rng)
        target = lambda_vector(t, spec)
        res = invert(spec, target, SolveOptions(method=method))
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8
        assert len(checked) == 1
        assert checked[0][0] is spec and checked[0][1] is target

    def test_forced_methods(self, rng):
        spec = catalog.CHAIN_THREE
        t = dirichlet_table(spec.vars, rng)
        tv = lambda_vector(t, spec)
        for method in ("HIERARCHICAL", "FIXED_POINT", "NEWTON"):
            res = invert(spec, tv, SolveOptions(method=method))
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8
        with pytest.raises(StructureError):
            invert(spec, tv, SolveOptions(method="MARKOV"))

    def test_incomplete_rejected(self):
        with pytest.raises(StructureError):
            invert(catalog.REPEATED_EFFECT, zero_target(catalog.REPEATED_EFFECT))

    def test_nested_random_values_always_invert(self):
        # strictly nested margins: any values in [-2, 2] correspond to a
        # table, sampled rather than proved
        spec = catalog.NESTED_SKIP
        gen = np.random.default_rng(99)
        for _ in range(50):
            vals = gen.uniform(-2, 2, len(spec))
            res = invert(spec, MLLVector(spec, vals))
            got = lambda_vector(res.table, spec)
            assert float(np.max(np.abs(got.values - vals))) < 1e-9


def _relabeled(spec: MLLSpec, perm) -> MLLSpec:
    """The collection with bit b of every mask moved to bit perm[b]."""
    return MLLSpec(spec.vars, tuple(
        (permute_mask(e, perm), permute_mask(m, perm)) for e, m in spec.pairs
    ))


class TestClassChain:
    """AUTO inversion replays the chain of its collection's canonical form,
    relabeled onto the collection."""

    # inv = (1, 2, 0): bit 0 -> 1, bit 1 -> 2, bit 2 -> 0
    RELABELED = {
        "interchange": ({"effect": 1, "from_margin": 3, "to_margin": 1},
                        {"effect": 2, "from_margin": 6, "to_margin": 2}),
        "hierarchical": ({"order": (1, 3, 7)}, {"order": (2, 6, 7)}),
        "two_margin": ({"margins": (3, 7)}, {"margins": (6, 7)}),
        "variable_removal": ({"v": 1}, {"v": 2}),
        "slice_split": ({"v": 4}, {"v": 1}),
        "slice_split_general": ({"v": 2}, {"v": 4}),
        "single_feedback": ({}, {}),
        "cyclic": ({"blocks": (1, 2, 4), "margins": (5, 3, 6)},
                   {"blocks": (2, 4, 1), "margins": (3, 6, 5)}),
        CONTRACTION_RULE: ({"relocate": ((1, 3), (2, 3))},
                           {"relocate": ((2, 6), (4, 6))}),
    }

    def test_relabel_chain_maps_every_rule(self):
        assert set(self.RELABELED) == set(_RULE_FUNCS) | {"interchange"}
        for rule, (before, after) in self.RELABELED.items():
            step = RuleStep(rule, before)
            assert solvers._relabel_chain((step,), [1, 2, 0]) == (
                RuleStep(rule, after),
            ), rule

    def test_relabel_chain_reranks_after_a_reduction(self):
        # removing bit 0 (bit 1 of the relabeled collection) leaves bits
        # 1 and 2, named 2 and 0 there: ranked 1 and 0 among those left
        chain = (RuleStep("variable_removal", {"v": 1}),
                 RuleStep("hierarchical", {"order": (1, 2, 3)}))
        assert solvers._relabel_chain(chain, [1, 2, 0]) == (
            RuleStep("variable_removal", {"v": 2}),
            RuleStep("hierarchical", {"order": (2, 1, 3)}),
        )

    @pytest.mark.parametrize("rule", ["two_margin"])
    def test_relabel_chain_keeps_margin_lists_sorted(self, rule):
        # 3 -> 6 and 5 -> 3 under inv = (1, 2, 0)
        step = RuleStep(rule, {"margins": (3, 5, 7)})
        assert solvers._relabel_chain((step,), [1, 2, 0]) == (
            RuleStep(rule, {"margins": (3, 6, 7)}),
        )

    def test_relabel_chain_refuses_an_unknown_rule(self):
        with pytest.raises(StructureError):
            solvers._relabel_chain((RuleStep("magic", {"v": 1}),), [0, 1, 2])

    @staticmethod
    def check_relabelings(specs, perms_of, rng, monkeypatch) -> tuple[int, int]:
        """Invert every relabeling of every spec by AUTO: the table within
        1e-9 of the drawn one and, where the replayed chain is the one
        classify reports for that labelling, bitwise the replay of that
        chain.  Returns how many replayed chains were equal and how many
        differed."""
        replayed = []
        replay = solvers._replay

        def recording(spec, target, chain, opts):
            replayed.append(chain)
            return replay(spec, target, chain, opts)

        monkeypatch.setattr(solvers, "_replay", recording)
        equal = differ = 0
        for spec in specs:
            for perm in perms_of(spec):
                s = _relabeled(spec, perm)
                t = dirichlet_table(s.vars, rng)
                target = lambda_vector(t, s)
                replayed.clear()
                res = invert(s, target)
                assert float(np.max(np.abs(res.table.p - t.p))) < 1e-9
                if not replayed:  # no proof: the fallback ran
                    continue
                own = classify(s).rule_chain
                if replayed[0] != own:
                    differ += 1
                    continue
                equal += 1
                want = replay(s, target, own, SolveOptions())
                assert res.table.p.tobytes() == want.table.p.tobytes()
                assert res.final_residual == want.final_residual
        return equal, differ

    def test_census_orbits_under_every_relabeling(self, monkeypatch):
        rng = np.random.default_rng(27)
        equal, differ = self.check_relabelings(
            enumerate_complete(3, up_to_symmetry=True),
            lambda spec: itertools.permutations(range(3)),
            rng,
            monkeypatch,
        )
        assert equal

    def test_routes_at_four_and_five_variables(self, monkeypatch):
        rng = np.random.default_rng(28)
        specs = [_spec_line(text) for text in FIXED_POINT_ROUTES_N45]
        specs.append(catalog.PAIRED_SLICES_FOUR)
        equal, differ = self.check_relabelings(
            specs,
            lambda spec: [tuple(rng.permutation(spec.vars.n)) for _ in range(4)],
            rng,
            monkeypatch,
        )
        assert equal + differ == 4 * len(specs)

    @pytest.mark.parametrize("name", ["NESTED_SKIP", "CROSS_SINGLE", "PAIRED_SLICES_FOUR"])
    def test_reduction_chains_under_every_relabeling(self, name, monkeypatch):
        spec = getattr(catalog, name)
        equal, differ = self.check_relabelings(
            [spec],
            lambda spec: itertools.permutations(range(spec.vars.n)),
            np.random.default_rng(29),
            monkeypatch,
        )
        assert equal + differ == math.factorial(spec.vars.n)

    def test_result_does_not_depend_on_what_ran_before(self, rng):
        spec = _relabeled(catalog.PAIRED_SLICES_FOUR, (2, 0, 3, 1))
        sibling = _relabeled(catalog.PAIRED_SLICES_FOUR, (3, 1, 0, 2))
        target = lambda_vector(dirichlet_table(spec.vars, rng), spec)
        other = lambda_vector(dirichlet_table(sibling.vars, rng), sibling)
        clear_process_caches()
        cold = invert(spec, target)
        warm = invert(spec, target)
        clear_process_caches()
        invert(sibling, other)
        after_sibling = invert(spec, target)
        for res in (warm, after_sibling):
            assert res.table.p.tobytes() == cold.table.p.tobytes()
            assert (res.method_used, res.iterations, res.final_residual) == (
                cold.method_used, cold.iterations, cold.final_residual
            )

    def test_unknown_class_is_classified_once(self, rng, monkeypatch):
        calls = []
        original = solvers.cls.classify

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(solvers.cls, "classify", counting)
        clear_process_caches()
        spec = catalog.OPEN_FOUR_MARGIN
        for s in (spec, _relabeled(spec, (2, 0, 1))):
            t = dirichlet_table(s.vars, rng)
            res = invert(s, lambda_vector(t, s))
            assert res.method_used in ("fixed_point_damped", "newton")
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8
        assert len(calls) == 1
        assert calls[0].pairs == canonical_form(spec.pairs, 3)[0]

    def test_a_cut_search_classifies_the_labelling_given(self, rng, monkeypatch):
        # the search stops at SEARCH_LIMIT, in an order set by the labels:
        # the class's verdict is not trusted for this labelling, which is
        # classified once, as the collection given, and its chain replayed
        # on every inversion
        calls = []
        original = solvers.cls.classify

        def counting(spec):
            calls.append(spec.pairs)
            return original(spec)

        monkeypatch.setattr(solvers.cls, "classify", counting)
        clear_process_caches()
        spec = full_margin_rest("1: 1; 24: 24; 5: 5", 5)
        form = canonical_form(spec.pairs, 5)[0]
        assert form != spec.pairs
        for _ in range(2):
            t = dirichlet_table(spec.vars, rng)
            res = invert(spec, lambda_vector(t, spec))
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8
        assert calls == [form, spec.pairs]

    def test_every_proven_sample_collection_takes_a_proven_route(self, rng):
        # whatever the class's canonical labelling, a collection classify
        # proves is inverted by a replayed chain, not by the fallback
        proven = 0
        for spec in search_sizes_sample():
            if classify(spec).verdict != PROVEN_SMOOTH:
                continue
            proven += 1
            t = dirichlet_table(spec.vars, rng)
            res = invert(spec, lambda_vector(t, spec))
            assert res.method_used not in ("fixed_point_damped", "newton")
            assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8
        assert proven == 488


# The process caches a solve reads, as the solvers module lists them.
SOLVE_CACHES = {
    "solvers._class_chain",
    "solvers._labelled_chain",
    "solvers._one_step_chain",
    "mll._plan",
    "mll._jacobian_maps",
    "mixed._shape",
    "markov._sweep_plan",
    "census._relabelings",
    "tables._hadamard",
    "tables.compress_map",
    "classify._compile",
    "classify._inside",
    "classify._free_tests",
    "classify._down",
}


def clear_process_caches() -> set[str]:
    """Empty every cache defined in the package, and name them."""
    cleared = set()
    for info in pkgutil.iter_modules(mllp.__path__):
        module = importlib.import_module(f"mllp.{info.name}")
        for attr, value in vars(module).items():
            if (hasattr(value, "cache_clear")
                    and getattr(value, "__module__", None) == module.__name__):
                value.cache_clear()
                cleared.add(f"{info.name}.{attr}")
    return cleared


def _drop_two_at_nine() -> MLLSpec:
    """The large-table benchmark's inversion shape: n = 9, two margins that
    each drop one variable, then the full margin."""
    return _drop_one_spec(9, (2, 6))


class TestProcessCaches:
    def test_every_solve_cache_is_cleared(self):
        assert clear_process_caches() >= SOLVE_CACHES

    @pytest.mark.parametrize("name, method", [
        ("drop_two_at_nine", "HIERARCHICAL"),
        ("CYCLE_THREE", "MARKOV"),
        # AUTO: one catalog collection per route family, then the fallback
        ("CHAIN_THREE", "AUTO"),
        ("NESTED_SKIP", "AUTO"),
        ("TWO_BLOCK_FIXPOINT", "AUTO"),
        ("PAIRED_SLICES", "AUTO"),
        ("SINGLETON_FEEDERS", "AUTO"),
        ("CYCLE_THREE", "AUTO"),
        ("PAIRED_SLICES_FOUR", "AUTO"),
        ("OPEN_FOUR_MARGIN", "AUTO"),
    ])
    def test_cold_and_warm_solves_agree(self, name, method):
        spec = (_drop_two_at_nine() if name == "drop_two_at_nine"
                else getattr(catalog, name))
        rng = np.random.default_rng(34)
        target = lambda_vector(dirichlet_table(spec.vars, rng), spec)
        opts = SolveOptions(method=method)
        clear_process_caches()
        cold = invert(spec, target, opts)
        warm = invert(spec, target, opts)
        pairs = [(cold, warm)]
        if method == "AUTO":
            # a relabeled sibling, solved once the caches hold the chain of
            # its class and of the collection, then from cold caches
            n = spec.vars.n
            sibling = _relabeled(spec, tuple(range(1, n)) + (0,))
            other = lambda_vector(dirichlet_table(sibling.vars, rng), sibling)
            warm_sibling = invert(sibling, other, opts)
            clear_process_caches()
            pairs.append((invert(sibling, other, opts), warm_sibling))
        for cold, warm in pairs:
            assert warm.table.p.tobytes() == cold.table.p.tobytes()
            assert (warm.iterations, warm.final_residual, warm.method_used) == (
                cold.iterations, cold.final_residual, cold.method_used
            )

    def test_warm_hierarchical_solve_reads_the_caches(self, rng):
        spec = _drop_two_at_nine()
        target = lambda_vector(dirichlet_table(spec.vars, rng), spec)
        opts = SolveOptions(method="HIERARCHICAL")
        clear_process_caches()
        invert(spec, target, opts)
        shapes, plans = mixed._shape.cache_info(), mll._plan.cache_info()
        invert(spec, target, opts)
        # three margins: three shapes hit; the step and the check read the plan
        assert mixed._shape.cache_info().hits == shapes.hits + 3
        assert mixed._shape.cache_info().misses == shapes.misses
        assert mll._plan.cache_info().misses == plans.misses

    def test_forced_methods_read_the_witness_once(self, rng, monkeypatch):
        calls = []
        real = solvers.cls.rule_applies

        def spy(spec, rule):
            calls.append((spec.pairs, rule))
            return real(spec, rule)

        monkeypatch.setattr(solvers.cls, "rule_applies", spy)
        solvers._one_step_chain.cache_clear()
        cases = [(catalog.CHAIN_THREE, "HIERARCHICAL", "hierarchical"),
                 (_drop_two_at_nine(), "HIERARCHICAL", "hierarchical"),
                 (catalog.CYCLE_THREE, "MARKOV", "cyclic")]
        for spec, method, rule in cases:
            target = lambda_vector(dirichlet_table(spec.vars, rng), spec)
            for _ in range(3):
                invert(spec, target, SolveOptions(method=method))
            assert calls.count((spec.pairs, rule)) == 1
        assert len(calls) == len(cases)

    @pytest.mark.parametrize("name, method", [
        ("CYCLE_THREE", "HIERARCHICAL"),
        ("CHAIN_THREE", "MARKOV"),
    ])
    def test_a_collection_without_the_structure_fails_every_call(
        self, name, method, monkeypatch
    ):
        calls = []
        real = solvers.cls.rule_applies

        def spy(spec, rule):
            calls.append(rule)
            return real(spec, rule)

        monkeypatch.setattr(solvers.cls, "rule_applies", spy)
        solvers._one_step_chain.cache_clear()
        spec = getattr(catalog, name)
        for _ in range(2):
            with pytest.raises(StructureError):
                invert(spec, zero_target(spec), SolveOptions(method=method))
        assert len(calls) == 1


class TestSolveOptions:
    def test_validation(self):
        for tol in (0, -1e-10, math.inf, math.nan):
            with pytest.raises(SpecError):
                SolveOptions(tol=tol)
        with pytest.raises(SpecError):
            SolveOptions(max_iter=0)
        with pytest.raises(SpecError):
            SolveOptions(method="MAGIC")
