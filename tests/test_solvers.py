import math

import numpy as np
import pytest

from mllp import catalog
from mllp import solvers
from mllp.classify import UNKNOWN, census, classify, hierarchy_order, rule_applies
from mllp.cimodels import CIStatement, model_member, model_spec
from mllp.errors import (
    INCONSISTENT_MARGINS,
    NON_CONVERGENCE,
    SolverError,
    SpecError,
    StructureError,
)
from mllp.mll import MLLSpec, MLLVector, lambda_value, lambda_vector, dlambda_deta
from mllp.solvers import (
    CycleChainSpec,
    SolveOptions,
    chain_from_joint,
    contraction_certificate,
    invert,
    invert_cyclic,
    invert_fixed_point,
    invert_hierarchical,
    invert_newton,
    reconstruct_mixed,
    stationary,
    stationary_power,
)
from mllp.tables import (
    EtaVector,
    JointTable,
    VarSet,
    compress,
    condition,
    eta_from_table,
    marginalize,
    popcount,
    table_from_eta,
    table_from_probs,
    uniform_table,
)

from conftest import dirichlet_table, make_vars, underflow_case
from oracles import brute_fixed_point


def zero_target(spec: MLLSpec) -> MLLVector:
    return MLLVector(spec, np.zeros(len(spec)))


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
        # a CI_FIVE_VAR member outside the parameter domain: the damped
        # fixed point of AUTO bottoms out at sweep 89 and, without the stall
        # stop, sweeps on for over a thousand more until a cell underflows
        vs = make_vars(5)
        stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_FIVE_VAR]
        ms = model_spec(stmts)
        draw = np.random.default_rng(2026).uniform(-1.2, 1.2, 32)
        free = dict(zip(ms.free_pairs, (float(v) for v in draw)))
        values = [free.get(pair, 0.0) for pair in ms.embedding.pairs]
        target = MLLVector(ms.embedding, np.array(values))
        with pytest.raises(SolverError, match="stalled") as err:
            invert_fixed_point(
                ms.embedding, target, SolveOptions(max_iter=2000), damping=0.5
            )
        assert err.value.kind == NON_CONVERGENCE
        assert len(err.value.trace) <= 150
        assert_same_as_oracle(
            ms.embedding, target, SolveOptions(max_iter=2000), damping=0.5
        )
        with pytest.raises(SolverError) as err:
            model_member(ms.embedding, free, statements=stmts)
        assert err.value.kind == NON_CONVERGENCE

    def test_incomplete_spec_rejected(self):
        with pytest.raises(StructureError):
            invert_fixed_point(
                catalog.REPEATED_EFFECT, zero_target(catalog.REPEATED_EFFECT)
            )


# Collections proven through a fixed-point base rule at 4 and 5 variables
# (the rule chain after the #); AUTO inversion runs the fixed point on them
# or, after the reductions, on a smaller collection.
FIXED_POINT_RULES = {"two_margin", "three_margin", "single_feedback"}
FIXED_POINT_ROUTES_N45 = [
    "1234: 1 2 13 23 123 134 234 1234; 124: 12 14 24 124; 134: 3 4 34",  # three_margin
    "1234: 1 2 12 13 123 4 14 124 34 134 234 1234; 234: 3 23 24",  # two_margin
    "12: 1; 23: 2 23; 1234: 12 3 13 123 4 14 24 124 34 134 234 1234",  # variable_removal>three_margin
    "134: 1 14 134; 234: 2 24 234; 1234: 12 3 13 23 123 124 34 1234; 34: 4",  # contraction_reduce>two_margin
    "12345: 1 3 13 4 14 124 34 134 234 1234 5 15 25 35 135 1235 45 145 245 1245 "
    "345 1345 2345 12345; 234: 2 24; 1235: 12 23 123 125 235",  # three_margin
    "124: 1 14 124; 12345: 2 12 3 13 23 123 4 24 34 134 234 1234 5 15 25 125 35 "
    "135 235 1235 45 145 245 1245 345 1345 2345 12345",  # two_margin
    "145: 1 45; 12345: 2 12 23 123 4 24 124 34 134 234 1234 5 15 25 125 35 135 "
    "235 1235 145 245 1245 345 1345 2345 12345; 1345: 3 13 14",  # variable_removal>two_margin
]


def _spec_line(text: str) -> MLLSpec:
    return MLLSpec.from_text(text.replace("; ", "\n"))


def _skewed_table(vs, rng) -> JointTable:
    """Dirichlet(0.3) draw, floored at 1e-9 so that every cell is valid."""
    p = np.maximum(rng.dirichlet(np.full(vs.n_cells, 0.3)), 1e-9)
    return JointTable(vs, p / p.sum())


def _outcome(solve, spec, target, opts, damping):
    try:
        return solve(spec, target, opts, damping=damping)
    except (SolverError, StructureError) as exc:
        return exc


def assert_same_as_oracle(spec, target, opts=SolveOptions(), damping=1.0):
    """The compiled sweep and the per-pair oracle: the same sweeps and
    residuals, the same error class and kind, tables within 1e-12."""
    got = _outcome(invert_fixed_point, spec, target, opts, damping)
    want = _outcome(brute_fixed_point, spec, target, opts, damping)
    assert type(got) is type(want)
    if isinstance(want, StructureError):
        return want
    np.testing.assert_allclose(got.trace, want.trace, rtol=1e-9, atol=1e-12)
    if isinstance(want, SolverError):
        assert got.kind == want.kind
        return want
    assert got.iterations == want.iterations
    assert float(np.max(np.abs(got.table.p - want.table.p))) <= 1e-12
    if want.contraction_certificate is None:
        assert got.contraction_certificate is None
    else:
        assert abs(got.contraction_certificate - want.contraction_certificate) <= 1e-12
    return want


class TestCompiledSweep:
    def test_undecided_orbits_damped_match_oracle(self):
        rng = np.random.default_rng(8)
        rows = [r for r in census(3)["rows"] if r["verdict"] == UNKNOWN]
        assert len(rows) == 43
        opts = SolveOptions(max_iter=2000)
        kinds = set()
        for row in rows:
            spec = _spec_line(row["spec"])
            for draw in (dirichlet_table, _skewed_table):
                target = lambda_vector(draw(spec.vars, rng), spec)
                want = assert_same_as_oracle(spec, target, opts, damping=0.5)
                kinds.add(getattr(want, "kind", "converged"))
        assert "converged" in kinds

    def test_route_stages_match_oracle(self, monkeypatch):
        # every fixed-point stage that AUTO inversion runs on the census
        # orbits proven through a fixed-point rule and on the collections
        # above, with its own spec and target
        stages = []

        def record(spec, target, opts=SolveOptions(), damping=1.0):
            stages.append((spec, target, opts, damping))
            return brute_fixed_point(spec, target, opts, damping)

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
            assert_same_as_oracle(*stage)

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
        a = np.array(
            [dlambda_deta(t, 0b001, 0b101, 0b010), dlambda_deta(t, 0b001, 0b101, 0b110)]
        )
        b = np.array(
            [dlambda_deta(t, 0b010, 0b110, 0b001), dlambda_deta(t, 0b110, 0b110, 0b001)]
        )
        psi_prime = float(a @ b)
        eps = t.min_cell
        assert abs(psi_prime) <= 1 - eps
        cert = contraction_certificate(spec, t)
        assert psi_prime**2 <= cert * (1 - eps) + 1e-12

    def test_requires_single_feedback_structure(self, rng):
        with pytest.raises(StructureError):
            contraction_certificate(
                catalog.CYCLE_THREE, dirichlet_table(make_vars(3), rng)
            )


class TestReconstructMixed:
    def test_no_margins_is_pure_exponential(self):
        vs = make_vars(2)
        got = reconstruct_mixed(vs, [], {1: 0.3, 2: -0.2, 3: 0.1})
        e = eta_from_table(got)
        assert e.value(1) == pytest.approx(0.3, abs=1e-12)
        assert e.value(2) == pytest.approx(-0.2, abs=1e-12)
        assert e.value(3) == pytest.approx(0.1, abs=1e-12)

    def test_uniform_margins_with_odds_ratio(self):
        # uniform one-variable margins plus a pairwise coefficient of
        # log 2 pin the 2x2 table (0.4, 0.1, 0.1, 0.4)
        vs = VarSet(("1", "3"))
        u = table_from_probs(VarSet(("1",)), [0.5, 0.5])
        u3 = table_from_probs(VarSet(("3",)), [0.5, 0.5])
        got = reconstruct_mixed(vs, [u, u3], {0b11: math.log(2.0)})
        assert np.allclose(got.p, [0.4, 0.1, 0.1, 0.4], atol=1e-11)
        assert lambda_value(got, 0b11, 0b11) == pytest.approx(
            math.log(2.0), abs=1e-11
        )

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_drop_one_margins_plus_top_coefficient(self, n, rng):
        # every (n-1)-variable margin, the shape the large-table benchmark
        # inverts at n = 9; only the top coefficient is left uncovered
        t = dirichlet_table(make_vars(n), rng)
        full = t.vars.full_mask
        margins = [marginalize(t, full ^ (1 << v)) for v in range(n)]
        eta_top = eta_from_table(t).value(full)
        got = reconstruct_mixed(t.vars, margins, {full: eta_top})
        assert float(np.max(np.abs(got.p - t.p))) < 1e-8

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
            got = solvers._least_squares_step(jac, r)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= cond * 1e-13

    def test_inconsistent_margins_rejected(self, rng):
        vs = make_vars(2)
        p1a = table_from_probs(VarSet(("1",)), [0.9, 0.1])
        p1b_p2 = table_from_probs(VarSet(("1", "2")), [0.1, 0.4, 0.1, 0.4])
        with pytest.raises(SolverError) as err:
            reconstruct_mixed(vs, [p1a, p1b_p2], {})
        assert err.value.kind == INCONSISTENT_MARGINS

    def test_wrong_target_cover_rejected(self, rng):
        vs = make_vars(2)
        p1 = table_from_probs(VarSet(("1",)), [0.5, 0.5])
        with pytest.raises(SpecError):
            reconstruct_mixed(vs, [p1], {1: 0.0})


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

        def record(vars_m, margins, eta_targets):
            seen.append(list(eta_targets.items()))
            return real(vars_m, margins, eta_targets)

        monkeypatch.setattr(solvers, "reconstruct_mixed", record)
        invert_hierarchical(spec, target)
        values = dict(zip(spec.pairs, target.values))
        want = [
            [(compress(e, margin), values[(e, m)]) for e, m in spec.pairs if m == margin]
            for margin in hierarchy_order(spec)
        ]
        assert seen == want
        assert all(type(key) is int for items in seen for key, _ in items)

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
    def test_underflowed_cell_is_a_solver_failure(self):
        # the final checks of reconstruct_mixed fail on a NaN coefficient
        spec, t = underflow_case()
        with pytest.raises(SolverError, match="NON_CONVERGENCE"):
            invert(spec, lambda_vector(t, spec))

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

    def test_newton_restart_rescues(self):
        # the damped fixed point and the zero-start Newton both fail here;
        # the first restart drawn from default_rng(0) succeeds in 37 steps
        # (other seeds take other step counts)
        spec = MLLSpec.from_text("1: 1\n2: 2\n12: 12\n13: 13\n23: 23\n123: 3 123")
        p = np.random.default_rng(2).dirichlet(np.full(8, 0.1))
        t = table_from_probs(spec.vars, p / p.sum())
        target = lambda_vector(t, spec)
        with pytest.raises(SolverError):
            invert_newton(spec, target)
        res = invert(spec, target)
        assert res.method_used == "newton"
        assert res.iterations == 37
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

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
        # reductions replay the rest of the one classification chain
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
        spec = getattr(catalog, name)
        t = dirichlet_table(spec.vars, rng)
        res = invert(spec, lambda_vector(t, spec))
        assert top_level_calls == 1
        assert float(np.max(np.abs(res.table.p - t.p))) < 1e-8

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


class TestSolveOptions:
    def test_validation(self):
        with pytest.raises(SpecError):
            SolveOptions(tol=0)
        with pytest.raises(SpecError):
            SolveOptions(max_iter=0)
        with pytest.raises(SpecError):
            SolveOptions(method="MAGIC")
