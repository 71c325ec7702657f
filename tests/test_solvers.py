import math

import numpy as np
import pytest

from mllp import catalog
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
    JointTable,
    VarSet,
    condition,
    eta_from_table,
    marginalize,
    popcount,
    table_from_probs,
    uniform_table,
)

from conftest import dirichlet_table, make_vars


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
        with pytest.raises(SolverError) as err:
            model_member(ms.embedding, free, statements=stmts)
        assert err.value.kind == NON_CONVERGENCE

    def test_incomplete_spec_rejected(self):
        with pytest.raises(StructureError):
            invert_fixed_point(
                catalog.REPEATED_EFFECT, zero_target(catalog.REPEATED_EFFECT)
            )


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
