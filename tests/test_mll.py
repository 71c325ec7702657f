import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mllp import catalog
from mllp.census import enumerate_complete
from mllp.errors import SpecError, StructureError
from mllp.mll import (
    MLLSpec,
    MLLVector,
    decompose_f,
    jacobian,
    jacobian_array,
    lambda_array,
    lambda_vector,
    margin_lambda_array,
)
from mllp.tables import (
    EtaVector,
    JointTable,
    VarSet,
    compress,
    eta_from_table,
    nonempty_submasks,
    submasks,
    table_from_eta,
    uniform_table,
)

from conftest import dirichlet_table, make_vars
from oracles import (
    brute_column_norm,
    brute_is_complete,
    brute_jacobian,
    brute_kappa,
    brute_lambda,
    brute_row_norm,
    brute_sign_matrix,
    chunked_jacobian,
    conditional_lambda_set,
    fd_jacobian,
    rowwise_jacobian,
)


def census_and_seeded_specs(rng: np.random.Generator) -> list[MLLSpec]:
    """The 104 census orbits at n = 3, then four seeded complete collections
    for each n = 2-6: up to three random proper margins plus the full one,
    each effect in a random margin that contains it."""
    specs = enumerate_complete(3, up_to_symmetry=True)
    for n in range(2, 7):
        full = (1 << n) - 1
        for _ in range(4):
            proper = rng.choice(np.arange(1, full), size=min(3, full - 1),
                                replace=False)
            pairs = []
            for effect in range(1, full + 1):
                options = [int(m) for m in proper if effect & ~m == 0] + [full]
                pairs.append((effect, options[int(rng.integers(len(options)))]))
            specs.append(MLLSpec(make_vars(n), tuple(pairs)))
    return specs


def wide_margin_specs(rng: np.random.Generator) -> list[MLLSpec]:
    """Hierarchical collections at n = 8, 9 and 10 with 1-3 proper margins
    that each drop one variable; every effect sits in the first margin
    holding it."""
    specs = []
    for n in (8, 9, 10):
        full = (1 << n) - 1
        for k in (1, 2, 3):
            dropped = rng.choice(n, size=k, replace=False)
            order = [full ^ (1 << int(v)) for v in dropped] + [full]
            pairs = tuple(
                (effect, next(m for m in order if effect & ~m == 0))
                for effect in range(1, full + 1)
            )
            specs.append(MLLSpec(make_vars(n), pairs))
    return specs


def narrow_margin_specs(rng: np.random.Generator) -> list[MLLSpec]:
    """Hierarchical collections at n = 4, 6 and 9 with two proper margins
    that each drop two or more variables; every effect sits in the first
    margin holding it."""
    specs = []
    for n in (4, 6, 9):
        full = (1 << n) - 1
        order = []
        for _ in range(2):
            dropped = rng.choice(n, size=int(rng.integers(2, n - 1)), replace=False)
            order.append(full & ~sum(1 << int(v) for v in dropped))
        order.append(full)
        pairs = tuple(
            (effect, next(m for m in order if effect & ~m == 0))
            for effect in range(1, full + 1)
        )
        specs.append(MLLSpec(make_vars(n), pairs))
    return specs


def shuffled_specs(rng: np.random.Generator, specs: list[MLLSpec]) -> list[MLLSpec]:
    """The collections with their pairs in a random order, so that the pairs
    of one margin are not adjacent."""
    return [
        MLLSpec(s.vars, tuple(s.pairs[i] for i in rng.permutation(len(s))))
        for s in specs
    ]


class TestLambda:
    def test_uniform_all_zero(self):
        t = uniform_table(make_vars(3))
        for margin in range(1, 8):
            lams = margin_lambda_array(t.p, t.n, margin)
            for effect in nonempty_submasks(margin):
                assert lams[compress(effect, margin)] == pytest.approx(0, abs=1e-14)

    def test_log_odds_ratio_frozen(self):
        # two-variable table with cells (0.4, 0.1, 0.1, 0.4): the pair
        # coefficient is a quarter of log 16, i.e. log 2
        t = JointTable(VarSet(("1", "3")), [0.4, 0.1, 0.1, 0.4])
        lam = margin_lambda_array(t.p, t.n, 0b11)[0b11]
        assert lam == pytest.approx(math.log(2), abs=1e-13)

    def test_full_margin_equals_eta(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        e = eta_from_table(t)
        lams = margin_lambda_array(t.p, t.n, 0b111)
        for effect in range(1, 8):
            assert lams[effect] == pytest.approx(e.value(effect), abs=1e-13)

    def test_matches_brute_force(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        for margin in (0b011, 0b101, 0b110, 0b111):
            lams = margin_lambda_array(t.p, t.n, margin)
            for effect in nonempty_submasks(margin):
                assert lams[compress(effect, margin)] == pytest.approx(
                    brute_lambda(t, effect, margin), abs=1e-12
                )

    def test_gather_equals_per_pair_lookup(self, rng):
        specs = census_and_seeded_specs(rng)
        # the same pairs over other variable names, and in another order
        specs.append(MLLSpec(VarSet(("x", "y", "z")), catalog.CHAIN_THREE.pairs))
        specs.append(MLLSpec(catalog.CHAIN_THREE.vars, catalog.CHAIN_THREE.pairs[::-1]))
        specs.append(catalog.CHAIN_THREE)
        for spec in specs:
            n = spec.vars.n
            p = dirichlet_table(spec.vars, rng).p
            want = [
                margin_lambda_array(p, n, margin)[compress(effect, margin)]
                for effect, margin in spec.pairs
            ]
            assert np.array_equal(lambda_array(p, n, spec), want)

    def test_rejects_effect_outside_margin(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        with pytest.raises(SpecError):
            lambda_vector(t, MLLSpec(t.vars, ((0b101, 0b001),)))

    def test_vector_componentwise(self, rng):
        spec = catalog.CHAIN_THREE
        t = dirichlet_table(make_vars(3), rng)
        vec = lambda_vector(t, spec)
        for (effect, margin), val in zip(spec.pairs, vec.values):
            want = margin_lambda_array(t.p, t.n, margin)[compress(effect, margin)]
            assert val == pytest.approx(want, abs=0)

    def test_single_pair_full_margin(self, rng):
        t = dirichlet_table(make_vars(2), rng)
        spec = MLLSpec(t.vars, ((0b11, 0b11),))
        assert lambda_vector(t, spec).values[0] == pytest.approx(
            eta_from_table(t).value(0b11), abs=0
        )


class TestConditionalLambdaSet:
    def test_single_variable_no_conditioning(self):
        vs = make_vars(1)
        assert conditional_lambda_set(vs, 0b1, 0) == [(0b1, 0b1)]

    def test_one_given_two(self):
        vs = make_vars(3)
        got = conditional_lambda_set(vs, 0b001, 0b110)
        assert got == [
            (0b001, 0b111),
            (0b011, 0b111),
            (0b101, 0b111),
            (0b111, 0b111),
        ]

    def test_two_given_one_has_six(self):
        vs = make_vars(3)
        got = conditional_lambda_set(vs, 0b110, 0b001)
        assert len(got) == 6
        assert all(L & 0b110 for L, _ in got)
        assert all(m == 0b111 for _, m in got)

    def test_rejects_overlap(self):
        with pytest.raises(SpecError):
            conditional_lambda_set(make_vars(2), 0b01, 0b01)


class TestDecomposeF:
    def test_additivity_exact(self, rng):
        t = dirichlet_table(make_vars(4), rng)
        cases = [(0b0010, 0b0010, 0b0001), (0b0011, 0b0011, 0b1100),
                 (0b0100, 0b0110, 0b1001)]
        for effect, margin, added in cases:
            lhs = brute_lambda(t, effect, margin | added)
            f = decompose_f(t, effect, margin, added)
            rhs = brute_lambda(t, effect, margin) + f
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_two_lambda_identity(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        f = decompose_f(t, 0b010, 0b010, 0b001)
        want = brute_lambda(t, 0b010, 0b011) - brute_lambda(t, 0b010, 0b010)
        assert f == pytest.approx(want, abs=1e-12)

    def test_uniform_vanishes(self):
        t = uniform_table(make_vars(3))
        assert decompose_f(t, 0b010, 0b110, 0b001) == pytest.approx(0, abs=1e-14)

    def test_vanishes_under_independence(self, rng):
        # product table p = p_{12} x p_3 makes the added block independent
        # of every effect variable given the rest of the margin
        vs = make_vars(3)
        p12 = np.random.default_rng(5).dirichlet(np.ones(4))
        p3 = np.random.default_rng(6).dirichlet(np.ones(2))
        p = np.array([p12[x & 3] * p3[x >> 2] for x in range(8)])
        t = JointTable(vs, p)
        # effect {2} inside margin {1,2}, adding {3}
        assert decompose_f(t, 0b010, 0b011, 0b100) == pytest.approx(0, abs=1e-10)

    def test_rejects_overlapping_added(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        with pytest.raises(StructureError):
            decompose_f(t, 0b001, 0b011, 0b010)

    def test_constant_when_conditional_fixed(self, rng):
        # vary only coefficients inside the margin: the conditional of the
        # added block given the margin stays fixed, so f stays constant
        vs = make_vars(3)
        t = dirichlet_table(vs, rng)
        margin, added, effect = 0b011, 0b100, 0b001
        f0 = decompose_f(t, effect, margin, added)
        eta = eta_from_table(t).values.copy()
        for trial in range(5):
            bump = eta.copy()
            for j in submasks(margin):
                if j:
                    bump[j] += rng.normal(0, 0.4)
            t2 = table_from_eta(EtaVector(vs, bump))
            assert decompose_f(t2, effect, margin, added) == pytest.approx(
                f0, abs=1e-11
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_additivity_property(self, seed):
        gen = np.random.default_rng(seed)
        t = dirichlet_table(make_vars(3), gen)
        margin = int(gen.integers(1, 8))
        added = int(gen.integers(1, 8)) & ~margin
        effects = list(nonempty_submasks(margin))
        effect = effects[int(gen.integers(0, len(effects)))]
        lhs = brute_lambda(t, effect, margin | added)
        rhs = brute_lambda(t, effect, margin) + decompose_f(t, effect, margin, added)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestDerivatives:
    def test_identity_when_inside_margin(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        row = jacobian(t, MLLSpec(t.vars, ((0b001, 0b011),)))[0]
        assert row[0b001 - 1] == 1.0
        assert row[0b010 - 1] == 0.0

    def test_uniform_off_margin_vanishes(self):
        t = uniform_table(make_vars(3))
        row = jacobian(t, MLLSpec(t.vars, ((0b001, 0b101),)))[0]
        assert row[0b010 - 1] == pytest.approx(0, abs=1e-14)

    def test_single_entry_fd(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        # effect {1} in margin {1,3}, derivative along the {2} coefficient
        analytic = jacobian(t, MLLSpec(t.vars, ((0b001, 0b101),)))[0, 0b010 - 1]
        h = 1e-5
        eta = eta_from_table(t).values
        up, dn = eta.copy(), eta.copy()
        up[0b010] += h
        dn[0b010] -= h
        lam = lambda x: brute_lambda(table_from_eta(EtaVector(t.vars, x)), 0b001, 0b101)
        fd = (lam(up) - lam(dn)) / (2 * h)
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_jacobian_identity_for_full_margin_spec(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        spec = MLLSpec(t.vars, tuple((L, 0b111) for L in range(1, 8)))
        assert np.allclose(jacobian(t, spec), np.eye(7), atol=0)

    def test_jacobian_unit_rows_at_uniform(self):
        t = uniform_table(make_vars(3))
        spec = catalog.TWO_BLOCK_FIXPOINT
        jac = jacobian(t, spec)
        for row, (effect, _) in zip(jac, spec.pairs):
            want = np.zeros(7)
            want[effect - 1] = 1.0
            assert np.allclose(row, want, atol=1e-14)

    def test_jacobian_equals_entrywise_loop(self, rng):
        # and the chunked gather it replaced, on margins that drop one, two
        # or more variables and on collections whose pairs are shuffled
        specs = census_and_seeded_specs(rng) + wide_margin_specs(rng)
        specs += narrow_margin_specs(rng)
        specs += shuffled_specs(rng, specs[100:])
        for spec in specs:
            n = spec.vars.n
            p = dirichlet_table(spec.vars, rng).p
            got = jacobian_array(p, n, spec)
            assert np.array_equal(got, chunked_jacobian(p, n, spec))
            assert np.array_equal(got, brute_jacobian(p, n, spec))

    def test_jacobian_equals_rowwise_gather_on_wide_margins(self, rng):
        for spec in wide_margin_specs(rng):
            p = dirichlet_table(spec.vars, rng).p
            got = jacobian_array(p, spec.vars.n, spec)
            assert np.array_equal(got, rowwise_jacobian(p, spec.vars.n, spec))

    def test_jacobian_is_a_writable_view_that_solves_alike(self, rng):
        specs = [catalog.CHAIN_THREE, catalog.OPEN_FOUR_MARGIN]
        specs += [s for s in wide_margin_specs(rng) if s.vars.n == 9]
        for spec in specs:
            n = spec.vars.n
            p = dirichlet_table(spec.vars, rng).p
            jac = jacobian_array(p, n, spec)
            assert jac.shape == (len(spec), (1 << n) - 1)
            assert jac.flags.writeable
            dense = np.ascontiguousarray(jac)
            v = rng.normal(size=len(spec))
            assert np.array_equal(jac @ v, dense @ v)
            assert np.array_equal(np.linalg.solve(jac, v), np.linalg.solve(dense, v))
            jac[:] = 0.0  # the next call shares no buffer with this one
            assert np.array_equal(jacobian_array(p, n, spec), dense)

    def test_jacobian_peak_memory_beyond_output(self, rng):
        # the gather reads at most 2**ceil(n/2) permuted copies of each
        # margin's kernel: at n = 10 the output is 8 MB, the fill about 0.8 MB
        spec = wide_margin_specs(rng)[-1]
        p = dirichlet_table(spec.vars, rng).p
        jacobian_array(p, spec.vars.n, spec)  # warm the plan cache
        tracemalloc.start()
        try:
            out = jacobian_array(p, spec.vars.n, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2.5 * 2**20

    @pytest.mark.parametrize(
        "spec",
        [
            catalog.CHAIN_THREE,
            catalog.NESTED_SKIP,
            catalog.TWO_BLOCK_FIXPOINT,
            catalog.PAIRED_SLICES,
            catalog.CYCLE_THREE,
            catalog.OPEN_FOUR_MARGIN,
            catalog.TWO_ANCHOR_CYCLE,
        ],
        ids=lambda s: f"{s.vars.n}v-{len(s.margins)}m",
    )
    def test_jacobian_matches_finite_differences(self, spec, rng):
        t = dirichlet_table(spec.vars, rng)
        analytic = jacobian(t, spec)
        fd = fd_jacobian(t, spec, h=1e-5)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert float(np.max(np.abs(analytic - fd))) / scale < 1e-6


class TestKappa:
    def test_uniform_zero(self):
        t = uniform_table(make_vars(3))
        for xv in (0, 1):
            got = brute_kappa(t, 0b010, 0b010, 0b001, xv)
            assert got == pytest.approx(0, abs=1e-14)

    def test_equals_slice_parameter(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        v = 0b001
        for xv in (0, 1):
            # slice table given the first variable
            keep = [x for x in range(8) if (x & 1) == xv]
            q = t.p[keep] / t.p[keep].sum()
            ts = JointTable(VarSet(("2", "3")), q)
            got = brute_kappa(t, 0b010, 0b010, v, xv)
            want = brute_lambda(ts, 0b01, 0b01)
            assert got == pytest.approx(want, abs=1e-12)

    def test_product_table_slices_agree(self, rng):
        vs = make_vars(3)
        gen = np.random.default_rng(17)
        p23 = gen.dirichlet(np.ones(4))
        p1 = gen.dirichlet(np.ones(2))
        p = np.array([p1[x & 1] * p23[x >> 1] for x in range(8)])
        t = JointTable(vs, p)
        k0 = brute_kappa(t, 0b010, 0b110, 0b001, 0)
        k1 = brute_kappa(t, 0b010, 0b110, 0b001, 1)
        assert k0 == pytest.approx(k1, abs=1e-12)
        marg = JointTable(VarSet(("2", "3")), p23)
        assert k0 == pytest.approx(brute_lambda(marg, 0b01, 0b11), abs=1e-12)

    def test_rejects_v_inside(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        with pytest.raises(StructureError):
            brute_kappa(t, 0b001, 0b011, 0b001, 0)


class TestNormBounds:
    def test_uniform_norm_zero(self):
        t = uniform_table(make_vars(3))
        norm, bound = brute_column_norm(t, 0b110, 0, 0b001)
        assert norm == pytest.approx(0, abs=1e-14)
        assert bound == pytest.approx(1 - 1 / 8)

    def test_random_tables_all_admissible(self, rng):
        for n in (2, 3, 4):
            t = dirichlet_table(make_vars(n), rng)
            full = t.vars.full_mask
            for margin in range(1, full):
                outside = full & ~margin
                for k in nonempty_submasks(outside):
                    for j in submasks(margin):
                        norm, bound = brute_column_norm(t, margin, j, k)
                        assert norm <= bound + 1e-12
                    for c in nonempty_submasks(margin):
                        norm, bound = brute_row_norm(t, margin, c, k)
                        assert norm <= bound + 1e-12

    def test_near_vertex_table(self):
        p = np.full(8, 1e-6)
        p[0] = 1 - 7e-6
        t = JointTable(make_vars(3), p)
        norm, bound = brute_column_norm(t, 0b110, 0, 0b001)
        assert bound > 0.999
        assert norm <= bound + 1e-12

    def test_rejects_bad_masks(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        with pytest.raises(StructureError):
            brute_column_norm(t, 0b110, 0b001, 0b001)
        with pytest.raises(StructureError):
            brute_row_norm(t, 0b110, 0b010, 0b010)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_sign_matrix_orthogonal(self, k):
        m = brute_sign_matrix(k)
        assert float(np.max(np.abs(m @ m.T - np.eye(1 << k)))) <= 1e-12


class TestSpecFormats:
    def test_text_roundtrip(self):
        spec = catalog.CHAIN_THREE
        again = MLLSpec.from_text(spec.to_text())
        assert again.pairs == spec.pairs

    def test_json_roundtrip(self):
        spec = catalog.TWO_ANCHOR_CYCLE
        again = MLLSpec.from_json(spec.to_json())
        assert again.pairs == spec.pairs
        assert again.vars.names == spec.vars.names

    def test_rejects_effect_outside_margin(self):
        with pytest.raises(SpecError, match="not contained"):
            MLLSpec.from_text("12: 13\n")

    def test_rejects_duplicate_pairs(self):
        with pytest.raises(SpecError, match="duplicate"):
            MLLSpec.from_text("12: 1 1\n")

    def test_rejects_garbage_line(self):
        with pytest.raises(SpecError, match="line 1"):
            MLLSpec.from_text("what even is this\n")

    def test_vector_length_checked(self):
        spec = catalog.CHAIN_THREE
        with pytest.raises(SpecError):
            MLLVector(spec, np.zeros(3))

    def test_is_complete_agrees_with_margins_per_effect(self, rng):
        specs = census_and_seeded_specs(rng)
        # an effect missing, and an effect in two margins (with and without
        # another effect missing to keep the pair count)
        specs += [
            MLLSpec.from_text("12: 1 2 12\n123: 3 13 123\n"),
            MLLSpec.from_text("12: 1 2 12\n23: 3 23\n123: 13 123 23\n"),
            catalog.REPEATED_EFFECT,
        ]
        verdicts = [spec.is_complete() for spec in specs]
        assert verdicts == [brute_is_complete(spec) for spec in specs]
        assert verdicts[-3:] == [False, False, False]
        assert all(verdicts[:-3])

    def test_pairs_normalised_to_int_tuples(self):
        # (int, int) tuples are kept as given; other forms become them
        kept = (1, 3)
        spec = MLLSpec(make_vars(2), (kept, [np.int64(2), np.int64(2)], (True, 1)))
        assert spec.pairs[0] is kept
        assert spec.pairs == ((1, 3), (2, 2), (1, 1))
        assert all(type(x) is int for pair in spec.pairs for x in pair)
