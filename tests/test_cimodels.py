import warnings

import numpy as np
import pytest

from mllp import catalog, solvers
from mllp.cimodels import (
    CIStatement,
    _two_anchor_warm_start,
    ci_holds,
    ci_to_zero_params,
    model_member,
    model_spec,
)
from mllp.classify import PROVEN_SMOOTH, classify
from mllp.errors import NON_CONVERGENCE, SolverError, SpecError
from mllp.mll import conditional_lambda_set, lambda_vector
from mllp.markov import (
    GibbsCycleSpec,
    _sweep_kernel,
    gibbs_stationary,
    stationary,
)
from mllp.tables import (
    JointTable,
    compress,
    compress_map,
    condition,
    eta_from_dict,
    fwht,
    marginalize,
    nonempty_submasks,
    table_from_eta,
)

from conftest import dirichlet_table, load_script, make_vars, outside_domain_values
from oracles import (
    brute_model_spec,
    brute_sweep_kernel,
    chain_from_joint,
    conditional_from_lambda,
)


def model_specs_sample() -> list[list[CIStatement]]:
    """The 2 000 statement lists of ``scripts/model_specs.py`` (seed 0)."""
    return load_script("model_specs").sample()


def product_table(vs, rng, mask_a, mask_b):
    """Table where the variables in mask_a are independent of the rest."""
    na, nb = bin(mask_a).count("1"), bin(mask_b).count("1")
    pa = rng.dirichlet(np.ones(1 << na))
    pb = rng.dirichlet(np.ones(1 << nb))
    a_pos = [i for i in range(vs.n) if mask_a >> i & 1]
    b_pos = [i for i in range(vs.n) if mask_b >> i & 1]
    p = np.zeros(vs.n_cells)
    for x in range(vs.n_cells):
        ka = sum(1 << j for j, pos in enumerate(a_pos) if x >> pos & 1)
        kb = sum(1 << j for j, pos in enumerate(b_pos) if x >> pos & 1)
        p[x] = pa[ka] * pb[kb]
    return JointTable(vs, p)


class TestStatements:
    def test_text_roundtrip(self):
        vs = make_vars(4)
        s = CIStatement.from_text(vs, "1 _||_ 2 | 3")
        assert (s.a, s.b, s.c) == (0b0001, 0b0010, 0b0100)
        assert s.to_text() == "1 _||_ 2 | 3"

    def test_text_without_conditioning(self):
        vs = make_vars(3)
        s = CIStatement.from_text(vs, "1 _||_ 2")
        assert s.c == 0

    def test_block_statement(self):
        vs = make_vars(4)
        s = CIStatement.from_text(vs, "1 _||_ 2,4")
        assert (s.a, s.b) == (0b0001, 0b1010)

    def test_rejects_overlap(self):
        vs = make_vars(3)
        with pytest.raises(SpecError):
            CIStatement(vs, 0b001, 0b011)

    def test_json_roundtrip(self):
        vs = make_vars(4)
        s = CIStatement.from_text(vs, "1,2 _||_ 3 | 4")
        again = CIStatement.from_json_obj(vs, s.to_json_obj())
        assert again == s


class TestCiHolds:
    def test_full_product_table(self, rng):
        vs = make_vars(3)
        t = product_table(vs, rng, 0b001, 0b110)
        assert ci_holds(t, CIStatement(vs, 0b001, 0b010, 0b100))
        assert ci_holds(t, CIStatement(vs, 0b001, 0b110, 0))

    def test_random_table_generically_fails(self, rng):
        vs = make_vars(3)
        t = dirichlet_table(vs, rng)
        assert not ci_holds(t, CIStatement(vs, 0b001, 0b010, 0b100))

    def test_markov_construction_holds(self, rng):
        # p = p(3) p(1|3) p(2|3) satisfies independence of 1 and 2 given 3
        vs = make_vars(3)
        base = dirichlet_table(vs, rng)
        p3 = marginalize(base, 0b100)
        c13 = condition(base, 0b001, 0b100)
        c23 = condition(base, 0b010, 0b100)
        p = np.zeros(8)
        for x in range(8):
            x1, x2, x3 = x & 1, (x >> 1) & 1, (x >> 2) & 1
            p[x] = p3.p[x3] * c13.values[x1, x3] * c23.values[x2, x3]
        t = JointTable(vs, p)
        assert ci_holds(t, CIStatement(vs, 0b001, 0b010, 0b100))


class TestZeroParams:
    def test_pair_given_single(self):
        vs = make_vars(3)
        got = ci_to_zero_params(CIStatement(vs, 0b001, 0b010, 0b100))
        assert got == [(0b011, 0b111), (0b111, 0b111)]

    def test_pair_given_other_single(self):
        vs = make_vars(4)
        got = ci_to_zero_params(CIStatement(vs, 0b0001, 0b0100, 0b1000))
        assert got == [(0b0101, 0b1101), (0b1101, 0b1101)]

    def test_unconditional_pair(self):
        vs = make_vars(2)
        got = ci_to_zero_params(CIStatement(vs, 0b01, 0b10, 0))
        assert got == [(0b11, 0b11)]

    def test_block_statement_expands_over_pairs(self):
        vs = make_vars(4)
        got = ci_to_zero_params(CIStatement(vs, 0b0001, 0b1010, 0))
        assert set(got) == {
            (L, 0b1011)
            for L in range(1, 16)
            if (L & ~0b1011) == 0 and (L & 0b0001) and (L & 0b1010)
        }


class TestConditionalFromLambda:
    def test_zero_values_give_uniform(self):
        vs = make_vars(3)
        pairs = conditional_lambda_set(vs, 0b001, 0b110)
        cond = conditional_from_lambda(vs, 0b001, 0b110, {p: 0.0 for p in pairs})
        assert np.allclose(cond.values, 0.5, atol=1e-13)

    def test_extract_and_compare(self, rng):
        vs = make_vars(3)
        t = dirichlet_table(vs, rng)
        pairs = conditional_lambda_set(vs, 0b001, 0b110)
        vals = {
            p: lambda_vector(t, _spec_of(vs, pairs)).values[i]
            for i, p in enumerate(pairs)
        }
        cond = conditional_from_lambda(vs, 0b001, 0b110, vals)
        want = condition(t, 0b001, 0b110)
        assert float(np.max(np.abs(cond.values - want.values))) < 1e-10

    def test_cut_invariance(self, rng):
        # the conditioning-set effects do not matter: build the margin
        # table with arbitrary values there, condition, compare
        vs = make_vars(3)
        t = dirichlet_table(vs, rng)
        pairs = conditional_lambda_set(vs, 0b001, 0b110)
        vals = {
            p: lambda_vector(t, _spec_of(vs, pairs)).values[i]
            for i, p in enumerate(pairs)
        }
        cond0 = conditional_from_lambda(vs, 0b001, 0b110, vals)
        from mllp.tables import eta_from_dict, table_from_eta
        from mllp.tables import nonempty_submasks

        for _ in range(5):
            entries = {e: v for (e, _), v in vals.items()}
            for b_eff in nonempty_submasks(0b110):
                entries[b_eff] = float(rng.normal(0, 0.8))
            t_alt = table_from_eta(eta_from_dict(vs, entries))
            cond_alt = condition(t_alt, 0b001, 0b110)
            assert float(np.max(np.abs(cond_alt.values - cond0.values))) < 1e-12

    def test_wrong_cover_rejected(self):
        vs = make_vars(3)
        with pytest.raises(SpecError):
            conditional_from_lambda(vs, 0b001, 0b110, {(0b001, 0b111): 0.0})


def _spec_of(vs, pairs):
    from mllp.mll import MLLSpec

    return MLLSpec(vs, tuple(pairs))


# the carried kernel sums its final cells in another order than the oracle
KERNEL_TOL = 4 * np.finfo(float).eps


def _pair_sweep(t):
    """The alternating sweep of acceptance criterion 11 on a four-variable
    table, with state variables 1 and 2."""
    m = t.vars.mask
    return GibbsCycleSpec(
        t.vars,
        (
            (m("4"), m("12"), condition(t, m("4"), m("12"))),
            (m("3"), m("24"), condition(t, m("3"), m("24"))),
            (m("1"), m("34"), condition(t, m("1"), m("34"))),
            (m("2"), m("13"), condition(t, m("2"), m("13"))),
        ),
        m("12"),
    )


def _sweeps(t):
    """The sweeps of the Gibbs tests on a table of two to four variables,
    plus a three-variable sweep that draws a two-variable block."""
    vs = t.vars
    if vs.n == 2:
        steps = ((0b10, 0b01), (0b01, 0b10))
        return [
            GibbsCycleSpec(vs, [(a, b, condition(t, a, b)) for a, b in steps], 0b01)
        ]
    if vs.n == 3:
        chain = ((0b010, 0b001), (0b100, 0b010), (0b001, 0b100))
        block = ((0b110, 0b001), (0b001, 0b110))
        return [
            GibbsCycleSpec(vs, [(a, b, condition(t, a, b)) for a, b in chain], 0b001),
            GibbsCycleSpec(vs, [(a, b, condition(t, a, b)) for a, b in block], 0b011),
        ]
    return [_pair_sweep(t)]


def _two_anchor_free(rng):
    """Criterion 11's statements and free values of ``TWO_ANCHOR_CYCLE``
    drawn within +-0.6."""
    vs = make_vars(4)
    stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_LOOP_FOUR]
    zero = {p for s in stmts for p in ci_to_zero_params(s)}
    free_pairs = [p for p in catalog.TWO_ANCHOR_CYCLE.pairs if p not in zero]
    return stmts, {p: float(rng.uniform(-0.6, 0.6)) for p in free_pairs}


class TestGibbs:
    def test_independent_steps_give_product(self, rng):
        vs = make_vars(2)
        t = product_table(vs, rng, 0b01, 0b10)
        sweep = GibbsCycleSpec(
            vs,
            (
                (0b10, 0b01, condition(t, 0b10, 0b01)),
                (0b01, 0b10, condition(t, 0b01, 0b10)),
            ),
            0b01,
        )
        pi = gibbs_stationary(sweep)
        want = marginalize(t, 0b01)
        assert float(np.max(np.abs(pi.p - want.p))) < 1e-12

    def test_agrees_with_block_chain(self, rng):
        # the chained-blocks stationary solver and the sweep composition
        # must produce the same distribution
        t = dirichlet_table(make_vars(3), rng)
        blocks = [0b001, 0b010, 0b100]
        chain = chain_from_joint(t, blocks)
        direct = stationary(chain)
        sweep = GibbsCycleSpec(
            t.vars,
            (
                (0b010, 0b001, condition(t, 0b010, 0b001)),
                (0b100, 0b010, condition(t, 0b100, 0b010)),
                (0b001, 0b100, condition(t, 0b001, 0b100)),
            ),
            0b001,
        )
        pi = gibbs_stationary(sweep)
        assert float(np.max(np.abs(pi.p - direct.p))) < 1e-12

    def test_four_step_sweep_recovers_pair_marginal(self, rng):
        # the alternating pair sweep keeps the pair marginal invariant for
        # any positive table
        t = dirichlet_table(make_vars(4), rng)
        pi = gibbs_stationary(_pair_sweep(t))
        want = marginalize(t, 0b0011)
        assert float(np.max(np.abs(pi.p - want.p))) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_kernel_matches_per_start_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4):
            for sweep in _sweeps(dirichlet_table(make_vars(n), rng)):
                np.testing.assert_allclose(
                    _sweep_kernel(sweep), brute_sweep_kernel(sweep), rtol=0, atol=KERNEL_TOL
                )

    def test_kernel_matches_oracle_on_criterion_11_members(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            stmts, free = _two_anchor_free(rng)
            t = model_member(catalog.TWO_ANCHOR_CYCLE, free, statements=stmts)
            sweep = _pair_sweep(t)
            np.testing.assert_allclose(
                _sweep_kernel(sweep), brute_sweep_kernel(sweep), rtol=0, atol=KERNEL_TOL
            )

    def test_rejects_unavailable_conditioning(self, rng):
        vs = make_vars(3)
        t = dirichlet_table(vs, rng)
        with pytest.raises(SpecError):
            GibbsCycleSpec(
                vs,
                ((0b010, 0b100, condition(t, 0b010, 0b100)),),
                0b001,
            )


class TestModelSpec:
    def test_loop_model_zero_pairs(self):
        vs = make_vars(4)
        stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_LOOP_THREE]
        ms = model_spec(stmts)
        assert set(ms.zero_pairs) == {
            (0b0011, 0b0111), (0b0111, 0b0111),
            (0b0101, 0b1101), (0b1101, 0b1101),
            (0b1001, 0b1011), (0b1011, 0b1011),
        }
        assert ms.embedding is not None
        assert classify(ms.embedding).verdict == PROVEN_SMOOTH

    def test_repeated_effect_model_has_no_embedding(self):
        vs = make_vars(4)
        stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_NON_SMOOTH]
        ms = model_spec(stmts)
        assert ms.embedding is None
        # the conflicting effect is the triple {1,2,4}
        assert any(e == 0b1011 for e, _ in ms.zero_pairs)

    def test_sample_matches_the_oracle_and_never_raises(self):
        # the oracle raises where it copies a zero margin onto an effect
        # outside it; model_spec then embeds completely
        equal = crashed = conflicting = 0
        for statements in model_specs_sample():
            ms = model_spec(statements)
            try:
                want = brute_model_spec(statements)
            except SpecError:
                crashed += 1
            else:
                assert ms == want
                equal += 1
            margins: dict[int, set[int]] = {}
            for s in statements:
                for effect, margin in ci_to_zero_params(s):
                    margins.setdefault(effect, set()).add(margin)
            conflict = any(len(found) > 1 for found in margins.values())
            assert (ms.embedding is None) == conflict
            if ms.embedding is not None:
                assert ms.embedding.is_complete()
                assert set(ms.zero_pairs) <= set(ms.embedding.pairs)
            conflicting += conflict
        assert (equal, crashed, conflicting) == (1799, 201, 694)

    def test_statement_on_fewer_variables_embeds(self):
        vs = make_vars(3)
        stmts = [CIStatement.from_text(vs, "2 _||_ 3")]
        ms = model_spec(stmts)
        assert ms.zero_pairs == ((0b110, 0b110),)
        assert ms.embedding.is_complete()

    def test_empty_statement_list(self):
        vs = make_vars(3)
        ms = model_spec([], vars=vs)
        assert ms.zero_pairs == ()
        assert ms.embedding is not None
        assert all(m == 0b111 for _, m in ms.embedding.pairs)


class TestModelMember:
    def test_zero_free_values_give_uniform(self):
        vs = make_vars(4)
        stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_LOOP_THREE]
        ms = model_spec(stmts)
        t = model_member(ms.embedding, {}, statements=stmts)
        assert np.allclose(t.p, 1 / 16, atol=1e-9)

    def test_loop_model_members_satisfy_statements(self, rng):
        vs = make_vars(4)
        stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_LOOP_THREE]
        ms = model_spec(stmts)
        for _ in range(3):
            free = {p: float(rng.uniform(-0.7, 0.7)) for p in ms.free_pairs}
            t = model_member(ms.embedding, free, statements=stmts)
            lam = lambda_vector(t, ms.embedding).as_dict()
            assert max(abs(lam[p]) for p in ms.zero_pairs) < 1e-9
            for p in ms.free_pairs:
                assert lam[p] == pytest.approx(free[p], abs=1e-9)

    def test_two_anchor_member(self, rng):
        vs = make_vars(4)
        stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_LOOP_FOUR]
        emb = catalog.TWO_ANCHOR_CYCLE
        zero = {p for s in stmts for p in ci_to_zero_params(s)}
        free_pairs = [p for p in emb.pairs if p not in zero]
        assert len(free_pairs) == 7
        free = {p: float(rng.uniform(-0.6, 0.6)) for p in free_pairs}
        t = model_member(emb, free, statements=stmts)
        for s in stmts:
            assert ci_holds(t, s, 1e-9)

    def test_rejects_unknown_free_pairs(self):
        vs = make_vars(4)
        stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_LOOP_THREE]
        ms = model_spec(stmts)
        with pytest.raises(SpecError):
            model_member(ms.embedding, {(0b1, 0b1): 0.5})

    def test_free_values_outside_domain_fail_cleanly(self, capfd):
        # one of these margins underflows to 0 in the hierarchical route;
        # the failure must not warn or reach LAPACK with non-finite input
        vs = make_vars(4)
        stmts = [CIStatement.from_text(vs, s) for s in catalog.CI_LOOP_THREE]
        ms = model_spec(stmts)
        free = dict(zip(ms.free_pairs, outside_domain_values()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError) as err:
                model_member(ms.embedding, free, statements=stmts)
        assert err.value.kind == NON_CONVERGENCE
        assert capfd.readouterr().err == ""


class TestTwoAnchorWarmStart:
    def test_is_the_product_of_the_anchor_tables(self, rng):
        emb = catalog.TWO_ANCHOR_CYCLE
        vs = emb.vars
        _, free = _two_anchor_free(rng)
        p = np.ones(vs.n_cells)
        for m in (vs.mask("14"), vs.mask("23")):
            entries = {compress(e, m): free[(e, m)] for e in nonempty_submasks(m)}
            anchor = table_from_eta(eta_from_dict(vs.restrict(m), entries))
            p *= anchor.p[compress_map(vs.n, m)]
        want = fwht(np.log(p)) / vs.n_cells
        got = _two_anchor_warm_start(emb, free)
        assert got[0] == 0.0
        assert float(np.max(np.abs(got[1:] - want[1:]))) < 1e-12

    def test_missing_anchor_coefficient_gives_none(self, rng):
        _, free = _two_anchor_free(rng)
        assert _two_anchor_warm_start(catalog.TWO_ANCHOR_CYCLE, free) is not None
        del free[(0b1001, 0b1001)]
        assert _two_anchor_warm_start(catalog.TWO_ANCHOR_CYCLE, free) is None

    def test_members_take_one_warm_newton_solve(self, rng, monkeypatch):
        calls = []
        invert, invert_newton = solvers.invert, solvers.invert_newton

        def newton(*args, **kwargs):
            calls.append(("invert_newton", kwargs.get("init_eta") is not None))
            return invert_newton(*args, **kwargs)

        def auto(*args, **kwargs):
            calls.append(("invert", False))
            return invert(*args, **kwargs)

        monkeypatch.setattr(solvers, "invert_newton", newton)
        monkeypatch.setattr(solvers, "invert", auto)
        for _ in range(5):
            stmts, free = _two_anchor_free(rng)
            calls.clear()
            model_member(catalog.TWO_ANCHOR_CYCLE, free, statements=stmts)
            assert calls == [("invert_newton", True)]


class TestZeroLambdaEquivalence:
    def test_zero_parameters_iff_independence(self, rng):
        # one direction: inverting with the designated zeros produces a
        # table satisfying the statement; converse: tables satisfying the
        # statement have those parameters at zero
        vs = make_vars(3)
        stmt = CIStatement(vs, 0b001, 0b010, 0b100)
        stmts = [stmt]
        ms = model_spec(stmts)
        free = {p: float(rng.uniform(-0.8, 0.8)) for p in ms.free_pairs}
        t = model_member(ms.embedding, free, statements=stmts)
        assert ci_holds(t, stmt, 1e-10)
        # converse on a fresh table built to satisfy the statement
        base = dirichlet_table(vs, rng)
        p3 = marginalize(base, 0b100)
        c13 = condition(base, 0b001, 0b100)
        c23 = condition(base, 0b010, 0b100)
        p = np.zeros(8)
        for x in range(8):
            x1, x2, x3 = x & 1, (x >> 1) & 1, (x >> 2) & 1
            p[x] = p3.p[x3] * c13.values[x1, x3] * c23.values[x2, x3]
        t2 = JointTable(vs, p)
        lam = lambda_vector(t2, ms.embedding).as_dict()
        assert max(abs(lam[p_]) for p_ in ms.zero_pairs) < 1e-10
