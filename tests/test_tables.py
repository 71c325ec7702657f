import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mllp.errors import InvalidTableError
from mllp.tables import (
    ConditionalTable,
    EtaVector,
    JointTable,
    MAX_VARS,
    compress,
    compress_map,
    condition,
    eta_from_dict,
    eta_from_table,
    fwht,
    marginal_array,
    marginalize,
    packed_indices,
    random_table,
    table_from_eta,
    table_from_probs,
    uniform_table,
)

from conftest import dirichlet_table, make_vars
from oracles import (
    brute_compress,
    brute_conditional,
    brute_eta,
    brute_fwht,
    brute_marginal,
    joint_from_conditional,
    sign,
)


def assert_fwht_close(got: np.ndarray, want: np.ndarray, a: np.ndarray) -> None:
    """Each output within log2(n) rounding units of its row's sum of
    magnitudes: the first-order error bound of a summation tree of that
    depth (the kernel and the oracle add in different orders)."""
    n = a.shape[-1]
    tol = max(n.bit_length() - 1, 1) * np.finfo(np.float64).eps
    bound = tol * np.abs(a).sum(axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= bound)


class TestBitAlgebra:
    def test_parity_empty_effect(self):
        assert sign(0, 0b10110) == 1

    def test_parity_even_overlap(self):
        # effect {1,3} = bits 0 and 2 against cell 0b101: two ones
        assert sign(0b101, 0b101) == 1

    def test_parity_odd_overlap(self):
        assert sign(0b101, 0b001) == -1

    def test_compress_matches_oracle(self):
        # every cell against every mask of up to 7 bits, and wide masks
        for mask in range(1 << 7):
            for cell in range(1 << 7):
                assert compress(cell, mask) == brute_compress(cell, mask)
        wide = ((1 << 40) - 1) & ~(1 << 3 | 1 << 17)
        for cell in (0, wide, (1 << 41) - 1, 0b1010_1010 << 15):
            assert compress(cell, wide) == brute_compress(cell, wide)

    def test_compress_maps_are_cached_read_only(self):
        # every mask up to 6 bits, and two wide ones at 10 and MAX_VARS bits
        cases = [(n, mask) for n in range(1, 7) for mask in range(1 << n)]
        cases += [(10, 0b1011001101), (MAX_VARS, 0xA5C3)]
        for n, mask in cases:
            got = compress_map(n, mask)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1
            assert got.tolist() == [compress(x, mask) for x in range(1 << n)]
            assert compress_map(n, mask) is got

    def test_bit_packing_maps(self, rng):
        for n in range(1, 6):
            cells = range(1 << n)
            for mask in range(1 << n):
                want = [compress(x, mask) for x in cells]
                assert compress_map(n, mask).tolist() == want
            vs = make_vars(n)
            for k in range(n + 1):
                names = tuple(rng.permutation(vs.names)[:k])
                want = [
                    sum((x >> vs.position(nm) & 1) << j for j, nm in enumerate(names))
                    for x in cells
                ]
                assert packed_indices(vs, names).tolist() == want

    def test_fwht_matches_sign_sum(self, rng):
        for k in range(13):
            v = rng.normal(size=1 << k)
            assert_fwht_close(fwht(v), brute_fwht(v), v)
        # 2**16 cells, the MAX_VARS table: a sample of outputs
        v = rng.normal(size=1 << 16)
        outputs = [0, (1 << 16) - 1, *rng.choice(1 << 16, 62, replace=False)]
        assert_fwht_close(fwht(v)[outputs], brute_fwht(v, outputs), v)

    def test_fwht_stacks_match_oracle(self, rng):
        for shape in [(5, 8), (3, 128), (2, 3, 32), (2, 2, 1024)]:
            batch = rng.normal(size=shape)
            got = fwht(batch)
            assert got.shape == shape
            assert_fwht_close(got, brute_fwht(batch), batch)

    def test_fwht_rejects_non_power_of_two(self):
        for n in (0, 3, 6, 12, 1000):
            with pytest.raises(ValueError, match="power of two"):
                fwht(np.ones(n))
        with pytest.raises(ValueError, match="power of two"):
            fwht(np.ones((4, 24)))

    def test_fwht_non_finite_where_oracle_is(self, rng):
        batch = rng.normal(size=(6, 64))
        batch[1, 5] = -np.inf  # a log of an underflowed cell
        batch[2, [0, 9]] = -np.inf
        batch[3, 17] = np.nan
        batch[4, [3, 40]] = [np.inf, -np.inf]
        with np.errstate(invalid="ignore"):
            for stack in (batch, batch.reshape(2, 3, 64), batch[:, :16]):
                got, want = fwht(stack), brute_fwht(stack)
                assert np.array_equal(np.isfinite(got), np.isfinite(want))
                rows = np.isfinite(stack).all(axis=-1)
                assert_fwht_close(got[rows], want[rows], stack[rows])


class TestJointTable:
    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidTableError, match="cells"):
            JointTable(make_vars(2), np.array([0.5, 0.5]))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidTableError, match="entries must be"):
            table_from_probs(make_vars(1), [1.0, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidTableError, match="sum to 1"):
            table_from_probs(make_vars(1), [0.6, 0.6])

    def test_json_roundtrip(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        t2 = JointTable.from_json(t.to_json())
        assert t2.vars.names == t.vars.names
        assert np.allclose(t2.p, t.p, atol=0)

    def test_json_rejects_wrong_length(self):
        with pytest.raises(InvalidTableError, match="length"):
            JointTable.from_json('{"variables": ["1", "2"], "p": [0.5, 0.5]}')

    def test_json_rejects_missing_fields(self):
        with pytest.raises(InvalidTableError):
            JointTable.from_json('{"p": [1.0]}')


class TestEtaTransform:
    def test_uniform_gives_zero(self):
        e = eta_from_table(uniform_table(make_vars(3)))
        assert np.allclose(e.values, 0.0, atol=1e-15)

    def test_single_variable_frozen_value(self):
        t = table_from_probs(make_vars(1), [0.8, 0.2])
        assert eta_from_table(t).value(1) == pytest.approx(
            0.5 * math.log(4.0), abs=1e-14
        )

    def test_single_variable_inverse_frozen(self):
        e = eta_from_dict(make_vars(1), {1: 0.5 * math.log(4.0)})
        assert np.allclose(table_from_eta(e).p, [0.8, 0.2], atol=1e-14)

    def test_three_variable_closed_form(self, rng):
        # the {1,3} coefficient is an eighth of the log of the alternating
        # cell product: numerator cells have an even count of ones in
        # positions {0, 2}
        t = dirichlet_table(make_vars(3), rng)
        p = t.p
        num = p[0b000] * p[0b010] * p[0b101] * p[0b111]
        den = p[0b001] * p[0b011] * p[0b100] * p[0b110]
        assert eta_from_table(t).value(0b101) == pytest.approx(
            math.log(num / den) / 8.0, abs=1e-12
        )

    def test_matches_brute_force(self, rng):
        for n in (1, 2, 3):
            t = dirichlet_table(make_vars(n), rng)
            e = eta_from_table(t)
            for mask, want in brute_eta(t).items():
                assert e.value(mask) == pytest.approx(want, abs=1e-12)

    def test_zero_eta_gives_uniform(self):
        t = table_from_eta(eta_from_dict(make_vars(3), {}))
        assert np.allclose(t.p, 1.0 / 8, atol=1e-15)

    def test_roundtrip_table_eta_table(self, rng):
        for n in (1, 2, 3, 4):
            t = dirichlet_table(make_vars(n), rng)
            t2 = table_from_eta(eta_from_table(t))
            assert np.max(np.abs(t2.p - t.p)) < 1e-12

    def test_roundtrip_eta_table_eta(self, rng):
        vs = make_vars(3)
        vals = rng.normal(0, 0.8, vs.n_cells)
        vals[0] = 0.0
        e = EtaVector(vs, vals)
        e2 = eta_from_table(table_from_eta(e))
        assert np.max(np.abs(e2.values - e.values)) < 1e-12

    def test_overflow_reported(self):
        e = eta_from_dict(make_vars(2), {1: 1e308, 2: 1e308})
        with pytest.raises(InvalidTableError):
            table_from_eta(e)

    def test_floor_violation_reported(self):
        e = eta_from_dict(make_vars(1), {1: 25.0})
        with pytest.raises(InvalidTableError, match="positivity floor"):
            table_from_eta(e)

    def test_geometric_mixture_is_linear(self, rng):
        vs = make_vars(3)
        t1, t2 = dirichlet_table(vs, rng), dirichlet_table(vs, rng)
        alpha = 0.3
        mix = t1.p**alpha * t2.p ** (1 - alpha)
        tm = JointTable(vs, mix / mix.sum())
        want = alpha * eta_from_table(t1).values + (1 - alpha) * eta_from_table(t2).values
        got = eta_from_table(tm).values
        assert np.max(np.abs(got[1:] - want[1:])) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_roundtrip_property(self, seed, n):
        t = dirichlet_table(make_vars(n), np.random.default_rng(seed))
        t2 = table_from_eta(eta_from_table(t))
        assert np.max(np.abs(t2.p - t.p)) < 1e-12


class TestMarginalize:
    def test_full_margin_is_identity(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        assert np.allclose(marginalize(t, 0b111).p, t.p, atol=0)

    def test_uniform_stays_uniform(self):
        m = marginalize(uniform_table(make_vars(3)), 0b011)
        assert np.allclose(m.p, 0.25, atol=1e-15)

    def test_rejects_empty_margin(self, rng):
        with pytest.raises(InvalidTableError):
            marginalize(dirichlet_table(make_vars(2), rng), 0)

    def test_matches_brute_force(self, rng):
        t = dirichlet_table(make_vars(4), rng)
        for mask in (0b0001, 0b0110, 0b1011, 0b1111):
            got = marginalize(t, mask)
            want = brute_marginal(t, mask)
            for key, val in want.items():
                assert got.p[key] == pytest.approx(val, abs=1e-14)

    def test_columns_marginalised_one_by_one(self, rng):
        cols = rng.random((16, 3))
        for mask in (0b0001, 0b0110, 0b1011, 0b1111):
            got = marginal_array(cols, 4, mask)
            for j in range(3):
                # same sums, possibly in another order: a few ulps apart
                want = marginal_array(cols[:, j], 4, mask)
                assert np.allclose(got[:, j], want, rtol=16 * 2.0**-52, atol=0)

    def test_nested_projection(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        two_step = marginalize(marginalize(t, 0b011), 0b001)
        one_step = marginalize(t, 0b001)
        assert np.max(np.abs(two_step.p - one_step.p)) < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 15), st.integers(1, 15))
    def test_projection_property(self, seed, outer, sub):
        # marginalising in two steps agrees with one step
        t = dirichlet_table(make_vars(4), np.random.default_rng(seed))
        inner = outer & sub
        if inner == 0:
            inner = outer
        big = marginalize(t, outer)
        inner_in_outer = _recompress(inner, outer)
        assert np.allclose(
            marginalize(big, inner_in_outer).p,
            marginalize(t, inner).p,
            atol=1e-13,
        )


def _recompress(inner: int, outer: int) -> int:
    out = 0
    j = 0
    for i in range(outer.bit_length()):
        if outer >> i & 1:
            if inner >> i & 1:
                out |= 1 << j
            j += 1
    return out


class TestCondition:
    def test_product_table_conditional_constant(self, rng):
        vs = make_vars(2)
        pa = rng.dirichlet([1, 1])
        pb = rng.dirichlet([1, 1])
        p = np.array([pa[x & 1] * pb[x >> 1] for x in range(4)])
        t = JointTable(vs, p)
        c = condition(t, 0b01, 0b10)
        assert np.allclose(c.values[:, 0], c.values[:, 1], atol=1e-14)

    def test_empty_conditioning_is_marginal(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        c = condition(t, 0b011, 0)
        m = marginalize(t, 0b011)
        assert np.allclose(c.values[:, 0], m.p, atol=1e-14)

    def test_rejects_overlap(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        with pytest.raises(InvalidTableError, match="overlap"):
            condition(t, 0b011, 0b001)

    def test_matches_brute_force(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        c = condition(t, 0b001, 0b110)
        want = brute_conditional(t, 0b001, 0b110)
        for (ka, kb), val in want.items():
            assert c.values[ka, kb] == pytest.approx(val, abs=1e-14)

    def test_conditional_times_marginal_reconstructs(self, rng):
        t = dirichlet_table(make_vars(3), rng)
        sub = marginalize(t, 0b011)
        c = condition(t, 0b001, 0b010)
        pb = marginalize(t, 0b010)
        rebuilt = joint_from_conditional(sub.vars, c, pb)
        assert np.max(np.abs(rebuilt.p - sub.p)) < 1e-14

    def test_conditional_table_validates_columns(self):
        with pytest.raises(InvalidTableError, match="sum to 1"):
            ConditionalTable(("1",), ("2",), np.array([[0.5, 0.4], [0.4, 0.5]]))


class TestRandomTable:
    def test_positive_and_normalised(self, rng):
        t = random_table(make_vars(4), rng)
        assert t.p.min() > 0
        assert abs(t.p.sum() - 1) < 1e-12
