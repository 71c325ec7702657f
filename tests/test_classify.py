import itertools
import signal

import numpy as np
import pytest

from mllp import catalog
from mllp.classify import (
    NOT_SMOOTH_INCOMPLETE,
    PROVEN_SMOOTH,
    SEARCH_LIMIT,
    UNKNOWN,
    apply_interchange,
    burnside_orbit_count,
    canonical_key,
    canonical_pairs,
    census,
    classify,
    enumerate_complete,
    hierarchy_order,
    interchange_closure,
    interchange_moves,
    is_complete,
    is_hierarchical,
    labeled_complete_count,
    permute_mask,
    reduce_minus_v,
    rule_applies,
    verify_hierarchy_order,
    _Search,
    _rule_cyclic,
)
from mllp.errors import IncompleteSpecError, SpecError
from mllp.mll import MLLSpec, lambda_vector
from mllp.solvers import invert
from mllp.tables import VarSet, popcount

from conftest import dirichlet_table
from oracles import (
    brute_classify,
    brute_contraction_reduce,
    brute_interchange_closure,
    brute_interchange_moves,
    brute_rule_cyclic,
)


RELOCATION_CYCLE = (
    "3: 3\n34: 4\n14: 1 14\n1234: 2 12 13 23 24 34 123 124 134 234 1234\n"
)
SATURATED_FOUR = "1234: 1 2 3 4 12 13 14 23 24 34 123 124 134 234 1234\n"


def few_margin_complete(n: int, rng) -> MLLSpec:
    """Complete collection with three drawn proper margins: each effect
    picks uniformly among the drawn margins containing it and the full one."""
    full = (1 << n) - 1
    proper = rng.choice(np.arange(1, full), size=3, replace=False)
    pairs = []
    for effect in range(1, full + 1):
        options = [int(m) for m in proper if effect & ~m == 0] + [full]
        pairs.append((effect, options[int(rng.integers(len(options)))]))
    return MLLSpec(VarSet(tuple(str(i + 1) for i in range(n))), tuple(pairs))


def full_margin_rest(listed: str, n: int) -> MLLSpec:
    """Complete collection with the listed ``MARGIN: EFFECT ...`` groups
    (separated by ``;``) and every other effect in the full margin, pairs in
    effect order."""
    vs = VarSet(tuple(str(i + 1) for i in range(n)))
    margin_of = {}
    for group in listed.split(";"):
        margin, effects = group.split(":")
        for effect in effects.split():
            margin_of[vs.mask(effect)] = vs.mask(margin.strip())
    full = vs.full_mask
    return MLLSpec(vs, tuple((e, margin_of.get(e, full)) for e in range(1, full + 1)))


class _Stopped(Exception):
    pass


def within(seconds: float, fn, *args):
    """``fn(*args)``, or None when it runs longer than ``seconds``."""
    def stop(signum, frame):
        raise _Stopped

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    except _Stopped:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def report_obj(report) -> dict:
    """JSON form of a report without its search record."""
    obj = report.to_json_obj()
    del obj["search"]
    return obj


def random_pairs(n: int, rng) -> MLLSpec:
    """Spec of distinct random pairs, usually incomplete."""
    full = (1 << n) - 1
    pairs = set()
    for _ in range(int(rng.integers(1, 2 * full))):
        margin = int(rng.integers(1, full + 1))
        effects = [e for e in range(1, margin + 1) if e & ~margin == 0]
        pairs.add((effects[int(rng.integers(len(effects)))], margin))
    return MLLSpec(VarSet(tuple(str(i + 1) for i in range(n))), tuple(sorted(pairs)))


@pytest.fixture(scope="module")
def closure_states():
    """Every interchange-closure state of the census orbits and of eight
    seeded few-margin 4-variable collections."""
    rng = np.random.default_rng(2024)
    starts = enumerate_complete(3, up_to_symmetry=True)
    starts += [few_margin_complete(4, rng) for _ in range(8)]
    return [state for spec in starts for state, _ in interchange_closure(spec)]


def relabel(spec: MLLSpec, perm):
    pairs = tuple(
        (permute_mask(e, perm), permute_mask(m, perm)) for e, m in spec.pairs
    )
    return MLLSpec(spec.vars, pairs)


class TestCompleteness:
    def test_chain_is_complete(self):
        assert is_complete(catalog.CHAIN_THREE)

    def test_missing_effect_incomplete(self):
        spec = MLLSpec.from_text("12: 1 2 12\n23: 3 23\n123: 13\n")
        assert not is_complete(spec)

    def test_repeated_effect_incomplete(self):
        assert not is_complete(catalog.REPEATED_EFFECT)


class TestHierarchy:
    def test_chain_hierarchical_with_witness(self):
        assert is_hierarchical(catalog.CHAIN_THREE)
        order = hierarchy_order(catalog.CHAIN_THREE)
        assert order is not None
        assert verify_hierarchy_order(catalog.CHAIN_THREE, order)

    def test_deferred_singleton_not_hierarchical(self):
        # effect 2 sits in the full margin although the margin 23 precedes it
        assert not is_hierarchical(catalog.NESTED_SKIP)

    def test_cycle_not_hierarchical(self):
        assert not is_hierarchical(catalog.CYCLE_THREE)

    def test_incomplete_raises(self):
        with pytest.raises(IncompleteSpecError):
            is_hierarchical(catalog.REPEATED_EFFECT)

    def test_all_census_hierarchical_orders_verify(self):
        for spec in enumerate_complete(3, up_to_symmetry=True):
            order = hierarchy_order(spec)
            if order is not None:
                assert verify_hierarchy_order(spec, order)


class TestReduce:
    def test_paired_slices_reduction(self):
        got = reduce_minus_v(catalog.PAIRED_SLICES, 0b001)
        # over the two remaining variables: each effect in its own margin
        assert got.pairs == ((0b01, 0b01), (0b10, 0b10), (0b11, 0b11))

    def test_four_variable_reduction(self):
        got = reduce_minus_v(catalog.PAIRED_SLICES_FOUR, 0b0001)
        want = MLLSpec.from_text(
            "23: 2 23\n34: 3 34\n24: 4 24\n234: 234\n", variables=("2", "3", "4")
        )
        assert set(got.pairs) == set(want.pairs)

    def test_margins_shrink_without_v_effects(self):
        spec = MLLSpec.from_text("13: 1\n123: 2 3 12 13 23 123\n")
        got = reduce_minus_v(spec, 0b100)
        assert got.vars.names == ("1", "2")
        # the pair (1, 13) keeps its effect and its margin shrinks to {1}
        assert (0b01, 0b01) in got.pairs
        assert all(m <= 0b11 for _, m in got.pairs)

    def test_reduction_of_complete_stays_complete(self):
        for spec in (catalog.PAIRED_SLICES, catalog.NESTED_SKIP):
            for b in range(3):
                red = reduce_minus_v(spec, 1 << b)
                assert is_complete(red)


class TestRules:
    def test_fixpoint_example_satisfies_single_feedback(self):
        assert rule_applies(catalog.TWO_BLOCK_FIXPOINT, "single_feedback") is not None

    def test_paired_slices_satisfies_slice_rule(self):
        params = rule_applies(catalog.PAIRED_SLICES, "slice_split")
        assert params is not None and params["v"] == 0b001

    def test_nested_chains_proven_without_nested_rule(self):
        # the variables outside the top proper margin of a nested chain sit
        # in no proper margin, so variable removal proves every nested chain
        # that the direct rules miss
        with pytest.raises(SpecError):
            rule_applies(catalog.NESTED_SKIP, "nested")
        first_rules = set()
        for spec in enumerate_complete(3, up_to_symmetry=True):
            margins = sorted(spec.margins, key=popcount)
            if margins[-1] != spec.vars.full_mask or any(
                small & ~big for small, big in zip(margins, margins[1:])
            ):
                continue
            report = classify(spec)
            assert report.verdict == PROVEN_SMOOTH
            first_rules.add(report.first_rule)
        assert first_rules == {"hierarchical", "two_margin", "variable_removal"}
        assert classify(catalog.NESTED_SKIP).first_rule == "variable_removal"

    def test_variable_removal_detected(self):
        params = rule_applies(catalog.NESTED_SKIP, "variable_removal")
        assert params is not None and params["v"] == 0b001

    def test_cycle_detected_with_blocks(self):
        params = rule_applies(catalog.CYCLE_THREE, "cyclic")
        assert params is not None
        blocks = params["blocks"]
        assert sorted(blocks) == [0b001, 0b010, 0b100]

    def test_contraction_matches_subset_search(self, closure_states):
        checked = 0
        for spec in closure_states:
            proper = [p for p in spec.pairs if p[1] != spec.vars.full_mask]
            if spec.vars.n == 4 and len(proper) > 10:
                continue
            assert rule_applies(spec, "contraction_reduce") == (
                brute_contraction_reduce(spec)
            )
            checked += spec.vars.n == 4
        assert checked > 100

    def test_contraction_keeps_pair_cap(self):
        # 15 proper pairs in margin 1234 and every effect with 5 in the full
        # margin: any single pair alone is admissible, but the cap of 14
        # proper pairs still leaves the rule without an answer
        spec = MLLSpec.from_text(
            "1234: 1 2 3 4 12 13 14 23 24 34 123 124 134 234 1234\n"
            "12345: 5 15 25 35 45 125 135 145 235 245 345 1235 1245 1345 2345"
            " 12345\n"
        )
        assert rule_applies(spec, "contraction_reduce") is None
        assert brute_contraction_reduce(spec) is None

    def test_unknown_rule_name_rejected(self):
        with pytest.raises(SpecError):
            rule_applies(catalog.CHAIN_THREE, "nope")


def cycle_pairs(groups: list[int], n: int) -> list[tuple[int, int]]:
    """Pairs of the cycle over the disjoint variable ``groups``: margin
    A_{i-1} | A_i holds its effects that meet A_i, every other effect sits
    in the full margin."""
    full = (1 << n) - 1
    k = len(groups)
    margin_of = {}
    for i in range(k):
        margin = groups[i - 1] | groups[i]
        for e in range(1, margin + 1):
            if e & ~margin == 0 and e & groups[i]:
                margin_of[e] = margin
    return [(e, margin_of.get(e, full)) for e in range(1, full + 1)]


def shuffled_cycle(k: int, rng) -> tuple[list[tuple[int, int]], int]:
    """A cycle of ``k`` groups of one or two variables, with the variables
    relabeled and the pairs (hence the margins' first appearances)
    shuffled."""
    sizes = [1 + int(rng.random() < 0.25) for _ in range(k)]
    n = sum(sizes)
    bits = [int(b) for b in rng.permutation(n)]
    groups = []
    for size in sizes:
        groups.append(sum(1 << bits.pop() for _ in range(size)))
    pairs = cycle_pairs(groups, n)
    return [pairs[int(i)] for i in rng.permutation(len(pairs))], (1 << n) - 1


class TestCyclicRule:
    """The overlap walk returns what the search over every ordering of the
    proper margins returns."""

    def test_census_orbits(self, closure_states):
        specs = enumerate_complete(3, up_to_symmetry=True)
        assert len(specs) == 104
        for spec in specs + closure_states:
            full = spec.vars.full_mask
            assert _rule_cyclic(spec.pairs, full) == brute_rule_cyclic(spec.pairs, full)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_shuffled_true_cycles(self, k):
        rng = np.random.default_rng(900 + k)
        for _ in range(6):
            pairs, full = shuffled_cycle(k, rng)
            want = brute_rule_cyclic(pairs, full)
            assert want is not None
            assert _rule_cyclic(pairs, full) == want
            # one effect moved to the full margin or into another margin
            i = int(rng.integers(len(pairs)))
            margins = sorted({m for _, m in pairs})
            for m in (full, margins[int(rng.integers(len(margins)))]):
                moved = pairs[:i] + [(pairs[i][0], m)] + pairs[i + 1:]
                assert _rule_cyclic(moved, full) == brute_rule_cyclic(moved, full)

    def test_seeded_random_collections(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(4, 7))
            full = (1 << n) - 1
            k = int(rng.integers(3, 9))
            proper = [int(m) for m in rng.choice(np.arange(1, full), size=k, replace=False)]
            pairs = []
            for e in range(1, full + 1):
                options = [m for m in proper if e & ~m == 0] + [full]
                pairs.append((e, options[int(rng.integers(len(options)))]))
            checked += len({m for _, m in pairs} - {full}) >= 3
            assert _rule_cyclic(pairs, full) == brute_rule_cyclic(pairs, full)
        assert checked > 200


class TestInterchange:
    def test_moves_preserve_completeness(self):
        spec = catalog.CROSS_SINGLE
        for mv in interchange_moves(spec):
            assert is_complete(apply_interchange(spec, mv))

    def test_closure_contains_original_first(self):
        closure = interchange_closure(catalog.CROSS_SINGLE)
        assert closure[0][0].pairs == catalog.CROSS_SINGLE.pairs
        assert closure[0][1] == ()

    def test_moves_match_block_definition(self, closure_states):
        rng = np.random.default_rng(7)
        incomplete = [random_pairs(n, rng) for n in (2, 3, 4) for _ in range(40)]
        assert sum(not is_complete(s) for s in incomplete) > 100
        for spec in closure_states + incomplete:
            assert interchange_moves(spec) == brute_interchange_moves(spec)

    def test_closure_matches_spec_by_spec_search(self):
        rng = np.random.default_rng(2024)
        starts = enumerate_complete(3, up_to_symmetry=True)
        starts += [few_margin_complete(4, rng) for _ in range(8)]
        for spec in starts:
            for limit in (5, 256):
                got = interchange_closure(spec, limit)
                want = brute_interchange_closure(spec, limit)
                assert [(s.vars, s.pairs, path) for s, path in got] == [
                    (s.vars, s.pairs, path) for s, path in want
                ]

    def test_truncated_closure_is_a_prefix(self):
        spec = MLLSpec.from_text(SATURATED_FOUR)
        whole = interchange_closure(spec, limit=256)
        assert len(whole) == 256
        for k in (1, 2, 17, 100):
            part = interchange_closure(spec, limit=k)
            assert [(s.pairs, path) for s, path in part] == [
                (s.pairs, path) for s, path in whole[:k]
            ]

    def test_cross_single_reaches_variable_removal(self):
        # one move relocates the deferred pair; the result admits removal
        # of a variable confined to the full margin
        report = classify(catalog.CROSS_SINGLE)
        assert report.verdict == PROVEN_SMOOTH
        names = report.chain_names()
        assert names[0] == "interchange"
        assert "variable_removal" in names


class TestClassify:
    def test_chain_hierarchical(self):
        report = classify(catalog.CHAIN_THREE)
        assert report.verdict == PROVEN_SMOOTH
        assert report.first_rule == "hierarchical"

    def test_open_spec_unknown(self):
        report = classify(catalog.OPEN_FOUR_MARGIN)
        assert report.verdict == UNKNOWN
        assert report.rule_chain == ()

    def test_repeated_effect_not_smooth(self):
        report = classify(catalog.REPEATED_EFFECT)
        assert report.verdict == NOT_SMOOTH_INCOMPLETE

    def test_paired_slices_first_rule(self):
        assert classify(catalog.PAIRED_SLICES).first_rule == "slice_split"

    def test_cycle_first_rule(self):
        assert classify(catalog.CYCLE_THREE).first_rule == "cyclic"

    def test_singleton_feeders_contraction(self):
        report = classify(catalog.SINGLETON_FEEDERS)
        assert report.verdict == PROVEN_SMOOTH
        assert report.first_rule == "contraction_reduce"

    def test_four_variable_embedding_chain(self):
        report = classify(catalog.PAIRED_SLICES_FOUR)
        assert report.verdict == PROVEN_SMOOTH
        assert report.chain_names() == ("slice_split_general", "cyclic")

    def test_proven_chains_end_in_base_rule(self):
        base = {"hierarchical", "two_margin", "three_margin",
                "single_feedback", "cyclic"}
        for spec in enumerate_complete(3, up_to_symmetry=True):
            report = classify(spec)
            if report.verdict == PROVEN_SMOOTH:
                assert report.rule_chain[-1].rule in base

    def test_relocation_cycle_ends_unproven(self):
        # contraction relocations of this collection lead back to it through
        # interchange moves; the repeated branch ends instead of recursing
        report = classify(MLLSpec.from_text(RELOCATION_CYCLE))
        assert report.verdict == UNKNOWN

    @pytest.mark.parametrize("listed, specs", [
        ("14: 1; 12: 2; 4: 4", 9),  # brute_classify does not finish on these
        ("12: 1; 34: 4; 24: 24", 8),
    ])
    def test_former_hangs_end_unknown(self, listed, specs):
        report = classify(full_margin_rest(listed, 4))
        assert report.verdict == UNKNOWN
        assert report.search.specs_expanded == specs
        assert report.search.closures_truncated == 0
        assert report.search.exhausted

    def test_search_stops_at_the_limit(self):
        report = classify(full_margin_rest("1: 1; 24: 24; 5: 5", 5))
        assert report.verdict == UNKNOWN
        assert report.search.specs_expanded == SEARCH_LIMIT
        assert not report.search.exhausted

    def test_search_record(self):
        report = classify(catalog.CROSS_SINGLE)
        assert report.search.specs_expanded >= 1
        assert report.search.closure_states >= 1
        assert report.to_json_obj()["search"] == {
            "specs_expanded": report.search.specs_expanded,
            "closure_states": report.search.closure_states,
            "closures_truncated": report.search.closures_truncated,
            "exhausted": False,
        }
        # a direct rule on the given collection needs no search
        assert classify(catalog.CHAIN_THREE).search.specs_expanded == 0

    def test_permutation_equivariance(self):
        specs = [catalog.CHAIN_THREE, catalog.NESTED_SKIP, catalog.PAIRED_SLICES,
                 catalog.CYCLE_THREE, catalog.TWO_BLOCK_FIXPOINT,
                 catalog.OPEN_FOUR_MARGIN]
        for spec in specs:
            base_report = classify(spec)
            for perm in itertools.permutations(range(spec.vars.n)):
                other = relabel(spec, perm)
                report = classify(other)
                assert report.verdict == base_report.verdict
                assert report.first_rule == base_report.first_rule


class TestSearchMatchesOracle:
    """The memoized search returns the report of the recursive search over
    every path, wherever that one finishes."""

    def test_census_orbits(self):
        for spec in enumerate_complete(3, up_to_symmetry=True):
            assert report_obj(classify(spec)) == report_obj(brute_classify(spec))

    @pytest.mark.parametrize("listed, n", [
        # reductions reach the same pair set over different variable names
        ("1234: 1 12 3 13 123 4 14 24 124 34 134 234 1234; 24: 2; 23: 23", 4),
        ("12: 1; 24: 2", 4),
        ("12: 1; 2: 2", 4),
        ("13: 1; 12: 2; 124: 14 124", 4),
        ("35: 3; 34: 4 34", 5),
    ])
    def test_reductions_keep_variable_names(self, listed, n):
        spec = full_margin_rest(listed, n)
        report = classify(spec)
        assert report.verdict == PROVEN_SMOOTH
        assert report_obj(report) == report_obj(brute_classify(spec))

    def test_seeded_few_margin_collections(self):
        rng = np.random.default_rng(7)
        specs = [few_margin_complete(4, rng) for _ in range(40)]
        specs += [few_margin_complete(5, rng) for _ in range(20)]
        compared = 0
        for spec in specs:
            want = within(0.5, brute_classify, spec)
            if want is not None:
                assert report_obj(classify(spec)) == report_obj(want)
                compared += 1
        assert compared >= 45

    def test_proven_collections_invert_by_auto(self):
        # PROVEN_SMOOTH must mean that AUTO inversion recovers the table
        rng = np.random.default_rng(11)
        specs = [few_margin_complete(4, rng) for _ in range(30)]
        specs += [few_margin_complete(5, rng) for _ in range(15)]
        first_rules = set()
        for spec in specs:
            report = within(5.0, classify, spec)
            assert report is not None
            if report.verdict != PROVEN_SMOOTH:
                continue
            first_rules.add(report.first_rule)
            table = dirichlet_table(spec.vars, rng)
            res = invert(spec, lambda_vector(table, spec))
            assert np.max(np.abs(res.table.p - table.p)) < 1e-8
        assert {"variable_removal", "three_margin", "contraction_reduce"} <= first_rules


def graph_search(graph: dict[int, list[int]], root: int = 0) -> tuple[_Search, list]:
    """A search whose nodes are those of ``graph`` (node -> option targets,
    -1 marking a base-rule proof), none proven by a direct rule, and the
    list of the nodes it expands, in order."""
    search = _Search(catalog.CROSS_SINGLE)
    search.root = root
    entered = []

    def options(v):
        entered.append(v)
        for t in graph[v]:
            yield t, 0

    search._direct = lambda v: None
    search._options = options
    return search, entered


class TestLeastFixpoint:
    def test_proof_past_a_cycle_member_that_fails_on_the_path(self):
        # node 1 could be proven only through node 0, its ancestor on the
        # path, so it fails; 0 is then proven through 3
        search, entered = graph_search({0: [1, 3], 1: [0, 2], 2: [], 3: [-1]})
        rule = "variable_removal"
        assert search.prove() == [(0, 3, rule), (3, -1, rule)]
        assert entered == [0, 1, 2, 3]
        assert not search.exhausted

    def test_cycle_without_proof_fails_as_a_whole(self):
        search, entered = graph_search({0: [1], 1: [2, 0], 2: [1]})
        assert search.prove() is None
        assert entered == [0, 1, 2]
        assert search.exhausted
        assert search.expanded == 3

    def test_resolved_nodes_are_not_entered_again(self):
        # node 1 is reached from 2 and from 0, and entered once
        search, entered = graph_search({0: [1], 1: [], 2: [1, 0, -1]}, root=2)
        assert search.prove() == [(2, -1, "variable_removal")]
        assert entered == [2, 1, 0]

    def test_removals_of_different_variables_stay_apart(self):
        # removing variable 1 or 2 leaves the same pairs over other names
        spec = full_margin_rest("34: 3 4 34", 4)
        search = _Search(spec)
        one, two = (search.spec(search._removed(search.root, v)) for v in (1, 2))
        assert one.pairs == two.pairs
        assert one.vars.names == ("2", "3", "4")
        assert two.vars.names == ("1", "3", "4")


class TestCanonicalForm:
    def test_equal_iff_relabeling(self):
        spec = catalog.PAIRED_SLICES
        keys = set()
        for perm in itertools.permutations(range(3)):
            keys.add(canonical_pairs(relabel(spec, perm).pairs, 3))
        assert len(keys) == 1
        other = catalog.CHAIN_THREE
        assert canonical_key(other) != canonical_key(spec)

    def test_distinct_orbits_have_distinct_keys(self):
        reps = enumerate_complete(3, up_to_symmetry=True)
        keys = {canonical_key(s) for s in reps}
        assert len(keys) == len(reps)


class TestEnumeration:
    def test_single_variable(self):
        assert labeled_complete_count(1) == 1
        specs = enumerate_complete(1)
        assert len(specs) == 1
        assert specs[0].pairs == ((1, 1),)

    def test_three_variable_counts(self):
        assert labeled_complete_count(3) == 512
        assert len(enumerate_complete(3)) == 512
        assert len(enumerate_complete(3, up_to_symmetry=True)) == 104
        assert burnside_orbit_count(3) == 104

    def test_four_variable_counts_by_formula(self):
        assert labeled_complete_count(4) == 2**28
        with pytest.raises(SpecError):
            enumerate_complete(4)


@pytest.fixture(scope="module")
def report():
    return census(3)


class TestCensus:

    def test_orbit_and_labeled_counts(self, report):
        assert report["labeled_complete"] == 512
        assert report["complete_orbits"] == 104
        assert report["burnside_orbits"] == 104

    def test_hierarchical_and_two_margin(self, report):
        assert report["hierarchical_orbits"] == 23
        assert report["two_margin_extra"] == 4

    def test_reduction_rule_buckets(self, report):
        assert report["variable_removal_first"] == 5
        assert report["slice_split_first"] == 1

    def test_remaining_buckets(self, report):
        assert report["three_margin_first"] == 23
        assert report["single_feedback_first"] == 1
        assert report["cyclic_first"] == 1
        assert report["contraction_first"] == 3

    def test_totals(self, report):
        assert report["proven_smooth_hard"] == 58
        assert report["proven_smooth_total"] == 61
        assert report["unknown_orbits"] == 43
        assert report["proven_smooth_total"] + report["unknown_orbits"] == 104

    def test_rows_itemize_every_orbit(self, report):
        assert len(report["rows"]) == 104
        unknown_rows = [r for r in report["rows"] if r["verdict"] == UNKNOWN]
        assert len(unknown_rows) == report["unknown_orbits"]
