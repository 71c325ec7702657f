"""Smoothness classification of effect-margin collections.

A collection is *complete* when every nonempty subset of the variables
occurs as an effect exactly once, and *hierarchical* when the distinct
margins can be ordered so that each effect sits in the first margin that
contains it.  Hierarchical completeness is the classical sufficient
condition for the parameter map to be a smooth bijection; this module also
implements sufficient conditions that go beyond it:

``two_margin``
    complete with exactly two distinct margins.
``three_margin``
    complete with at most three distinct margins (special case of the
    certified fixed-point condition below).
``variable_removal``
    some variable occurs in no margin except the full set; the collection
    is smooth iff the reduced collection without that variable is.
``slice_split`` / ``slice_split_general``
    some variable v pairs every effect A (not containing v) with A+v in a
    shared margin; the strict variant additionally requires that shared
    margin to be exactly A+v.  Smoothness reduces to the collection
    without v, applied per slice of X_v.
``single_feedback``
    every proper-margin pair (L, M) sees at most one other proper margin N
    with L not inside N; the stacked fixed-point map then has derivative
    columns of norm below 1 - min_cell and the iteration is a certified
    contraction.
``cyclic``
    the proper margins are exactly the conditional blocks of one cycle of
    disjoint variable groups; the missing group marginal is the stationary
    distribution of a positive Markov chain.
``contraction_reduce``
    a subset of proper-margin pairs forms a self-contained fixed-point
    subsystem with norm-bounded derivative columns; relocating it into the
    full margin must leave a provably smooth collection.  Reported
    separately from the closed-form rules.

Interchange moves
-----------------
When the parameters of a conditional block p(x_A | x_N) all live in the
spec within the margin N+A, any other parameter of that margin can be
rewritten between margins N+A and N: the two coordinates differ by a
smooth function of the block.  Such rewrites are exact re-parameterizations
and preserve smoothness both ways, so every rule after the direct
``hierarchical`` and ``two_margin`` checks is also attempted on every
collection reachable by a sequence of interchange moves.  The move path is
recorded in the rule chain and is replayed by the solvers.

Rules are tried in the fixed order :data:`RULE_ORDER`; the first success
wins, which makes census bucket counts well defined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import IncompleteSpecError, SpecError
from .mll import MLLSpec, Pair
from .tables import VarSet, bit_positions, compress, nonempty_submasks, popcount

PROVEN_SMOOTH = "PROVEN_SMOOTH"
NOT_SMOOTH_INCOMPLETE = "NOT_SMOOTH_INCOMPLETE"
UNKNOWN = "UNKNOWN"

DIRECT_RULES = ("hierarchical", "two_margin")
MOVABLE_RULES = (
    "variable_removal",
    "slice_split",
    "three_margin",
    "single_feedback",
    "cyclic",
    "slice_split_general",
)
CONTRACTION_RULE = "contraction_reduce"
RULE_ORDER = DIRECT_RULES + MOVABLE_RULES
# Rules that close a proof on their own; the others reduce and recurse.
BASE_RULES = frozenset(
    {"hierarchical", "two_margin", "three_margin", "single_feedback", "cyclic"}
)

DEFAULT_MOVE_LIMIT = 256


@dataclass(frozen=True)
class RuleStep:
    rule: str
    details: dict = field(default_factory=dict)

    def describe(self) -> str:
        if not self.details:
            return self.rule
        parts = ", ".join(
            f"{k}={v}" for k, v in sorted(self.details.items()) if k != "candidates"
        )
        return f"{self.rule}({parts})"


@dataclass(frozen=True)
class ClassificationReport:
    spec: MLLSpec
    verdict: str
    rule_chain: tuple[RuleStep, ...]
    reduced_specs: tuple[MLLSpec, ...]

    @property
    def first_rule(self) -> str | None:
        for step in self.rule_chain:
            if step.rule != "interchange":
                return step.rule
        return None

    def chain_names(self) -> tuple[str, ...]:
        return tuple(step.rule for step in self.rule_chain)

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "first_rule": self.first_rule,
            "rule_chain": [
                {"rule": s.rule, "details": _jsonable(s.details)}
                for s in self.rule_chain
            ],
            "reduced_specs": [s.to_json_obj() for s in self.reduced_specs],
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def is_complete(spec: MLLSpec) -> bool:
    return spec.is_complete()


def hierarchy_order(spec: MLLSpec) -> tuple[int, ...] | None:
    """Witness margin order for a hierarchical spec, or None.

    The order must place each effect's margin before every other margin
    containing that effect; a topological sort of that precedence relation
    is returned (ties broken by margin size, then mask value).
    """
    margins = list(spec.margins)
    succ: dict[int, set[int]] = {m: set() for m in margins}
    for effect, margin in spec.pairs:
        for other in margins:
            if other != margin and (effect & ~other) == 0:
                succ[margin].add(other)
    indeg = {m: 0 for m in margins}
    for outs in succ.values():
        for o in outs:
            indeg[o] += 1
    ready = sorted(
        (m for m in margins if indeg[m] == 0), key=lambda m: (popcount(m), m)
    )
    order: list[int] = []
    while ready:
        m = ready.pop(0)
        order.append(m)
        for o in sorted(succ[m], key=lambda x: (popcount(x), x)):
            indeg[o] -= 1
            if indeg[o] == 0:
                ready.append(o)
        ready.sort(key=lambda x: (popcount(x), x))
    if len(order) != len(margins):
        return None
    return tuple(order)


def verify_hierarchy_order(spec: MLLSpec, order: Sequence[int]) -> bool:
    """Check that each effect's margin is the first in ``order`` containing it."""
    for effect, margin in spec.pairs:
        firsts = [m for m in order if (effect & ~m) == 0]
        if not firsts or firsts[0] != margin:
            return False
    return True


def is_hierarchical(spec: MLLSpec) -> bool:
    if not spec.is_complete():
        raise IncompleteSpecError("hierarchy is only defined for complete specs")
    return hierarchy_order(spec) is not None


def reduce_minus_v(spec: MLLSpec, v_mask: int) -> MLLSpec:
    """Drop every effect containing v and remove v from all margins."""
    if popcount(v_mask) != 1 or v_mask & ~spec.vars.full_mask:
        raise SpecError("v must be a single variable of the spec")
    keep = spec.vars.full_mask & ~v_mask
    if keep == 0:
        raise SpecError("cannot remove the only variable")
    new_vars = spec.vars.restrict(keep)
    pairs: list[Pair] = []
    for effect, margin in spec.pairs:
        if effect & v_mask:
            continue
        pair = (compress(effect, keep), compress(margin, keep))
        if pair not in pairs:
            pairs.append(pair)
    return MLLSpec(new_vars, tuple(pairs))


# ---------------------------------------------------------------------------
# Interchange moves
# ---------------------------------------------------------------------------

Move = tuple[Pair, int]  # ((effect, margin), new margin)


def interchange_moves(spec: MLLSpec) -> list[Move]:
    """All single-parameter margin rewrites justified by a conditional block
    fully present in the spec.

    Downward, (L, M) -> (L, M minus A) needs every pair (K, M) with K
    meeting A; upward, (L, M) -> (L, M plus A) needs every pair (K, M plus A)
    with K meeting A.  Both replace one coordinate by the other side of the
    exact identity lam(L, M plus A) = lam(L, M) + f(block), a smooth
    triangular re-parameterization.

    The block {(K, X) : K inside X, K meets A} lies wholly in the spec
    exactly when A avoids bad(X), the union of the nonempty K inside X for
    which (K, X) is not a pair.  A variable of X is outside bad(X) when all
    2**(|X|-1) subsets of X containing it are effects in margin X, so
    free(X) = X minus bad(X) is found once per margin by counting.  Downward
    moves of (L, M) are then the nonempty submasks of M minus L within
    free(M); upward moves go to the margins X strictly above M with X minus
    M inside free(X) (a set that is no margin has bad(X) = X).
    """
    effects_in: dict[int, list[int]] = {}
    for effect, margin in spec.pairs:
        effects_in.setdefault(margin, []).append(effect)
    free: dict[int, int] = {}
    for margin, effects in effects_in.items():
        half = 1 << (popcount(margin) - 1)
        free[margin] = 0
        for b in bit_positions(margin):
            if sum(1 for e in effects if e >> b & 1) == half:
                free[margin] |= 1 << b
    up: dict[int, list[int]] = {
        m: [x for x in free if x != m and m & ~x == 0 and x & ~m & ~free[x] == 0]
        for m in free
    }
    out: list[Move] = []
    for (L, M) in spec.pairs:
        for A in nonempty_submasks(M & ~L & free[M]):
            out.append(((L, M), M & ~A))
        for X in up[M]:
            out.append(((L, M), X))
    out.sort()
    return out


def apply_interchange(spec: MLLSpec, move: Move) -> MLLSpec:
    pair, new_margin = move
    if pair not in spec.pairs:
        raise SpecError("move refers to a pair not in the spec")
    return MLLSpec(
        spec.vars,
        tuple((p[0], new_margin) if p == pair else p for p in spec.pairs),
    )


def interchange_closure(
    spec: MLLSpec, limit: int = DEFAULT_MOVE_LIMIT
) -> list[tuple[MLLSpec, tuple[Move, ...]]]:
    """Breadth-first closure of interchange moves, original spec first.

    Returns (reached spec, move path) pairs; exploration stops after
    ``limit`` distinct collections (distinct by exact pair set).
    """
    seen = {frozenset(spec.pairs)}
    frontier: list[tuple[MLLSpec, tuple[Move, ...]]] = [(spec, ())]
    out = [(spec, ())]
    while frontier and len(seen) < limit:
        nxt: list[tuple[MLLSpec, tuple[Move, ...]]] = []
        for s, path in frontier:
            # a move's key follows from the state's; only unseen keys are
            # built (and validated) as specs
            key = frozenset(s.pairs)
            for mv in interchange_moves(s):
                pair, new_margin = mv
                key2 = key - {pair} | {(pair[0], new_margin)}
                if key2 in seen:
                    continue
                seen.add(key2)
                entry = (apply_interchange(s, mv), path + (mv,))
                out.append(entry)
                nxt.append(entry)
                if len(seen) >= limit:
                    break
            if len(seen) >= limit:
                break
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# Individual rules (structural applicability only)
# ---------------------------------------------------------------------------

def _rule_hierarchical(spec: MLLSpec) -> dict | None:
    order = hierarchy_order(spec)
    if order is None:
        return None
    return {"order": order}


def _rule_two_margin(spec: MLLSpec) -> dict | None:
    margins = spec.margins
    if len(margins) == 2:
        return {"margins": tuple(sorted(margins))}
    return None


def _rule_three_margin(spec: MLLSpec) -> dict | None:
    margins = spec.margins
    if len(margins) <= 3:
        return {"margins": tuple(sorted(margins))}
    return None


def _rule_variable_removal(spec: MLLSpec) -> dict | None:
    used = 0
    for m in spec.proper_margins:
        used |= m
    free = spec.vars.full_mask & ~used
    cands = [1 << b for b in bit_positions(free)]
    if not cands:
        return None
    return {"v": cands[0], "candidates": tuple(cands)}


def _slice_split_candidates(spec: MLLSpec, strict: bool) -> list[int]:
    full = spec.vars.full_mask
    em = {e: m for e, m in spec.pairs}
    out = []
    for b in bit_positions(full):
        v = 1 << b
        rest = full & ~v
        ok = v in em  # the effect {v} itself must be present somewhere
        if ok:
            for a in nonempty_submasks(rest):
                ma = em.get(a)
                mav = em.get(a | v)
                if ma is None or mav is None or ma != mav:
                    ok = False
                    break
                if strict and ma != (a | v):
                    ok = False
                    break
        if ok:
            out.append(v)
    return out


def _rule_slice_split(spec: MLLSpec) -> dict | None:
    cands = _slice_split_candidates(spec, strict=True)
    if not cands:
        return None
    return {"v": cands[0], "candidates": tuple(cands)}


def _rule_slice_split_general(spec: MLLSpec) -> dict | None:
    cands = _slice_split_candidates(spec, strict=False)
    if not cands:
        return None
    return {"v": cands[0], "candidates": tuple(cands)}


def _rule_single_feedback(spec: MLLSpec) -> dict | None:
    proper = spec.proper_margins
    for effect, margin in spec.pairs:
        if margin == spec.vars.full_mask:
            continue
        others = [n for n in proper if n != margin and (effect & ~n)]
        if len(others) > 1:
            return None
    return {}


def _rule_cyclic(spec: MLLSpec) -> dict | None:
    """Match: proper margins are exactly the conditional blocks of one cycle
    of disjoint groups A_1, ..., A_k (k >= 3), every remaining effect in the
    full margin."""
    full = spec.vars.full_mask
    proper = list(spec.proper_margins)
    k = len(proper)
    if k < 3 or k > 8:
        return None
    by_margin = {m: {e for e, mm in spec.pairs if mm == m} for m in proper}
    first = proper[0]
    for rest in itertools.permutations(proper[1:]):
        order = [first, *rest]
        blocks = []
        ok = True
        for i in range(k):
            a = order[i] & order[(i + 1) % k]
            if a == 0:
                ok = False
                break
            blocks.append(a)
        if not ok:
            continue
        union = 0
        for a in blocks:
            if union & a:
                ok = False
                break
            union |= a
        if not ok:
            continue
        for i in range(k):
            margin = order[i]
            a_i = blocks[i]
            a_prev = blocks[(i - 1) % k]
            if margin != (a_prev | a_i):
                ok = False
                break
            want = {Lm for Lm in nonempty_submasks(margin) if Lm & a_i}
            if by_margin[margin] != want:
                ok = False
                break
        if not ok:
            continue
        return {"blocks": tuple(blocks), "margins": tuple(order)}
    return None


def relocate_pairs(spec: MLLSpec, pairs: Iterable[Pair]) -> MLLSpec:
    """Move the given pairs into the full margin."""
    full = spec.vars.full_mask
    moved = set(pairs)
    return MLLSpec(
        spec.vars,
        tuple(
            (e, full) if (e, m) in moved else (e, m) for e, m in spec.pairs
        ),
    )


def _rule_contraction_reduce(spec: MLLSpec) -> dict | None:
    """Find a self-contained fixed-point subsystem U of proper-margin pairs.

    Requirements on U:
      (i)  every off-margin effect feeding a U-pair's margin-change term is
           either a full-margin effect or itself recovered by U;
      (ii) each U-pair sees at most one other U-margin its effect is not
           inside (derivative columns then have norm below 1 - min_cell,
           certifying the subsystem iteration as a contraction).
    Relocating U into the full margin must leave a provably smooth
    collection; that recursion is checked by the caller.

    The answer is the smallest admissible U, ties broken by the sorted
    positions of its pairs among the proper pairs.  Condition (i) closes
    upward and (ii) only tightens as U grows, so the dependency closure of
    any member of an admissible U is itself admissible and inside U: every
    smallest admissible U is the closure of each of its pairs, and one
    closure per pair finds them all.  Collections with more than 14 proper
    pairs get no answer: the verdicts are defined with that cap, and
    lifting it gives some of those collections a relocation, so it would
    change verdicts.
    """
    full = spec.vars.full_mask
    proper_pairs = [p for p in spec.pairs if p[1] != full]
    if not proper_pairs or len(proper_pairs) > 14:
        return None
    # needs[i]: the proper pairs whose effects lie outside pair i's margin
    needs = [
        sum(1 << j for j, (k, _) in enumerate(proper_pairs) if k & ~margin)
        for _, margin in proper_pairs
    ]
    admissible: list[list[int]] = []
    for i in range(len(proper_pairs)):
        u, todo = 1 << i, [i]
        while todo:
            new = needs[todo.pop()] & ~u
            u |= new
            todo.extend(bit_positions(new))
        members = bit_positions(u)
        u_margins = {proper_pairs[j][1] for j in members}
        if all(
            sum(1 for n in u_margins if n != margin and effect & ~n) <= 1
            for effect, margin in (proper_pairs[j] for j in members)
        ):
            admissible.append(members)
    if not admissible:
        return None
    best = min(admissible, key=lambda members: (len(members), members))
    return {"relocate": tuple(proper_pairs[j] for j in best)}


_RULE_FUNCS = {
    "hierarchical": _rule_hierarchical,
    "two_margin": _rule_two_margin,
    "three_margin": _rule_three_margin,
    "variable_removal": _rule_variable_removal,
    "slice_split": _rule_slice_split,
    "slice_split_general": _rule_slice_split_general,
    "single_feedback": _rule_single_feedback,
    "cyclic": _rule_cyclic,
    CONTRACTION_RULE: _rule_contraction_reduce,
}


def rule_applies(spec: MLLSpec, rule: str) -> dict | None:
    """Structural applicability of a single rule (no recursion, no moves)."""
    if rule not in _RULE_FUNCS:
        raise SpecError(f"unknown rule {rule!r}")
    if not spec.is_complete():
        raise IncompleteSpecError("rules apply to complete specs only")
    return _RULE_FUNCS[rule](spec)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _move_steps(path: tuple[Move, ...]) -> tuple[RuleStep, ...]:
    return tuple(
        RuleStep(
            "interchange",
            {"effect": mv[0][0], "from_margin": mv[0][1], "to_margin": mv[1]},
        )
        for mv in path
    )


def classify(spec: MLLSpec) -> ClassificationReport:
    """Apply the rules in fixed priority order.

    ``hierarchical`` and ``two_margin`` are checked on the collection as
    given; every later rule is checked on the whole interchange closure
    (original collection first), and reducing rules fire only when the
    recursive classification of their reduced collection succeeds.  A
    relocation can lead back, through interchange moves, to a collection
    already on the recursion path; such a branch ends as not proven.
    """
    return _classify(spec, frozenset())


def _classify(
    spec: MLLSpec, on_path: frozenset[tuple[Pair, ...]]
) -> ClassificationReport:
    if not spec.is_complete():
        return ClassificationReport(spec, NOT_SMOOTH_INCOMPLETE, (), ())

    for rule in DIRECT_RULES:
        params = _RULE_FUNCS[rule](spec)
        if params is not None:
            return ClassificationReport(
                spec, PROVEN_SMOOTH, (RuleStep(rule, params),), ()
            )

    key = tuple(sorted(spec.pairs))
    if key in on_path:
        return ClassificationReport(spec, UNKNOWN, (), ())
    on_path = on_path | {key}

    closure = interchange_closure(spec)
    for rule in (*MOVABLE_RULES, CONTRACTION_RULE):
        for state, path in closure:
            params = _RULE_FUNCS[rule](state)
            if params is None:
                continue
            prefix = _move_steps(path)
            if rule in BASE_RULES:
                return ClassificationReport(
                    spec, PROVEN_SMOOTH, (*prefix, RuleStep(rule, params)), ()
                )
            if rule == CONTRACTION_RULE:
                reductions = [
                    (RuleStep(rule, params), relocate_pairs(state, params["relocate"]))
                ]
            else:
                reductions = (
                    (RuleStep(rule, {"v": v}), reduce_minus_v(state, v))
                    for v in params["candidates"]
                )
            for step, reduced in reductions:
                rec = _classify(reduced, on_path)
                if rec.verdict == PROVEN_SMOOTH:
                    return ClassificationReport(
                        spec,
                        PROVEN_SMOOTH,
                        (*prefix, step, *rec.rule_chain),
                        (reduced, *rec.reduced_specs),
                    )
    return ClassificationReport(spec, UNKNOWN, (), ())


# ---------------------------------------------------------------------------
# Enumeration, canonical forms and the census
# ---------------------------------------------------------------------------

def permute_mask(mask: int, perm: Sequence[int]) -> int:
    out = 0
    for b in bit_positions(mask):
        out |= 1 << perm[b]
    return out


def canonical_pairs(pairs: Iterable[Pair], n: int) -> tuple[Pair, ...]:
    """Minimum over variable relabelings of the sorted (margin, effect)
    encoding; equal canonical forms mean the specs differ by a relabeling."""
    pairs = tuple(pairs)
    best: tuple[tuple[int, int], ...] | None = None
    for perm in itertools.permutations(range(n)):
        enc = tuple(
            sorted((permute_mask(m, perm), permute_mask(e, perm)) for e, m in pairs)
        )
        if best is None or enc < best:
            best = enc
    assert best is not None
    return tuple((e, m) for m, e in best)


def canonical_key(spec: MLLSpec) -> tuple[Pair, ...]:
    return canonical_pairs(spec.pairs, spec.vars.n)


def labeled_complete_count(n: int) -> int:
    """Number of complete collections with labelled variables: every effect
    independently picks one of its 2**(n-|L|) superset margins."""
    exponent = sum(n - popcount(L) for L in range(1, 1 << n))
    return 1 << exponent


def _perm_fixed_count(n: int, perm: Sequence[int]) -> int:
    """Complete collections fixed by a relabeling: each effect orbit picks a
    superset margin fixed by the orbit-length power of the permutation."""
    full = (1 << n) - 1
    seen: set[int] = set()
    count = 1
    for L in range(1, full + 1):
        if L in seen:
            continue
        orbit = [L]
        cur = permute_mask(L, perm)
        while cur != L:
            orbit.append(cur)
            cur = permute_mask(cur, perm)
        seen.update(orbit)
        power = list(range(n))
        for _ in range(len(orbit)):
            power = [perm[b] for b in power]
        choices = 0
        for M in range(1, full + 1):
            if (L & ~M) == 0 and permute_mask(M, power) == M:
                choices += 1
        count *= choices
    return count


def burnside_orbit_count(n: int) -> int:
    perms = list(itertools.permutations(range(n)))
    total = sum(_perm_fixed_count(n, perm) for perm in perms)
    assert total % len(perms) == 0
    return total // len(perms)


def enumerate_complete(n: int, up_to_symmetry: bool = False) -> list[MLLSpec]:
    """Materialise complete collections on n variables (n <= 3), optionally
    one representative per relabeling orbit.  Use the counting helpers for
    larger n."""
    if n > 3:
        raise SpecError(
            "materialised enumeration is limited to 3 variables; "
            "use labeled_complete_count / burnside_orbit_count for counts"
        )
    vs = VarSet(tuple(str(i + 1) for i in range(n)))
    full = vs.full_mask
    effects = list(range(1, full + 1))
    superset_choices = [
        [M for M in range(1, full + 1) if (L & ~M) == 0] for L in effects
    ]
    specs = []
    seen_keys = set()
    for assignment in itertools.product(*superset_choices):
        pairs = tuple(zip(effects, assignment))
        if up_to_symmetry:
            key = canonical_pairs(pairs, n)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            specs.append(MLLSpec(vs, key))
        else:
            specs.append(MLLSpec(vs, pairs))
    return specs


def census(n: int = 3) -> dict:
    """Classify every complete collection on n variables up to relabeling
    and tabulate verdicts and first rules.  Only n = 3 is supported."""
    if n != 3:
        raise SpecError("the census is defined for exactly 3 variables")
    reps = enumerate_complete(n, up_to_symmetry=True)
    rows = []
    first_rule_counts: dict[str, int] = {}
    proven_hard = 0
    proven_total = 0
    unknown = 0
    for idx, spec in enumerate(reps):
        report = classify(spec)
        first = report.first_rule or "none"
        if report.verdict == PROVEN_SMOOTH:
            proven_total += 1
            if first != CONTRACTION_RULE:
                proven_hard += 1
        else:
            unknown += 1
        first_rule_counts[first] = first_rule_counts.get(first, 0) + 1
        rows.append(
            {
                "orbit": idx,
                "spec": spec.to_text().replace("\n", "; ").strip("; "),
                "margins": len(spec.margins),
                "verdict": report.verdict,
                "first_rule": first,
                "chain": [s.describe() for s in report.rule_chain],
            }
        )
    return {
        "variables": n,
        "labeled_complete": labeled_complete_count(n),
        "complete_orbits": len(reps),
        "burnside_orbits": burnside_orbit_count(n),
        "hierarchical_orbits": first_rule_counts.get("hierarchical", 0),
        "two_margin_extra": first_rule_counts.get("two_margin", 0),
        "variable_removal_first": first_rule_counts.get("variable_removal", 0),
        "slice_split_first": first_rule_counts.get("slice_split", 0),
        "three_margin_first": first_rule_counts.get("three_margin", 0),
        "single_feedback_first": first_rule_counts.get("single_feedback", 0),
        "cyclic_first": first_rule_counts.get("cyclic", 0),
        "slice_split_general_first": first_rule_counts.get("slice_split_general", 0),
        "contraction_first": first_rule_counts.get(CONTRACTION_RULE, 0),
        "proven_smooth_hard": proven_hard,
        "proven_smooth_total": proven_total,
        "unknown_orbits": unknown,
        "rows": rows,
    }
