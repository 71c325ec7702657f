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

import dataclasses
import functools
import itertools
from array import array
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
# Collections one classification may expand before it answers UNKNOWN
# (scripts/search_sizes.py prints the sizes this value is chosen from).
SEARCH_LIMIT = 64


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
class SearchRecord:
    """Size of one classification's search: the distinct collections whose
    interchange closure it ran, the distinct collections in those closures,
    the closures cut at the move limit, and whether it ended without a proof
    after expanding everything reachable.  A nonzero cut count means the
    verdict may depend on that limit; an ``UNKNOWN`` that is not exhausted
    was stopped at :data:`SEARCH_LIMIT`."""

    specs_expanded: int = 0
    closure_states: int = 0
    closures_truncated: int = 0
    exhausted: bool = False


@dataclass(frozen=True)
class ClassificationReport:
    spec: MLLSpec
    verdict: str
    rule_chain: tuple[RuleStep, ...]
    reduced_specs: tuple[MLLSpec, ...]
    search: SearchRecord = SearchRecord()

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
            "search": dataclasses.asdict(self.search),
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
    return _hierarchy_order(spec.pairs)


def _margins(pairs: Sequence[Pair]) -> list[int]:
    """Distinct margins in order of first appearance (as ``MLLSpec.margins``)."""
    out: list[int] = []
    for _, m in pairs:
        if m not in out:
            out.append(m)
    return out


def _hierarchy_order(pairs: Sequence[Pair]) -> tuple[int, ...] | None:
    margins = _margins(pairs)
    succ: dict[int, set[int]] = {m: set() for m in margins}
    for effect, margin in pairs:
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
    which (K, X) is not a pair, so free(X) = X minus bad(X) is found once
    per margin from the subsets of X missing there.  Downward moves of
    (L, M) are then the nonempty submasks of M minus L within free(M);
    upward moves go to the margins X strictly above M with X minus M inside
    free(X) (a set that is no margin has bad(X) = X).
    """
    return [(pair, new_margin) for pair, new_margin, _ in _moves(spec.pairs)]


def _moves(pairs: Sequence[Pair]) -> list[tuple[Pair, int, int]]:
    """The moves of :func:`interchange_moves`, in its order, each with the
    position of its pair in ``pairs``."""
    effects_in: dict[int, set[int]] = {}
    for effect, margin in pairs:
        effects_in.setdefault(margin, set()).add(effect)
    free: dict[int, int] = {}
    for margin, effects in effects_in.items():
        bad = 0
        for k in _nonempty_submask_set(margin).difference(effects):
            bad |= k
        free[margin] = margin & ~bad
    up: dict[int, list[int]] = {
        m: [x for x in free if x != m and m & ~x == 0 and x & ~m & ~free[x] == 0]
        for m in free
    }
    out: list[tuple[Pair, int, int]] = []
    for i, (L, M) in enumerate(pairs):
        down = M & ~L & free[M]
        if down:
            for A in nonempty_submasks(down):
                out.append(((L, M), M & ~A, i))
        for X in up[M]:
            out.append(((L, M), X, i))
    out.sort()
    return out


@functools.lru_cache(maxsize=1024)
def _nonempty_submask_set(mask: int) -> frozenset[int]:
    return frozenset(nonempty_submasks(mask))


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
    ``limit`` distinct collections (distinct by exact pair set).  This is
    the closure that :func:`classify` runs from every collection it
    expands.
    """
    search = _Search(spec, limit)
    parent: list[int] = []
    order = search.closure(search.root, parent)
    paths: list[tuple[Move, ...]] = []
    out = []
    for s, i in zip(order, parent):
        path = () if i < 0 else paths[i] + (search.move(order[i], s),)
        paths.append(path)
        out.append((search.spec(s), path))
    return out


# ---------------------------------------------------------------------------
# Individual rules (structural applicability only)
# ---------------------------------------------------------------------------
# Each rule reads the pairs of a complete collection, in spec order, and the
# full variable mask.

def _rule_hierarchical(pairs: Sequence[Pair], full: int) -> dict | None:
    order = _hierarchy_order(pairs)
    if order is None:
        return None
    return {"order": order}


def _rule_two_margin(pairs: Sequence[Pair], full: int) -> dict | None:
    margins = _margins(pairs)
    if len(margins) == 2:
        return {"margins": tuple(sorted(margins))}
    return None


def _rule_three_margin(pairs: Sequence[Pair], full: int) -> dict | None:
    margins = _margins(pairs)
    if len(margins) <= 3:
        return {"margins": tuple(sorted(margins))}
    return None


def _rule_variable_removal(pairs: Sequence[Pair], full: int) -> dict | None:
    used = 0
    for _, m in pairs:
        if m != full:
            used |= m
    cands = [1 << b for b in bit_positions(full & ~used)]
    if not cands:
        return None
    return {"v": cands[0], "candidates": tuple(cands)}


def _slice_split_candidates(
    pairs: Sequence[Pair], full: int, strict: bool
) -> list[int]:
    em = dict(pairs)
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


def _rule_slice_split(pairs: Sequence[Pair], full: int) -> dict | None:
    cands = _slice_split_candidates(pairs, full, strict=True)
    if not cands:
        return None
    return {"v": cands[0], "candidates": tuple(cands)}


def _rule_slice_split_general(pairs: Sequence[Pair], full: int) -> dict | None:
    cands = _slice_split_candidates(pairs, full, strict=False)
    if not cands:
        return None
    return {"v": cands[0], "candidates": tuple(cands)}


def _rule_single_feedback(pairs: Sequence[Pair], full: int) -> dict | None:
    proper = [m for m in _margins(pairs) if m != full]
    for effect, margin in pairs:
        if margin == full:
            continue
        others = [n for n in proper if n != margin and (effect & ~n)]
        if len(others) > 1:
            return None
    return {}


def _rule_cyclic(pairs: Sequence[Pair], full: int) -> dict | None:
    """Match: proper margins are exactly the conditional blocks of one cycle
    of disjoint groups A_1, ..., A_k (k >= 3), every remaining effect in the
    full margin.

    In such a cycle each margin overlaps exactly its two neighbours, so the
    only candidate orders are the two walks along the overlaps from the
    first margin; they are tried in the order of ``itertools.permutations``
    over the other margins, and the first that passes the checks is kept."""
    proper = [m for m in _margins(pairs) if m != full]
    k = len(proper)
    if k < 3 or k > 8:
        return None
    overlaps = {m: [o for o in proper if o != m and o & m] for m in proper}
    first = proper[0]
    if len(overlaps[first]) != 2:
        return None
    by_margin = {m: {e for e, mm in pairs if mm == m} for m in proper}
    for nb in overlaps[first]:
        order = [first, nb]
        while len(order) < k:
            ahead = [o for o in overlaps[order[-1]] if o != order[-2]]
            if len(ahead) != 1 or ahead[0] in order:
                break
            order.append(ahead[0])
        else:
            match = _cycle_match(order, by_margin)
            if match is not None:
                return match
    return None


def _cycle_match(order: list[int], by_margin: dict[int, set[int]]) -> dict | None:
    """The cyclic rule's record for the margins in cycle ``order``: the
    overlaps of neighbouring margins are nonempty disjoint blocks, each
    margin is the union of its two blocks and holds exactly its effects
    that meet the next block.  None when any of that fails."""
    k = len(order)
    blocks = [order[i] & order[(i + 1) % k] for i in range(k)]
    union = 0
    for a in blocks:
        if a == 0 or union & a:
            return None
        union |= a
    for i in range(k):
        margin = order[i]
        a_i = blocks[i]
        if margin != (blocks[i - 1] | a_i):
            return None
        if by_margin[margin] != {Lm for Lm in nonempty_submasks(margin) if Lm & a_i}:
            return None
    return {"blocks": tuple(blocks), "margins": tuple(order)}


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


def _rule_contraction_reduce(pairs: Sequence[Pair], full: int) -> dict | None:
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
    closure per pair finds them all.  A pair's closure is the pair plus the
    closure of its margin's needs, found once per margin.  Collections with
    more than 14 proper pairs get no answer: the verdicts are defined with
    that cap, and lifting it gives some of those collections a relocation,
    so it would change verdicts.
    """
    proper_pairs = [p for p in pairs if p[1] != full]
    if not proper_pairs or len(proper_pairs) > 14:
        return None
    margin_of = [m for _, m in proper_pairs]
    margins = list(dict.fromkeys(margin_of))
    bit = {m: 1 << b for b, m in enumerate(margins)}
    # needs[a]: the proper pairs whose effects lie outside margin a, and
    # reach[a]: their margins, as bits; outside[j]: the other margins, as
    # bits, that pair j's effect is not inside
    needs, reach = [0] * len(margins), [0] * len(margins)
    outside = [0] * len(proper_pairs)
    for a, m in enumerate(margins):
        for j, (k, n) in enumerate(proper_pairs):
            if k & ~m:
                needs[a] |= 1 << j
                reach[a] |= bit[n]
                if n != m:
                    outside[j] |= 1 << a
    for b in range(len(margins)):  # transitive closure of reach
        for a in range(len(margins)):
            if reach[a] >> b & 1:
                reach[a] |= reach[b]
    closed = {}
    for a, m in enumerate(margins):
        u = needs[a]
        for b in range(len(margins)):
            if reach[a] >> b & 1:
                u |= needs[b]
        closed[m] = u
    admissible: list[list[int]] = []
    for u in {1 << i | closed[m] for i, m in enumerate(margin_of)}:
        members = bit_positions(u)
        u_margins = 0
        for j in members:
            u_margins |= bit[margin_of[j]]
        if all((outside[j] & u_margins).bit_count() <= 1 for j in members):
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
    return _RULE_FUNCS[rule](spec.pairs, spec.vars.full_mask)


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
    (original collection first), and a reducing rule fires only when its
    reduced collection is proven in turn.  The report is the chain that a
    depth-first search in that priority order returns when it ends every
    branch that repeats a collection (by pair set) of its own recursion
    path.

    One :class:`_Search` per call finds that chain by a depth-first search
    that enters each distinct collection (variable names and pairs) at most
    once; :meth:`_Search.prove` argues that the chain is the same.  It
    answers ``UNKNOWN`` when it expands everything reachable without a proof
    (``search.exhausted``), or when it would expand more than
    :data:`SEARCH_LIMIT` collections.
    """
    if not spec.is_complete():
        return ClassificationReport(spec, NOT_SMOOTH_INCOMPLETE, (), ())
    search = _Search(spec)
    chain = search.prove()
    if chain is None:
        return ClassificationReport(spec, UNKNOWN, (), (), search.record())
    steps, reduced = search.report_chain(chain)
    return ClassificationReport(spec, PROVEN_SMOOTH, steps, reduced, search.record())


_SEARCH_RULES = (*MOVABLE_RULES, CONTRACTION_RULE)
_PROOF = "proof"  # rule output on a state where a base rule applies


class _Context:
    """One variable set met by a search: its pair order, and the states over
    it, keyed by their margins in that order (``bytes`` up to eight
    variables)."""

    __slots__ = ("vars", "full", "effects", "pack", "ids", "children")

    def __init__(self, vars: VarSet, effects: tuple[int, ...]):
        self.vars = vars
        self.full = vars.full_mask
        self.effects = effects
        self.pack = bytes if self.full < 256 else tuple
        self.ids: dict = {}
        # removed variable -> (context, kept positions, margin compression)
        self.children: dict[int, tuple] = {}


class _Search:
    """Depth-first proof search of one top-level :func:`classify` call.

    A *state* is one collection, held as an integer id with its context and
    margin key; its interchange neighbours and each rule's output on it are
    computed once, and only the returned chain is built as specs.  A *node*
    is a state the search enters; :meth:`_options` lists its options in
    priority order.  The memo, closure states included, lives only for the
    call.
    """

    def __init__(self, spec: MLLSpec, limit: int = DEFAULT_MOVE_LIMIT):
        self.limit = limit
        self.root_spec = spec
        self.ctx: list[_Context] = []
        self.keys: list = []
        self.neighbours: list = []
        # outs[r][s]: output of rule _SEARCH_RULES[r] on state s, True unset
        self.outs: list[list] = [[] for _ in _SEARCH_RULES]
        self.in_closure = bytearray()
        self.expanded = 0
        self.truncated = 0
        self.exhausted = False
        root = _Context(spec.vars, tuple(e for e, _ in spec.pairs))
        self.contexts = {spec.vars.names: root}
        self.root = self._state(root, root.pack(m for _, m in spec.pairs))

    def record(self) -> SearchRecord:
        return SearchRecord(
            self.expanded, sum(self.in_closure), self.truncated, self.exhausted
        )

    # -- states -------------------------------------------------------------

    def _state(self, ctx: _Context, key) -> int:
        s = ctx.ids.get(key)
        if s is None:
            s = ctx.ids[key] = len(self.keys)
            self.ctx.append(ctx)
            self.keys.append(key)
            self.neighbours.append(None)
            for row in self.outs:
                row.append(True)
            self.in_closure.append(0)
        return s

    def pairs(self, s: int) -> tuple[Pair, ...]:
        return tuple(zip(self.ctx[s].effects, self.keys[s]))

    def spec(self, s: int) -> MLLSpec:
        if s == self.root:
            return self.root_spec
        return MLLSpec(self.ctx[s].vars, self.pairs(s))

    def move(self, s: int, t: int) -> Move:
        """The interchange move from state ``s`` to its neighbour ``t``."""
        a, b = self.keys[s], self.keys[t]
        i = next(i for i in range(len(a)) if a[i] != b[i])
        return ((self.ctx[s].effects[i], a[i]), b[i])

    def _neighbours(self, s: int) -> tuple[int, ...]:
        """States one interchange move away, in move order."""
        out = self.neighbours[s]
        if out is None:
            ctx, key = self.ctx[s], self.keys[s]
            out = self.neighbours[s] = tuple(
                self._state(ctx, key[:i] + ctx.pack((m,)) + key[i + 1:])
                for _, m, i in _moves(self.pairs(s))
            )
        return out

    def closure(self, entry: int, parent: list[int] | None = None) -> list[int]:
        """States of the breadth-first closure from ``entry``, ordered as by
        :func:`interchange_closure`; ``parent``, when given, receives the
        index of each one's parent (-1 for ``entry``)."""
        limit, neighbours = self.limit, self.neighbours
        seen = {entry}
        order = [entry]
        if parent is not None:
            parent.append(-1)
        frontier: Iterable[int] = [0]
        while frontier and len(order) < limit:
            start = len(order)
            for i in frontier:
                s = order[i]
                nb = neighbours[s]
                if nb is None:
                    nb = self._neighbours(s)
                new = [t for t in nb if t not in seen]
                if new:
                    del new[limit - len(order):]
                    seen.update(new)
                    order.extend(new)
                    if parent is not None:
                        parent.extend([i] * len(new))
                    if len(order) >= limit:
                        break
            frontier = range(start, len(order))
        for s in order:
            self.in_closure[s] = 1
        return order

    def _output(self, s: int, r: int):
        """Output of rule ``_SEARCH_RULES[r]`` on state ``s``: None, _PROOF,
        or the reduced states, one per candidate."""
        ctx, key = self.ctx[s], self.keys[s]
        rule = _SEARCH_RULES[r]
        params = _RULE_FUNCS[rule](self.pairs(s), ctx.full)
        if params is None:
            out = None
        elif rule in BASE_RULES:
            out = _PROOF
        elif rule == CONTRACTION_RULE:
            moved = {ctx.effects.index(e) for e, _ in params["relocate"]}
            full = ctx.full
            out = (self._state(ctx, ctx.pack(
                full if i in moved else m for i, m in enumerate(key)
            )),)
        else:
            out = tuple(self._removed(s, v) for v in params["candidates"])
        self.outs[r][s] = out
        return out

    def _removed(self, s: int, v: int) -> int:
        """State of :func:`reduce_minus_v` applied to state ``s``."""
        ctx = self.ctx[s]
        child = ctx.children.get(v)
        if child is None:
            keep = ctx.full & ~v
            names = ctx.vars.restrict(keep)
            kept = tuple(i for i, e in enumerate(ctx.effects) if not e & v)
            sub = self.contexts.get(names.names)
            if sub is None:
                effects = tuple(compress(ctx.effects[i], keep) for i in kept)
                sub = self.contexts[names.names] = _Context(names, effects)
            cmap = [compress(m, keep) for m in range(ctx.full + 1)]
            child = ctx.children[v] = (sub, kept, cmap)
        sub, kept, cmap = child
        key = self.keys[s]
        return self._state(sub, sub.pack(cmap[key[i]] for i in kept))

    # -- the search ---------------------------------------------------------

    def _direct(self, v: int) -> str | None:
        """The first direct rule that proves state ``v``, or None."""
        pairs, full = self.pairs(v), self.ctx[v].full
        return next(
            (r for r in DIRECT_RULES if _RULE_FUNCS[r](pairs, full) is not None),
            None,
        )

    def _options(self, v: int):
        """Generate the options of node ``v`` in priority order, as (target,
        rule index) pairs: the target is a reduced state, or -1 for a base
        rule, whose option ends the list.  A target may come more than
        once."""
        order = array("i", self.closure(v))
        self.truncated += len(order) >= self.limit
        for r, row in enumerate(self.outs):
            # states whose output is unset (True) or a hit, skipped in C
            for s in itertools.compress(order, map(row.__getitem__, order)):
                out = row[s]
                if out is True:
                    out = self._output(s, r)
                    if out is None:
                        continue
                if out is _PROOF:
                    yield -1, r
                    return
                for t in out:
                    yield t, r

    def prove(self) -> list[tuple[int, int, str]] | None:
        """The chain of the path-guarded search of :func:`classify`, as
        (node, target, rule) steps, or None for ``UNKNOWN``.

        This search goes depth first through each node's options in
        priority order, enters each state at most once, and returns its
        stack at the first proof; the last step closes with target -1, by a
        base rule or a direct rule of its node.  The path-guarded recursion
        takes the same steps, since every target skipped here fails there:

        - Reductions only remove variables and the pair count fixes how many
          remain, so nodes with equal pairs on one path have equal names:
          the pairs-only guard agrees with the (names, pairs) state key and
          ends every target on the current stack.
        - A node finished here reaches only finished nodes and nodes on the
          stack: true when it finishes, and kept when the stack shrinks, as
          the node popped is finished.  No finished node has a proof option
          and the guard ends every branch back into the stack, so the
          recursion fails at a finished node too.

        After :data:`SEARCH_LIMIT` expansions the search answers None instead
        of entering another node; ``exhausted`` is set when it ends without
        a proof after expanding everything reachable.
        """
        direct = self._direct(self.root)
        if direct is not None:
            return [(self.root, -1, direct)]
        seen = {self.root}
        stack = [(self.root, self._options(self.root))]
        chain: list[tuple[int, int, str]] = []  # the options the stack took
        self.expanded = 1
        while stack:
            v, options = stack[-1]
            for t, r in options:
                if t < 0:
                    return chain + [(v, t, _SEARCH_RULES[r])]
                if t in seen:
                    continue
                seen.add(t)
                chain.append((v, t, _SEARCH_RULES[r]))
                direct = self._direct(t)
                if direct is not None:
                    return chain + [(t, -1, direct)]
                if self.expanded >= SEARCH_LIMIT:
                    return None
                self.expanded += 1
                stack.append((t, self._options(t)))
                break
            else:
                stack.pop()
                if stack:
                    chain.pop()
        self.exhausted = True
        return None

    def report_chain(
        self, chain: list[tuple[int, int, str]]
    ) -> tuple[tuple[RuleStep, ...], tuple[MLLSpec, ...]]:
        """Rule steps and reduced specs of a chain from :meth:`prove`."""
        steps: list[RuleStep] = []
        reduced: list[MLLSpec] = []
        for v, t, rule in chain:
            s = v  # the state whose rule output gives the option
            if rule not in DIRECT_RULES:
                row = self.outs[_SEARCH_RULES.index(rule)]

                def lists(s: int) -> bool:  # whether the option came from s
                    out = row[s]
                    return out is _PROOF if t < 0 else type(out) is tuple and t in out

                if not lists(v):
                    parent: list[int] = []
                    order = self.closure(v, parent)
                    i = next(i for i, s in enumerate(order) if lists(s))
                    s = order[i]
                    path: list[Move] = []
                    while parent[i] >= 0:
                        path.append(self.move(order[parent[i]], order[i]))
                        i = parent[i]
                    steps.extend(_move_steps(tuple(reversed(path))))
            params = _RULE_FUNCS[rule](self.pairs(s), self.ctx[v].full)
            if t >= 0 and rule != CONTRACTION_RULE:
                params = {"v": params["candidates"][row[s].index(t)]}
            steps.append(RuleStep(rule, params))
            if t >= 0:
                reduced.append(self.spec(t))
        return tuple(steps), tuple(reduced)


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
