"""Smoothness classification of effect-margin collections.

A collection is *complete* when every nonempty subset of the variables
occurs as an effect exactly once, and *hierarchical* when the distinct
margins can be ordered so that each effect sits in the first margin that
contains it.  Hierarchical completeness is the classical sufficient
condition for the parameter map to be a smooth bijection; this module also
implements sufficient conditions that go beyond it:

``two_margin``
    complete with exactly two distinct margins.
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
    with L not inside N (so every collection with at most three distinct
    margins); the fixed-point map then has no derivative column whose
    squared 2-norm reaches 1 - min_cell.  That bounds no operator norm, so
    it certifies no contraction, and the tests pin such a collection with
    two tables of equal parameters.
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

Rules are tried in the fixed order ``DIRECT_RULES + MOVABLE_RULES``; the
first success wins, which makes census bucket counts well defined.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

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
    "single_feedback",
    "cyclic",
    "slice_split_general",
)
CONTRACTION_RULE = "contraction_reduce"
# Rules that close a proof on their own; the others reduce and recurse.
BASE_RULES = frozenset({"hierarchical", "two_margin", "single_feedback", "cyclic"})
_SEARCH_RULES = (*MOVABLE_RULES, CONTRACTION_RULE)
_ALL_RULES = (*DIRECT_RULES, *_SEARCH_RULES)

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
    interchange closure it read, the distinct collections in the closure
    prefixes it read, the prefixes that reached the move limit, and whether
    it ended without a proof after expanding everything reachable.  Each
    closure is grown only as far as the rules read it; an exhausted search
    reads every rule on every state, so its counts are those of the whole
    closures, and a proof may count less.  A nonzero cut count means the
    verdict may depend on that limit; an ``UNKNOWN`` that is not exhausted
    was stopped at :data:`SEARCH_LIMIT`.  ``evaluated`` and ``fired`` count,
    per rule in priority order, the states on which the search asked for
    the rule's output and those on which the rule applied."""

    specs_expanded: int = 0
    closure_states: int = 0
    closures_truncated: int = 0
    exhausted: bool = False
    evaluated: dict = field(default_factory=lambda: dict.fromkeys(_ALL_RULES, 0))
    fired: dict = field(default_factory=lambda: dict.fromkeys(_ALL_RULES, 0))


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

def _hierarchy_order(effects: Sequence[int], key) -> tuple[int, ...] | None:
    """Witness margin order for the hierarchical pairs zip(effects, key),
    or None.

    The order must place each effect's margin before every other margin
    containing that effect; a topological sort of that precedence relation
    is returned (ties broken by margin size, then mask value).
    """
    margins = list(dict.fromkeys(key))
    succ: dict[int, set[int]] = {m: set() for m in margins}
    for effect, margin in zip(effects, key):
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
# Margin keys
# ---------------------------------------------------------------------------
# Moves and rules read a collection as its margin key: the margin of each
# effect, in a fixed effect order (``bytes`` up to eight variables, else a
# tuple), through a plan compiled once per effect order.

def _effect_bits(effects: Iterable[int]) -> int:
    """The effects as one bitmask: bit K stands for effect K."""
    out = 0
    for k in effects:
        out |= 1 << k
    return out


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a nonnegative ``mask``, increasing; unlike
    :func:`bit_positions` it visits only the set bits of a sparse effect
    mask, not every bit below the highest."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _gather(positions: list[int]):
    """The tuple of a key's entries at ``positions``."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    return lambda key: tuple(key[i] for i in positions)


def _packer(full: int):
    """The type of margin keys over ``full``: bytes while a margin fits in one."""
    return bytes if full < 256 else tuple


# Mask arithmetic the kernels look up; each caches at most one entry per
# margin (per margin and submask for _down) of the variable sets met.

@functools.cache
def _inside(n: int) -> int:
    """The effects inside N, as bits."""
    return _effect_bits(nonempty_submasks(n))


@functools.cache
def _free_tests(m: int) -> tuple[tuple[int, int], ...]:
    """Per variable x of M, x and the effects inside M that contain x."""
    return tuple(
        (x, _effect_bits(k for k in nonempty_submasks(m) if k & x))
        for x in (1 << b for b in bit_positions(m))
    )


@functools.cache
def _down(m: int, d: int) -> tuple[int, ...]:
    """The margins M minus A over the nonempty A inside d, increasing."""
    return tuple(sorted(m & ~a for a in nonempty_submasks(d)))


class _Plan:
    """What the kernels read of one effect order: each margin as a one-entry
    key; each effect's position; (position, effect) in order of effect, the
    order of :func:`_moves`; and, for a complete order, per variable v in
    bit order the gathers of the margins of a and of a|v over the nonempty a
    without v, with the strict targets a|v."""

    __slots__ = ("pos", "by_effect", "slices", "one")

    def __init__(self, full: int, effects: tuple[int, ...]):
        self.one = [_packer(full)((m,)) for m in range(full + 1)]
        self.pos = {e: i for i, e in reversed(tuple(enumerate(effects)))}
        self.by_effect = tuple(sorted(enumerate(effects), key=operator.itemgetter(1)))
        self.slices = []
        if len(self.pos) == len(effects) == full:
            for v in (1 << b for b in bit_positions(full)):
                rest = list(nonempty_submasks(full & ~v))
                self.slices.append((
                    v,
                    _gather([self.pos[a] for a in rest]),
                    _gather([self.pos[a | v] for a in rest]),
                    tuple(a | v for a in rest),
                ))


@functools.lru_cache(maxsize=32)
def _compile(full: int, effects: tuple[int, ...]) -> _Plan:
    return _Plan(full, effects)


class _Context:
    """One variable set and effect order.  A collection over it is held as
    its margin key; the plan is compiled on first use and shared by every
    context of that effect order.  A search also keeps here its states'
    ids by key, and the contexts reached by removing each variable."""

    __slots__ = ("vars", "full", "effects", "pack", "ids", "children", "_plan")

    def __init__(self, vars: VarSet, effects: tuple[int, ...]):
        self.vars = vars
        self.full = vars.full_mask
        self.effects = effects
        self.pack = _packer(self.full)
        self.ids: dict = {}
        # removed variable -> (context, kept positions, margin compression)
        self.children: dict[int, tuple] = {}
        self._plan = None

    @property
    def plan(self) -> _Plan:
        if self._plan is None:
            self._plan = _compile(self.full, self.effects)
        return self._plan

    def presence(self, key) -> dict[int, int]:
        """Each margin's effects as bits, margins in order of first
        appearance."""
        out: dict[int, int] = {}
        for e, m in zip(self.effects, key):
            out[m] = out.get(m, 0) | 1 << e
        return out


def _key_of(spec: MLLSpec):
    """The context and margin key of ``spec``, in its pair order."""
    ctx = _Context(spec.vars, tuple(e for e, _ in spec.pairs))
    return ctx, ctx.pack(m for _, m in spec.pairs)


# ---------------------------------------------------------------------------
# Interchange moves
# ---------------------------------------------------------------------------

Move = tuple[Pair, int]  # ((effect, margin), new margin)


def _moves(ctx: _Context, key) -> list[tuple[int, tuple[int, ...]]]:
    """The interchange moves of margin key ``key``, as (position, new
    margins) for each position that has any, by effect and then new margin.

    The block {(K, X) : K inside X, K meets A} lies wholly in the spec
    exactly when A avoids bad(X), the union of the nonempty K inside X for
    which (K, X) is not a pair; so a variable x of X is in free(X) = X minus
    bad(X) when X holds every effect inside X that contains x.  Downward
    moves of (L, M) go to M minus A for the nonempty A inside M minus L
    within free(M); upward moves go to the margins X strictly above M with
    X minus M inside free(X) (a set that is no margin has bad(X) = X).
    """
    free = {}
    for m, held in ctx.presence(key).items():
        f = 0
        for x, need in _free_tests(m):
            if not need & ~held:
                f |= x
        free[m] = f
    tops = sorted((x, f) for x, f in free.items() if f)  # up targets need free(X)
    up = {}  # the upward targets of each margin that has any move
    for m in free:
        ups = tuple(x for x, f in tops if x > m and not m & ~x and not x & ~m & ~f)
        if ups or free[m]:
            up[m] = ups
    out = []
    for i, effect in ctx.plan.by_effect:
        m = key[i]
        if m in up:
            d = m & ~effect & free[m]
            targets = _down(m, d) + up[m] if d else up[m]
            if targets:
                out.append((i, targets))
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
    ``limit`` distinct collections (distinct by exact pair set), and a
    ``limit`` below 1 raises :class:`SpecError`.  This is the closure that
    :func:`classify` reads from every collection it expands.
    """
    if limit < 1:
        raise SpecError(f"move limit must be at least 1, got {limit}")
    search = _Search(spec, limit)
    order, parent = [], []
    for _ in search.walk(search.root, order, parent):
        pass
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
# Each rule reads the margin key of a complete collection and its context.

def _rule_hierarchical(ctx: _Context, key) -> dict | None:
    order = _hierarchy_order(ctx.effects, key)
    if order is None:
        return None
    return {"order": order}


def _rule_two_margin(ctx: _Context, key) -> dict | None:
    margins = set(key)
    if len(margins) == 2:
        return {"margins": tuple(sorted(margins))}
    return None


def _variables(cands: list[int]) -> dict | None:
    if not cands:
        return None
    return {"v": cands[0], "candidates": tuple(cands)}


def _rule_variable_removal(ctx: _Context, key) -> dict | None:
    used = 0
    for m in set(key):
        if m != ctx.full:
            used |= m
    return _variables([1 << b for b in bit_positions(ctx.full & ~used)])


def _slice_split(ctx: _Context, key, strict: bool) -> dict | None:
    """Variables v whose every effect a without v shares its margin with
    a|v (strict: the margin a|v itself)."""
    cands = []
    for v, margins_a, margins_av, targets in ctx.plan.slices:
        ma = margins_a(key)
        if (not strict or ma == targets) and ma == margins_av(key):
            cands.append(v)
    return _variables(cands)


def _rule_slice_split(ctx: _Context, key) -> dict | None:
    return _slice_split(ctx, key, True)


def _rule_slice_split_general(ctx: _Context, key) -> dict | None:
    return _slice_split(ctx, key, False)


def _outside_twice(margins: Iterable[int]) -> int:
    """The effects outside two or more of ``margins``, as bits.  An effect
    lies inside its own margin, so for an effect held in one of them these
    are two of the others."""
    once = twice = 0
    for n in margins:
        out = ~_inside(n)
        twice |= once & out
        once |= out
    return twice


def _rule_single_feedback(ctx: _Context, key) -> dict | None:
    full = ctx.full
    twice = _outside_twice(m for m in set(key) if m != full)
    for e, m in zip(ctx.effects, key):
        if m != full and twice >> e & 1:
            return None
    return {}


def _rule_cyclic(ctx: _Context, key) -> dict | None:
    """Match: proper margins are exactly the conditional blocks of one cycle
    of disjoint groups A_1, ..., A_k (k >= 3), every remaining effect in the
    full margin.

    In such a cycle each margin overlaps exactly its two neighbours, so the
    only candidate orders are the two walks along the overlaps from the
    first margin; they are tried in the order of ``itertools.permutations``
    over the other margins, and the first that passes the checks is kept."""
    proper = [m for m in dict.fromkeys(key) if m != ctx.full]
    k = len(proper)
    if k < 3 or k > 8:
        return None
    first = proper[0]
    if sum(1 for o in proper if o & first) != 3:  # itself and two others
        return None
    overlaps = {m: [o for o in proper if o != m and o & m] for m in proper}
    for nb in overlaps[first]:
        order = [first, nb]
        while len(order) < k:
            ahead = [o for o in overlaps[order[-1]] if o != order[-2]]
            if len(ahead) != 1 or ahead[0] in order:
                break
            order.append(ahead[0])
        else:
            match = _cycle_match(order, ctx.presence(key))
            if match is not None:
                return match
    return None


def _cycle_match(order: list[int], held: dict[int, int]) -> dict | None:
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
        if held[margin] != _effect_bits(e for e in nonempty_submasks(margin) if e & a_i):
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


def _rule_contraction_reduce(ctx: _Context, key) -> dict | None:
    """Find a self-contained fixed-point subsystem U of proper-margin pairs.

    Requirements on U:
      (i)  every off-margin effect feeding a U-pair's margin-change term is
           either a full-margin effect or itself recovered by U;
      (ii) each U-pair sees at most one other U-margin its effect is not
           inside (the subsystem's derivative columns then have squared
           2-norm below 1 - min_cell, as for ``single_feedback``).
    Relocating U into the full margin must leave a provably smooth
    collection; that recursion is checked by the caller.

    The answer is the smallest admissible U, ties broken by the sorted
    positions of its pairs.  Condition (i) closes upward and (ii) only
    tightens as U grows, so the dependency closure of any member of an
    admissible U is itself admissible and inside U: every smallest
    admissible U is the closure of each of its pairs, and one closure per
    pair finds them all.  A pair's closure is the pair plus the closure of
    its margin's needs, found once per margin.  Collections with more than
    14 proper pairs get no answer: the verdicts are defined with that cap,
    and lifting it gives some of those collections a relocation, so it
    would change verdicts.  Sets of pairs are held as effect bits.
    """
    full = ctx.full
    if not 0 < len(key) - key.count(full) <= 14:  # the proper pairs
        return None
    held: dict[int, int] = {}  # each proper margin's effects
    for e, m in zip(ctx.effects, key):
        if m != full:
            held[m] = held.get(m, 0) | 1 << e
    proper = 0
    for h in held.values():
        proper |= h
    # each margin's needs: the proper pairs whose effects lie outside it
    needs = {m: proper & ~_inside(m) for m in held}
    closures = set()
    for m, h in held.items():
        closed, grown = needs[m], 0
        while grown != closed:  # add the needs of the margins holding them
            grown = closed
            for n, hn in held.items():
                if hn & grown:
                    closed |= needs[n]
        closures.update(1 << e | closed for e in _bits(h))
    best = None
    for u in sorted(closures, key=int.bit_count):
        if best is not None and u.bit_count() > len(best):
            break
        if not u & _outside_twice(m for m, h in held.items() if h & u):
            members = sorted(ctx.plan.pos[e] for e in _bits(u))
            if best is None or members < best:
                best = members
    if best is None:
        return None
    return {"relocate": tuple((ctx.effects[i], key[i]) for i in best)}


_RULE_FUNCS = {
    "hierarchical": _rule_hierarchical,
    "two_margin": _rule_two_margin,
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
    return _RULE_FUNCS[rule](*_key_of(spec))


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
    record = search.record()
    if chain is None:
        return ClassificationReport(spec, UNKNOWN, (), (), record)
    steps, reduced = search.report_chain(chain)
    return ClassificationReport(spec, PROVEN_SMOOTH, steps, reduced, record)


_PROOF = "proof"  # rule output on a state where a base rule applies


class _Search:
    """Depth-first proof search of one top-level :func:`classify` call.

    A *state* is one collection, held as an integer id with its context and
    margin key.  Its interchange neighbours and each rule's output on it are
    computed once, by kernels that read the key, so no state builds pairs;
    only the returned chain is built as specs.  A *node* is a state the
    search enters; :meth:`_options` lists its options in priority order.
    The memo, closure states included, lives only for the call.

    A node's closure is grown by :meth:`walk` only as far as its first
    search rule reads it, and the later rules read it whole.  The options
    are those of the closure built whole: the walk adds states in the same
    breadth-first order with the same cut, every rule reads them in that
    order, and the rules are asked in turn and stop at the first option
    taken, so no rule reads a state the walk has not yet added and no
    option comes earlier or later than it would.
    """

    def __init__(self, spec: MLLSpec, limit: int = DEFAULT_MOVE_LIMIT):
        self.limit = limit
        self.root_spec = spec
        self.ctx: list[_Context] = []
        self.keys: list = []
        self.neighbours: list = []
        # outs[r][s]: output of rule _SEARCH_RULES[r] on state s, True unset
        self.outs: list[list] = [[] for _ in _SEARCH_RULES]
        self.closed = set()  # the states of the closure prefixes read
        # each node's closure walk: its states read and their parents
        self.walks: dict[int, tuple[list[int], list[int]]] = {}
        self.evaluated = [0] * len(_ALL_RULES)
        self.fired = [0] * len(_ALL_RULES)
        self.expanded = 0
        self.truncated = 0
        self.exhausted = False
        root, key = _key_of(spec)
        self.contexts = {spec.vars.names: root}
        self.root = self._state(root, key)

    def record(self) -> SearchRecord:
        return SearchRecord(
            self.expanded, len(self.closed), self.truncated, self.exhausted,
            dict(zip(_ALL_RULES, self.evaluated)), dict(zip(_ALL_RULES, self.fired)),
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
        return s

    def spec(self, s: int) -> MLLSpec:
        if s == self.root:
            return self.root_spec
        return MLLSpec(self.ctx[s].vars, tuple(zip(self.ctx[s].effects, self.keys[s])))

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
            ids, one = ctx.ids, ctx.plan.one
            out = []
            for i, ms in _moves(ctx, key):
                head, tail = key[:i], key[i + 1:]
                for m in ms:
                    k = head + one[m] + tail
                    out.append(ids.get(k) or self._state(ctx, k))  # the root is 0
            self.neighbours[s] = out = tuple(out)
        return out

    def walk(
        self, entry: int, order: list[int], parent: list[int]
    ) -> Iterator[list[int]]:
        """Grow the breadth-first closure from ``entry`` into ``order``, in
        the order of :func:`interchange_closure`, and yield each chunk as it
        joins: ``entry``, then the new neighbours of each state in turn, up
        to the move limit.  ``parent`` receives the index of each one's
        parent (-1 for ``entry``).  States are marked in the closure as they
        join, and the closure counts as truncated once it reaches the limit,
        so a walk left unfinished counts its prefix."""
        limit, neighbours, closed = self.limit, self.neighbours, self.closed
        seen = {entry}
        order.append(entry)
        closed.add(entry)
        parent.append(-1)
        self.truncated += limit <= 1
        yield [entry]
        for i, s in enumerate(order):  # order grows as it is read
            if len(order) >= limit:
                return
            new = [t for t in neighbours[s] or self._neighbours(s) if t not in seen]
            if new:
                del new[limit - len(order):]
                seen.update(new)
                closed.update(new)
                order += new
                parent += [i] * len(new)
                self.truncated += len(order) >= limit
                yield new

    def _output(self, s: int, r: int):
        """Output of rule ``_SEARCH_RULES[r]`` on state ``s``: None, _PROOF,
        or the reduced states, one per candidate."""
        ctx, key = self.ctx[s], self.keys[s]
        rule = _SEARCH_RULES[r]
        params = _RULE_FUNCS[rule](ctx, key)
        self.evaluated[len(DIRECT_RULES) + r] += 1
        if params is None:
            out = None
        elif rule in BASE_RULES:
            out = _PROOF
        elif rule == CONTRACTION_RULE:
            moved = {ctx.plan.pos[e] for e, _ in params["relocate"]}
            full = ctx.full
            out = (self._state(ctx, ctx.pack(
                full if i in moved else m for i, m in enumerate(key)
            )),)
        else:
            out = tuple(self._removed(s, v) for v in params["candidates"])
        self.fired[len(DIRECT_RULES) + r] += out is not None
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
        for r, rule in enumerate(DIRECT_RULES):
            self.evaluated[r] += 1
            if _RULE_FUNCS[rule](self.ctx[v], self.keys[v]) is not None:
                self.fired[r] += 1
                return rule
        return None

    def _options(self, v: int):
        """Generate the options of node ``v`` in priority order, as (target,
        rule index, state) triples: the target is a reduced state, or -1
        for a base rule, whose option ends the list; the state is the one
        of ``v``'s closure whose rule output gives the option.  A target may
        come more than once.  The first rule reads the closure as
        :meth:`walk` grows it into ``walks[v]``; the later ones read it
        whole."""
        order, parent = self.walks[v] = [], []
        for r, row in enumerate(self.outs):
            if r == 0:  # chunks of a few states each, read in turn
                states = itertools.chain.from_iterable(self.walk(v, order, parent))
            else:  # states whose output is unset (True) or a hit, skipped in C
                states = itertools.compress(order, map(row.__getitem__, order))
            for s in states:
                out = row[s]
                if out is True:
                    out = self._output(s, r)
                if not out:
                    continue
                if out is _PROOF:
                    yield -1, r, s
                    return
                for t in out:
                    yield t, r, s

    def prove(self) -> list[tuple[int, int, str, int]] | None:
        """The chain of the path-guarded search of :func:`classify`, as
        (node, target, rule, state) steps, or None for ``UNKNOWN``; the
        state is the one of the node's closure whose rule gives the step.

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

        A step's state is the first in closure order whose rule output lists
        the target: an earlier one would have offered the target first, and
        as ``seen`` only grows, the search would have skipped it then too.

        Growing each closure lazily changes none of this.  A node's options
        are a function of its closure's states in breadth-first order, and
        :meth:`walk` yields exactly that order, cut at the same limit; the
        first rule reads the states as they join and every later rule reads
        the finished list, so each option appears at the same place in the
        list.  Neighbours and rule outputs are memoized per state and do not
        depend on when they are computed, and state ids only key the memo,
        so the order in which a lazy search meets states moves no step.

        After :data:`SEARCH_LIMIT` expansions the search answers None instead
        of entering another node; ``exhausted`` is set when it ends without
        a proof after expanding everything reachable.
        """
        direct = self._direct(self.root)
        if direct is not None:
            return [(self.root, -1, direct, self.root)]
        seen = {self.root}
        stack = [(self.root, self._options(self.root))]
        chain: list[tuple[int, int, str, int]] = []  # the options the stack took
        self.expanded = 1
        while stack:
            v, options = stack[-1]
            for t, r, s in options:
                if t < 0:
                    return chain + [(v, t, _SEARCH_RULES[r], s)]
                if t in seen:
                    continue
                seen.add(t)
                chain.append((v, t, _SEARCH_RULES[r], s))
                direct = self._direct(t)
                if direct is not None:
                    return chain + [(t, -1, direct, t)]
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
        self, chain: list[tuple[int, int, str, int]]
    ) -> tuple[tuple[RuleStep, ...], tuple[MLLSpec, ...]]:
        """Rule steps and reduced specs of a chain from :meth:`prove`: the
        interchange moves from each node to its step's state, read off the
        node's walk, then the step's rule on that state."""
        steps: list[RuleStep] = []
        reduced: list[MLLSpec] = []
        for v, t, rule, s in chain:
            if s != v:
                order, parent = self.walks[v]
                i = order.index(s)
                path: list[Move] = []
                while parent[i] >= 0:
                    path.append(self.move(order[parent[i]], order[i]))
                    i = parent[i]
                steps.extend(_move_steps(tuple(reversed(path))))
            params = _RULE_FUNCS[rule](self.ctx[s], self.keys[s])
            if t >= 0 and rule != CONTRACTION_RULE:
                row = self.outs[_SEARCH_RULES.index(rule)]
                params = {"v": params["candidates"][row[s].index(t)]}
            steps.append(RuleStep(rule, params))
            if t >= 0:
                reduced.append(self.spec(t))
        return tuple(steps), tuple(reduced)
