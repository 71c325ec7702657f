"""Conditional-independence statements as zero constraints on parameters.

A statement "X_a independent of X_b given X_c" over disjoint blocks a, b, c
holds in a strictly positive table exactly when every parameter of the
margin a+b+c whose effect meets both a and b is zero.  This module turns
statement lists into zero-pair collections, embeds them into complete
collections, verifies statements on tables, reconstructs conditionals from
their parameter blocks, composes Gibbs sweep kernels and their stationary
distributions, and produces member tables of a model from the free values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import solvers
from .errors import NON_CONVERGENCE, SolverError, SpecError, StructureError
from .mll import MLLSpec, MLLVector, Pair, conditional_from_lambda  # noqa: F401 (re-export)
from .tables import (
    ConditionalTable,
    JointTable,
    VarSet,
    compress_map,
    fwht,  # noqa: F401 (unused; bench/tests/test_bench.py traces it by this name)
    marginal_array,
    marginalize,
    nonempty_submasks,
    packed_indices,
    popcount,
)


@dataclass(frozen=True)
class CIStatement:
    """X_a independent of X_b given X_c, blocks as masks over ``vars``."""

    vars: VarSet
    a: int
    b: int
    c: int = 0

    def __post_init__(self) -> None:
        if self.a == 0 or self.b == 0:
            raise SpecError("both independence blocks must be nonempty")
        if (self.a & self.b) or (self.a & self.c) or (self.b & self.c):
            raise SpecError("independence blocks must be pairwise disjoint")
        if (self.a | self.b | self.c) & ~self.vars.full_mask:
            raise SpecError("statement uses unknown variables")

    @property
    def margin(self) -> int:
        return self.a | self.b | self.c

    def to_text(self) -> str:
        def fmt(m: int) -> str:
            return ",".join(self.vars.names_of(m))

        out = f"{fmt(self.a)} _||_ {fmt(self.b)}"
        if self.c:
            out += f" | {fmt(self.c)}"
        return out

    @staticmethod
    def from_text(vars: VarSet, text: str) -> "CIStatement":
        m = re.match(r"^\s*(.+?)\s*_\|\|_\s*([^|]+?)\s*(?:\|\s*(.*?)\s*)?$", text)
        if not m:
            raise SpecError(f"cannot parse statement {text!r}")

        def block(s: str | None) -> int:
            if not s or not s.strip():
                return 0
            labels = [t for t in re.split(r"[,\s]+", s.strip()) if t]
            return vars.mask_of(labels)

        return CIStatement(
            vars, block(m.group(1)), block(m.group(2)), block(m.group(3))
        )

    def to_json_obj(self) -> dict:
        return {
            "a": list(self.vars.names_of(self.a)),
            "b": list(self.vars.names_of(self.b)),
            "c": list(self.vars.names_of(self.c)),
        }

    @staticmethod
    def from_json_obj(vars: VarSet, obj: dict) -> "CIStatement":
        return CIStatement(
            vars,
            vars.mask_of(obj["a"]),
            vars.mask_of(obj["b"]),
            vars.mask_of(obj.get("c", [])),
        )


def ci_holds(t: JointTable, s: CIStatement, tol: float = 1e-9) -> bool:
    """Check max over cells of |p(ab|c) - p(a|c) p(b|c)| against tol."""
    if s.vars.names != t.vars.names:
        raise SpecError("statement and table use different variable sets")
    sub = marginalize(t, s.margin)
    sv = sub.vars
    a_in = sv.mask_of(t.vars.names_of(s.a))
    b_in = sv.mask_of(t.vars.names_of(s.b))
    c_in = sv.mask_of(t.vars.names_of(s.c)) if s.c else 0
    p = sub.p
    n = sv.n
    pc = marginal_array(p, n, c_in) if c_in else np.array([1.0])
    pac = marginal_array(p, n, a_in | c_in)
    pbc = marginal_array(p, n, b_in | c_in)
    cm_c = compress_map(n, c_in)
    cm_ac = compress_map(n, a_in | c_in)
    cm_bc = compress_map(n, b_in | c_in)
    lhs = p / pc[cm_c]
    rhs = (pac[cm_ac] / pc[cm_c]) * (pbc[cm_bc] / pc[cm_c])
    return float(np.max(np.abs(lhs - rhs))) <= tol


def ci_to_zero_params(s: CIStatement) -> list[Pair]:
    """Pairs of the margin a+b+c whose effect meets both blocks; setting
    them all to zero is equivalent to the statement.  For single-variable
    blocks this is every superset of a+b inside the margin."""
    margin = s.margin
    return [
        (L, margin) for L in nonempty_submasks(margin) if (L & s.a) and (L & s.b)
    ]


# ---------------------------------------------------------------------------
# Sweep kernels (cyclic update schemes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GibbsCycleSpec:
    """One sweep of conditional draws whose state lives on ``state``.

    Each step draws its target block from a conditional given variables
    that are part of the state or were drawn earlier in the sweep; values
    from the previous sweep persist until redrawn.
    """

    vars: VarSet
    steps: tuple[tuple[int, int, ConditionalTable], ...]  # (target, given, table)
    state: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.state == 0 or self.state & ~self.vars.full_mask:
            raise SpecError("state must be a nonempty subset of the variables")
        available = self.state
        for i, (tgt, giv, cond) in enumerate(self.steps):
            if tgt == 0 or (tgt & giv):
                raise SpecError(f"step {i}: bad target/conditioning blocks")
            if giv & ~available:
                raise SpecError(f"step {i}: conditions on unavailable variables")
            if set(cond.target) != set(self.vars.names_of(tgt)) or set(
                cond.given
            ) != set(self.vars.names_of(giv)):
                raise SpecError(f"step {i}: conditional names do not match blocks")
            available |= tgt


def _sweep_kernel(g: GibbsCycleSpec) -> np.ndarray:
    """Transition matrix of one full sweep on the state cells: row = state
    before the sweep, column = state after.

    Between steps only the variables still needed (future conditioning
    sets, plus state variables never redrawn) are retained; dropping the
    rest is what makes each step's conditional exact for the retained
    marginal.  Column j of the carried array is the distribution reached
    from start state j, so every start is swept at once.
    """
    vars = g.vars
    k = len(g.steps)
    # needed[i]: variables whose pre-step-i value is still used at or after
    # step i (a redraw makes the old value obsolete, so no step's target is
    # live when it is drawn)
    needed = [0] * (k + 1)
    needed[k] = g.state
    for i in range(k - 1, -1, -1):
        tgt, giv, _ = g.steps[i]
        needed[i] = giv | (needed[i + 1] & ~tgt)

    def drop_to(dist: np.ndarray, live: int, keep: int) -> np.ndarray:
        sub_vars = vars.restrict(live)
        return marginal_array(dist, sub_vars.n, sub_vars.mask_of(vars.names_of(keep)))

    live = g.state
    dist = np.eye(1 << popcount(g.state))
    for i, (tgt, giv, cond) in enumerate(g.steps):
        keep = live & needed[i]
        if keep != live:
            dist = drop_to(dist, live, keep)
            live = keep
        new_live = live | tgt
        nv = vars.restrict(new_live)
        rows = packed_indices(nv, cond.target)
        cols = packed_indices(nv, cond.given)
        old_idx = packed_indices(nv, vars.names_of(live))
        dist = cond.values[rows, cols][:, None] * dist[old_idx]
        live = new_live
    kernel = drop_to(dist, live, g.state).T
    return kernel / kernel.sum(axis=1, keepdims=True)


def gibbs_stationary(g: GibbsCycleSpec) -> JointTable:
    """Stationary distribution of the composed sweep kernel on the state
    variables, by direct linear solve."""
    pi = solvers.stationary_distribution(_sweep_kernel(g))
    return JointTable(g.vars.restrict(g.state), pi)


# ---------------------------------------------------------------------------
# Models: zero pairs, embeddings, members
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    statements: tuple[CIStatement, ...]
    zero_pairs: tuple[Pair, ...]
    embedding: MLLSpec | None  # None when no complete embedding exists

    @property
    def free_pairs(self) -> tuple[Pair, ...]:
        if self.embedding is None:
            return ()
        zero = set(self.zero_pairs)
        return tuple(p for p in self.embedding.pairs if p not in zero)


def model_spec(
    statements: Sequence[CIStatement], vars: VarSet | None = None
) -> ModelSpec:
    """Zero pairs of a statement list plus a complete embedding.

    The embedding keeps every zero pair.  When some variable v can pair
    every remaining effect A with A+v inside a shared margin the
    assignment follows that pairing (keeping the per-slice reduction
    available); otherwise each remaining effect goes to the smallest
    statement margin containing it, with the full margin as the fallback.
    When two statements constrain the same effect in different margins no
    complete embedding exists and ``embedding`` is None.  An empty
    statement list (``vars`` required) embeds as the single full margin.
    """
    if not statements:
        if vars is None:
            raise SpecError("an empty statement list needs an explicit variable set")
        full = vars.full_mask
        pairs = tuple((L, full) for L in nonempty_submasks(full))
        return ModelSpec((), (), MLLSpec(vars, pairs))
    vars = statements[0].vars
    if any(s.vars.names != vars.names for s in statements):
        raise SpecError("statements use different variable sets")
    zero: dict[int, int] = {}
    zero_pairs: list[Pair] = []
    for s in statements:
        for effect, margin in ci_to_zero_params(s):
            if effect in zero:
                if zero[effect] != margin:
                    return ModelSpec(tuple(statements), tuple(zero_pairs), None)
                continue
            zero[effect] = margin
            zero_pairs.append((effect, margin))

    full = vars.full_mask
    listed = sorted({m for _, m in zero_pairs}, key=lambda m: (popcount(m), m))

    def greedy(effect: int) -> int:
        for m in listed:
            if (effect & ~m) == 0:
                return m
        return full

    assignment: dict[int, int] | None = None
    for b in range(vars.n):
        v = 1 << b
        trial: dict[int, int] = dict(zero)
        ok = True
        for a in nonempty_submasks(full & ~v):
            ma, mav = trial.get(a), trial.get(a | v)
            if ma is not None and mav is not None:
                if ma != mav:
                    ok = False
                    break
            elif ma is not None:
                trial[a | v] = ma
            elif mav is not None:
                trial[a] = mav
            else:
                shared = greedy(a | v)
                if (a | v) & ~shared:
                    shared = full
                trial[a] = shared
                trial[a | v] = shared
        if ok:
            if v not in trial:
                trial[v] = greedy(v)
            assignment = trial
            break
    if assignment is None:
        assignment = dict(zero)
        for L in nonempty_submasks(full):
            if L not in assignment:
                assignment[L] = greedy(L)

    pairs = list(zero_pairs) + [
        (L, assignment[L]) for L in sorted(assignment) if L not in zero
    ]
    embedding = MLLSpec(vars, tuple(pairs))
    if not embedding.is_complete():
        raise SpecError("constructed embedding is not complete")
    return ModelSpec(tuple(statements), tuple(zero_pairs), embedding)


def _two_anchor_warm_start(
    embedding: MLLSpec, free_values: Mapping[Pair, float]
) -> np.ndarray | None:
    """Warm start for four-variable embeddings carrying two disjoint fully
    parameterised two-variable anchor margins.

    The warm start is the product of the two anchor tables, which is also
    what a Gibbs sweep of the four within-anchor conditionals assembles (the
    two anchor chains run independently, each keeping its own marginal
    stationary).  Its coefficients are the anchors' values, and zero on the
    effects that meet both anchors, which the Newton completion then fixes.
    """
    if embedding.vars.n != 4:
        return None
    anchors = []
    for m in embedding.proper_margins:
        block = sorted(e for e, mm in embedding.pairs if mm == m)
        full = popcount(m) == 2 and block == sorted(nonempty_submasks(m))
        if full and all((e, m) in free_values for e in block):
            anchors.append(m)
    if len(anchors) != 2 or (anchors[0] & anchors[1]):
        return None
    eta = np.zeros(embedding.vars.n_cells)
    for m in anchors:
        for e in nonempty_submasks(m):
            eta[e] = free_values[(e, m)]
    return eta


def model_member(
    embedding: MLLSpec,
    free_values: Mapping[Pair, float],
    statements: Sequence[CIStatement] | None = None,
) -> JointTable:
    """Member table of the model: zero pairs at zero, free pairs at the
    given values.

    Embeddings with two disjoint fully parameterised two-variable anchor
    margins first try Newton from the product of the two anchor tables;
    otherwise, or when that fails, the automatic inverter solves.  Its
    failure is NON_CONVERGENCE: the parameters are variation dependent, so
    some free values have no member.  When ``statements`` are given the
    member is verified against them.
    """
    if not embedding.is_complete():
        raise StructureError("model embeddings must be complete")
    unknown = set(free_values) - set(embedding.pairs)
    if unknown:
        raise SpecError(f"free values for pairs not in the embedding: {unknown}")
    tvals = np.array([float(free_values.get(pair, 0.0)) for pair in embedding.pairs])
    target = MLLVector(embedding, tvals)
    result: solvers.SolveResult | None = None
    warm = _two_anchor_warm_start(embedding, free_values)
    if warm is not None:
        try:
            result = solvers.invert_newton(embedding, target, init_eta=warm)
        except SolverError:
            result = None
    if result is None:
        try:
            result = solvers.invert(embedding, target)
        except SolverError as exc:
            raise SolverError(
                NON_CONVERGENCE,
                "no member found; the free values may lie outside the "
                f"model's parameter domain ({exc})",
            ) from exc
    table = result.table
    if statements is not None:
        for s in statements:
            if not ci_holds(table, s, tol=1e-9):
                raise SolverError(
                    NON_CONVERGENCE, f"member table violates {s.to_text()!r}"
                )
    return table
