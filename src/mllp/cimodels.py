"""Conditional-independence statements as zero constraints on parameters.

A statement "X_a independent of X_b given X_c" over disjoint blocks a, b, c
holds in a strictly positive table exactly when every parameter of the
margin a+b+c whose effect meets both a and b is zero.  This module turns
statement lists into zero-pair collections, embeds them into complete
collections, verifies statements on tables, and produces member tables of
a model from the free values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import solvers
from .errors import NON_CONVERGENCE, SolverError, SpecError, StructureError
from .mll import MLLSpec, MLLVector, Pair
from .tables import (
    JointTable,
    VarSet,
    compress_map,
    fwht,  # noqa: F401 (unused; bench/tests/test_bench.py traces it by this name)
    marginal_array,
    marginalize,
    nonempty_submasks,
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

    The embedding keeps every zero pair.  The other effects are placed by
    the first variable v that pairs every effect A without v with A+v in
    one shared margin (keeping the per-slice reduction available).  For
    each such pair the shared margin is the zero margin of A+v, else that
    of A, else the smallest statement margin containing A+v (the full
    margin when none does); v is rejected when A has a zero margin other
    than the shared one, or when the shared margin does not contain A+v.
    The effect v keeps its zero margin or takes the smallest statement
    margin containing it.  When every variable is rejected, each effect
    without a zero margin goes to the smallest statement margin containing
    it, else to the full margin.  So every statement list gets a complete
    embedding, unless two statements constrain the same effect in
    different margins: then none exists and ``embedding`` is None.  An
    empty statement list (``vars`` required) embeds as the single full
    margin.
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

    for b in range(vars.n):
        v = 1 << b
        assignment = {v: zero.get(v) or greedy(v)}
        for a in nonempty_submasks(full & ~v):
            shared = zero.get(a | v) or zero.get(a) or greedy(a | v)
            if zero.get(a, shared) != shared or (a | v) & ~shared:
                break
            assignment[a] = assignment[a | v] = shared
        else:
            break
    else:
        assignment = {L: zero.get(L) or greedy(L) for L in nonempty_submasks(full)}

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
    otherwise, or when that fails, the automatic inverter solves.  The
    warm start is kept for speed and for reach: over the ci_loop_four
    members of ``scripts/fallback_probe.py`` (best of 3 each, 2-vCPU Xeon,
    one BLAS thread) it takes a median 1.8-2.1 against 2.9-3.6 ms at scale
    1 and 2.4-2.6 against 4.0-4.5 ms at scale 2, and without it the
    inverter alone finds no member for draw 179 at scale 4.  The
    inverter's failure is NON_CONVERGENCE: the parameters are variation
    dependent, so some free values have no member.  When ``statements``
    are given the member is verified against them.
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
