"""Markov-chain recovery of a group marginal from cyclic conditionals.

A Gibbs sweep of conditional draws is a transition matrix on the cells of
its state, and a cycle of conditionals over disjoint blocks,
p(x_{B2} | x_{B1}), ..., p(x_{B1} | x_{Bk}), is the sweep on B1 that draws
B2 given B1, B3 given B2 and so on; its unique stationary distribution is
B1's marginal.  One kernel composes every sweep, reading each conditional
by its names, and one elimination solves for the stationary distribution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NON_CONVERGENCE, SolverError, SpecError
from .tables import (
    ConditionalTable,
    JointTable,
    VarSet,
    marginal_array,
    packed_indices,
    popcount,
)


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
    from start state j, so every start is swept at once.  Each conditional
    is read by its names, in the order they are listed; the index maps
    come from :func:`_sweep_plan`, compiled once per sweep structure.
    """
    steps, final = _sweep_plan(
        g.vars.names,
        g.state,
        tuple((tgt, giv, cond.target, cond.given) for tgt, giv, cond in g.steps),
    )
    dist = np.eye(1 << popcount(g.state))
    for (drop, rows, cols, old_idx), (_, _, cond) in zip(steps, g.steps):
        if drop is not None:
            dist = marginal_array(dist, *drop)
        dist = cond.values[rows, cols][:, None] * dist[old_idx]
    kernel = marginal_array(dist, *final).T
    return kernel / kernel.sum(axis=1, keepdims=True)


@functools.lru_cache(maxsize=256)
def _sweep_plan(
    names: tuple[str, ...],
    state: int,
    steps: tuple[tuple[int, int, tuple[str, ...], tuple[str, ...]], ...],
) -> tuple[tuple, tuple[int, int]]:
    """Index maps of the sweep kernel for the variables ``names``, the
    state and each step's (target, given, conditional's target names, its
    given names): per step the marginal taken before it, as (variables,
    mask) or None, and the gathers of the conditional's rows and columns
    and of the carried array's rows; then the final marginal onto the
    state.  The arrays are read-only."""
    vars = VarSet(names)
    k = len(steps)
    # needed[i]: variables whose pre-step-i value is still used at or after
    # step i (a redraw makes the old value obsolete, so no step's target is
    # live when it is drawn)
    needed = [0] * (k + 1)
    needed[k] = state
    for i in range(k - 1, -1, -1):
        tgt, giv, _, _ = steps[i]
        needed[i] = giv | (needed[i + 1] & ~tgt)

    def drop_to(live: int, keep: int) -> tuple[int, int]:
        sub_vars = vars.restrict(live)
        return sub_vars.n, sub_vars.mask_of(vars.names_of(keep))

    live = state
    plan = []
    for i, (tgt, _, cond_target, cond_given) in enumerate(steps):
        keep = live & needed[i]
        drop = None
        if keep != live:
            drop = drop_to(live, keep)
            live = keep
        new_live = live | tgt
        nv = vars.restrict(new_live)
        maps = (
            packed_indices(nv, cond_target),
            packed_indices(nv, cond_given),
            packed_indices(nv, vars.names_of(live)),
        )
        for a in maps:
            a.flags.writeable = False
        plan.append((drop, *maps))
        live = new_live
    return tuple(plan), drop_to(live, state)


def stationary_distribution(m: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of a row-stochastic matrix, by the
    elimination of Grassmann, Taksar and Heyman (Oper. Res. 33, 1985).

    States are censored last first: watched on states 0..k-1 only, the
    chain moves from i to j with probability a_ij + a_ik a_kj / s_k, where
    s_k = sum_{j<k} a_kj.  Back substitution then gives
    pi_k = sum_{i<k} pi_i a_ik / s_k from pi_0 = 1.  The sum s_k stands in
    for 1 - a_kk, so no step subtracts: each entry of pi keeps its relative
    accuracy however slowly the chain mixes, where solving
    (M^T - I) pi = 0 loses it to the cancellation in 1 - m_ii."""
    a = np.array(m, dtype=np.float64)
    size = a.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(size - 1, 0, -1):
            a[:k, k] /= a[k, :k].sum()
            a[:k, :k] += np.outer(a[:k, k], a[k, :k])
        pi = np.ones(size)
        for k in range(1, size):
            pi[k] = pi[:k] @ a[:k, k]
    # written so that a NaN fails: a zero s_k leaves inf or NaN behind
    if not (pi.min() > 0 and pi.max() < np.inf):
        raise SolverError(
            NON_CONVERGENCE, "stationary solve produced non-positive entries"
        )
    pi /= pi.sum()
    if float(np.max(np.abs(pi @ m - pi))) > 1e-12:
        raise SolverError(NON_CONVERGENCE, "stationary vector fails invariance")
    return pi


def gibbs_stationary(g: GibbsCycleSpec) -> JointTable:
    """Stationary distribution of the composed sweep kernel on the state
    variables, by the elimination of :func:`stationary_distribution`."""
    pi = stationary_distribution(_sweep_kernel(g))
    return JointTable(g.vars.restrict(g.state), pi)


@dataclass(frozen=True)
class CycleChainSpec:
    """Cycle of conditional distributions over disjoint variable groups.

    ``conditionals[i]`` is p(x_{blocks[i+1]} | x_{blocks[i]}) for
    i = 0..k-2 and ``conditionals[k-1]`` is p(x_{blocks[0]} | x_{blocks[k-1]}).
    """

    vars: VarSet
    blocks: tuple[int, ...]
    conditionals: tuple[ConditionalTable, ...]

    def __post_init__(self) -> None:
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "conditionals", tuple(self.conditionals))
        if len(blocks) < 2:
            raise SpecError("a conditional cycle needs at least two blocks")
        union = 0
        for b in blocks:
            if b == 0 or (b & union) or (b & ~self.vars.full_mask):
                raise SpecError("blocks must be disjoint nonempty variable sets")
            union |= b
        if len(self.conditionals) != len(blocks):
            raise SpecError("need exactly one conditional per block transition")
        self.sweep  # checks each conditional's names against its blocks

    @property
    def sweep(self) -> GibbsCycleSpec:
        """The cycle as a sweep on the first block: step i draws block i+1
        given block i, and the last step draws the first block again."""
        b = self.blocks
        steps = zip(b[1:] + b[:1], b, self.conditionals)
        return GibbsCycleSpec(self.vars, steps, b[0])

    def to_json_obj(self) -> dict:
        return {
            "variables": list(self.vars.names),
            "blocks": [list(self.vars.names_of(b)) for b in self.blocks],
            "conditionals": [c.to_json_obj() for c in self.conditionals],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "CycleChainSpec":
        fields = ("variables", "blocks", "conditionals")
        if not (isinstance(obj, dict)
                and all(isinstance(obj.get(f), list) for f in fields)):
            raise SpecError(
                'cycle JSON needs "variables", "blocks" and "conditionals" lists'
            )
        vs = VarSet(tuple(obj["variables"]))
        try:
            blocks = tuple(vs.mask_of(b) for b in obj["blocks"])
        except TypeError as exc:
            raise SpecError(f"blocks must be lists of variable names: {exc}") from None
        conds = tuple(ConditionalTable.from_json_obj(c) for c in obj["conditionals"])
        return CycleChainSpec(vs, blocks, conds)


def stationary(chain: CycleChainSpec) -> JointTable:
    """Stationary distribution of the cycle's sweep on its first block: the
    block's marginal when the conditionals are those of one table."""
    return gibbs_stationary(chain.sweep)
