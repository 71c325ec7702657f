"""Markov-chain recovery of a group marginal from cyclic conditionals.

A cycle of conditional distributions over disjoint variable groups,
p(x_{B2} | x_{B1}), ..., p(x_{B1} | x_{Bk}), composes to a transition
matrix on the first group's cells whose unique stationary distribution is
that group's marginal.  The cyclic route of :mod:`mllp.solvers` and the
Gibbs sweep kernels of :mod:`mllp.cimodels` recover marginals this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NON_CONVERGENCE, SolverError, SpecError
from .tables import ConditionalTable, JointTable, VarSet, condition


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
        k = len(blocks)
        for i, cond in enumerate(self.conditionals):
            tgt = blocks[(i + 1) % k]
            giv = blocks[i]
            if set(cond.target) != set(self.vars.names_of(tgt)) or set(
                cond.given
            ) != set(self.vars.names_of(giv)):
                raise SpecError(
                    f"conditional {i} must map block {i} to block {(i + 1) % k}"
                )

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


def chain_from_joint(t: JointTable, blocks: Sequence[int]) -> CycleChainSpec:
    """Extract the cycle of conditionals of a joint table along the given
    disjoint blocks."""
    k = len(blocks)
    conds = tuple(condition(t, blocks[(i + 1) % k], blocks[i]) for i in range(k))
    return CycleChainSpec(t.vars, tuple(blocks), conds)


def _transition_matrix(chain: CycleChainSpec) -> np.ndarray:
    """Row-stochastic matrix on the first block's cells: one full trip
    around the cycle."""
    mat: np.ndarray | None = None
    for cond in chain.conditionals:
        step = cond.values.T  # rows: conditioning cell, cols: target cell
        mat = step if mat is None else mat @ step
    assert mat is not None
    return mat


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


def stationary(chain: CycleChainSpec) -> JointTable:
    """Unique stationary distribution of the cycle's transition matrix."""
    pi = stationary_distribution(_transition_matrix(chain))
    return JointTable(chain.vars.restrict(chain.blocks[0]), pi)


def stationary_power(chain: CycleChainSpec) -> JointTable:
    """Power iteration on the same transition matrix; the elimination is
    authoritative, this exists as an independent cross-check."""
    m = _transition_matrix(chain)
    size = m.shape[0]
    v = np.full(size, 1.0 / size)
    for _ in range(200000):
        nxt = v @ m
        nxt /= nxt.sum()
        if float(np.max(np.abs(nxt - v))) < 1e-14:
            v = nxt
            break
        v = nxt
    vars_b = chain.vars.restrict(chain.blocks[0])
    return JointTable(vars_b, v / v.sum())
