"""Marginal log-linear parameters, their decomposition and derivatives.

A *pair* (L, M) with nonempty L subset-of M subset-of V selects the
log-linear coefficient of the effect L computed inside the marginal table
over M:

    lam(L, M) = 2**-|M| * sum_{x_M} (-1)**|x & L| * log p_M(x_M).

For M = V this is the ordinary log-linear coefficient eta_L.  A collection
of such pairs is held by :class:`MLLSpec`; evaluating all of them on a
table gives an :class:`MLLVector`.

Key analytic facts behind the routines here:

* Adding variables A (disjoint from M) to the margin splits the parameter
  as lam(L, M|A) = lam(L, M) + f, where f is the same alternating average
  applied to log p(x_A | x_M); see :func:`decompose_f`.

* The derivative of lam(L, M) with respect to eta_K, all other coefficients
  held fixed, is the indicator [K == L] when K is inside M, and otherwise

      d lam(L,M) / d eta_K = 2**-|M| * sum_{x} (-1)**|x & (K xor L)| * w(x),

  with w(x) = p(x_{V minus M} | x_M).  :func:`margin_kernel_array` holds
  these sums for one margin, and :func:`jacobian` reads them.  The
  indicator branch follows from the decomposition above because the
  conditional p(x_{V minus M} | x_M) does not depend on coefficients of
  effects inside M; it is verified against finite differences in the test
  suite.

* Alternating sums of a conditional weight vector are bounded: the column
  and row sums of squared derivatives stay below 1 - min_cell.  The
  solvers' contraction certificate is the largest such column sum.

A collection's pairs are grouped by margin once, in a cached plan
(:func:`_plan`) that the forward map, the Jacobian and the solvers' fixed
point and contraction certificate all read.  The Jacobian's own block
maps are cached beside it (:func:`_jacobian_maps`), compiled on a
collection's first Jacobian.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import SpecError, StructureError
from .tables import (
    _ONE_FACTOR_CELLS,
    JointTable,
    VarSet,
    compress_map,
    fwht,
    marginal_array,
    marginalize,
    nonempty_submasks,
    parity_signs,
    popcount,
)

# ---------------------------------------------------------------------------
# Specs and vectors
# ---------------------------------------------------------------------------

Pair = tuple[int, int]  # (effect mask, margin mask)


def _int_pair(pair) -> Pair:
    """``pair`` as an (int, int) tuple.  One that already is one is kept,
    not copied, so the many specs of an interchange closure share it."""
    effect, margin = pair
    if type(pair) is tuple and type(effect) is int and type(margin) is int:
        return pair
    return (int(effect), int(margin))


@dataclass(frozen=True)
class MLLSpec:
    """Ordered collection of effect-margin pairs over a variable set."""

    vars: VarSet
    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        pairs = tuple(_int_pair(p) for p in self.pairs)
        seen = set()
        full = self.vars.full_mask
        for effect, margin in pairs:
            if effect == 0:
                raise SpecError("effects must be nonempty")
            if effect & ~margin:
                raise SpecError(
                    f"effect {effect:#x} is not contained in margin {margin:#x}"
                )
            if margin & ~full:
                raise SpecError(f"margin {margin:#x} uses unknown variables")
            if (effect, margin) in seen:
                raise SpecError(f"duplicate pair ({effect:#x}, {margin:#x})")
            seen.add((effect, margin))
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def margins(self) -> tuple[int, ...]:
        out: list[int] = []
        for _, m in self.pairs:
            if m not in out:
                out.append(m)
        return tuple(out)

    @property
    def proper_margins(self) -> tuple[int, ...]:
        full = self.vars.full_mask
        return tuple(m for m in self.margins if m != full)

    def is_complete(self) -> bool:
        """Every nonempty effect in exactly one pair: as many pairs as
        effects, all distinct (effects are nonempty subsets of V)."""
        full = self.vars.full_mask
        return len(self.pairs) == full and len({e for e, _ in self.pairs}) == full

    # -- formats ----------------------------------------------------------

    def to_text(self) -> str:
        """Compact text form, one line per margin (single-char names only)."""
        if any(len(s) != 1 for s in self.vars.names):
            raise SpecError("text form needs single-character variable names")
        lines = []
        for margin in self.margins:
            effs = " ".join(
                "".join(self.vars.names_of(e)) for e, m in self.pairs if m == margin
            )
            lines.append(f"{''.join(self.vars.names_of(margin))}: {effs}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "variables": list(self.vars.names),
            "pairs": [
                {
                    "margin": list(self.vars.names_of(m)),
                    "effect": list(self.vars.names_of(e)),
                }
                for e, m in self.pairs
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @staticmethod
    def from_json_obj(obj: dict) -> "MLLSpec":
        if not isinstance(obj, dict) or not isinstance(obj.get("variables"), list):
            raise SpecError('spec JSON needs a "variables" list and "pairs"')
        try:
            vs = VarSet(tuple(obj["variables"]))
            pairs = []
            for item in obj["pairs"]:
                margin = vs.mask_of(item["margin"])
                effect = vs.mask_of(item["effect"])
                pairs.append((effect, margin))
        except (KeyError, TypeError) as exc:
            raise SpecError(f"malformed spec JSON: {exc}") from None
        return MLLSpec(vs, tuple(pairs))

    @staticmethod
    def from_json(text: str) -> "MLLSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid spec JSON: {exc}") from exc
        return MLLSpec.from_json_obj(obj)

    @staticmethod
    def from_text(text: str, variables: Sequence[str] | None = None) -> "MLLSpec":
        """Parse the compact text form.

        Each nonblank line reads ``MARGIN: EFFECT EFFECT ...`` with margins
        and effects written as strings of single-character variable names.
        Unless ``variables`` is given, the variable set is the sorted union
        of all mentioned labels (first label = bit 0).
        """
        entries: list[tuple[str, list[str]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = re.match(r"^(\S+)\s*:\s*(.*)$", line)
            if not m:
                raise SpecError(f"line {lineno}: expected 'MARGIN: EFFECT ...'")
            margin_s, effects_s = m.group(1), m.group(2)
            effects = effects_s.split()
            if not effects:
                raise SpecError(f"line {lineno}: margin {margin_s} lists no effects")
            entries.append((margin_s, effects))
        if not entries:
            raise SpecError("empty spec text")
        if variables is None:
            labels = sorted(
                {ch for margin_s, effects in entries for ch in margin_s}
                | {ch for _, effects in entries for eff in effects for ch in eff}
            )
            vs = VarSet(tuple(labels))
        else:
            vs = VarSet(tuple(variables))
        pairs = []
        for margin_s, effects in entries:
            margin = vs.mask(margin_s)
            for eff_s in effects:
                pairs.append((vs.mask(eff_s), margin))
        return MLLSpec(vs, tuple(pairs))


@dataclass(frozen=True)
class MLLVector:
    """Values of a spec's parameters, in spec order."""

    spec: MLLSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (len(self.spec),):
            raise SpecError(
                f"need {len(self.spec)} values for this spec, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise SpecError("parameter values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def as_dict(self) -> dict[Pair, float]:
        return dict(zip(self.spec.pairs, self.values.tolist()))


# ---------------------------------------------------------------------------
# Parameter evaluation
# ---------------------------------------------------------------------------

def _check_pair(vars: VarSet, effect: int, margin: int) -> None:
    if effect == 0:
        raise SpecError("effect must be nonempty")
    if effect & ~margin:
        raise SpecError("effect must be contained in the margin")
    if margin & ~vars.full_mask:
        raise SpecError("margin uses unknown variables")


def margin_lambda_array(p: np.ndarray, n: int, margin: int) -> np.ndarray:
    """Log-linear coefficients of the margin's table, indexed by the
    margin-compressed effect mask (entry 0 is zero).

    A marginal cell that underflows to zero yields non-finite entries; the
    iterative solvers treat those as out-of-domain trial points.
    """
    pm = marginal_array(p, n, margin)
    pm = pm / pm.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        return fwht(np.log(pm)) / pm.size


class _Margin(NamedTuple):
    """One margin of a :func:`_plan` and its pairs (read-only arrays).

    ``pos`` are the pairs' positions in the spec, ``effects`` their effect
    masks and ``idx`` their margin-compressed effects.  ``cells[x]`` is the
    margin cell of table cell x: the 0/1 matrix A_M with A_M[cells[x], x] =
    1, applied as ``np.bincount(cells, w)``.  At unnormalised cell weights
    w the pairs' parameters are the Walsh-Hadamard transform of
    log(A_M @ w) at idx, over 2**|M|: the normaliser of w shifts only the
    margin's empty-effect coefficient, which no pair reads.  ``params``
    maps log(A_M @ w) to them.  The full margin has neither map: its
    parameters are the table's coefficients themselves."""

    margin: int
    pos: np.ndarray
    effects: np.ndarray
    idx: np.ndarray
    cells: np.ndarray | None
    params: Callable[[np.ndarray], np.ndarray] | None


@functools.lru_cache(maxsize=1024)
def _plan(pairs: tuple[Pair, ...], n: int) -> tuple[_Margin, ...]:
    """The margins of ``pairs`` over n variables, compiled once for the
    forward map, the Jacobian, the fixed point and its certificate: the
    full margin first, then the proper margins, largest first, then by
    mask.

    Up to the size where ``fwht`` is the single product a @ H, a proper
    margin's ``params`` is that product restricted to idx, the dense
    G_M = H[idx] / 2**|M|, at most 64 x 64.  Above it ``params`` runs
    ``fwht``, whose two-factor form needs no matrix of the margin's order,
    and picks idx.  So a plan holds at most 32 kB per margin besides its
    index arrays: three integers per pair and, per proper margin, one per
    table cell."""
    full = (1 << n) - 1  # the largest margin, so it comes first
    groups: dict[int, list[int]] = {}
    for i, (_, margin) in enumerate(pairs):
        groups.setdefault(margin, []).append(i)
    effects_of = np.array([effect for effect, _ in pairs], dtype=np.int64)
    plan = []
    for margin in sorted(groups, key=lambda m: (-popcount(m), m)):
        pos = np.array(groups[margin], dtype=np.int64)
        effects = effects_of[pos]
        idx = compress_map(margin.bit_length(), margin)[effects]
        cells = params = None
        if margin != full:
            cells = compress_map(n, margin)
            size = 1 << popcount(margin)
            if size <= _ONE_FACTOR_CELLS:
                dense = fwht(np.eye(size)[idx]) / size
                dense.flags.writeable = False
                params = dense.__matmul__
            else:
                def params(logs: np.ndarray, idx: np.ndarray = idx) -> np.ndarray:
                    return fwht(logs)[idx] / logs.size
        pos.flags.writeable = effects.flags.writeable = idx.flags.writeable = False
        plan.append(_Margin(margin, pos, effects, idx, cells, params))
    return tuple(plan)


def lambda_array(p: np.ndarray, n: int, spec: MLLSpec) -> np.ndarray:
    """Raw-array variant of :func:`lambda_vector` used by the solvers."""
    out = np.empty(len(spec))
    for m in _plan(spec.pairs, n):
        out[m.pos] = margin_lambda_array(p, n, m.margin)[m.idx]
    return out


def lambda_vector(t: JointTable, spec: MLLSpec) -> MLLVector:
    """All parameters of a spec, grouping the per-margin transforms."""
    if spec.vars.names != t.vars.names:
        raise SpecError("spec and table use different variable sets")
    return MLLVector(spec, lambda_array(t.p, t.n, spec))


def conditional_lambda_set(
    vars: VarSet, target_mask: int, given_mask: int
) -> list[Pair]:
    """Pairs that parameterise p(x_target | x_given): all effects inside
    target|given that meet the target, computed in the margin target|given.

    Listed in increasing effect-mask order.
    """
    if target_mask == 0:
        raise SpecError("target must be nonempty")
    if target_mask & given_mask:
        raise SpecError("target and given sets overlap")
    both = target_mask | given_mask
    if both & ~vars.full_mask:
        raise SpecError("unknown variables in target/given")
    return [
        (L, both) for L in nonempty_submasks(both) if L & target_mask
    ]


def decompose_f(t: JointTable, effect: int, margin: int, added: int) -> float:
    """The margin-change term f = lam(effect, margin|added) - lam(effect, margin).

    Computed directly as the alternating average of log p(x_added | x_margin)
    over the cells of margin|added.  It vanishes whenever the added block is
    independent of some member variable of the effect given the rest of the
    margin.
    """
    _check_pair(t.vars, effect, margin)
    if margin & added:
        raise StructureError("added variables must be disjoint from the margin")
    if added == 0:
        return 0.0
    both = margin | added
    tb = marginalize(t, both)
    m_in = tb.vars.mask_of(t.vars.names_of(margin))
    pm = marginal_array(tb.p, tb.n, m_in) if m_in else np.array([1.0])
    # log p(x_added | x_margin) laid out over the cells of `both`
    cols = compress_map(tb.n, m_in)
    logcond = np.log(tb.p) - np.log(pm[cols])
    e_in = tb.vars.mask_of(t.vars.names_of(effect))
    signs = parity_signs(e_in, tb.vars.n_cells)
    return float(signs @ logcond) / tb.vars.n_cells


def margin_kernel_array(p: np.ndarray, n: int, margin: int) -> np.ndarray:
    """Vector g with g[S] = 2**-|margin| * sum_x (-1)**|x & S| * w(x) where
    w(x) = p(x outside margin | x inside margin).

    All off-margin parameter derivatives of this margin are lookups into g:
    d lam(L, margin) / d eta_K = g[K xor L] whenever K is not inside margin.
    """
    if margin == (1 << n) - 1:
        raise StructureError("kernel is only defined for proper margins")
    pm = marginal_array(p, n, margin)
    w = p / pm[compress_map(n, margin)]
    return fwht(w) / (1 << popcount(margin))


class _JacobianMaps(NamedTuple):
    """The maps :func:`jacobian_array` reads for one margin of a plan
    (read-only arrays).  ``inside`` are the margin's subsets as table
    cells (None for the full margin).  Row l of ``perm`` XOR-permutes the
    2**h low column bits, h = :func:`_low_bits`, by the l-th distinct low
    part of the margin's effects, in increasing order.  ``slot`` is each
    pair's block: the index of its effect's low part among those of every
    margin, in plan order."""

    inside: np.ndarray | None
    perm: np.ndarray
    slot: np.ndarray


def _low_bits(n: int) -> int:
    """The column bits that :func:`jacobian_array` reads as contiguous
    runs: the low ceil(n/2)."""
    return (n + 1) // 2


@functools.lru_cache(maxsize=1024)
def _jacobian_maps(
    pairs: tuple[Pair, ...], n: int
) -> tuple[tuple[_Margin, ...], tuple[_JacobianMaps, ...]]:
    """``_plan(pairs, n)`` and the :class:`_JacobianMaps` of each of its
    margins, in its order, compiled on a collection's first Jacobian rather
    than with the plan, which the forward map and the solves read without
    them.  The maps hold per pair one integer, per proper margin one per
    subset, and per margin a ``perm`` of at most 2**(2h) <= 2**(n+1)
    integers."""
    plan = _plan(pairs, n)
    cols = np.arange(1 << _low_bits(n))
    maps = []
    blocks = 0  # of the margins before this one
    for m in plan:
        lows, slot = np.unique(m.effects & cols[-1], return_inverse=True)
        perm = lows[:, None] ^ cols
        slot += blocks
        blocks += len(lows)
        inside = None
        if m.cells is not None:
            inside = np.flatnonzero((np.arange(1 << n) & ~m.margin) == 0)
            inside.flags.writeable = False
        perm.flags.writeable = slot.flags.writeable = False
        maps.append(_JacobianMaps(inside, perm, slot))
    return plan, tuple(maps)


def jacobian_array(p: np.ndarray, n: int, spec: MLLSpec) -> np.ndarray:
    """Raw-array variant of :func:`jacobian` used by the solvers.

    Row (L, M) reads ``g_M[K ^ L]`` at column K, where ``g_M`` is the
    margin's kernel with its entries on the subsets of M set to 0 and
    ``g_M[0]`` set to 1: a column K inside M gives K ^ L inside M and so
    reads 0, or 1 at K = L, and the others read the kernel.  The full
    margin's g is 1 at 0 and 0 elsewhere.

    With the columns split into their high bits and their low
    h = :func:`_low_bits`, ``g_M[K ^ L] = G_M[hi ^ L_hi, lo ^ L_lo]`` for
    the matrix G_M = g_M.reshape(2**(n-h), 2**h).  For each low part that
    the margin's effects use, G_M's columns are XOR-permuted once into a
    block (the ``perm`` of :func:`_jacobian_maps`), and a row is its
    block's rows in the order hi ^ L_hi: 2**(n-h) runs of 2**h contiguous
    cells.  The blocks of all margins are stacked, so one gather of runs
    fills every row in spec order.  The blocks hold at most as many cells
    as the matrix, and there is no index per cell, so no chunking bounds
    one: the gathers of ``_JACOBIAN_CHUNK`` rows that this replaced are
    gone.

    Returns columns 1.. of the (rows, 2**n) result of the gather: a
    writable view whose rows are not contiguous.
    """
    plan, maps = _jacobian_maps(spec.pairs, n)
    h = _low_bits(n)
    high, width = 1 << (n - h), 1 << h
    count = sum(len(b.perm) for b in maps)
    blocks = np.empty((high, count, width))
    # the row of the stacked blocks that run j of a row with L_hi = a
    # reads is (j ^ a) * count plus the row's block
    runs = (np.arange(high)[:, None] ^ np.arange(high)) * count
    rows = np.empty((len(spec), high), dtype=np.int64)
    start = 0
    for m, b in zip(plan, maps):
        if m.cells is None:  # the full margin: every column is inside it
            g = np.zeros(1 << n)
        else:
            g = margin_kernel_array(p, n, m.margin)
            g[b.inside] = 0.0
        g[0] = 1.0
        stop = start + len(b.perm)
        # every index is in range; "clip" lets take write into out directly
        np.take(g.reshape(high, width), b.perm, axis=1,
                out=blocks[:, start:stop], mode="clip")
        rows[m.pos] = runs[m.effects >> h] + b.slot[:, None]
        start = stop
    out = np.take(blocks.reshape(-1, width), rows, axis=0)
    return out.reshape(len(spec), 1 << n)[:, 1:]


def jacobian(t: JointTable, spec: MLLSpec) -> np.ndarray:
    """Matrix of d lam(L,M) / d eta_K; rows follow spec order, columns are
    the nonempty subsets K = 1 .. 2**n - 1 in mask order.  It is
    :func:`jacobian_array`'s one gather of contiguous kernel blocks: a
    writable view whose rows are not contiguous, which
    ``np.ascontiguousarray`` copies when a caller needs them to be."""
    if spec.vars.names != t.vars.names:
        raise SpecError("spec and table use different variable sets")
    return jacobian_array(t.p, t.n, spec)
