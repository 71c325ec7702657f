"""Marginal log-linear parameters, their decomposition and derivatives.

A *pair* (L, M) with nonempty L subset-of M subset-of V selects the
log-linear coefficient of the effect L computed inside the marginal table
over M:

    lam(L, M) = 2**-|M| * sum_{x_M} (-1)**|x & L| * log p_M(x_M).

For M = V this is the ordinary log-linear coefficient eta_L.  A collection
of such pairs is held by :class:`MLLSpec`; evaluating all of them on a
table gives an :class:`MLLVector`.

Key analytic facts implemented here:

* Adding variables A (disjoint from M) to the margin splits the parameter
  as lam(L, M|A) = lam(L, M) + f, where f is the same alternating average
  applied to log p(x_A | x_M); see :func:`decompose_f`.

* The derivative of lam(L, M) with respect to eta_K, all other coefficients
  held fixed, is the indicator [K == L] when K is inside M, and otherwise

      d lam(L,M) / d eta_K = 2**-|M| * sum_{x} (-1)**|x & (K xor L)| * w(x),

  with w(x) = p(x_{V minus M} | x_M); see :func:`dlambda_deta` and
  :func:`jacobian`.  The indicator branch follows from the decomposition
  above because the conditional p(x_{V minus M} | x_M) does not depend on
  coefficients of effects inside M; it is verified against finite
  differences in the test suite.

* Alternating sums of a conditional weight vector are bounded: the column
  and row sums of squared derivatives stay below 1 - min_cell; see
  :func:`column_norm_bound_check` / :func:`row_norm_bound_check`.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import SpecError, StructureError
from .tables import (
    ConditionalTable,
    JointTable,
    VarSet,
    compress,
    compress_map,
    condition,
    eta_from_dict,
    eta_from_table,
    fwht,
    marginal_array,
    marginalize,
    nonempty_submasks,
    parity_signs,
    popcount,
    submasks,
    table_from_eta,
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

    def effect_margins(self) -> dict[int, list[int]]:
        """Margins used by each effect (a complete spec has one per effect)."""
        out: dict[int, list[int]] = {}
        for effect, margin in self.pairs:
            out.setdefault(effect, []).append(margin)
        return out

    def is_complete(self) -> bool:
        em = self.effect_margins()
        full = self.vars.full_mask
        return len(em) == full and all(
            len(ms) == 1 for ms in em.values()
        ) and len(self.pairs) == full

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
        if "variables" not in obj or "pairs" not in obj:
            raise SpecError('spec JSON needs "variables" and "pairs" fields')
        vs = VarSet(tuple(obj["variables"]))
        pairs = []
        for item in obj["pairs"]:
            margin = vs.mask_of(item["margin"])
            effect = vs.mask_of(item["effect"])
            pairs.append((effect, margin))
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
            margin = vs.mask_of(margin_s)
            for eff_s in effects:
                pairs.append((vs.mask_of(eff_s), margin))
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
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def value(self, effect: int, margin: int) -> float:
        idx = self.spec.pairs.index((effect, margin))
        return float(self.values[idx])

    def as_dict(self) -> dict[Pair, float]:
        return {p: float(v) for p, v in zip(self.spec.pairs, self.values)}


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


@functools.lru_cache(maxsize=1024)
def _gather_plan(
    pairs: tuple[Pair, ...],
) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """Per margin, in order of first use: the positions of its pairs in
    ``pairs`` and their margin-compressed effect indices (read-only)."""
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i, (effect, margin) in enumerate(pairs):
        pos, idx = groups.setdefault(margin, ([], []))
        pos.append(i)
        idx.append(compress(effect, margin))
    plan = []
    for margin, (pos, idx) in groups.items():
        pos_a, idx_a = np.array(pos), np.array(idx)
        pos_a.flags.writeable = idx_a.flags.writeable = False
        plan.append((margin, pos_a, idx_a))
    return tuple(plan)


def lambda_array(p: np.ndarray, n: int, spec: MLLSpec) -> np.ndarray:
    """Raw-array variant of :func:`lambda_vector` used by the solvers."""
    out = np.empty(len(spec))
    for margin, pos, idx in _gather_plan(spec.pairs):
        out[pos] = margin_lambda_array(p, n, margin)[idx]
    return out


def lambda_value(t: JointTable, effect: int, margin: int) -> float:
    """The effect's log-linear coefficient inside the margin's table."""
    _check_pair(t.vars, effect, margin)
    sub = marginalize(t, margin)
    return eta_from_table(sub).value(compress(effect, margin))


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


def conditional_from_lambda(
    vars: VarSet,
    target_mask: int,
    given_mask: int,
    values: Mapping[Pair, float] | Mapping[int, float],
) -> ConditionalTable:
    """Conditional distribution pinned by the parameter block of the margin
    target|given whose effects meet the target.

    ``values`` may be keyed by (effect, margin) pairs or by effect masks
    and must cover exactly that block.  Effects inside the conditioning
    set are immaterial (the block is a parameter cut) and are set to zero.
    """
    both = target_mask | given_mask
    need = conditional_lambda_set(vars, target_mask, given_mask)
    by_effect: dict[int, float] = {}
    for key, val in values.items():
        effect = key[0] if isinstance(key, tuple) else int(key)
        by_effect[effect] = float(val)
    if set(by_effect) != {e for e, _ in need}:
        raise SpecError("values must cover exactly the conditional's parameter block")
    sub = vars.restrict(both)
    entries = {compress(e, both): v for e, v in by_effect.items()}
    t = table_from_eta(eta_from_dict(sub, entries))
    return condition(
        t,
        sub.mask_of(vars.names_of(target_mask)),
        sub.mask_of(vars.names_of(given_mask)),
    )


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
    """Raw-array variant of :func:`margin_derivative_kernel`."""
    if margin == (1 << n) - 1:
        raise StructureError("kernel is only defined for proper margins")
    pm = marginal_array(p, n, margin)
    cols = compress_map(n, margin)
    w = p / pm[cols]
    return fwht(w) / (1 << popcount(margin))


def margin_derivative_kernel(t: JointTable, margin: int) -> np.ndarray:
    """Vector g with g[S] = 2**-|margin| * sum_x (-1)**|x & S| * w(x) where
    w(x) = p(x outside margin | x inside margin).

    All off-margin parameter derivatives of this margin are lookups into g:
    d lam(L, margin) / d eta_K = g[K xor L] whenever K is not inside margin.
    """
    return margin_kernel_array(t.p, t.n, margin)


def dlambda_deta(t: JointTable, effect: int, margin: int, wrt: int) -> float:
    """Partial derivative of lam(effect, margin) in eta_wrt, the remaining
    eta coefficients held fixed."""
    _check_pair(t.vars, effect, margin)
    if wrt == 0 or wrt & ~t.vars.full_mask:
        raise SpecError("derivative index must be a nonempty subset of the variables")
    if (wrt & ~margin) == 0:
        return 1.0 if wrt == effect else 0.0
    g = margin_derivative_kernel(t, margin)
    return float(g[wrt ^ effect])


def jacobian_array(p: np.ndarray, n: int, spec: MLLSpec) -> np.ndarray:
    """Raw-array variant of :func:`jacobian` used by the solvers."""
    full = (1 << n) - 1
    cols = np.arange(1, full + 1)
    kernels: dict[int, np.ndarray] = {}
    out = np.zeros((len(spec), full))
    for i, (effect, margin) in enumerate(spec.pairs):
        if margin != full:
            if margin not in kernels:
                kernels[margin] = margin_kernel_array(p, n, margin)
            # one gather per row: off-margin columns read the kernel, the
            # columns inside the margin are 0 except the effect's own
            out[i] = np.where(cols & ~margin, kernels[margin][cols ^ effect], 0.0)
        out[i, effect - 1] = 1.0
    return out


def jacobian(t: JointTable, spec: MLLSpec) -> np.ndarray:
    """Matrix of d lam(L,M) / d eta_K; rows follow spec order, columns are
    the nonempty subsets K = 1 .. 2**n - 1 in mask order."""
    if spec.vars.names != t.vars.names:
        raise SpecError("spec and table use different variable sets")
    return jacobian_array(t.p, t.n, spec)


def kappa(t: JointTable, effect: int, margin: int, v_mask: int, xv: int) -> float:
    """Slice parameter: the (effect, margin) coefficient of the conditional
    distribution given X_v = xv, expressed through two parameters of the
    enlarged margin:

        kappa = lam(effect, margin|v) + (-1)**xv * lam(effect|v, margin|v).
    """
    if popcount(v_mask) != 1:
        raise StructureError("v must be a single variable")
    if v_mask & (effect | margin):
        raise StructureError("v must lie outside the effect and margin")
    _check_pair(t.vars, effect, margin)
    sign = -1.0 if xv else 1.0
    big = margin | v_mask
    return lambda_value(t, effect, big) + sign * lambda_value(t, effect | v_mask, big)


# ---------------------------------------------------------------------------
# Norm bounds for derivative columns and rows
# ---------------------------------------------------------------------------

def column_norm_bound_check(
    t: JointTable, margin: int, j_mask: int, k_mask: int
) -> tuple[float, float]:
    """Sum over nonempty effects C inside ``margin`` of the squared
    derivative of lam(C, margin) in eta_{j|k}, paired with the bound
    1 - min_cell that it must not exceed.

    Requires j inside the margin and k a nonempty subset outside it.
    """
    if j_mask & ~margin:
        raise StructureError("j must be inside the margin")
    if k_mask == 0 or (k_mask & margin) or (k_mask & ~t.vars.full_mask):
        raise StructureError("k must be a nonempty subset outside the margin")
    g = margin_derivative_kernel(t, margin)
    jk = j_mask | k_mask
    norm = float(sum(g[C ^ jk] ** 2 for C in nonempty_submasks(margin)))
    return norm, 1.0 - t.min_cell


def row_norm_bound_check(
    t: JointTable, margin: int, c_mask: int, k_mask: int
) -> tuple[float, float]:
    """Sum over subsets J of ``margin`` of the squared derivative of
    lam(c, margin) in eta_{J|k}, paired with the bound 1 - min_cell."""
    if c_mask == 0 or c_mask & ~margin:
        raise StructureError("c must be a nonempty subset of the margin")
    if k_mask == 0 or (k_mask & margin) or (k_mask & ~t.vars.full_mask):
        raise StructureError("k must be a nonempty subset outside the margin")
    g = margin_derivative_kernel(t, margin)
    norm = float(sum(g[c_mask ^ (J | k_mask)] ** 2 for J in submasks(margin)))
    return norm, 1.0 - t.min_cell


def sign_matrix(k: int) -> np.ndarray:
    """Orthogonal 2**k x 2**k matrix with entries 2**(-k/2) * (-1)**|A & B|."""
    size = 1 << k
    a = np.arange(size, dtype=np.uint32)
    overlap = np.bitwise_count(a[:, None] & a[None, :]).astype(np.float64)
    return (1.0 - 2.0 * (overlap % 2.0)) * 2.0 ** (-k / 2.0)
