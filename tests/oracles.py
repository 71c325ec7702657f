"""Brute-force reference implementations used to check the fast paths.

Everything here works cell by cell, subset by subset, with explicit Python
loops and no transforms, deliberately sharing no code with the package
internals; :func:`brute_jacobian`, :func:`rowwise_jacobian` and
:func:`chunked_jacobian` alone read the package's derivative kernel, so
that the fast Jacobian can be held to them bit for bit (the second is the
Jacobian as one gather per row, the third as whole-row gathers of 128 rows
at a time through the collection's plan, as the package built it before
it gathered contiguous blocks);
:func:`brute_column_norm` and :func:`brute_row_norm`, the squared
derivative sums that 1 - min_cell bounds, read it too; and
:func:`brute_fwht` sums each output's signed cells with NumPy, so that
lengths up to 2**12 stay cheap.  :func:`brute_compress` is bit packing as
a walk over every bit of the mask.  :func:`brute_classify` is the classifier's
plain recursive search over every path, one spec per collection; it calls
the package's rules, moves and reductions, which have their own checks.
:func:`brute_fixed_point` is the fixed-point inversion as a loop over
pairs, with fresh unnormalised weights and margin transform per block; it
reads the package's contraction certificate.  :func:`brute_rule_cyclic`
is the cyclic rule tried over every ordering of the proper margins.
:func:`brute_contraction_subsystem` solves the contraction subsystem by a
Jacobi sweep with each margin summed out of the cell cube and transformed
anew.
:func:`brute_reconstruct_mixed` is the mixed-coordinate solve as Newton
steps alone, without proportional fitting; it reads the package's weights
and least-squares step.  :func:`brute_hierarchical_step` is the
hierarchical step as it passed each margin as a named table, marginalised
and restricted by variable names; it reads the package's mixed solve
through :func:`margin_cells`, which reads a named table's mask and cells
off its names.  :func:`brute_shape` is the index arrays of one mixed
solve's shape, built per call from sets, as the solve built them before
it cached them.  :func:`brute_sweep_kernel` is the Gibbs sweep
kernel carried one start state at a time; it reads the package's marginal
and cell-packing helpers.  :func:`brute_is_complete` is completeness read
from the list of margins of each effect.  :func:`brute_stationary` is the
stationary distribution by a dense linear solve of (M^T - I) pi = 0, and
:func:`stationary_power` that of a cycle by power iteration on the
package's sweep kernel.
:func:`joint_from_conditional` glues a conditional table onto a table of
its conditioning variables, cell by cell.  :func:`brute_kappa` is a slice
parameter from two parameters of the enlarged margin, and
:func:`brute_sign_matrix` the scaled +-1 matrix of subset parities.
:func:`brute_canonical_pairs` is the canonical form of a collection as the
smallest sorted (margin, effect) encoding over every relabeling, one
relabeling and one mask at a time.
:func:`brute_closure` is a search's interchange closure from one state
built whole, level by level, before any rule reads it, as the search
built it before it grew each closure only as far as its rules read it.
:func:`brute_moves` and the ``brute_rule_*`` functions (gathered in
:data:`BRUTE_RULES`) are the classifier's interchange moves and rules as
they read the pairs of a collection before the kernels read its margin
key: sets of effects per margin, a dict from effect to margin, and the
closure of each proper pair's needs for ``contraction_reduce``.
:func:`brute_model_spec` is a statement list's embedding by a trial
assignment per variable, as it was built before one pairing rule read the
zero pairs; it reads the package's zero-pair list.

Some helpers here are no oracles but test-only views that no route needs:
:func:`interchange_moves` lists a collection's moves as pairs through the
classifier's key kernel, :func:`hierarchy_order` reads the hierarchy
witness of a collection through the classifier's kernel,
:func:`is_hierarchical` and :func:`verify_hierarchy_order` test it, and
:func:`chain_from_joint` reads the cycle of conditionals off a joint table,
and :func:`conditional_from_lambda` builds a conditional from its margin's
parameter block through named tables.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from mllp import classify as cls
from mllp.cimodels import CIStatement, ModelSpec, ci_to_zero_params
from mllp.classify import ClassificationReport, RuleStep
from mllp.errors import (
    DIVERGENCE,
    INCONSISTENT_MARGINS,
    IncompleteSpecError,
    InvalidTableError,
    NON_CONVERGENCE,
    SolverError,
    SpecError,
    StructureError,
)
from mllp.markov import CycleChainSpec, GibbsCycleSpec, _sweep_kernel
from mllp.mixed import _least_squares_step, reconstruct_mixed
from mllp.mll import (
    MLLSpec,
    MLLVector,
    Pair,
    _plan,
    conditional_lambda_set,
    lambda_array,
    margin_kernel_array,
)
from mllp.solvers import (
    STALL_FACTOR,
    STALL_WINDOW,
    SolveOptions,
    SolveResult,
    _finish_table,
    contraction_certificate,
)
from mllp.tables import (
    ConditionalTable,
    EtaVector,
    JointTable,
    VarSet,
    bit_positions,
    compress,
    compress_map,
    condition,
    eta_from_dict,
    fwht,
    marginal_array,
    marginalize,
    nonempty_submasks,
    packed_indices,
    table_from_eta,
    weights,
)


def popcount(x: int) -> int:
    return bin(x).count("1")


def sign(effect: int, cell: int) -> float:
    return -1.0 if popcount(effect & cell) % 2 else 1.0


def brute_compress(cell: int, mask: int) -> int:
    """Bit packing as a walk over every bit of the mask, kept verbatim as
    the reference: pack the bits of ``cell`` at the positions of ``mask``
    into a dense index (ascending bit order)."""
    out = 0
    j = 0
    for i in bit_positions(mask):
        if cell >> i & 1:
            out |= 1 << j
        j += 1
    return out


def brute_fwht(a: np.ndarray, outputs=None) -> np.ndarray:
    """Walsh-Hadamard transform as the +-1 double sum
    b[..., k] = sum_x (-1)**|k & x| * a[..., x], one output k at a time
    (only the listed ``outputs`` when given, in that order); the sum over
    the cells x is a plain NumPy sum of the signed row."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    ks = range(n) if outputs is None else list(outputs)
    cells = np.arange(n)
    out = np.empty(a.shape[:-1] + (len(ks),))
    for j, k in enumerate(ks):
        signs = 1.0 - 2.0 * (np.bitwise_count(cells & k) % 2)
        out[..., j] = (a * signs).sum(axis=-1)
    return out


def brute_eta(t: JointTable) -> dict[int, float]:
    n_cells = t.vars.n_cells
    out = {}
    for L in range(1, n_cells):
        s = 0.0
        for x in range(n_cells):
            s += sign(L, x) * math.log(float(t.p[x]))
        out[L] = s / n_cells
    return out


def brute_logp(e: EtaVector) -> list[float]:
    n_cells = e.vars.n_cells
    raw = []
    for x in range(n_cells):
        s = 0.0
        for L in range(1, n_cells):
            s += sign(L, x) * float(e.values[L])
        raw.append(s)
    z = math.log(sum(math.exp(v) for v in raw))
    return [v - z for v in raw]


def brute_marginal(t: JointTable, mask: int) -> dict[int, float]:
    """Marginal cells keyed by the sub-cell index (bits packed in ascending
    position order of ``mask``)."""
    positions = [i for i in range(t.vars.n) if mask >> i & 1]
    out: dict[int, float] = {}
    for x in range(t.vars.n_cells):
        key = 0
        for j, pos in enumerate(positions):
            if x >> pos & 1:
                key |= 1 << j
        out[key] = out.get(key, 0.0) + float(t.p[x])
    return out


def brute_conditional(t: JointTable, a_mask: int, b_mask: int) -> dict[tuple[int, int], float]:
    """p(x_a | x_b) keyed by (a-subcell, b-subcell) indices."""
    both = brute_marginal(t, a_mask | b_mask)
    pb = brute_marginal(t, b_mask) if b_mask else {0: 1.0}
    positions = [i for i in range(t.vars.n) if (a_mask | b_mask) >> i & 1]
    a_pos = [i for i in range(t.vars.n) if a_mask >> i & 1]
    b_pos = [i for i in range(t.vars.n) if b_mask >> i & 1]
    out = {}
    for key, val in both.items():
        cell = 0
        for j, pos in enumerate(positions):
            if key >> j & 1:
                cell |= 1 << pos
        ka = sum(1 << j for j, pos in enumerate(a_pos) if cell >> pos & 1)
        kb = sum(1 << j for j, pos in enumerate(b_pos) if cell >> pos & 1)
        out[(ka, kb)] = val / pb[kb]
    return out


def joint_from_conditional(
    vars: VarSet, cond: ConditionalTable, base: JointTable
) -> JointTable:
    """Joint table over ``vars`` equal to p(target | given) * base(given).

    ``vars`` must consist exactly of the conditional's target and given
    variables; ``base`` must be a table over the given variables (in any
    listing order).  With an empty conditioning set ``base`` is ignored.
    """
    t_mask = vars.mask_of(cond.target)
    g_mask = vars.mask_of(cond.given)
    if (t_mask | g_mask) != vars.full_mask or (t_mask & g_mask):
        raise InvalidTableError("vars must cover exactly target plus given")
    rows = packed_indices(vars, cond.target)
    cols = packed_indices(vars, cond.given)
    if cond.given:
        if set(base.vars.names) != set(cond.given):
            raise InvalidTableError("base table must cover the conditioning set")
        base_at = base.p[packed_indices(vars, base.vars.names)]
    else:
        base_at = np.ones(vars.n_cells)
    p = cond.values[rows, cols] * base_at
    return JointTable(vars, p / p.sum())


def brute_lambda(t: JointTable, effect: int, margin: int) -> float:
    """Alternating average of the log marginal cells."""
    marg = brute_marginal(t, margin)
    positions = [i for i in range(t.vars.n) if margin >> i & 1]
    eff_in = sum(
        1 << j for j, pos in enumerate(positions) if effect >> pos & 1
    )
    s = 0.0
    for key, val in marg.items():
        s += sign(eff_in, key) * math.log(val)
    return s / len(marg)


def fd_jacobian(t: JointTable, spec: MLLSpec, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the parameter vector along each
    log-linear coefficient, via the exponential-family reconstruction."""
    from mllp.tables import eta_from_table

    eta0 = eta_from_table(t).values
    n_cols = t.vars.n_cells - 1
    out = np.zeros((len(spec), n_cols))
    for K in range(1, t.vars.n_cells):
        up = eta0.copy()
        up[K] += h
        dn = eta0.copy()
        dn[K] -= h
        p_up = table_from_eta(EtaVector(t.vars, up)).p
        p_dn = table_from_eta(EtaVector(t.vars, dn)).p
        out[:, K - 1] = (
            lambda_array(p_up, t.n, spec) - lambda_array(p_dn, t.n, spec)
        ) / (2 * h)
    return out


def brute_jacobian(p: np.ndarray, n: int, spec: MLLSpec) -> np.ndarray:
    """Jacobian entry by entry: 1 or 0 for coefficients inside the margin,
    the kernel lookup g[K ^ effect] for the others."""
    full = (1 << n) - 1
    out = np.zeros((len(spec), full))
    for i, (effect, margin) in enumerate(spec.pairs):
        g = margin_kernel_array(p, n, margin) if margin != full else None
        for K in range(1, full + 1):
            if K & ~margin == 0:
                out[i, K - 1] = 1.0 if K == effect else 0.0
            else:
                out[i, K - 1] = g[K ^ effect]
    return out


def rowwise_jacobian(p: np.ndarray, n: int, spec: MLLSpec) -> np.ndarray:
    """Jacobian as one gather per row: off-margin columns read the kernel,
    the columns inside the margin are 0 except the effect's own."""
    full = (1 << n) - 1
    cols = np.arange(1, full + 1)
    kernels: dict[int, np.ndarray] = {}
    out = np.zeros((len(spec), full))
    for i, (effect, margin) in enumerate(spec.pairs):
        if margin != full:
            if margin not in kernels:
                kernels[margin] = margin_kernel_array(p, n, margin)
            out[i] = np.where(cols & ~margin, kernels[margin][cols ^ effect], 0.0)
        out[i, effect - 1] = 1.0
    return out


_JACOBIAN_CHUNK = 128  # rows gathered at once; bounds the index array


def chunked_jacobian(p: np.ndarray, n: int, spec: MLLSpec) -> np.ndarray:
    """Jacobian by whole-row gathers: row (L, M) of a proper margin reads
    ``g_M[K ^ L]`` at column K, with the kernel's entries on the subsets of
    M set to 0, through an index of every cell of ``_JACOBIAN_CHUNK`` rows
    at a time; then every row gets a 1 at its own effect's column."""
    full = (1 << n) - 1
    cols = np.arange(1, full + 1)
    out = np.zeros((len(spec), full))
    for m in _plan(spec.pairs, n):
        if m.margin != full:
            g = margin_kernel_array(p, n, m.margin)
            g[(np.arange(full + 1) & ~m.margin) == 0] = 0.0
            for start in range(0, len(m.pos), _JACOBIAN_CHUNK):
                rows = slice(start, start + _JACOBIAN_CHUNK)
                out[m.pos[rows]] = g[m.effects[rows, None] ^ cols]
        out[m.pos, m.effects - 1] = 1.0
    return out


def brute_kappa(t: JointTable, effect: int, margin: int, v_mask: int, xv: int) -> float:
    """Slice parameter of the conditional table given X_v = xv, through two
    parameters of the enlarged margin:

        kappa = lam(effect, margin|v) + (-1)**xv * lam(effect|v, margin|v).
    """
    if popcount(v_mask) != 1:
        raise StructureError("v must be a single variable")
    if v_mask & (effect | margin):
        raise StructureError("v must lie outside the effect and margin")
    big = margin | v_mask
    s = -1.0 if xv else 1.0
    return brute_lambda(t, effect, big) + s * brute_lambda(t, effect | v_mask, big)


def _check_outside(t: JointTable, margin: int, k_mask: int) -> None:
    if k_mask == 0 or (k_mask & margin) or (k_mask & ~t.vars.full_mask):
        raise StructureError("k must be a nonempty subset outside the margin")


def brute_column_norm(
    t: JointTable, margin: int, j_mask: int, k_mask: int
) -> tuple[float, float]:
    """Sum over nonempty effects C inside ``margin`` of the squared
    derivative of lam(C, margin) in eta_{j|k}, one kernel lookup
    g[C ^ (j|k)] per term, paired with the bound 1 - min_cell.  Needs j
    inside the margin and k a nonempty subset outside it."""
    if j_mask & ~margin:
        raise StructureError("j must be inside the margin")
    _check_outside(t, margin, k_mask)
    g = margin_kernel_array(t.p, t.n, margin)
    norm = 0.0
    for c in _subsets(margin):
        norm += float(g[c ^ (j_mask | k_mask)]) ** 2
    return norm, 1.0 - t.min_cell


def brute_row_norm(
    t: JointTable, margin: int, c_mask: int, k_mask: int
) -> tuple[float, float]:
    """Sum over subsets J of ``margin`` (the empty one too) of the squared
    derivative of lam(c, margin) in eta_{J|k}, paired with the bound
    1 - min_cell."""
    if c_mask == 0 or c_mask & ~margin:
        raise StructureError("c must be a nonempty subset of the margin")
    _check_outside(t, margin, k_mask)
    g = margin_kernel_array(t.p, t.n, margin)
    norm = 0.0
    for j in [0] + _subsets(margin):
        norm += float(g[c_mask ^ (j | k_mask)]) ** 2
    return norm, 1.0 - t.min_cell


def brute_sign_matrix(k: int) -> np.ndarray:
    """The 2**k x 2**k matrix with entries 2**(-k/2) * (-1)**|A & B|, one
    row A at a time."""
    size = 1 << k
    cells = np.arange(size)
    out = np.empty((size, size))
    for a in range(size):
        out[a] = 1.0 - 2.0 * (np.bitwise_count(cells & a) % 2)
    return out * 2.0 ** (-k / 2)


def brute_is_complete(spec: MLLSpec) -> bool:
    """Completeness through the margins of each effect: every nonempty
    effect appears, each in exactly one margin, and there are no other
    pairs."""
    margins_of: dict[int, list[int]] = {}
    for effect, margin in spec.pairs:
        margins_of.setdefault(effect, []).append(margin)
    full = spec.vars.full_mask
    return (
        len(margins_of) == full
        and all(len(ms) == 1 for ms in margins_of.values())
        and len(spec.pairs) == full
    )


def _subsets(mask: int) -> list[int]:
    """Nonempty subsets of ``mask``, by scanning every smaller integer."""
    return [k for k in range(1, mask + 1) if k & ~mask == 0]


def brute_canonical_pairs(pairs: Sequence[Pair], n: int) -> tuple[Pair, ...]:
    """Minimum over variable relabelings of the sorted (margin, effect)
    encoding, one relabeling at a time: the reference for
    ``census.canonical_form``."""

    def relabel(mask: int, perm: Sequence[int]) -> int:
        return sum(1 << perm[b] for b in range(n) if mask >> b & 1)

    pairs = tuple(pairs)
    best: tuple[tuple[int, int], ...] | None = None
    for perm in itertools.permutations(range(n)):
        enc = tuple(sorted((relabel(m, perm), relabel(e, perm)) for e, m in pairs))
        if best is None or enc < best:
            best = enc
    assert best is not None
    return tuple((e, m) for m, e in best)


def _margins(pairs: Sequence[Pair]) -> list[int]:
    """Distinct margins in order of first appearance (as ``MLLSpec.margins``)."""
    out: list[int] = []
    for _, m in pairs:
        if m not in out:
            out.append(m)
    return out


def brute_moves(pairs: Sequence[Pair]) -> list[tuple[Pair, int, int]]:
    """The moves of :func:`mllp.classify.interchange_moves`, in its order,
    each with the position of its pair in ``pairs``: free(X) is found from
    the set of effects each margin holds, then every pair's downward and
    upward targets are listed and sorted."""
    effects_in: dict[int, set[int]] = {}
    for effect, margin in pairs:
        effects_in.setdefault(margin, set()).add(effect)
    free: dict[int, int] = {}
    for margin, effects in effects_in.items():
        bad = 0
        for k in set(nonempty_submasks(margin)).difference(effects):
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


def brute_rule_two_margin(pairs: Sequence[Pair], full: int) -> dict | None:
    margins = _margins(pairs)
    if len(margins) == 2:
        return {"margins": tuple(sorted(margins))}
    return None


def brute_rule_variable_removal(pairs: Sequence[Pair], full: int) -> dict | None:
    used = 0
    for _, m in pairs:
        if m != full:
            used |= m
    cands = [1 << b for b in range(full.bit_length()) if (full & ~used) >> b & 1]
    if not cands:
        return None
    return {"v": cands[0], "candidates": tuple(cands)}


def brute_slice_split_candidates(
    pairs: Sequence[Pair], full: int, strict: bool
) -> list[int]:
    """Variables v whose every effect a without v shares its margin with
    a|v (strict: the margin a|v itself), read from a dict of the pairs."""
    em = dict(pairs)
    out = []
    for b in range(full.bit_length()):
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


def brute_rule_slice_split(pairs: Sequence[Pair], full: int) -> dict | None:
    cands = brute_slice_split_candidates(pairs, full, strict=True)
    if not cands:
        return None
    return {"v": cands[0], "candidates": tuple(cands)}


def brute_rule_slice_split_general(pairs: Sequence[Pair], full: int) -> dict | None:
    cands = brute_slice_split_candidates(pairs, full, strict=False)
    if not cands:
        return None
    return {"v": cands[0], "candidates": tuple(cands)}


def brute_rule_single_feedback(pairs: Sequence[Pair], full: int) -> dict | None:
    proper = [m for m in _margins(pairs) if m != full]
    for effect, margin in pairs:
        if margin == full:
            continue
        others = [n for n in proper if n != margin and (effect & ~n)]
        if len(others) > 1:
            return None
    return {}


def brute_rule_contraction_reduce(pairs: Sequence[Pair], full: int) -> dict | None:
    """``contraction_reduce`` over the list of proper pairs: the closure of
    each margin's needs, then the smallest admissible closure of a pair,
    ties broken by the sorted positions of its pairs.  Faster than the
    subset search of :func:`brute_contraction_reduce`, so it reaches every
    collection of 14 proper pairs or fewer."""
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
        members = [j for j in range(len(proper_pairs)) if u >> j & 1]
        u_margins = 0
        for j in members:
            u_margins |= bit[margin_of[j]]
        if all(popcount(outside[j] & u_margins) <= 1 for j in members):
            admissible.append(members)
    if not admissible:
        return None
    best = min(admissible, key=lambda members: (len(members), members))
    return {"relocate": tuple(proper_pairs[j] for j in best)}


def brute_interchange_moves(spec: MLLSpec) -> list:
    """Interchange moves by their definition: build the conditional block
    of every (pair, A) and test that the spec contains all of it."""
    full = (1 << spec.vars.n) - 1
    pairs = set(spec.pairs)
    out = []
    for L, M in spec.pairs:
        for A in _subsets(M & ~L):
            if {(K, M) for K in _subsets(M) if K & A} <= pairs:
                out.append(((L, M), M & ~A))
        for A in _subsets(full & ~M):
            block = {(K, M | A) for K in _subsets(M | A) if K & A}
            if block <= pairs:
                out.append(((L, M), M | A))
    return sorted(out)


def interchange_moves(spec: MLLSpec) -> list:
    """All single-parameter margin rewrites justified by a conditional block
    fully present in the spec, read off the classifier's margin-key kernel.

    Downward, (L, M) -> (L, M minus A) needs every pair (K, M) with K
    meeting A; upward, (L, M) -> (L, M plus A) needs every pair (K, M plus A)
    with K meeting A.  Both replace one coordinate by the other side of the
    exact identity lam(L, M plus A) = lam(L, M) + f(block), a smooth
    triangular re-parameterization.  Moves are sorted by pair, then new
    margin.
    """
    ctx, key = cls._key_of(spec)
    # sorting only reorders pairs that share an effect (incomplete specs)
    return sorted((spec.pairs[i], t) for i, ts in cls._moves(ctx, key) for t in ts)


def hierarchy_order(spec: MLLSpec) -> tuple[int, ...] | None:
    """The classifier's witness margin order for a hierarchical spec, or
    None: each effect's margin comes before every other margin containing
    that effect."""
    return cls._hierarchy_order(
        tuple(e for e, _ in spec.pairs), tuple(m for _, m in spec.pairs)
    )


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


def brute_contraction_reduce(spec: MLLSpec) -> dict | None:
    """Smallest self-contained subsystem of proper-margin pairs, found by
    trying every subset in order of size, then of pair positions."""
    full = (1 << spec.vars.n) - 1
    margin_of = dict(spec.pairs)
    proper = [p for p in spec.pairs if p[1] != full]
    if not proper or len(proper) > 14:
        return None
    for size in range(1, len(proper) + 1):
        for combo in itertools.combinations(proper, size):
            effects = {e for e, _ in combo}
            margins = {m for _, m in combo}
            if all(
                all(
                    margin_of[k] == full or k in effects
                    for k in range(1, full + 1)
                    if k & ~margin
                )
                and sum(1 for n in margins if n != margin and effect & ~n) <= 1
                for effect, margin in combo
            ):
                return {"relocate": combo}
    return None


def brute_interchange_closure(spec: MLLSpec, limit: int = cls.DEFAULT_MOVE_LIMIT):
    """Breadth-first closure of interchange moves with a spec per reached
    collection, original first; stops after ``limit`` distinct pair sets."""
    seen = {frozenset(spec.pairs)}
    frontier = [(spec, ())]
    out = [(spec, ())]
    while frontier and len(seen) < limit:
        nxt = []
        for s, path in frontier:
            key = frozenset(s.pairs)
            for mv in interchange_moves(s):
                pair, new_margin = mv
                key2 = key - {pair} | {(pair[0], new_margin)}
                if key2 in seen:
                    continue
                seen.add(key2)
                entry = (cls.apply_interchange(s, mv), path + (mv,))
                out.append(entry)
                nxt.append(entry)
                if len(seen) >= limit:
                    break
            if len(seen) >= limit:
                break
        frontier = nxt
    return out


def brute_closure(
    search: cls._Search, entry: int, parent: list[int] | None = None
) -> list[int]:
    """States of the whole breadth-first closure from state ``entry`` of
    ``search``, ordered as by :func:`mllp.classify.interchange_closure` and
    cut at the search's move limit, built level by level before any rule
    reads it; ``parent``, when given, receives the index of each one's
    parent (-1 for ``entry``).  Neighbours come from the search's memo."""
    limit = search.limit
    seen = {entry}
    order = [entry]
    if parent is not None:
        parent.append(-1)
    frontier = [0]
    while frontier and len(order) < limit:
        start = len(order)
        for i in frontier:
            new = [t for t in search._neighbours(order[i]) if t not in seen]
            if new:
                del new[limit - len(order):]
                seen.update(new)
                order.extend(new)
                if parent is not None:
                    parent.extend([i] * len(new))
                if len(order) >= limit:
                    break
        frontier = range(start, len(order))
    return order


def brute_rule_cyclic(pairs: Sequence[Pair], full: int) -> dict | None:
    """Match: proper margins are exactly the conditional blocks of one cycle
    of disjoint groups A_1, ..., A_k (k >= 3), every remaining effect in the
    full margin."""
    proper = [m for m in _margins(pairs) if m != full]
    k = len(proper)
    if k < 3 or k > 8:
        return None
    by_margin = {m: {e for e, mm in pairs if mm == m} for m in proper}
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


BRUTE_RULES = {
    "two_margin": brute_rule_two_margin,
    "variable_removal": brute_rule_variable_removal,
    "slice_split": brute_rule_slice_split,
    "slice_split_general": brute_rule_slice_split_general,
    "single_feedback": brute_rule_single_feedback,
    "cyclic": brute_rule_cyclic,
    cls.CONTRACTION_RULE: brute_rule_contraction_reduce,
}


def _move_steps(path) -> tuple[RuleStep, ...]:
    return tuple(
        RuleStep(
            "interchange",
            {"effect": mv[0][0], "from_margin": mv[0][1], "to_margin": mv[1]},
        )
        for mv in path
    )


def brute_classify(spec: MLLSpec) -> ClassificationReport:
    """Classification by recursion along every path of the reduction
    graph, in rule priority order; a branch ends when it repeats a
    collection (by pair set) of its own recursion path.  Exponential in
    paths, so it may not finish where :func:`mllp.classify.classify` does."""
    return _brute_classify(spec, frozenset())


def _brute_classify(spec: MLLSpec, on_path: frozenset) -> ClassificationReport:
    if not spec.is_complete():
        return ClassificationReport(spec, cls.NOT_SMOOTH_INCOMPLETE, (), ())

    for rule in cls.DIRECT_RULES:
        params = cls.rule_applies(spec, rule)
        if params is not None:
            return ClassificationReport(
                spec, cls.PROVEN_SMOOTH, (RuleStep(rule, params),), ()
            )

    key = tuple(sorted(spec.pairs))
    if key in on_path:
        return ClassificationReport(spec, cls.UNKNOWN, (), ())
    on_path = on_path | {key}

    closure = brute_interchange_closure(spec)
    for rule in (*cls.MOVABLE_RULES, cls.CONTRACTION_RULE):
        for state, path in closure:
            params = cls.rule_applies(state, rule)
            if params is None:
                continue
            prefix = _move_steps(path)
            if rule in cls.BASE_RULES:
                return ClassificationReport(
                    spec, cls.PROVEN_SMOOTH, (*prefix, RuleStep(rule, params)), ()
                )
            if rule == cls.CONTRACTION_RULE:
                reductions = [
                    (RuleStep(rule, params),
                     cls.relocate_pairs(state, params["relocate"]))
                ]
            else:
                reductions = (
                    (RuleStep(rule, {"v": v}), cls.reduce_minus_v(state, v))
                    for v in params["candidates"]
                )
            for step, reduced in reductions:
                rec = _brute_classify(reduced, on_path)
                if rec.verdict == cls.PROVEN_SMOOTH:
                    return ClassificationReport(
                        spec,
                        cls.PROVEN_SMOOTH,
                        (*prefix, step, *rec.rule_chain),
                        (reduced, *rec.reduced_specs),
                    )
    return ClassificationReport(spec, cls.UNKNOWN, (), ())


def _brute_weights(eta: np.ndarray) -> np.ndarray:
    """Unnormalised cell weights exp(s - max s), s = fwht(eta)."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = fwht(eta)
    if not np.all(np.isfinite(s)):
        raise SolverError(DIVERGENCE, "log scale overflowed during iteration")
    return np.exp(s - s.max())


def _brute_margin_lambdas(eta: np.ndarray, n: int, margin: int) -> np.ndarray:
    """The margin's coefficients at eta, indexed by compressed effect: eta
    itself for the full margin; else the transform of log(sum of the
    unnormalised weights over the other variables) over its cell count,
    whose entry 0 is off by the log scale."""
    if margin == (1 << n) - 1:
        return eta
    w = _brute_weights(eta)
    drop = tuple(n - 1 - k for k in range(n) if not margin >> k & 1)
    marg = w.reshape((2,) * n).sum(axis=drop).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return fwht(np.log(marg)) / marg.size


def brute_fixed_point(
    spec: MLLSpec,
    target: MLLVector,
    opts: SolveOptions = SolveOptions(),
) -> SolveResult:
    """Fixed-point inversion one pair at a time: per margin block, largest
    first, the unnormalised weights from eta, the margin's transform, and
    one scalar update per pair; after each sweep the weights again and the
    residual of every pair.  Margins are summed from the unnormalised
    weights, as the plain sweep of :mod:`mllp.solvers` does, so a tiny
    cell underflows in the same sweep on both sides.  The stops and
    errors of the plain iteration: the tenfold growth, the stall over
    STALL_WINDOW sweeps, max_iter, and DIVERGENCE when the log scale
    overflows, whose trace holds the sweeps before it."""
    if not spec.is_complete():
        raise StructureError("fixed-point inversion needs a complete spec")
    n = spec.vars.n
    tmap = {p: float(v) for p, v in zip(target.spec.pairs, target.values)}
    margins = sorted(spec.margins, key=lambda m: (-popcount(m), m))
    by_margin = [
        (m, [(e, compress(e, m)) for e, mm in spec.pairs if mm == m])
        for m in margins
    ]
    eta = np.zeros(spec.vars.n_cells)
    trace: list[float] = []
    lows: list[float] = []
    best = math.inf
    for it in range(1, opts.max_iter + 1):
        try:
            for margin, effects in by_margin:
                lam_m = _brute_margin_lambdas(eta.copy(), n, margin)
                for effect, idx in effects:
                    eta[effect] += tmap[(effect, margin)] - lam_m[idx]
            w = _brute_weights(eta)
            misses = []
            for margin, effects in by_margin:
                lam_m = _brute_margin_lambdas(eta, n, margin)
                misses += [
                    tmap[(effect, margin)] - lam_m[idx] for effect, idx in effects
                ]
        except SolverError as exc:  # the log scale overflowed in this sweep
            exc.trace = trace
            raise
        res = float(np.max(np.abs(misses)))  # keeps a NaN
        trace.append(res)
        if res <= opts.tol:
            table = _finish_table(spec, w / w.sum(), trace)
            cert = None
            if cls.rule_applies(spec, "single_feedback") is not None:
                cert = contraction_certificate(spec, table)
            return SolveResult(table, it, res, "fixed_point", cert, tuple(trace))
        best = min(best, res)
        lows.append(best)
        if it > 3 and res > 10.0 * best:
            raise SolverError(DIVERGENCE, "residual grew tenfold", trace)
        if it > STALL_WINDOW and best >= STALL_FACTOR * lows[-1 - STALL_WINDOW]:
            raise SolverError(NON_CONVERGENCE, "residual stalled", trace)
    raise SolverError(NON_CONVERGENCE, "residual above tol", trace)


def _brute_blocks(pairs: tuple[Pair, ...], n: int) -> list:
    """Per margin, largest first, then by mask: the pairs' positions, their
    effects, their margin-compressed effects and the summed-out axes of the
    (2,)*n cell cube (bit k is axis n-1-k)."""
    blocks = []
    for margin in sorted({m for _, m in pairs}, key=lambda m: (-popcount(m), m)):
        pos = [i for i, (_, m) in enumerate(pairs) if m == margin]
        effects = [pairs[i][0] for i in pos]
        idx = [compress(e, margin) for e in effects]
        drop = tuple(n - 1 - k for k in range(n) if not margin >> k & 1)
        blocks.append((np.array(pos), np.array(effects), np.array(idx), drop))
    return blocks


def brute_contraction_subsystem(
    spec: MLLSpec,
    tmap: dict[Pair, float],
    relocate: tuple[Pair, ...],
    opts: SolveOptions,
) -> tuple[np.ndarray, list[float]]:
    """The contraction subsystem of :func:`mllp.solvers._invert_contraction`
    solved by a Jacobi sweep, block by block: eta starts at the full-margin
    targets, and each block's margin is summed out of the cube of
    unnormalised weights, then transformed.  Stops when no coefficient
    moves by more than tol / 10 in a sweep; returns eta and the largest
    move of each sweep."""
    vars = spec.vars
    n = vars.n
    full = vars.full_mask
    eta = np.zeros(vars.n_cells)
    for e, m in spec.pairs:
        if m == full:
            eta[e] = tmap[(e, m)]
    targets = np.array([tmap[pair] for pair in relocate])
    blocks = _brute_blocks(relocate, n)
    trace: list[float] = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(opts.max_iter):
            # Jacobi within a sweep: every block reads the same table
            s = fwht(eta)
            if not np.isfinite(s).all():
                raise SolverError(DIVERGENCE, "log scale overflowed during iteration")
            w = np.exp(s - s.max())
            deltas = []
            for pos, effects, idx, drop in blocks:
                marg = w.reshape((2,) * n).sum(axis=drop).reshape(-1)
                delta = targets[pos] - fwht(np.log(marg))[idx] / marg.size
                eta[effects] += delta
                deltas.append(delta)
            res = float(np.max(np.abs(np.concatenate(deltas))))
            trace.append(res)
            if res <= opts.tol * 0.1:
                return eta, trace
    raise SolverError(NON_CONVERGENCE, "subsystem fixed point did not converge", trace)


def brute_reconstruct_mixed(
    vars_m: VarSet,
    margins: Sequence[JointTable],
    eta_targets: Mapping[int, float],
) -> JointTable:
    """The mixed-coordinate solve before proportional fitting, kept verbatim
    as the reference: table over ``vars_m`` matching every given sub-margin
    table and the log-linear coefficients of the effects no sub-margin
    covers.

    One damped Newton solve for the covered coefficients, warm-started from
    the sub-margins' own coefficients: Armijo steps on the convex dual
    log Z(theta) - theta . mu* while it resolves progress, then Gauss-Newton
    steps on the log margin ratios, which keep tiny cells' relative accuracy.
    Each Gauss-Newton step is a QR least-squares solve, not an SVD: the
    mixed parameterization is smooth and variation independent, so the
    Jacobian has full column rank at every positive table.
    Raises INCONSISTENT_MARGINS when the given margins contradict each
    other, NON_CONVERGENCE when the result misses a margin or a coefficient.
    """
    m = vars_m.n
    size = vars_m.n_cells
    sub_masks: list[int] = []
    sub_p: list[np.ndarray] = []
    for tbl in margins:
        mask = vars_m.mask_of(tbl.vars.names)
        sub_p.append(tbl.p[packed_indices(vars_m.restrict(mask), tbl.vars.names)])
        sub_masks.append(mask)

    covered: set[int] = set()
    for mask in sub_masks:
        covered.update(nonempty_submasks(mask))
    uncovered = [L for L in range(1, size) if L not in covered]
    if set(eta_targets) != set(uncovered):
        raise SpecError(
            "eta targets must cover exactly the effects outside the given margins"
        )

    theta = np.zeros(size)
    theta[list(eta_targets)] = list(eta_targets.values())
    # target moments, overlap check and warm start, margin by margin
    cov = np.array(sorted(covered), dtype=np.int64)
    mu_star = np.zeros(len(cov))
    seen = np.zeros(len(cov), dtype=bool)
    for mask, ps in zip(sub_masks, sub_p):
        at = np.flatnonzero((cov & ~mask) == 0)
        idx = compress_map(m, mask)[cov[at]]
        mu_sub = fwht(ps)[idx]
        clash = float(np.max(np.abs(mu_star[at] - mu_sub)[seen[at]], initial=0.0))
        if clash > 1e-9:
            raise SolverError(
                INCONSISTENT_MARGINS,
                f"given margins disagree on a shared moment by {clash:.3e}",
            )
        mu_star[at] = mu_sub
        seen[at] = True
        theta[cov[at]] = (fwht(np.log(ps)) / ps.size)[idx]

    p_all = np.concatenate(sub_p or [np.zeros(0)])
    parity = np.bitwise_count(np.arange(size)[:, None] & cov) % 2
    chars = 1 - 2 * parity.astype(np.int8)  # chars[x, i] = (-1)**|x & cov[i]|

    def state(th: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        with np.errstate(over="ignore", invalid="ignore"):
            w, top = weights(th)
        z = w.sum()
        qq, log_z = w / z, top + math.log(z)
        qs = np.concatenate([marginal_array(qq, m, mask) for mask in sub_masks]
                            or [np.zeros(0)])
        with np.errstate(divide="ignore", over="ignore"):
            return qq, qs, np.log(p_all / qs), log_z - float(th[cov] @ mu_star)

    q, qs, r, f = state(theta)
    polish = False
    for _ in range(200):  # solves that converge take 2-25 steps
        if float(np.max(np.abs(r), initial=0.0)) < 1e-12:
            break
        if not polish:
            mu = fwht(q)
            grad = mu[cov] - mu_star
            try:
                hess = mu[cov[:, None] ^ cov] - np.outer(mu[cov], mu[cov])
                step = np.linalg.solve(hess, -grad)
                slope = float(grad @ step)
                # a Newton decrement this small is below what the dual resolves
                polish = slope > -1e-10
            except np.linalg.LinAlgError:
                polish = True
        if polish:
            # Gauss-Newton: least squares J step = r, where the rows of J,
            # the Jacobian of log q_S, are E[chi | x_S] - E[chi]
            jac = np.concatenate(
                [marginal_array(q[:, None] * chars, m, mask) for mask in sub_masks]
            )
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                jac /= qs[:, None]
            jac -= fwht(q)[cov]
            if not (np.isfinite(jac).all() and np.isfinite(r).all()):
                break  # a margin underflowed to 0: the checks below decide
            try:
                step = _least_squares_step(jac, r)
            except np.linalg.LinAlgError:
                break
            slope = -2.0 * float(r @ (jac @ step))
        for scale in 0.5 ** np.arange(40.0):
            trial = theta.copy()
            trial[cov] += scale * step
            try:
                q_try, qs_try, r_try, f_try = state(trial)
            except SolverError:
                continue
            new, old = (r_try @ r_try, r @ r) if polish else (f_try, f)
            if new < old + 1e-4 * scale * slope:
                theta, q, qs, r, f = trial, q_try, qs_try, r_try, f_try
                break
        else:
            if polish:
                break  # no step helps: the checks below decide
            polish = True

    # written so that a NaN fails: a cell underflowed to 0 makes log(q) -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        miss = float(np.max(np.abs(qs - p_all), initial=0.0))
        if not miss <= 1e-10:
            raise SolverError(
                NON_CONVERGENCE, f"margin mismatch {miss:.3e} after reconstruction"
            )
        theta_check = fwht(np.log(q)) / size
        for L, v in eta_targets.items():
            if not abs(float(theta_check[L]) - v) <= 1e-10:
                raise SolverError(
                    NON_CONVERGENCE, "coefficient targets missed after reconstruction"
                )
    return JointTable(vars_m, q / q.sum())


def margin_cells(vars_m: VarSet, margins: Sequence[JointTable]) -> dict[int, np.ndarray]:
    """Named sub-margin tables over ``vars_m`` in the form the mixed solve
    takes: each table's mask within ``vars_m`` to its cells in compressed
    order, read off its variable names, in the order given."""
    cells = {}
    for tbl in margins:
        mask = vars_m.mask_of(tbl.vars.names)
        cells[mask] = tbl.p[packed_indices(vars_m.restrict(mask), tbl.vars.names)]
    return cells


def brute_shape(m: int, sub_masks: Sequence[int]) -> tuple:
    """What the mixed solve reads of its shape, as it built it on every
    call before the shape was cached: a cell map per sub-margin, the
    covered effects as a Python set walked submask by submask, sorted,
    the uncovered ones by a scan of every effect, and per sub-margin the
    positions of its effects among the covered ones and those effects
    compressed into it."""
    cells = [compress_map(m, mask) for mask in sub_masks]
    covered: set[int] = set()
    for mask in sub_masks:
        covered.update(nonempty_submasks(mask))
    uncovered = [L for L in range(1, 1 << m) if L not in covered]
    cov = np.array(sorted(covered), dtype=np.int64)
    picks = []
    for mask, cell in zip(sub_masks, cells):
        at = np.flatnonzero((cov & ~mask) == 0)
        picks.append((at, cell[cov[at]]))
    return cells, cov, np.array(uncovered, dtype=np.int64), picks


def brute_hierarchical_step(
    spec: MLLSpec, tmap: dict[Pair, float], order: tuple[int, ...]
) -> SolveResult:
    """The hierarchical step as it passed margins as named tables, kept
    verbatim as the reference; only its call of the mixed solve goes
    through :func:`margin_cells` and back to a named table."""
    built: dict[int, JointTable] = {}
    for margin in order:
        vars_m = spec.vars.restrict(margin)
        inter = {e & margin for e in built if e & margin}
        maximal = [
            s for s in inter if not any(s != t and (s & ~t) == 0 for t in inter)
        ]
        subs = []
        for s in sorted(maximal):
            dt = built[next(e for e in built if (s & ~e) == 0)]
            subs.append(marginalize(dt, dt.vars.mask_of(spec.vars.names_of(s))))
        cmap = compress_map(spec.vars.n, margin)
        eta_targets = {
            int(cmap[e]): tmap[(e, m)] for e, m in spec.pairs if m == margin
        }
        built[margin] = JointTable(vars_m, reconstruct_mixed(
            vars_m.n, margin_cells(vars_m, subs), eta_targets))
    return SolveResult(built[spec.vars.full_mask], len(order), 0.0, "hierarchical")


def brute_sweep_kernel(g: GibbsCycleSpec) -> np.ndarray:
    """The sweep kernel one start state at a time, kept verbatim as the
    reference: row = state before the sweep, column = state after, each row
    the point mass at its start carried through the steps, with the
    variables no later step needs summed out before each step and the
    final cells added into their state cell one by one."""
    vars = g.vars
    k = len(g.steps)
    state_names = vars.names_of(g.state)
    n_state = 1 << popcount(g.state)
    needed = [0] * (k + 1)
    needed[k] = g.state
    for i in range(k - 1, -1, -1):
        tgt, giv, _ = g.steps[i]
        needed[i] = giv | (needed[i + 1] & ~tgt)

    kernel = np.zeros((n_state, n_state))
    for start in range(n_state):
        live = g.state
        dist = np.zeros(n_state)
        dist[start] = 1.0
        for i, (tgt, giv, cond) in enumerate(g.steps):
            keep = live & needed[i]
            if keep != live:
                sub_vars = vars.restrict(live)
                keep_in = sub_vars.mask_of(vars.names_of(keep))
                dist = marginal_array(dist, sub_vars.n, keep_in)
                live = keep
            if tgt & live:
                raise SpecError(
                    "a step redraws a variable that is still needed later"
                )
            new_live = live | tgt
            nv = vars.restrict(new_live)
            rows = packed_indices(nv, cond.target)
            cols = packed_indices(nv, cond.given)
            old_idx = packed_indices(nv, vars.names_of(live))
            dist = cond.values[rows, cols] * dist[old_idx]
            live = new_live
        nv = vars.restrict(live)
        out_idx = packed_indices(nv, state_names)
        row = np.zeros(n_state)
        np.add.at(row, out_idx, dist)
        kernel[start] = row / row.sum()
    return kernel


def chain_from_joint(t: JointTable, blocks: Sequence[int]) -> CycleChainSpec:
    """Extract the cycle of conditionals of a joint table along the given
    disjoint blocks."""
    k = len(blocks)
    conds = tuple(condition(t, blocks[(i + 1) % k], blocks[i]) for i in range(k))
    return CycleChainSpec(t.vars, tuple(blocks), conds)


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


def brute_stationary(m: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix by a direct
    linear solve of (M^T - I) pi = 0 with a normalisation row, kept
    verbatim as the reference for the elimination; it loses relative
    accuracy when the chain mixes slowly (1 - m_ii cancels)."""
    size = m.shape[0]
    a = m.T - np.eye(size)
    a[-1, :] = 1.0
    b = np.zeros(size)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(NON_CONVERGENCE, f"stationary solve failed: {exc}") from exc
    if np.any(pi <= 0):
        raise SolverError(
            NON_CONVERGENCE, "stationary solve produced non-positive entries"
        )
    if float(np.max(np.abs(pi @ m - pi))) > 1e-12:
        raise SolverError(NON_CONVERGENCE, "stationary vector fails invariance")
    return pi / pi.sum()


def stationary_power(chain: CycleChainSpec) -> JointTable:
    """Power iteration on the cycle's sweep kernel, kept as the reference
    for the elimination: up to 200 000 steps, stopped when one moves no
    entry by 1e-14."""
    m = _sweep_kernel(chain.sweep)
    v = np.full(len(m), 1.0 / len(m))
    for _ in range(200000):
        v, last = v @ m, v
        v /= v.sum()
        if float(np.max(np.abs(v - last))) < 1e-14:
            break
    return JointTable(chain.vars.restrict(chain.blocks[0]), v / v.sum())


def brute_model_spec(statements: Sequence[CIStatement]) -> ModelSpec:
    """:func:`mllp.cimodels.model_spec` of a nonempty statement list by a
    trial assignment per variable v, each pair (A, A+v) filled in by cases
    on which of its effects already has a margin, kept verbatim as the
    reference for the one pairing rule.  It raises ``SpecError`` where it
    copies a zero margin onto an effect that margin does not contain."""
    vars = statements[0].vars
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
