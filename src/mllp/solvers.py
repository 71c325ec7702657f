"""Inversion of marginal log-linear parameters back to joint tables.

Four routes, dispatched automatically from the classification chain:

* sequential *hierarchical* reconstruction: margins are rebuilt in the
  witness order, each one solved from its already-known sub-margins plus
  the log-linear coefficients assigned to it (the mixed mean/natural
  coordinate solve of :mod:`mllp.mixed`,
  ``reconstruct_mixed(m, margins, eta_targets)``, which takes each
  sub-margin as its cells keyed by its mask within the margin and returns
  the margin's cells);
* the *fixed point* of the sweep eta <- eta + (target - lam(eta)), swept
  margin block by margin block through the plan that the forward
  map compiles once per spec (``mll._plan``), with the full-margin block
  in closed form (its coefficients are eta itself); the sweeps are
  accelerated by safeguarded Anderson mixing, which falls back to plain
  sweeps when it stalls, and a contraction certificate from the
  derivative-column bounds comes with the solve when the collection has
  the single-feedback structure;
* *Markov-chain* recovery for cyclic conditionals: the sweep kernel of
  the cycle has the missing group marginal as its unique stationary
  distribution (the one kernel and stationary solve of :mod:`mllp.markov`);
  walking the cycle from it, each cycle margin is the marginal of its first
  block times the conditional of the next, and one mixed solve over the
  full margin, from the cycle margins and its own coefficients, gives the
  table;
* for collections without a proven route, up to 2 000 sweeps of the
  same fixed point, stopped when its residual stalls, then one *Newton*
  solve with the analytic Jacobian from the uniform table.

AUTO inversion classifies one collection per relabeling class, the
canonical form of :func:`mllp.census.canonical_form`, and replays that
chain, relabeled onto the caller's collection, on one map from pair to
target value; every rule is structural, so the relabeled chain is a proof
of the caller's collection, and every proven route is a step of that
replay.  When the canonical collection's search is cut at a limit without
a proof, the collection given is classified instead, as the verdict may
depend on the labelling.  Either chain is looked up once per labelled
collection, so a warm AUTO call does no more than its replay.  A
reduction (variable removal, per-slice removal, interchange, subsystem
relocation) uses only the forward map and the fixed point: it
reads a margin-change term as a difference of forward parameters at a
table built from the pinning block alone, or solves the relocated
subsystem as a single-feedback collection, and hands the rest of the chain
to the reduced collection.  The hierarchical and cyclic steps read the
witness order or the cycle's blocks that the classifier recorded.  No step
checks its own table: the reassembled table is checked once, against the
caller's target, and the methods HIERARCHICAL and MARKOV are that checked
replay of a one-step chain.  A table below the positivity floor on the way
means the target has no member: SolverError.  Cells come from
coefficients by the one kernel :func:`mllp.tables.weights`.  The
hierarchical step passes its margins as compressed-cell arrays keyed by
mask, reads each margin's targets through the collection's plan, and
builds a named table only for its result.

Every solve is deterministic given (spec, target, options): the chain it
replays is a function of the collection alone.  The state solves share is
a set of process-wide caches, listed with their keys and bounds.  Each
entry is computed from its key alone, by code that reads no other state
and draws no random numbers, and each cached array is read-only and each
cached record only read.  So an entry is the same whenever it is
computed, what ran before in the process changes no result, and solves
can run concurrently (two threads may compute one entry twice, equal):

* ``_class_chain(form, n)``, at most 1 024 entries: the proof chain of a
  relabeling class's canonical collection; the classifier is
  deterministic.
* ``_labelled_chain(pairs, n)``, at most 1 024: the chain AUTO replays on
  a labelled collection, or None for the fallback; rules read masks only,
  so the names are not part of the key.
* ``_one_step_chain(pairs, n, rule)``, at most 1 024: the witness record
  of the forced methods HIERARCHICAL and MARKOV.  Rules read masks only,
  so the variables' names are not part of the key.
* ``mll._plan(pairs, n)``, at most 1 024: the margins of a collection and
  their index maps, read by the forward map, the Jacobian, the fixed
  point, its certificate and the hierarchical and cyclic steps.
* ``mll._jacobian_maps(pairs, n)``, at most 1 024: the block maps of the
  Jacobian that Newton solves with.
* ``mixed._shape(m, sub_masks)``, at most 256: the index arrays of one
  mixed solve's margin and sub-margins.
* ``markov._sweep_plan(names, state, steps)``, at most 256: the gathers
  of one sweep kernel.
* ``census._relabelings(n)``, one per variable count up to ``MAX_VARS``,
  and ``tables._hadamard(size)``, one per power of two up to 256: the
  relabelings of canonical forms and the transform's matrices.
* ``tables.compress_map(n_bits, mask)``, at most 128: the cell maps of the
  reductions' and the cyclic step's margins, at most 64 MB at
  ``MAX_VARS``.
* the classifier's ``_compile(full, effects)``, at most 32, and its mask
  caches ``_inside``, ``_free_tests`` and ``_down``: one entry per margin
  (per margin and submask for ``_down``) of the variable sets classified.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import classify as cls
from .census import canonical_form, permute_mask
from .errors import (
    ALL_METHODS_FAILED,
    IncompleteSpecError,
    InvalidTableError,
    DIVERGENCE,
    NON_CONVERGENCE,
    SolverError,
    SpecError,
    StructureError,
)
from .markov import CycleChainSpec, stationary
from .mixed import reconstruct_mixed
from .mll import (
    MLLSpec,
    MLLVector,
    Pair,
    _plan,
    jacobian_array,
    lambda_array,
    margin_kernel_array,
    margin_lambda_array,
)
from .tables import (
    ConditionalTable,
    JointTable,
    VarSet,
    bit_positions,
    compress,
    compress_map,
    eta_from_dict,
    fwht,
    marginal_array,
    nonempty_submasks,
    popcount,
    table_cells,
    table_from_eta,
    weights,
)

METHODS = ("AUTO", "FIXED_POINT", "HIERARCHICAL", "MARKOV", "NEWTON")


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-10
    max_iter: int = 10000
    method: str = "AUTO"

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:  # written so that a NaN fails
            raise SpecError("tol must be positive and finite")
        if self.max_iter < 1:
            raise SpecError("max_iter must be at least 1")
        if self.method not in METHODS:
            raise SpecError(f"method must be one of {METHODS}")


@dataclass(frozen=True)
class SolveResult:
    table: JointTable
    iterations: int
    final_residual: float
    method_used: str
    contraction_certificate: float | None = None
    trace: tuple[float, ...] = field(default_factory=tuple)

    def to_json_obj(self, include_trace: bool = False) -> dict:
        out = {
            "table": {
                "variables": list(self.table.vars.names),
                "p": [float(x) for x in self.table.p],
            },
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "method_used": self.method_used,
            "contraction_certificate": self.contraction_certificate,
        }
        if include_trace:
            out["trace"] = list(self.trace)
        return out


# ---------------------------------------------------------------------------
# Raw-array helpers
# ---------------------------------------------------------------------------

def _check_target(spec: MLLSpec, target: MLLVector) -> None:
    if target.spec.pairs != spec.pairs or target.spec.vars.names != spec.vars.names:
        raise SpecError("target vector does not match the spec")


def _verify(spec: MLLSpec, target: MLLVector, p: np.ndarray, tol: float) -> float:
    res = float(np.max(np.abs(lambda_array(p, spec.vars.n, spec) - target.values)))
    if res > tol:
        raise SolverError(
            NON_CONVERGENCE,
            f"reassembled table misses the target by {res:.3e} (tol {tol:.1e})",
        )
    return res


def _finish_table(spec: MLLSpec, p: np.ndarray, trace: list[float]) -> JointTable:
    """Converged iterates must still be valid strictly positive tables; a
    floor violation means the target lies outside the supported domain."""
    try:
        return JointTable(spec.vars, p)
    except InvalidTableError as exc:
        raise SolverError(
            NON_CONVERGENCE, f"converged point is not a valid table: {exc}", trace
        ) from exc


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------

# Anderson mixing of the fixed point: each iterate mixes the last sweep with
# the differences of at most ANDERSON_MEMORY earlier sweeps and steps.
ANDERSON_MEMORY = 5
# Stall stops: the running minimum of the residual must fall below
# STALL_FACTOR times its value MIX_WINDOW iterations earlier while the
# iteration mixes, and STALL_WINDOW sweeps earlier once it sweeps plainly.
# On the fixed-point successes of one pass of the benchmark's inversion
# workloads at seeds 1601-1603 (592 solves a seed) the mixed iteration
# takes at most 29 iterations, and the worst such ratio over 20 of them is
# 1.1e-5 (2.6e-2 over 10).  A failing five-variable CI-model member mixes
# down to its minimum at iteration 20, stops mixing at 38, and its plain
# sweeps stall at 138; plain sweeps alone would stall at 106.
MIX_WINDOW = 20
STALL_WINDOW = 100
STALL_FACTOR = 0.9


class _Stages(NamedTuple):
    """A spec's plan with the target of each block: the full margin's
    effects and targets, per proper margin (effects, cells, params,
    targets), and every target in block order."""

    full: np.ndarray
    t_full: np.ndarray
    blocks: list
    t_all: np.ndarray


def _stages(spec: MLLSpec, target: MLLVector) -> _Stages:
    top, *blocks = _plan(spec.pairs, spec.vars.n)
    sweep = [(b.effects, b.cells, b.params, target.values[b.pos]) for b in blocks]
    t_full = target.values[top.pos]
    t_all = np.concatenate([t_full] + [t for *_, t in sweep])
    return _Stages(top.effects, t_full, sweep, t_all)


def _sweep(
    eta: np.ndarray, st: _Stages, first: np.ndarray | None = None
) -> np.ndarray:
    """One plain Gauss-Seidel sweep from eta, into a new array.  ``first``
    is the first proper block's parameters at eta when the caller has them
    from eta's :func:`_residual`; they are exactly the ones the sweep would
    compute once the full-margin coefficients of eta equal their targets,
    as they do at every iterate after the start (see
    :func:`invert_fixed_point`).  Raises DIVERGENCE when the log scale
    overflows on the way."""
    eta = eta.copy()
    eta[st.full] += st.t_full - eta[st.full]
    lam = first
    for effects, cells, params, t in st.blocks:
        if lam is None:
            lam = params(np.log(np.bincount(cells, weights(eta)[0])))
        eta[effects] += t - lam
        lam = None
    return eta


def _residual(
    eta: np.ndarray, st: _Stages
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The largest miss of every block at eta (NaN kept), eta's
    unnormalised weights, and the first proper block's parameters (None
    when there is none), which the next sweep from eta reuses.  Raises
    DIVERGENCE when the log scale overflows."""
    w = weights(eta)[0]
    lams = [eta[st.full]]
    lams += [params(np.log(np.bincount(c, w))) for _, c, params, _ in st.blocks]
    first = lams[1] if st.blocks else None
    return float(np.abs(st.t_all - np.concatenate(lams)).max()), w, first


def _mix(
    g: np.ndarray, step: np.ndarray, d_steps: list, d_sweeps: list, st: _Stages
) -> tuple[np.ndarray, float, np.ndarray | None, np.ndarray | None]:
    """Anderson's mixed point g - gamma @ d_sweeps, where gamma fits step by
    the step differences in least squares (normal equations), with its
    :func:`_residual`.  A singular fit or a log scale that overflows gives
    residual inf."""
    d = np.array(d_steps)
    try:
        mixed = g - np.linalg.solve(d @ d.T, d @ step) @ np.array(d_sweeps)
        return mixed, *_residual(mixed, st)
    except (np.linalg.LinAlgError, SolverError):
        return g, math.inf, None, None


def invert_fixed_point(
    spec: MLLSpec,
    target: MLLVector,
    opts: SolveOptions = SolveOptions(),
) -> SolveResult:
    """Solve eta = G(eta) for the sweep G that sets
    eta_L <- eta_L + (target_LM - lam_LM(eta)) for every pair,
    Gauss-Seidel over margin blocks from the full margin downwards: each
    block updates its effects at once from the table left by the blocks
    before it.  Starts from the uniform table.

    The blocks come from the plan compiled once per spec for the forward
    map as well (``mll._plan``), whose full margin comes first.
    The full-margin block needs no table: its coefficients are eta itself,
    so its update is eta_L <- eta_L + (target_L - eta_L).  Every
    other block M is two constant maps of the unnormalised cell weights
    w = exp(s - max s), s = fwht(eta): the 0/1 matrix A_M sums the cells
    onto the margin's cells (applied by ``np.bincount``), and
    G_M = H_M[idx] / 2**|M| takes their logs to the block's parameters, so
    the update is eta_L <- eta_L + (target - G_M @ log(A_M @ w)).
    G_M is a dense matrix up to 64 margin cells and the Hadamard transform
    followed by a pick of idx above.  The residual of a point is the
    largest difference of all blocks at its weights.

    Every iterate after the start has its full-margin coefficients at
    their targets: a sweep sets them to eta + (t - eta), which is t from 0
    and from t, and a mixed point subtracts gamma @ d_sweeps, whose
    full-margin entries are sums of gamma times differences of equal
    sweeps, 0.  (A non-finite gamma gives a residual of NaN or inf, and
    such a point is never taken.)  So the next sweep's full-margin update
    changes such a point at most in the sign of a zero, which no weight
    sees, and its first proper block reads the weights and parameters
    that the point's residual computed: the sweep takes them from there.

    The iteration is type-II Anderson mixing (Walker & Ni, SIAM J. Numer.
    Anal. 49, 2011) over G.  Each iteration sweeps once, g = G(eta), and
    mixes g with the differences of the last ANDERSON_MEMORY sweeps and
    their steps G(eta) - eta: the weights are the least-squares fit of the
    current step by the step differences.  Safeguard: the mixed point is
    taken only when its residual is below g's (a singular fit or a mixed
    point whose log scale overflows has residual inf); otherwise g is
    taken and the history is dropped.  When the residual's running
    minimum stops falling below STALL_FACTOR times its value MIX_WINDOW
    iterations earlier, mixing is switched off for the rest of the solve,
    and plain sweeps eta <- G(eta) go on under the stall stop over
    STALL_WINDOW sweeps, counted from the switch.  ``iterations`` and
    ``trace`` count the accepted iterates, one per sweep.

    Raises NON_CONVERGENCE when the residual is still above tol after
    max_iter sweeps, or when the plain sweeps stall; DIVERGENCE when it
    grows tenfold above its running minimum, or when the log scale of a
    sweep overflows; the error's trace holds the iterates accepted before
    that sweep.
    """
    if not spec.is_complete():
        raise StructureError("fixed-point inversion needs a complete spec")
    _check_target(spec, target)
    st = _stages(spec, target)
    eta = np.zeros(spec.vars.n_cells)
    trace: list[float] = []
    lows: list[float] = []  # running minimum per iteration, since the switch
    best = math.inf
    mixing = True  # until the mixed iteration stalls
    d_steps: list[np.ndarray] = []  # differences of successive steps
    d_sweeps: list[np.ndarray] = []  # and of successive sweeps
    last = None  # (step, sweep) of the previous iteration
    first = None  # the first proper block's parameters at eta, once known
    # A margin cell that underflows to zero gives its block non-finite
    # parameters, which the next weights reject.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for it in range(1, opts.max_iter + 1):
            try:
                g = _sweep(eta, st, first)
                res, w, first = _residual(g, st)
            except SolverError as exc:  # the log scale overflowed in this sweep
                exc.trace = trace
                raise
            nxt = g
            if mixing and res > opts.tol:
                step = g - eta
                if last is not None:
                    d_steps.append(step - last[0])
                    d_sweeps.append(g - last[1])
                    del d_steps[:-ANDERSON_MEMORY], d_sweeps[:-ANDERSON_MEMORY]
                    mixed, r_mix, w_mix, f_mix = _mix(g, step, d_steps, d_sweeps, st)
                    if r_mix < res:
                        nxt, res, w, first = mixed, r_mix, w_mix, f_mix
                    else:  # the safeguard: take the sweep, drop the history
                        d_steps.clear()
                        d_sweeps.clear()
                last = step, g
            eta = nxt
            trace.append(res)
            if res <= opts.tol:
                break
            best = min(best, res)
            lows.append(best)
            if it > 3 and res > 10.0 * best:
                raise SolverError(
                    DIVERGENCE,
                    f"residual {res:.3e} grew tenfold over its minimum {best:.3e}",
                    trace,
                )
            window = MIX_WINDOW if mixing else STALL_WINDOW
            if len(lows) > window and best >= STALL_FACTOR * lows[-1 - window]:
                if not mixing:
                    raise SolverError(
                        NON_CONVERGENCE,
                        f"residual stalled: its minimum {best:.3e} is not below "
                        f"{STALL_FACTOR} times the {lows[-1 - window]:.3e} of "
                        f"{window} sweeps earlier",
                        trace,
                    )
                mixing, lows = False, [best]  # sweep plainly from here on
        else:
            raise SolverError(
                NON_CONVERGENCE,
                f"residual {trace[-1]:.3e} above tol {opts.tol:.1e} after "
                f"{opts.max_iter} sweeps",
                trace,
            )
    table = _finish_table(spec, w / w.sum(), trace)
    try:
        cert = contraction_certificate(spec, table)
    except StructureError:  # no single-feedback structure, no certificate
        cert = None
    return SolveResult(table, it, res, "fixed_point", cert, tuple(trace))


def contraction_certificate(spec: MLLSpec, t: JointTable) -> float:
    """Largest squared 2-norm of a derivative column of the fixed-point
    map at t.

    Requires a complete spec with the single-feedback structure: each
    proper-margin pair sees at most one other proper margin, its feeder,
    that its effect is not inside.  The column of such an effect then only
    carries the derivatives of the feeder's parameters, whose squared sum
    stays below 1 - min_cell.  Full-margin effects are exact after one
    sweep and contribute no feedback.  A column 2-norm does not bound the
    operator norm, so the value is no contraction constant, and it does
    not make the parameter map injective.
    """
    if not spec.is_complete():
        raise IncompleteSpecError("contraction certificate needs a complete spec")
    proper = _plan(spec.pairs, t.n)[1:]  # a complete spec's full margin leads
    kernels: dict[int, np.ndarray] = {}
    worst = 0.0
    for m in proper:
        for effect in m.effects.tolist():
            feeders = [f for f in proper if f is not m and effect & ~f.margin]
            if len(feeders) > 1:
                raise StructureError(
                    "contraction certificate needs the single-feedback margin "
                    "structure"
                )
            if not feeders:
                continue
            feeder = feeders[0]
            if feeder.margin not in kernels:
                kernels[feeder.margin] = margin_kernel_array(
                    t.p, t.n, feeder.margin
                )
            g = kernels[feeder.margin]
            col = sum(g[effect ^ ce] ** 2 for ce in feeder.effects.tolist())
            worst = max(worst, float(col))
    return worst


# ---------------------------------------------------------------------------
# Hierarchical reconstruction
# ---------------------------------------------------------------------------

def _hierarchical_step(
    spec: MLLSpec, tmap: dict[Pair, float], order: tuple[int, ...]
) -> SolveResult:
    """Rebuild the margins in the witness ``order``; each margin is the
    unique table matching its already-built sub-margins and the
    coefficients assigned to it.  ``built`` holds each margin's cells in
    compressed order, and only the full margin becomes a named table.  The
    table is not checked.  Each margin's targets are read through the
    collection's plan (``mll._plan``), whose ``effects`` and ``idx`` are the
    margin's effects and their compressed masks."""
    blocks = {b.margin: b for b in _plan(spec.pairs, spec.vars.n)}
    built: dict[int, np.ndarray] = {}
    for margin in order:
        inter = {e & margin for e in built if e & margin}
        maximal = [
            s for s in inter if not any(s != t and (s & ~t) == 0 for t in inter)
        ]
        subs = {}
        for s in sorted(maximal):
            e = next(e for e in built if (s & ~e) == 0)
            sub = built[e]
            if s != e:
                sub = marginal_array(sub, popcount(e), compress(s, e))
                sub = sub / sub.sum()
            subs[compress(s, margin)] = sub
        b = blocks[margin]
        values = [tmap[(e, margin)] for e in b.effects.tolist()]
        built[margin] = reconstruct_mixed(
            popcount(margin), subs, dict(zip(b.idx.tolist(), values))
        )
    table = JointTable(spec.vars, built[spec.vars.full_mask])
    return SolveResult(table, len(order), 0.0, "hierarchical")


def invert_hierarchical(
    spec: MLLSpec, target: MLLVector, opts: SolveOptions = SolveOptions()
) -> SolveResult:
    """Rebuild the margins in a hierarchy witness order: the replay of the
    one-step chain of the ``hierarchical`` rule."""
    return _invert_forced(spec, target, "hierarchical", opts)


# ---------------------------------------------------------------------------
# Cyclic conditionals
# ---------------------------------------------------------------------------

def _cyclic_step(
    spec: MLLSpec, tmap: dict[Pair, float], blocks: tuple[int, ...]
) -> SolveResult:
    """Build each block conditional from its margin parameters, recover the
    first block's marginal as the chain's stationary distribution, then
    walk the cycle: each margin B_i | B_{i+1} is p(B_i) p(B_{i+1} | B_i),
    and its B_{i+1} marginal is the next p(B_i).  One mixed solve over the
    full margin, from the cycle margins in mask order and the full
    margin's coefficients, gives the table, which is not checked.

    The conditional of margin m = giv | tgt is the table over m whose
    coefficients are the margin's targets (read through the collection's
    plan) and 0 on the effects inside giv, conditioned on giv: its cells
    laid out at (tgt, giv) by the ``compress_map`` of each block within m,
    then divided by their column sums.  The rule's record makes those
    targets exactly the effects of m that meet tgt."""
    plan = {b.margin: b for b in _plan(spec.pairs, spec.vars.n)}
    steps = []
    for giv, tgt in zip(blocks, blocks[1:] + blocks[:1]):
        m, b = giv | tgt, plan[giv | tgt]
        eta = np.zeros(1 << popcount(m))
        eta[b.idx] = [tmap[(e, m)] for e in b.effects.tolist()]
        rows, cols = (compress_map(popcount(m), compress(x, m)) for x in (tgt, giv))
        values = np.zeros((1 << popcount(tgt), 1 << popcount(giv)))
        values[rows, cols] = table_cells(eta)
        values /= values.sum(axis=0, keepdims=True)
        names = (spec.vars.names_of(tgt), spec.vars.names_of(giv))
        steps.append((m, rows, cols, ConditionalTable(*names, values)))
    conds = tuple(cond for *_, cond in steps)
    p_giv = stationary(CycleChainSpec(spec.vars, blocks, conds)).p
    built = {}
    for m, rows, cols, cond in steps:
        built[m] = (cond.values * p_giv)[rows, cols]
        p_giv = cond.values @ p_giv  # the marginal of tgt
    p = reconstruct_mixed(spec.vars.n, dict(sorted(built.items())), {
        e: v for (e, m), v in tmap.items() if m == spec.vars.full_mask
    })
    return SolveResult(JointTable(spec.vars, p), len(built) + 1, 0.0, "cyclic")


def invert_cyclic(
    spec: MLLSpec, target: MLLVector, opts: SolveOptions = SolveOptions()
) -> SolveResult:
    """Invert a cyclic-conditional collection by the replay of the one-step
    chain of the ``cyclic`` rule: the blocks are those the rule reads off
    ``spec``."""
    return _invert_forced(spec, target, "cyclic", opts)


# ---------------------------------------------------------------------------
# Newton with analytic Jacobian
# ---------------------------------------------------------------------------

# Trial points of the Newton line search per step: the full step, then up
# to 19 halvings.  The successful solves of the tests take full steps, and
# those of scripts/fallback_probe.py (CI-model members drawn at up to four
# times the benchmark's half-widths) halve at most 18 times in a step;
# failing solves spend most of their trial points beyond 10 halvings.
NEWTON_TRIALS = 20


def invert_newton(
    spec: MLLSpec,
    target: MLLVector,
    opts: SolveOptions = SolveOptions(),
    init_eta: np.ndarray | None = None,
) -> SolveResult:
    """At most min(max_iter, 200) Newton steps on F(eta) = lam(eta) - target,
    with a step-halving line search on the sup-norm of F that tries at most
    NEWTON_TRIALS points per step."""
    if not spec.is_complete():
        raise StructureError("Newton inversion needs a complete spec")
    _check_target(spec, target)
    n = spec.vars.n
    size = spec.vars.n_cells
    eta = np.zeros(size) if init_eta is None else np.asarray(init_eta, float).copy()
    trace: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        w = weights(eta)[0]
    p = w / w.sum()
    fvec = lambda_array(p, n, spec) - target.values
    res = float(np.max(np.abs(fvec)))
    trace.append(res)
    steps = min(opts.max_iter, 200)
    for it in range(steps + 1):
        if res <= opts.tol:
            table = _finish_table(spec, p, trace)
            return SolveResult(table, it, res, "newton", None, tuple(trace))
        if it == steps:
            break
        jac = jacobian_array(p, n, spec)
        try:
            step = np.linalg.solve(jac, -fvec)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                NON_CONVERGENCE, f"singular Jacobian: {exc}", trace
            ) from exc
        for scale in 0.5 ** np.arange(NEWTON_TRIALS):
            trial = eta.copy()
            trial[1:] += scale * step  # columns are the coefficient masks 1..
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    w = weights(trial)[0]
            except SolverError:
                continue
            p_try = w / w.sum()
            f_try = lambda_array(p_try, n, spec) - target.values
            r_try = float(np.max(np.abs(f_try)))
            if r_try < res:
                eta, p, fvec, res = trial, p_try, f_try, r_try
                break
        else:
            raise SolverError(
                NON_CONVERGENCE, f"line search stalled at residual {res:.3e}", trace
            )
        trace.append(res)
    raise SolverError(
        NON_CONVERGENCE,
        f"residual {res:.3e} above tol after {steps} Newton steps",
        trace,
    )


# ---------------------------------------------------------------------------
# Reduction replays
# ---------------------------------------------------------------------------

def _glue_slices(
    vars: VarSet, v_mask: int, pv: np.ndarray, q0: JointTable, q1: JointTable
) -> np.ndarray:
    """p(x) = pv(x_v) * q_{x_v}(x_rest) over the cells of ``vars``."""
    keep = vars.full_mask & ~v_mask
    cmap = compress_map(vars.n, keep)
    vbit = (np.arange(vars.n_cells) >> bit_positions(v_mask)[0]) & 1
    p = np.where(vbit == 0, q0.p[cmap] * pv[0], q1.p[cmap] * pv[1])
    return p / p.sum()


def _apply_interchange_to_target(
    spec: MLLSpec, tmap: dict[Pair, float], effect: int, from_m: int, to_m: int
) -> tuple[MLLSpec, dict[Pair, float]]:
    """Rewrite one coordinate between margins using the margin-change term
    f = lam(effect, big) - lam(effect, small) of the conditional pinned by
    the block parameters: at the block's table lam(effect, big) is 0, so f
    is -lam(effect, small) there."""
    if (to_m & ~from_m) and (from_m & ~to_m):
        raise StructureError("interchange margins must be nested")
    down = (to_m & ~from_m) == 0  # moving into a smaller margin
    big = from_m if down else to_m
    small = to_m if down else from_m
    a_mask = big & ~small
    block = {
        e: tmap[(e, big)]
        for e in nonempty_submasks(big)
        if (e & a_mask) and (e, big) in tmap
    }
    want = {e for e in nonempty_submasks(big) if e & a_mask}
    if set(block) != want:
        raise StructureError("interchange block parameters are not all present")
    sub_vars = spec.vars.restrict(big)
    entries = {compress(e, big): v for e, v in block.items()}
    t_big = table_from_eta(eta_from_dict(sub_vars, entries)).p
    lam_small = margin_lambda_array(t_big, sub_vars.n, compress(small, big))
    f = -float(lam_small[compress(effect, small)])
    old = tmap.pop((effect, from_m))
    tmap[(effect, to_m)] = old - f if down else old + f
    return cls.apply_interchange(spec, ((effect, from_m), to_m)), tmap


def _invert_variable_removal(
    spec: MLLSpec,
    tmap: dict[Pair, float],
    v_mask: int,
    sub_chain: tuple[cls.RuleStep, ...],
    opts: SolveOptions,
) -> np.ndarray:
    """Split off the conditional of X_v given the rest (all effects
    containing v sit in the full margin), invert the reduced collection by
    ``sub_chain``, and glue the conditional back on.

    The effects containing v pin the conditional; the table t of that block
    alone has it.  A full-margin effect e without v has the margin-change
    term lam_t(e, full) - lam_t(e, rest) = -lam_t(e, rest), so its reduced
    target is its target plus lam_t(e, rest)."""
    vars = spec.vars
    full = vars.full_mask
    rest = full & ~v_mask
    block = {e: tmap[(e, full)] for e, _ in spec.pairs if e & v_mask}
    t = table_from_eta(eta_from_dict(vars, block)).p
    lam_rest = margin_lambda_array(t, vars.n, rest)
    reduced = cls.reduce_minus_v(spec, v_mask)
    red_vals = [
        tmap[(e, m)] + lam_rest[compress(e, rest)] if m == full else tmap[(e, m)]
        for e, m in spec.pairs
        if not e & v_mask
    ]
    sub = _invert_via_chain(reduced, dict(zip(reduced.pairs, red_vals)), sub_chain, opts)
    cols = compress_map(vars.n, rest)
    p = t / marginal_array(t, vars.n, rest)[cols] * sub.table.p[cols]
    return p / p.sum()


def _invert_slice_split(
    spec: MLLSpec,
    tmap: dict[Pair, float],
    v_mask: int,
    sub_chain: tuple[cls.RuleStep, ...],
    opts: SolveOptions,
) -> np.ndarray:
    """Per-slice reduction: for each value of X_v the slice parameters are
    lam(A, M) +/- lam(A|v, M); invert both slices by ``sub_chain``, then
    recover the X_v marginal from the effect {v} and its margin-change
    term, read at the table that weighs both slices by 1/2."""
    vars = spec.vars
    em = {e: m for e, m in spec.pairs}
    reduced = cls.reduce_minus_v(spec, v_mask)
    slices: list[JointTable] = []
    for sign in (1.0, -1.0):
        vals = [
            tmap[(e, m)] + sign * tmap[(e | v_mask, em[e | v_mask])]
            for e, m in spec.pairs
            if not e & v_mask
        ]
        sub = _invert_via_chain(reduced, dict(zip(reduced.pairs, vals)), sub_chain, opts)
        slices.append(sub.table)
    q0, q1 = slices
    margin_v = em[v_mask]
    half = _glue_slices(vars, v_mask, np.array([0.5, 0.5]), q0, q1)
    f = (margin_lambda_array(half, vars.n, margin_v)[compress(v_mask, margin_v)]
         - margin_lambda_array(half, vars.n, v_mask)[1])
    eta_v = tmap[(v_mask, margin_v)] - f
    # the two-point law exp(+/- eta_v), scaled so that neither side
    # overflows; the glue normalises it
    pv = np.exp(np.array([eta_v, -eta_v]) - abs(eta_v))
    return _glue_slices(vars, v_mask, pv, q0, q1)


def _invert_contraction(
    spec: MLLSpec,
    tmap: dict[Pair, float],
    relocate: tuple[Pair, ...],
    sub_chain: tuple[cls.RuleStep, ...],
    opts: SolveOptions,
) -> np.ndarray:
    """Solve the self-contained subsystem for the relocated effects by the
    fixed point, then invert the relocated collection by ``sub_chain``.

    The subsystem is the complete collection that keeps the relocated pairs
    in their margins and puts every other effect in the full margin, at its
    target there and at 0 for the other proper pairs: by condition (i) of
    the contraction rule no relocated pair reads those.  Condition (ii)
    gives it the single-feedback structure.  It is solved to a tenth of
    tol, and the relocated coefficients are read off its table."""
    vars = spec.vars
    full = vars.full_mask
    moved = set(spec.pairs) - set(relocate)
    system = cls.relocate_pairs(spec, moved)
    values = [0.0 if pair in moved and pair[1] != full else tmap[pair]
              for pair in spec.pairs]
    sub = invert_fixed_point(
        system, MLLVector(system, np.array(values)), replace(opts, tol=0.1 * opts.tol)
    )
    eta = margin_lambda_array(sub.table.p, vars.n, full)
    tmap = dict(tmap)
    for e, m in relocate:
        del tmap[(e, m)]
        tmap[(e, full)] = float(eta[e])
    relocated = cls.relocate_pairs(spec, relocate)
    return _invert_via_chain(relocated, tmap, sub_chain, opts).table.p


# ---------------------------------------------------------------------------
# Automatic dispatch
# ---------------------------------------------------------------------------

def _invert_via_chain(
    spec: MLLSpec,
    tmap: dict[Pair, float],
    chain: tuple[cls.RuleStep, ...],
    opts: SolveOptions,
) -> SolveResult:
    """Replay a proof chain on the target map ``{pair: value}``:
    interchanges rewrite the map, the first other rule inverts, and a
    reducing rule passes the rest of the chain on to its reduced
    collection.  This is the only place that runs a proven route; the
    table is checked once, by :func:`_replay`."""
    for i, step in enumerate(chain):
        rule, details = step.rule, step.details
        if rule == "interchange":
            spec, tmap = _apply_interchange_to_target(
                spec, tmap, details["effect"], details["from_margin"],
                details["to_margin"],
            )
            continue
        rest = chain[i + 1:]
        if rule == "variable_removal":
            p = _invert_variable_removal(spec, tmap, details["v"], rest, opts)
        elif rule == "slice_split":
            p = _invert_slice_split(spec, tmap, details["v"], rest, opts)
        elif rule == cls.CONTRACTION_RULE:
            p = _invert_contraction(spec, tmap, details["relocate"], rest, opts)
        elif rule == "hierarchical":
            return _hierarchical_step(spec, tmap, details["order"])
        elif rule == "cyclic":
            return _cyclic_step(spec, tmap, details["blocks"])
        elif rule in ("two_margin", "single_feedback"):
            target = MLLVector(spec, np.array([tmap[pair] for pair in spec.pairs]))
            return invert_fixed_point(spec, target, opts)
        else:
            raise StructureError(f"no inversion route for rule {rule!r}")
        # a reduction did its work in the sub-solves it handed on to
        return SolveResult(JointTable(spec.vars, p), 0, 0.0, rule)
    raise StructureError("classification chain carried no terminal rule")


def _replay(
    spec: MLLSpec, target: MLLVector, chain: tuple[cls.RuleStep, ...], opts: SolveOptions
) -> SolveResult:
    """Run the proof chain on the target and check the reassembled table
    once, against the caller's target."""
    sub = _invert_via_chain(spec, target.as_dict(), chain, opts)
    return replace(
        sub,
        final_residual=_verify(spec, target, sub.table.p, max(opts.tol, 1e-9)),
        method_used=">".join(s.rule for s in chain if s.rule != "interchange"),
    )


def _relabel_chain(
    chain: tuple[cls.RuleStep, ...], inv: list[int]
) -> tuple[cls.RuleStep, ...]:
    """A proof chain of collection C as the same proof of its relabeling S:
    bit c of C is bit inv[c] of S.  Every rule is structural, so the
    relabeled chain proves S.  Every int in a step's details is a mask,
    nested tuples included; ``two_margin`` lists its margins sorted.  After
    a step that removes a variable ``v`` the later masks are in the bits of
    the reduced collections, so the map is re-ranked over the variables
    that remain."""
    def relabel(x):  # under the map of the current step
        return tuple(map(relabel, x)) if isinstance(x, tuple) else permute_mask(x, inv)

    steps = []
    for step in chain:
        rule, d = step.rule, step.details
        if rule != "interchange" and rule not in cls._ALL_RULES:
            raise StructureError(f"cannot relabel rule {rule!r}")
        details = {k: relabel(x) for k, x in d.items()}
        if rule == "two_margin":
            details["margins"] = tuple(sorted(details["margins"]))
        if "v" in d:
            c = d["v"].bit_length() - 1
            inv = [i - (i > inv[c]) for i in inv[:c] + inv[c + 1:]]
        steps.append(cls.RuleStep(rule, details))
    return tuple(steps)


@functools.lru_cache(maxsize=1024)
def _class_chain(
    form: tuple[Pair, ...], n: int
) -> tuple[tuple[cls.RuleStep, ...] | None, bool]:
    """The proof chain of the canonical collection ``form`` of a relabeling
    class, or None when it has no proof, classified once per process; and
    whether that answer holds for every labelling of the class.  A proof
    does; no proof does only when the search was exhausted with no closure
    cut, since the search and move limits act in an order set by the
    labels."""
    report = cls.classify(_numbered(form, n))
    if report.verdict == cls.PROVEN_SMOOTH:
        return report.rule_chain, True
    search = report.search
    return None, search.exhausted and search.closures_truncated == 0


@functools.lru_cache(maxsize=1024)
def _one_step_chain(
    pairs: tuple[Pair, ...], n: int, rule: str
) -> tuple[cls.RuleStep, ...] | None:
    """The one-step chain of ``rule`` on the collection ``pairs``, or None
    when the rule does not apply: the witness record of the forced methods
    HIERARCHICAL and MARKOV, read once per collection.  Rules read masks
    only, so the variables' names do not enter."""
    record = cls.rule_applies(_numbered(pairs, n), rule)
    return None if record is None else (cls.RuleStep(rule, record),)


def _invert_forced(
    spec: MLLSpec, target: MLLVector, rule: str, opts: SolveOptions
) -> SolveResult:
    """The forced methods HIERARCHICAL and MARKOV: the checked replay of
    the one-step chain of ``rule``."""
    if not spec.is_complete():
        raise StructureError(f"{rule} inversion needs a complete spec")
    _check_target(spec, target)
    chain = _one_step_chain(spec.pairs, spec.vars.n, rule)
    if chain is None:
        raise StructureError("spec is not hierarchical" if rule == "hierarchical"
                             else "spec does not have the cyclic block structure")
    return _replay(spec, target, chain, opts)


def _numbered(pairs: tuple[Pair, ...], n: int) -> MLLSpec:
    """The collection ``pairs`` over variables named 1 .. n."""
    return MLLSpec(VarSet(tuple(str(i + 1) for i in range(n))), pairs)


@functools.lru_cache(maxsize=1024)
def _labelled_chain(
    pairs: tuple[Pair, ...], n: int
) -> tuple[cls.RuleStep, ...] | None:
    """The chain AUTO replays on the collection ``pairs``, or None when it
    takes the fallback: its class's chain relabeled onto it, or, when the
    class's search was cut at a limit, the chain of its own classification.
    Rules read masks only, so the variables' names do not enter."""
    form, perm = canonical_form(pairs, n)
    chain, settled = _class_chain(form, n)
    if chain is not None:
        inv = sorted(range(len(perm)), key=perm.__getitem__)
        return _relabel_chain(chain, inv)
    if not settled:  # a search cut at a limit: classify the labelling given
        report = cls.classify(_numbered(pairs, n))
        if report.verdict == cls.PROVEN_SMOOTH:
            return report.rule_chain
    return None


def _invert_auto(
    spec: MLLSpec, target: MLLVector, opts: SolveOptions
) -> SolveResult:
    chain = _labelled_chain(spec.pairs, spec.vars.n)
    if chain is not None:
        return _replay(spec, target, chain, opts)
    capped = replace(opts, max_iter=min(opts.max_iter, 2000))
    try:
        sub = invert_fixed_point(spec, target, capped)
        return replace(sub, method_used="fixed_point_damped")
    except (SolverError, StructureError) as exc:
        failed = f"fixed_point: {exc}"
    try:
        return invert_newton(spec, target, opts)
    except (SolverError, StructureError) as exc:
        raise SolverError(ALL_METHODS_FAILED, f"{failed}; newton: {exc}") from exc


def invert(
    spec: MLLSpec, target: MLLVector, opts: SolveOptions = SolveOptions()
) -> SolveResult:
    """Invert a complete collection's parameter vector to its joint table.

    Method AUTO follows the classification chain (hierarchical margins,
    fixed point, variable/slice reductions, cyclic stationary recovery).  A
    collection without a proven route gets up to 2 000 sweeps of the same
    fixed-point solve as the proven routes (:func:`invert_fixed_point`),
    then one Newton solve from the uniform table; when both fail it raises
    ALL_METHODS_FAILED (CLI exit 2).  The other method values force one
    route and fail if its structural preconditions are unmet.  On every
    route a target whose solve builds a table outside the positivity floor
    raises NON_CONVERGENCE (CLI exit 2).
    """
    if not spec.is_complete():
        raise StructureError("inversion needs a complete collection")
    _check_target(spec, target)
    # spec and target are valid here, so an invalid table below is one the
    # solve built: the target lies outside the parameter domain
    try:
        if opts.method == "AUTO":
            return _invert_auto(spec, target, opts)
        if opts.method == "FIXED_POINT":
            return invert_fixed_point(spec, target, opts)
        if opts.method == "HIERARCHICAL":
            return invert_hierarchical(spec, target, opts)
        if opts.method == "NEWTON":
            return invert_newton(spec, target, opts)
        return invert_cyclic(spec, target, opts)  # MARKOV, checked by SolveOptions
    except InvalidTableError as exc:
        raise SolverError(
            NON_CONVERGENCE, f"the solve left the table domain: {exc}"
        ) from exc
