"""Inversion of marginal log-linear parameters back to joint tables.

Four routes, dispatched automatically from the classification chain:

* sequential *hierarchical* reconstruction: margins are rebuilt in the
  witness order, each one solved from its already-known sub-margins plus
  the log-linear coefficients assigned to it (a mixed mean/natural
  coordinate problem solved by proportional fitting, then a damped Newton
  solve if the fit stalls);
* the *fixed-point* iteration eta <- eta + damping * (target - lam(eta)),
  swept margin block by margin block through a plan compiled once per spec,
  with the full-margin block in closed form (its coefficients are eta
  itself), and a contraction certificate from the derivative-column bounds
  when the collection has the single-feedback structure;
* *Markov-chain* recovery for cyclic conditionals: the composed transition
  matrix of the cycle has the missing group marginal as its unique
  stationary distribution (direct linear solve, power iteration as a
  cross-check);
* for collections without a proven route, up to 2 000 sweeps of a damped
  fixed point, stopped when its residual stalls, then one *Newton* solve
  with the analytic Jacobian from the uniform table.

AUTO inversion classifies the collection once and replays the rule chain.
Reduction steps (variable removal, per-slice removal, parameter
interchanges, subsystem relocation) are replayed exactly: each transforms
the target vector using the margin-change term of the conditional
distribution that the already-known parameters pin down, and hands the
rest of the chain to the inversion of the reduced collection, which the
classifier proved with exactly that rest.

Every solve is deterministic given (spec, target, options); solves share
no state and can run concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import classify as cls
from .errors import (
    ALL_METHODS_FAILED,
    InvalidTableError,
    DIVERGENCE,
    INCONSISTENT_MARGINS,
    NON_CONVERGENCE,
    SolverError,
    SpecError,
    StructureError,
)
from .mll import (
    MLLSpec,
    MLLVector,
    Pair,
    _gather_plan,
    conditional_from_lambda,
    decompose_f,
    jacobian_array,
    lambda_array,
    margin_kernel_array,
)
from .tables import (
    _ONE_FACTOR_CELLS,
    ConditionalTable,
    JointTable,
    VarSet,
    bit_positions,
    compress,
    compress_map,
    condition,
    eta_from_dict,
    fwht,
    joint_from_conditional,
    marginal_array,
    marginalize,
    nonempty_submasks,
    packed_indices,
    popcount,
    table_from_eta,
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

def _weights(eta: np.ndarray) -> tuple[np.ndarray, float]:
    """Unnormalised cell weights exp(s - max s) of ``eta``, s = fwht(eta),
    and max s.  Raises DIVERGENCE unless s is finite: max keeps a NaN, so
    a finite max and min mean a finite s.  The transform may overflow, so
    callers run this under ``np.errstate(over="ignore", invalid="ignore")``."""
    s = fwht(eta)
    top = s.max()
    if not (math.isfinite(top) and math.isfinite(s.min())):
        raise SolverError(DIVERGENCE, "log scale overflowed during iteration")
    return np.exp(s - top), float(top)


def _probs_from_eta(eta: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        w = _weights(eta)[0]
    return w / w.sum()


def _residual(p: np.ndarray, n: int, spec: MLLSpec, tvals: np.ndarray) -> float:
    return float(np.max(np.abs(lambda_array(p, n, spec) - tvals)))


def _check_target(spec: MLLSpec, target: MLLVector) -> None:
    if target.spec.pairs != spec.pairs or target.spec.vars.names != spec.vars.names:
        raise SpecError("target vector does not match the spec")


def _verify(spec: MLLSpec, target: MLLVector, p: np.ndarray, tol: float) -> float:
    res = _residual(p, spec.vars.n, spec, target.values)
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

# Stall stop of the fixed point: the running minimum of the residual must
# fall below STALL_FACTOR times its value STALL_WINDOW sweeps earlier.  On
# the fixed-point successes of the benchmark's inversion workloads the
# worst such ratio is 0.38; a failing five-variable CI-model member that
# bottoms out at sweep 89 would otherwise sweep on for over a thousand more.
STALL_WINDOW = 100
STALL_FACTOR = 0.9


@dataclass(frozen=True)
class _Block:
    """The pairs of one proper margin M and the margin's two constant maps.

    ``cells[x]`` is the margin cell of table cell x: the 0/1 matrix A_M
    with A_M[cells[x], x] = 1, applied as ``np.bincount(cells, w)``.  The
    pairs' parameters at unnormalised cell weights w are the margin's
    Walsh-Hadamard transform of log(A_M @ w) at their compressed effects,
    over 2**|M|: the normaliser of w shifts only the margin's empty-effect
    coefficient, which no pair reads.  ``params`` maps log(A_M @ w) to
    them (see ``_block_plan``)."""

    pos: np.ndarray
    effects: np.ndarray
    cells: np.ndarray
    params: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class _Plan:
    """A spec's pairs compiled for the fixed point (read-only arrays).  The
    full-margin pairs need no table, their parameters are eta itself; the
    ``blocks`` are the proper margins, largest first, then by mask."""

    full_pos: np.ndarray
    full_effects: np.ndarray
    blocks: tuple[_Block, ...]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _transform_at(idx: np.ndarray, logs: np.ndarray) -> np.ndarray:
    return fwht(logs)[idx] / logs.size


@functools.lru_cache(maxsize=1024)
def _block_plan(pairs: tuple[Pair, ...], n: int) -> _Plan:
    """The fixed-point plan of ``pairs`` over n variables.

    Up to the size where ``fwht`` is the single product a @ H, a block's
    ``params`` is that product restricted to the pairs' effects idx, the
    dense G_M = H[idx] / 2**|M|, at most 64 x 64.  Above it the block runs
    ``fwht``, whose two-factor form needs no matrix of the margin's order,
    and picks idx.  So a plan holds at most 32 kB per margin besides its
    index arrays: three integers per pair and, per proper margin, one per
    table cell."""
    full = (1 << n) - 1
    effects_of = np.array([e for e, _ in pairs], dtype=np.int64)
    full_pos = _frozen(np.zeros(0, dtype=np.int64))
    blocks = []
    for margin, pos, idx in _gather_plan(pairs):
        if margin == full:
            full_pos = pos
            continue
        size = 1 << popcount(margin)
        if size <= _ONE_FACTOR_CELLS:
            params = _frozen(fwht(np.eye(size)[idx]) / size).__matmul__
        else:
            params = functools.partial(_transform_at, idx)
        cells = _frozen(compress_map(n, margin))
        blocks.append((margin, _Block(pos, _frozen(effects_of[pos]), cells, params)))
    blocks.sort(key=lambda mb: (-popcount(mb[0]), mb[0]))
    return _Plan(
        full_pos, _frozen(effects_of[full_pos]), tuple(b for _, b in blocks)
    )


def invert_fixed_point(
    spec: MLLSpec,
    target: MLLVector,
    opts: SolveOptions = SolveOptions(),
    damping: float = 1.0,
) -> SolveResult:
    """Iterate eta_L <- eta_L + damping * (target_LM - lam_LM(eta)) for
    every pair, Gauss-Seidel over margin blocks from the full margin
    downwards: each block updates its effects at once from the table left
    by the blocks before it.  Starts from the uniform table.

    The blocks come from a plan compiled once per spec (``_block_plan``).
    The full-margin block needs no table: its coefficients are eta itself,
    so its update is eta_L <- eta_L + damping * (target_L - eta_L).  Every
    other block M is two constant maps of the unnormalised cell weights
    w = exp(s - max s), s = fwht(eta): the 0/1 matrix A_M sums the cells
    onto the margin's cells (applied by ``np.bincount``), and
    G_M = H_M[idx] / 2**|M| takes their logs to the block's parameters, so
    the update is eta_L <- eta_L + damping * (target - G_M @ log(A_M @ w)).
    G_M is a dense matrix up to 64 margin cells and the Hadamard transform
    followed by a pick of idx above.  The residual after a sweep is the
    largest difference of all blocks at the weights of the sweep's result.

    Raises NON_CONVERGENCE when the residual is still above tol after
    max_iter sweeps, or when its running minimum has not dropped below
    STALL_FACTOR times its value STALL_WINDOW sweeps earlier; DIVERGENCE
    when it grows tenfold above its running minimum, or when the log scale
    overflows.
    """
    if not spec.is_complete():
        raise StructureError("fixed-point inversion needs a complete spec")
    _check_target(spec, target)
    plan = _block_plan(spec.pairs, spec.vars.n)
    full = plan.full_effects
    sweep = [(b.effects, b.cells, b.params, target.values[b.pos]) for b in plan.blocks]
    t_full = target.values[plan.full_pos]
    t_all = np.concatenate([t_full] + [t for *_, t in sweep])
    eta = np.zeros(spec.vars.n_cells)
    trace: list[float] = []
    lows: list[float] = []  # running minimum of the residual after each sweep
    best = math.inf
    # A margin cell that underflows to zero gives its block non-finite
    # parameters, which the next weights reject.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for it in range(1, opts.max_iter + 1):
            eta[full] += damping * (t_full - eta[full])
            for effects, cells, params, t in sweep:
                w = _weights(eta)[0]
                eta[effects] += damping * (t - params(np.log(np.bincount(cells, w))))
            w = _weights(eta)[0]
            lams = [eta[full]]
            lams += [params(np.log(np.bincount(c, w))) for _, c, params, _ in sweep]
            res = float(np.abs(t_all - np.concatenate(lams)).max())
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
            if it > STALL_WINDOW and best >= STALL_FACTOR * lows[-1 - STALL_WINDOW]:
                raise SolverError(
                    NON_CONVERGENCE,
                    f"residual stalled: its minimum {best:.3e} is not below "
                    f"{STALL_FACTOR} times the {lows[-1 - STALL_WINDOW]:.3e} of "
                    f"{STALL_WINDOW} sweeps earlier",
                    trace,
                )
        else:
            raise SolverError(
                NON_CONVERGENCE,
                f"residual {trace[-1]:.3e} above tol {opts.tol:.1e} after "
                f"{opts.max_iter} sweeps",
                trace,
            )
    table = _finish_table(spec, w / w.sum(), trace)
    cert = None
    if cls.rule_applies(spec, "single_feedback") is not None:
        cert = contraction_certificate(spec, table)
    return SolveResult(table, it, res, "fixed_point", cert, tuple(trace))


def contraction_certificate(spec: MLLSpec, t: JointTable) -> float:
    """Largest squared derivative-column norm of the fixed-point map at t.

    Requires the single-feedback structure: each proper-margin pair sees at
    most one other proper margin its effect is not inside.  The column of
    such an effect then only carries the derivatives of that one margin's
    parameters, whose squared sum stays below 1 - min_cell.  Full-margin
    effects are exact after one sweep and contribute no feedback.
    """
    if cls.rule_applies(spec, "single_feedback") is None:
        raise StructureError(
            "contraction certificate needs the single-feedback margin structure"
        )
    full = spec.vars.full_mask
    proper = spec.proper_margins
    kernels: dict[int, np.ndarray] = {}
    worst = 0.0
    for effect, margin in spec.pairs:
        if margin == full:
            continue
        feeders = [nm for nm in proper if nm != margin and (effect & ~nm)]
        if not feeders:
            continue
        nm = feeders[0]
        if nm not in kernels:
            kernels[nm] = margin_kernel_array(t.p, t.n, nm)
        g = kernels[nm]
        col = sum(g[effect ^ ce] ** 2 for ce, cm in spec.pairs if cm == nm)
        worst = max(worst, float(col))
    return worst


# ---------------------------------------------------------------------------
# Mixed mean/natural-coordinate reconstruction
# ---------------------------------------------------------------------------

def _least_squares_step(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Least-squares solution of ``jac @ step = r`` for a tall ``jac`` of
    full column rank: Householder QR of [jac | r], whose last column of R
    is Q^T r, then the triangular k x k system; Q is never formed."""
    k = jac.shape[1]
    tri = np.linalg.qr(np.column_stack([jac, r]), mode="r")
    return np.linalg.solve(tri[:k, :k], tri[:k, k])


# Proportional fitting hands over to Newton when, at the contraction of its
# last FIT_WINDOW sweeps, it would need more than FIT_SWEEPS further sweeps
# to bring the largest log margin ratio below 1e-12.  At n = 9 a sweep
# costs about 35 us and a Newton finish 40-70 ms, so 1 500 sweeps is about
# where the two break even.  The window keeps the early sweeps, which often
# contract by only 0.9-0.99 before the fit settles, from handing over: on
# the 36 n = 9 solves of a large-table pass (seeds 1601, 13201-13220), a
# one-sweep rule (stop below a contraction of 0.9) handed 9-24 to Newton,
# this rule 0-3.
FIT_SWEEPS = 1500
FIT_WINDOW = 20
# A reconstructed table must match its sub-margins to this relative error
# (largest |log(p_S / q_S)|).  The Gauss-Newton phase drives the ratios
# below 1e-12 and so does fitting that converges; a relative miss of 1e-10
# moves the margin's log-linear coefficients by at most 1e-10, well inside
# the 1e-9 reassembly check of the hierarchical route.
MARGIN_RTOL = 1e-10


def _proportional_fit(q: np.ndarray, cells: Sequence[np.ndarray],
                      sub_p: Sequence[np.ndarray]) -> np.ndarray | None:
    """Iterative proportional fitting of the positive table q to the
    sub-margins ``sub_p``; ``cells[i]`` maps each cell of q to its cell of
    margin i.  Scaling q by a function of x_S moves only the log-linear
    coefficients of effects inside S, so every sweep keeps the coefficients
    that no sub-margin covers.

    Sweeps until the largest log ratio |log(p_S / q_S)| is below 1e-12,
    until a sweep leaves a cell at 0, or, from sweep FIT_WINDOW + 1 on,
    until the last FIT_WINDOW sweeps did not cut the ratio or, at their
    contraction, would leave it above 1e-12 after FIT_SWEEPS more sweeps.
    Returns the sweep with the smallest ratio, or None when no sweep
    improves on q.  The last sub-margin of a sweep matches to rounding, so
    only the others are measured, and the first one's ratios start the
    next sweep."""

    def ratios(t: np.ndarray, k: int) -> list[np.ndarray]:
        return [ps / np.bincount(c, t, minlength=ps.size)
                for c, ps in zip(cells[:k], sub_p[:k])]

    def worst(rs: list[np.ndarray]) -> float:
        return max((float(np.max(np.abs(np.log(r)))) for r in rs), default=0.0)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rs = ratios(q, len(cells))
        fit, fitted, best, trail = q, None, worst(rs), []
        while best >= 1e-12:
            fit = fit * rs[0][cells[0]]
            for c, ps in zip(cells[1:], sub_p[1:]):
                fit *= (ps / np.bincount(c, fit, minlength=ps.size))[c]
            if not fit.min() > 0.0:  # a NaN stops too
                break
            rs = ratios(fit, len(cells) - 1)
            res = worst(rs)
            if res < best:
                fitted, best = fit, res
            trail.append(res)
            if len(trail) > FIT_WINDOW:
                ago = trail[-1 - FIT_WINDOW]
                if not (res < ago and
                        res * (res / ago) ** (FIT_SWEEPS / FIT_WINDOW) <= 1e-12):
                    break
    return fitted


def reconstruct_mixed(
    vars_m: VarSet,
    margins: Sequence[JointTable],
    eta_targets: Mapping[int, float],
) -> JointTable:
    """Table over ``vars_m`` matching every given sub-margin table and the
    log-linear coefficients of the effects no sub-margin covers.

    Warm-started from the sub-margins' own coefficients, then fitted to the
    sub-margins by proportional fitting (``_proportional_fit``), which keeps
    the uncovered coefficients.  If the fit stalls, one damped Newton solve
    for the covered coefficients takes over from the fitted table: Armijo
    steps on the convex dual log Z(theta) - theta . mu* while it resolves
    progress, then Gauss-Newton steps on the log margin ratios, which keep
    tiny cells' relative accuracy.  Each Gauss-Newton step is a QR
    least-squares solve, not an SVD: the mixed parameterization is smooth
    and variation independent, so the Jacobian has full column rank at
    every positive table.
    Raises INCONSISTENT_MARGINS when the given margins contradict each
    other, NON_CONVERGENCE when the result misses a margin by more than
    MARGIN_RTOL relative or a coefficient by more than 1e-10.
    """
    m = vars_m.n
    size = vars_m.n_cells
    sub_masks: list[int] = []
    sub_p: list[np.ndarray] = []
    cells: list[np.ndarray] = []
    for tbl in margins:
        mask = vars_m.mask_of(tbl.vars.names)
        sub_p.append(tbl.p[packed_indices(vars_m.restrict(mask), tbl.vars.names)])
        sub_masks.append(mask)
        cells.append(compress_map(m, mask))

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
    for mask, ps, cell in zip(sub_masks, sub_p, cells):
        at = np.flatnonzero((cov & ~mask) == 0)
        idx = cell[cov[at]]
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

    def state(th: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        with np.errstate(over="ignore", invalid="ignore"):
            w, top = _weights(th)
        z = w.sum()
        qq, log_z = w / z, top + math.log(z)
        qs = np.concatenate([marginal_array(qq, m, mask) for mask in sub_masks]
                            or [np.zeros(0)])
        with np.errstate(divide="ignore", over="ignore"):
            return qq, qs, np.log(p_all / qs), log_z - float(th[cov] @ mu_star)

    q, qs, r, f = state(theta)
    fitted = _proportional_fit(q, cells, sub_p)
    if fitted is not None:
        theta[cov] = (fwht(np.log(fitted)) / size)[cov]
        q, qs, r, f = state(theta)
    polish = False
    chars = None
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
            if chars is None:  # chars[x, i] = (-1)**|x & cov[i]|
                parity = np.bitwise_count(np.arange(size)[:, None] & cov) % 2
                chars = 1 - 2 * parity.astype(np.int8)
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
        miss = float(np.max(np.abs(r), initial=0.0))
        if not miss <= MARGIN_RTOL:
            raise SolverError(
                NON_CONVERGENCE,
                f"relative margin mismatch {miss:.3e} after reconstruction",
            )
        theta_check = fwht(np.log(q)) / size
        for L, v in eta_targets.items():
            if not abs(float(theta_check[L]) - v) <= 1e-10:
                raise SolverError(
                    NON_CONVERGENCE, "coefficient targets missed after reconstruction"
                )
    return JointTable(vars_m, q / q.sum())


# ---------------------------------------------------------------------------
# Hierarchical reconstruction
# ---------------------------------------------------------------------------

def invert_hierarchical(
    spec: MLLSpec, target: MLLVector, opts: SolveOptions = SolveOptions()
) -> SolveResult:
    """Rebuild the margins in a hierarchy witness order; each margin is the
    unique table matching its already-built sub-margins and the
    coefficients assigned to it."""
    if not spec.is_complete():
        raise StructureError("hierarchical inversion needs a complete spec")
    _check_target(spec, target)
    order = cls.hierarchy_order(spec)
    if order is None:
        raise StructureError("spec is not hierarchical")
    tmap = target.as_dict()
    built: dict[int, JointTable] = {}
    for margin in order:
        vars_m = spec.vars.restrict(margin)
        inter = {e & margin for e in built if e & margin}
        maximal = [
            s for s in inter if not any(s != t and (s & ~t) == 0 for t in inter)
        ]
        subs = []
        for s in sorted(maximal):
            donor = next(e for e in built if (s & ~e) == 0)
            dt = built[donor]
            subs.append(marginalize(dt, dt.vars.mask_of(spec.vars.names_of(s))))
        cmap = compress_map(spec.vars.n, margin)
        eta_targets = {
            int(cmap[e]): tmap[(e, m)] for e, m in spec.pairs if m == margin
        }
        built[margin] = reconstruct_mixed(vars_m, subs, eta_targets)
    result = built[spec.vars.full_mask]
    res = _verify(spec, target, result.p, max(opts.tol, 1e-9))
    return SolveResult(result, len(order), res, "hierarchical")


# ---------------------------------------------------------------------------
# Markov-chain recovery for cyclic conditionals
# ---------------------------------------------------------------------------

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
        vs = VarSet(tuple(obj["variables"]))
        blocks = tuple(vs.mask_of(b) for b in obj["blocks"])
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
    """Unique stationary distribution of a row-stochastic matrix, by direct
    linear solve of (M^T - I) pi = 0 with a normalisation row."""
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


def stationary(chain: CycleChainSpec) -> JointTable:
    """Unique stationary distribution of the cycle's transition matrix."""
    pi = stationary_distribution(_transition_matrix(chain))
    return JointTable(chain.vars.restrict(chain.blocks[0]), pi)


def stationary_power(chain: CycleChainSpec) -> JointTable:
    """Power iteration on the same transition matrix; the direct solve is
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


def invert_cyclic(
    spec: MLLSpec,
    target: MLLVector,
    opts: SolveOptions = SolveOptions(),
    blocks: tuple[int, ...] | None = None,
) -> SolveResult:
    """Invert a cyclic-conditional collection: build each block conditional
    from its margin parameters, recover the first block's marginal as the
    chain's stationary distribution, then finish hierarchically."""
    if blocks is None:
        params = cls.rule_applies(spec, "cyclic")
        if params is None:
            raise StructureError("spec does not have the cyclic block structure")
        blocks = params["blocks"]
    _check_target(spec, target)
    tmap = target.as_dict()
    k = len(blocks)
    conds = []
    for i in range(k):
        tgt = blocks[(i + 1) % k]
        giv = blocks[i]
        margin = tgt | giv
        values = {e: tmap[(e, m)] for e, m in spec.pairs if m == margin}
        conds.append(conditional_from_lambda(spec.vars, tgt, giv, values))
    chain = CycleChainSpec(spec.vars, tuple(blocks), tuple(conds))
    pi = stationary(chain)

    first = blocks[0]
    first_margin = blocks[-1] | first
    eta_pi = fwht(np.log(pi.p)) / pi.vars.n_cells
    new_pairs = []
    new_vals = []
    for e, m in spec.pairs:
        if m == first_margin and (e & ~first) == 0:
            new_pairs.append((e, first))
            new_vals.append(float(eta_pi[compress(e, first)]))
        else:
            new_pairs.append((e, m))
            new_vals.append(tmap[(e, m)])
    resolved = MLLSpec(spec.vars, tuple(new_pairs))
    sub = invert_hierarchical(resolved, MLLVector(resolved, np.array(new_vals)), opts)
    res = _verify(spec, target, sub.table.p, max(opts.tol, 1e-9))
    return SolveResult(sub.table, sub.iterations, res, "cyclic")


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
    """At most 200 Newton steps on F(eta) = lam(eta) - target, with a
    step-halving line search on the sup-norm of F that tries at most
    NEWTON_TRIALS points per step."""
    if not spec.is_complete():
        raise StructureError("Newton inversion needs a complete spec")
    _check_target(spec, target)
    n = spec.vars.n
    size = spec.vars.n_cells
    eta = np.zeros(size) if init_eta is None else np.asarray(init_eta, float).copy()
    trace: list[float] = []
    p = _probs_from_eta(eta)
    fvec = lambda_array(p, n, spec) - target.values
    res = float(np.max(np.abs(fvec)))
    trace.append(res)
    for it in range(1, 201):
        if res <= opts.tol:
            table = _finish_table(spec, p, trace)
            return SolveResult(table, it - 1, res, "newton", None, tuple(trace))
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
                p_try = _probs_from_eta(trial)
            except SolverError:
                continue
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
        f"residual {res:.3e} above tol after 200 Newton steps",
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
    of the conditional pinned by the block parameters."""
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
    entries = {compress(e, big): val for e, val in block.items()}
    t_big = table_from_eta(eta_from_dict(sub_vars, entries))
    f = decompose_f(
        t_big, compress(effect, big), compress(small, big), compress(a_mask, big)
    )
    old = tmap.pop((effect, from_m))
    new_val = old - f if down else old + f
    new_spec = MLLSpec(
        spec.vars,
        tuple((e, to_m) if (e, m) == (effect, from_m) else (e, m)
              for e, m in spec.pairs),
    )
    tmap[(effect, to_m)] = new_val
    return new_spec, tmap


def _invert_variable_removal(
    spec: MLLSpec,
    tmap: dict[Pair, float],
    v_mask: int,
    sub_chain: tuple[cls.RuleStep, ...],
    opts: SolveOptions,
) -> np.ndarray:
    """Split off the conditional of X_v given the rest (all effects
    containing v sit in the full margin), invert the reduced collection by
    ``sub_chain``, and glue the conditional back on."""
    vars = spec.vars
    full = vars.full_mask
    rest = full & ~v_mask
    cond_vals = {e: tmap[(e, full)] for e, m in spec.pairs if e & v_mask}
    cond = conditional_from_lambda(vars, v_mask, rest, cond_vals)
    # a table with that conditional and uniform rest pins the margin-change
    # terms of the full-margin effects not containing v
    t_pin = joint_from_conditional(
        vars, cond, table_from_eta(eta_from_dict(vars.restrict(rest), {}))
    )
    reduced = cls.reduce_minus_v(spec, v_mask)
    red_vals = [
        tmap[(e, m)] - decompose_f(t_pin, e, rest, v_mask) if m == full else tmap[(e, m)]
        for e, m in spec.pairs
        if not e & v_mask
    ]
    sub = _invert_via_chain(
        reduced, MLLVector(reduced, np.array(red_vals)), sub_chain, opts
    )
    return joint_from_conditional(vars, cond, sub.table).p


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
    term."""
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
        sub = _invert_via_chain(
            reduced, MLLVector(reduced, np.array(vals)), sub_chain, opts
        )
        slices.append(sub.table)
    q0, q1 = slices
    margin_v = em[v_mask]
    n_margin = margin_v & ~v_mask
    half = _glue_slices(vars, v_mask, np.array([0.5, 0.5]), q0, q1)
    t_half = JointTable(vars, half)
    f = decompose_f(t_half, v_mask, v_mask, n_margin) if n_margin else 0.0
    eta_v = tmap[(v_mask, margin_v)] - f
    pv = np.exp([eta_v, -eta_v])
    pv /= pv.sum()
    return _glue_slices(vars, v_mask, pv, q0, q1)


def _contraction_subsystem(
    spec: MLLSpec,
    tmap: dict[Pair, float],
    relocate: tuple[Pair, ...],
    opts: SolveOptions,
) -> tuple[np.ndarray, list[float]]:
    """The certified fixed point of the self-contained subsystem for the
    relocated effects: eta with the full-margin coefficients fixed, and the
    residual after each sweep."""
    vars = spec.vars
    full = vars.full_mask
    eta = np.zeros(vars.n_cells)
    for e, m in spec.pairs:
        if m == full:
            eta[e] = tmap[(e, m)]
    targets = np.array([tmap[pair] for pair in relocate])
    blocks = [
        (b.effects, b.cells, b.params, targets[b.pos])
        for b in _block_plan(relocate, vars.n).blocks
    ]
    trace: list[float] = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(opts.max_iter):
            # Jacobi within a sweep: every block reads the same table
            w = _weights(eta)[0]
            deltas = []
            for effects, cells, params, t in blocks:
                delta = t - params(np.log(np.bincount(cells, w)))
                eta[effects] += delta
                deltas.append(delta)
            res = float(np.max(np.abs(np.concatenate(deltas))))
            trace.append(res)
            if res <= opts.tol * 0.1:
                return eta, trace
    raise SolverError(NON_CONVERGENCE, "subsystem fixed point did not converge", trace)


def _invert_contraction(
    spec: MLLSpec,
    tmap: dict[Pair, float],
    relocate: tuple[Pair, ...],
    sub_chain: tuple[cls.RuleStep, ...],
    opts: SolveOptions,
) -> np.ndarray:
    """Solve the self-contained subsystem for the relocated effects by the
    certified fixed point, then invert the relocated collection by
    ``sub_chain``."""
    eta, _ = _contraction_subsystem(spec, tmap, relocate, opts)
    full = spec.vars.full_mask
    relocated = cls.relocate_pairs(spec, relocate)
    new_tmap = dict(tmap)
    for e, m in relocate:
        new_tmap.pop((e, m))
        new_tmap[(e, full)] = float(eta[e])
    vals = np.array([new_tmap[pair] for pair in relocated.pairs])
    sub = _invert_via_chain(relocated, MLLVector(relocated, vals), sub_chain, opts)
    return sub.table.p


# ---------------------------------------------------------------------------
# Automatic dispatch
# ---------------------------------------------------------------------------

def _invert_via_chain(
    spec: MLLSpec,
    target: MLLVector,
    chain: tuple[cls.RuleStep, ...],
    opts: SolveOptions,
) -> SolveResult:
    """Replay a proof chain: interchanges rewrite the target, the first
    other rule inverts, and a reducing rule passes the rest of the chain on
    to its reduced collection."""
    cur_spec = spec
    tmap = target.as_dict()
    method = ">".join(s.rule for s in chain if s.rule != "interchange")
    for i, step in enumerate(chain):
        rule = step.rule
        if rule == "interchange":
            cur_spec, tmap = _apply_interchange_to_target(
                cur_spec,
                tmap,
                step.details["effect"],
                step.details["from_margin"],
                step.details["to_margin"],
            )
            continue
        cur_target = MLLVector(
            cur_spec, np.array([tmap[pair] for pair in cur_spec.pairs])
        )
        rest = chain[i + 1:]
        if rule == "hierarchical":
            sub = invert_hierarchical(cur_spec, cur_target, opts)
        elif rule in ("two_margin", "three_margin", "single_feedback"):
            sub = invert_fixed_point(cur_spec, cur_target, opts)
        elif rule == "variable_removal":
            p = _invert_variable_removal(cur_spec, tmap, step.details["v"], rest, opts)
            sub = SolveResult(JointTable(cur_spec.vars, p), 0, 0.0, rule)
        elif rule in ("slice_split", "slice_split_general"):
            p = _invert_slice_split(cur_spec, tmap, step.details["v"], rest, opts)
            sub = SolveResult(JointTable(cur_spec.vars, p), 0, 0.0, rule)
        elif rule == "cyclic":
            sub = invert_cyclic(cur_spec, cur_target, opts, blocks=step.details["blocks"])
        elif rule == cls.CONTRACTION_RULE:
            p = _invert_contraction(
                cur_spec, tmap, step.details["relocate"], rest, opts
            )
            sub = SolveResult(JointTable(cur_spec.vars, p), 0, 0.0, rule)
        else:
            raise StructureError(f"no inversion route for rule {rule!r}")
        res = _verify(spec, target, sub.table.p, max(opts.tol, 1e-9))
        return SolveResult(
            JointTable(spec.vars, sub.table.p),
            sub.iterations,
            res,
            method,
            sub.contraction_certificate,
            sub.trace,
        )
    raise StructureError("classification chain carried no terminal rule")


def _invert_auto(
    spec: MLLSpec, target: MLLVector, opts: SolveOptions
) -> SolveResult:
    report = cls.classify(spec)
    if report.verdict == cls.PROVEN_SMOOTH:
        return _invert_via_chain(spec, target, report.rule_chain, opts)
    if report.verdict == cls.NOT_SMOOTH_INCOMPLETE:
        raise StructureError("cannot invert an incomplete collection")

    damped = replace(opts, max_iter=min(opts.max_iter, 2000))
    try:
        sub = invert_fixed_point(spec, target, damped, damping=0.5)
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
    collection without a proven route gets up to 2 000 sweeps of a damped
    fixed point, stopped when its residual stalls, then one Newton solve
    from the uniform table; when both fail it raises ALL_METHODS_FAILED
    (CLI exit 2).  The other method values force one route and fail if its
    structural preconditions are unmet.
    """
    if not spec.is_complete():
        raise StructureError("inversion needs a complete collection")
    _check_target(spec, target)
    if opts.method == "AUTO":
        return _invert_auto(spec, target, opts)
    if opts.method == "FIXED_POINT":
        return invert_fixed_point(spec, target, opts)
    if opts.method == "HIERARCHICAL":
        return invert_hierarchical(spec, target, opts)
    if opts.method == "NEWTON":
        return invert_newton(spec, target, opts)
    if opts.method == "MARKOV":
        return invert_cyclic(spec, target, opts)
    raise SpecError(f"unsupported method {opts.method}")
