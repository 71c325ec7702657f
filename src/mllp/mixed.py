"""Mixed mean/natural-coordinate reconstruction of a table.

A positive table over a set of binary variables is pinned down by its
sub-margin tables (mean coordinates) together with the log-linear
coefficients of the effects that no sub-margin covers (natural
coordinates).  With no sub-margin, the table of the uncovered
coefficients is the answer, and with one, that table scaled once to the
sub-margin (a scaling by a function of the sub-margin's cells keeps every
coefficient it does not cover).  Otherwise :func:`reconstruct_mixed` fits
the table to its sub-margins, then runs a damped Newton solve if the fit
stalls.  Two sub-margins S = M \\ {b} and T with b in T are fitted
directly, by one monotone equation per cell of T \\ {b}
(:func:`_stratum_fit`), when those equations are well conditioned; every
other shape, and an ill-conditioned one, is fitted by iterative
proportional fitting.  The hierarchical route of :mod:`mllp.solvers`
calls it once per margin, and the cyclic route once, for the full margin.

Tables here are cell arrays, with no variable names:
``reconstruct_mixed(m, margins, eta_targets)`` takes the margin's variable
count, a dict from each sub-margin's mask (over the margin's own m bits)
to its cells in compressed order, as :func:`mllp.tables.marginal_array`
returns them, and the uncovered coefficients by effect mask; it returns the
normalised cells of the margin.  What a solve reads of its shape alone, the
variable count and the sub-margins' masks in the caller's order, is built
once per shape in a bounded cache (:func:`_shape`): each sub-margin's cell
map, the covered and the uncovered effects, and each sub-margin's picks of
the covered ones, all read-only arrays.  The target-cover check and the
final coefficient check compare arrays.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    INCONSISTENT_MARGINS,
    NON_CONVERGENCE,
    InvalidTableError,
    SolverError,
    SpecError,
)
from .tables import (
    POSITIVITY_FLOOR,
    compress_map,
    fwht,
    marginal_array,
    weights,
)


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
# contract by only 0.9-0.99 before the fit settles, from handing over.  The
# benchmark's traffic does not reach that case: the two drop-one margins
# of its n = 9 solves go to _stratum_fit, its 8-variable margins have 0 or
# 1 sub-margin and take the closed forms, and the fits with two or more
# sub-margins, 76 in an inversion-route pass and 24 in a fallback pass
# (seed 1601), are over at most 4 variables.  The window is pinned by
# test_slow_first_sweeps_do_not_hand_over (three drop-one margins at n = 9),
# where a one-sweep rule (stop below a contraction of 0.9) hands 16 of 24
# fits to Newton and this rule none.
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

    starts = np.cumsum([0, *map(len, sub_p[:-1])])

    def worst(rs: list[np.ndarray]) -> float:
        # one reduction to each margin's largest ratio; a NaN margin counts
        # only when it comes first, as Python's max skips later NaNs
        if not rs:
            return 0.0
        return max(np.maximum.reduceat(
            np.abs(np.log(np.concatenate(rs))), starts[:len(rs)]
        ).tolist())

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


def _stratum_fit(q: np.ndarray, m: int, sub_masks: Sequence[int],
                 cells: Sequence[np.ndarray],
                 sub_p: Sequence[np.ndarray]) -> np.ndarray | None:
    """The fit without sweeps, for two sub-margins S = M \\ {b} and T with
    b in T: the fitted table, or None for any other shape or when the
    result is not to be trusted.

    Call C = T \\ {b} the strata, a the cells of M \\ T, r the S-margin and
    l(c,a) the log odds of b in q.  The table
    t(c,a,1) = r(c,a) sigma(l(c,a) + d_c),  t(c,a,0) = r(c,a) sigma(-l(c,a) - d_c)
    matches the S-margin for every d, and t = q f(x_S) g(x_C, b), so, as a
    fitting sweep does, it keeps every coefficient that neither S nor T
    covers.  It matches T when each d_c solves sum_a t(c,a,1) = p_T(c,1).
    At d_c = log(p_T(c,1) / p_T(c,0)) - max_a l(c,a) the sum is at most
    p_T(c,1).  In z = exp(d_c) the sum is increasing and concave, so
    Newton steps in z from there rise to the root without overshooting:
    all strata are solved at once, with no bracket to keep.  The error left
    after a step is at most about the step squared, so a step below 1e-9
    ends the solve; a solve that takes 100 steps is left to the fit.  A
    rounding error of the equation fixes d_c only to about
    cond_c * 2**-52, where cond_c = m_c / sum_a t(c,a,0) t(c,a,1) / r(c,a)
    and m_c is the stratum's mass.  So the table is returned only when
    every cond_c * 2**-52 is within the fit's own target of 1e-12, and
    when no cell of q or of the table is 0."""
    if len(sub_masks) != 2:
        return None
    full = (1 << m) - 1
    for s, t in ((0, 1), (1, 0)):
        b = full & ~sub_masks[s]
        if b & (b - 1) == 0 and sub_masks[t] & b:
            break
    else:
        return None
    # cells as (stratum c, a, b): axis m - 1 - k of the cube holds bit k
    a_mask = full & ~sub_masks[t]
    axes = [m - 1 - k for mask in (sub_masks[t] & ~b, a_mask, b)
            for k in range(m) if mask >> k & 1]

    def grid(v: np.ndarray) -> np.ndarray:
        return v.reshape((2,) * m).transpose(axes).reshape(
            -1, 1 << a_mask.bit_count(), 2)

    q3 = grid(q)
    r = grid(sub_p[s][cells[s]])[:, :, 0]
    pt = grid(sub_p[t][cells[t]])[:, 0, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ell = np.log(q3[:, :, 1] / q3[:, :, 0])
        odds = np.log(pt[:, 1] / pt[:, 0])
        if not (np.isfinite(ell).all() and np.isfinite(odds).all()
                and r.min() > 0.0):
            return None
        delta, step = odds - ell.max(axis=1), math.inf
        for _ in range(100):
            x = ell + delta[:, None]
            t1, t0 = r / (1.0 + np.exp(-x)), r / (1.0 + np.exp(x))
            slope = (t1 * t0 / r).sum(axis=1)
            if step <= 1e-9:
                break
            steps = np.log1p((pt[:, 1] - t1.sum(axis=1)) / slope)
            delta = delta + steps
            step = float(np.max(np.abs(steps)))
        else:
            return None
        cond = r.sum(axis=1) / slope
        if not (cond.max() * 2.0**-52 <= 1e-12 and t0.min() > 0.0
                and t1.min() > 0.0):
            return None
    out = np.stack([t0, t1], axis=2).reshape((2,) * m)
    return out.transpose(np.argsort(axes)).reshape(-1)


class _Shape(NamedTuple):
    """What :func:`reconstruct_mixed` reads of a margin over m variables and
    its sub-margins' masks, in the caller's order (read-only arrays):
    ``cells[i]`` maps each cell of the margin to its cell of sub-margin i;
    ``cov`` holds the effects inside some sub-margin and ``uncovered`` the
    other nonempty effects, each increasing; ``picks[i]`` is (at, idx),
    the positions in ``cov`` of the effects inside sub-margin i and those
    effects compressed into it."""

    cells: tuple[np.ndarray, ...]
    cov: np.ndarray
    uncovered: np.ndarray
    picks: tuple[tuple[np.ndarray, np.ndarray], ...]


# A shape with k sub-margins holds about 2k + 1 integers per cell of its
# margin: 20 kB at m = 9 and k = 2, the benchmark's largest solve, so the
# bound keeps the cache below about 5 MB.  One pass of the benchmark at
# seed 3 meets 38 shapes on its inversion routes and 32 on its large tables.
@functools.lru_cache(maxsize=256)
def _shape(m: int, sub_masks: tuple[int, ...]) -> _Shape:
    effects = np.arange(1 << m)
    covered = np.zeros(1 << m, dtype=bool)
    for mask in sub_masks:
        covered |= (effects & ~mask) == 0
    covered[0] = False
    cov = np.flatnonzero(covered)
    uncovered = np.flatnonzero(~covered)[1:]
    cells = tuple(compress_map(m, mask) for mask in sub_masks)
    picks = []
    for mask, cell in zip(sub_masks, cells):
        at = np.flatnonzero((cov & ~mask) == 0)
        picks.append((at, cell[cov[at]]))
    for a in (cov, uncovered, *(x for pick in picks for x in pick)):
        a.flags.writeable = False
    return _Shape(cells, cov, uncovered, tuple(picks))


def reconstruct_mixed(
    m: int,
    margins: Mapping[int, np.ndarray],
    eta_targets: Mapping[int, float],
) -> np.ndarray:
    """Cells of the table over ``m`` variables that matches every given
    sub-margin and the log-linear coefficients ``eta_targets`` of the
    effects no sub-margin covers.  ``margins`` maps each sub-margin's mask
    to its cells, indexed by the compressed cell index of that mask.

    With no sub-margin the result is the table of the targets; with one
    sub-margin S, that table q scaled once by p_S / q_S, which matches S
    and keeps the targets (one step of proportional fitting against a
    single margin is exact).  Neither fits, and both go through the checks
    below.  Two or more sub-margins are warm-started from their own
    coefficients, then fitted in a way that keeps the uncovered
    coefficients.  Two sub-margins S = M minus one variable b and T
    containing b are fitted without sweeps (``_stratum_fit``): the table
    keeps the S-margin and the warm start's log odds of b up to one shift
    per cell of T minus b, a factor over T, which leaves every coefficient
    outside S and T as it was; each shift solves one monotone equation.  That fit is taken only
    when a rounding error cannot move a shift by more than 1e-12; every
    other case, and every other shape, is fitted by proportional fitting
    (``_proportional_fit``).  If the fit stalls, one damped Newton solve
    for the covered coefficients takes over from the fitted table: Armijo
    steps on the convex dual log Z(theta) - theta . mu* while it resolves
    progress, then Gauss-Newton steps on the log margin ratios, which keep
    tiny cells' relative accuracy.  Each Gauss-Newton step is a QR
    least-squares solve, not an SVD: the mixed parameterization is smooth
    and variation independent, so the Jacobian has full column rank at
    every positive table.
    Raises INCONSISTENT_MARGINS when the given margins contradict each
    other, NON_CONVERGENCE when the result misses a margin by more than
    MARGIN_RTOL relative or a coefficient by more than 1e-10, and
    InvalidTableError when a cell of the normalised result is below
    POSITIVITY_FLOOR.
    """
    size = 1 << m
    sub_masks = list(margins)
    sub_p = list(margins.values())
    cells, cov, uncovered, picks = _shape(m, tuple(sub_masks))
    if not np.array_equal(sorted(eta_targets), uncovered):
        raise SpecError(
            "eta targets must cover exactly the effects outside the given margins"
        )

    theta = np.zeros(size)
    effects = list(eta_targets)
    targets = np.array(list(eta_targets.values()), dtype=np.float64)
    theta[effects] = targets
    # warm start: the sub-margins' own coefficients, margin by margin
    for ps, (at, idx) in zip(sub_p, picks):
        theta[cov[at]] = (fwht(np.log(ps)) / ps.size)[idx]
    if len(sub_p) <= 1:
        # closed form: one scaling by p_S / q_S, a function of x_S, matches
        # a lone sub-margin S and keeps every coefficient outside S
        with np.errstate(over="ignore", invalid="ignore"):
            w = weights(theta)[0]
        q, r = w / w.sum(), np.zeros(0)
        for ps, c in zip(sub_p, cells):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                q = q * (ps / np.bincount(c, q, minlength=ps.size))[c]
                r = np.log(ps / np.bincount(c, q, minlength=ps.size))
        return _checked(q, r, effects, targets)

    # target moments and overlap check, margin by margin
    mu_star = np.zeros(len(cov))
    seen = np.zeros(len(cov), dtype=bool)
    for ps, (at, idx) in zip(sub_p, picks):
        mu_sub = fwht(ps)[idx]
        clash = float(np.max(np.abs(mu_star[at] - mu_sub)[seen[at]], initial=0.0))
        if clash > 1e-9:
            raise SolverError(
                INCONSISTENT_MARGINS,
                f"given margins disagree on a shared moment by {clash:.3e}",
            )
        mu_star[at] = mu_sub
        seen[at] = True

    p_all = np.concatenate(sub_p or [np.zeros(0)])

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
    fitted = _stratum_fit(q, m, sub_masks, cells, sub_p)
    if fitted is None:
        fitted = _proportional_fit(q, cells, sub_p)
    if fitted is not None:
        theta[cov] = (fwht(np.log(fitted)) / size)[cov]
        q, qs, r, f = state(theta)
    polish = False
    chars = None
    # most solves that converge take 2-25 steps, but some on skewed tables
    # crawl: the full solve of the cyclic probe's CYCLE_FOUR draw 178 (alpha
    # 0.02) takes 524; that probe fails 70 draws at a cap of 200, 59 at 800
    # and at 1 000
    for _ in range(1000):
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

    return _checked(q, r, effects, targets)


def _checked(q: np.ndarray, r: np.ndarray, effects: list[int],
             targets: np.ndarray) -> np.ndarray:
    """The normalised table q, once its log margin ratios ``r``, its
    coefficients of ``effects`` and its smallest cell pass the checks that
    :func:`reconstruct_mixed` documents."""
    # written so that a NaN fails: a cell underflowed to 0 makes log(q) -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        miss = float(np.max(np.abs(r), initial=0.0))
        if not miss <= MARGIN_RTOL:
            raise SolverError(
                NON_CONVERGENCE,
                f"relative margin mismatch {miss:.3e} after reconstruction",
            )
        theta_check = fwht(np.log(q)) / q.size
        if not (np.abs(theta_check[effects] - targets) <= 1e-10).all():
            raise SolverError(
                NON_CONVERGENCE, "coefficient targets missed after reconstruction"
            )
    p = q / q.sum()
    if p.min() < POSITIVITY_FLOOR:
        raise InvalidTableError(
            f"table entries must be >= {POSITIVITY_FLOOR}; "
            f"smallest is {float(p.min()):.3e}"
        )
    return p
