"""Brute-force reference implementations used to check the fast paths.

Everything here works cell by cell, subset by subset, with explicit Python
loops and no transforms, deliberately sharing no code with the package
internals; :func:`brute_jacobian` alone reads the package's derivative
kernel, so that the fast Jacobian can be held to it bit for bit, and
:func:`brute_fwht` sums each output's signed cells with NumPy, so that
lengths up to 2**12 stay cheap.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mllp.mll import MLLSpec, lambda_array, margin_kernel_array
from mllp.tables import EtaVector, JointTable, table_from_eta


def popcount(x: int) -> int:
    return bin(x).count("1")


def sign(effect: int, cell: int) -> float:
    return -1.0 if popcount(effect & cell) % 2 else 1.0


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


def _subsets(mask: int) -> list[int]:
    """Nonempty subsets of ``mask``, by scanning every smaller integer."""
    return [k for k in range(1, mask + 1) if k & ~mask == 0]


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
