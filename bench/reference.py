"""NumPy-only reference formulas the benchmark checks outputs against.

These restate the definitions (marginal tables, the Walsh-Hadamard
transform, log-linear coefficients within a margin, conditional
independence) without using ``mllp``, so a defect in the program cannot
hide in its own checker.
"""

from __future__ import annotations

import numpy as np


def hadamard(a: np.ndarray) -> np.ndarray:
    """b[k] = sum_x (-1)**popcount(k & x) * a[x] along the last axis."""
    a = np.array(a, dtype=np.float64)
    size = a.shape[-1]
    h = 1
    while h < size:
        view = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        top = view[..., 0, :] + view[..., 1, :]
        bot = view[..., 0, :] - view[..., 1, :]
        view[..., 0, :] = top
        view[..., 1, :] = bot
        h *= 2
    return a


def _cube(p: np.ndarray, n: int) -> np.ndarray:
    # C-order reshape puts bit k of the cell index on axis n-1-k.
    return np.asarray(p, dtype=np.float64).reshape((2,) * n)


def marginal(p: np.ndarray, n: int, mask: int) -> np.ndarray:
    """Marginal over the variables in ``mask``, indexed by the packed
    cell index of ``mask``."""
    drop = tuple(n - 1 - k for k in range(n) if not mask >> k & 1)
    return _cube(p, n).sum(axis=drop).reshape(-1)


def packed(effect: int, margin: int) -> int:
    """Index of ``effect`` among the bits of ``margin``."""
    out, j = 0, 0
    for k in range(margin.bit_length()):
        if margin >> k & 1:
            if effect >> k & 1:
                out |= 1 << j
            j += 1
    return out


def lambdas(p: np.ndarray, n: int, pairs) -> np.ndarray:
    """lam(L, M) = 2**-|M| sum_x (-1)**|x & L| log p_M(x) for every pair."""
    coef: dict[int, np.ndarray] = {}
    out = np.empty(len(pairs))
    for i, (effect, margin) in enumerate(pairs):
        if margin not in coef:
            pm = marginal(p, n, margin)
            coef[margin] = hadamard(np.log(pm / pm.sum())) / pm.size
        out[i] = coef[margin][packed(effect, margin)]
    return out


def eta(p: np.ndarray) -> np.ndarray:
    """Log-linear coefficients of the full table (entry 0 is the constant)."""
    return hadamard(np.log(p)) / p.size


def probs(eta_vec: np.ndarray) -> np.ndarray:
    logp = hadamard(eta_vec)
    q = np.exp(logp - logp.max())
    return q / q.sum()


def directional_derivative(p, n, pairs, direction, step=1e-5) -> np.ndarray:
    """Central difference of the parameter map along ``direction`` in the
    coefficients of the nonempty effects (mask order 1 .. 2**n - 1)."""
    e = eta(p)
    d = np.concatenate(([0.0], direction))
    plus = lambdas(probs(e + step * d), n, pairs)
    minus = lambdas(probs(e - step * d), n, pairs)
    return (plus - minus) / (2 * step)


def ci_gap(p: np.ndarray, n: int, a: int, b: int, c: int) -> float:
    """max |p(ab|c) - p(a|c) p(b|c)| over cells, masks a, b, c disjoint."""
    cube = _cube(p, n)

    def keep(mask: int) -> np.ndarray:
        drop = tuple(n - 1 - k for k in range(n) if not mask >> k & 1)
        return cube.sum(axis=drop, keepdims=True)

    pc = keep(c)
    return float(
        np.max(np.abs(keep(a | b | c) / pc - keep(a | c) * keep(b | c) / pc**2))
    )
