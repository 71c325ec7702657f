"""Bit-indexed probability tables over binary variables.

Conventions used throughout the package
---------------------------------------

* A set of binary variables is an ordered tuple of distinct string labels.
  The *first listed* variable sits at bit 0 (least significant), the second
  at bit 1, and so on.  Subsets of variables are plain Python ints used as
  bitmasks over those positions.

* A joint table over n variables is a vector of 2**n strictly positive
  probabilities.  The cell holding the outcome x is indexed by
  ``sum(x_v << pos(v))``, i.e. variable v contributes its value at its bit.

* Log-linear parameters use natural logarithms.  For a nonempty subset L,

      eta_L = 2**-n * sum_x (-1)**|x & L| * log p(x),

  where ``|m|`` counts one-bits.  The empty-set coefficient is never stored;
  it is the normalising constant and is recovered from the sum-to-one
  condition when a table is rebuilt.

* Tables must be strictly positive.  Entries below ``POSITIVITY_FLOOR`` are
  rejected rather than regularised, and entries must sum to one within
  ``SUM_TOL``.

All types are immutable values; all operations are pure functions and safe
to call concurrently.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DIVERGENCE, InvalidTableError, SolverError

POSITIVITY_FLOOR = 1e-15
SUM_TOL = 1e-12
MAX_VARS = 16


# ---------------------------------------------------------------------------
# Subset-lattice bit algebra
# ---------------------------------------------------------------------------

def popcount(mask: int) -> int:
    return mask.bit_count()


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` in increasing numeric order, including 0."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def nonempty_submasks(mask: int) -> Iterator[int]:
    return (s for s in submasks(mask) if s)


def bit_positions(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def compress(cell: int, mask: int) -> int:
    """Pack the bits of ``cell`` at the positions of ``mask`` into a dense
    index (ascending bit order): each set bit of ``cell & mask`` goes to
    the count of ``mask``'s bits below it."""
    out = 0
    cell &= mask
    while cell:
        low = cell & -cell
        out |= 1 << (mask & (low - 1)).bit_count()
        cell ^= low
    return out


def _pack_bits(n_bits: int, positions: Iterable[int]) -> np.ndarray:
    """Array c over x in range(2**n_bits) with bit j of c[x] equal to the
    bit of x at ``positions[j]``."""
    x = np.arange(1 << n_bits)
    out = np.zeros(1 << n_bits, dtype=np.int64)
    for j, i in enumerate(positions):
        out |= ((x >> i) & 1) << j
    return out


# A map holds 2**n_bits int64s, 8 kB at n_bits = 10 and 512 kB at MAX_VARS,
# so the bound holds the cache to 1 MB of maps of 10 bits and 64 MB at
# MAX_VARS.  One pass of a benchmark workload at seed 1 reads at most 57
# maps (the inversion routes).
@functools.lru_cache(maxsize=128)
def compress_map(n_bits: int, mask: int) -> np.ndarray:
    """Vectorised :func:`compress`: read-only array c with
    c[x] = compress(x, mask) for all x in range(2**n_bits), built once per
    (n_bits, mask)."""
    out = _pack_bits(n_bits, bit_positions(mask))
    out.flags.writeable = False
    return out


def parity_signs(mask: int, n_cells: int) -> np.ndarray:
    """Vector of (-1)**|x & mask| over x in range(n_cells)."""
    overlap = np.arange(n_cells, dtype=np.uint32) & np.uint32(mask)
    return 1.0 - 2.0 * (np.bitwise_count(overlap).astype(np.float64) % 2.0)


# Below this many cells one product a @ H_n beats the two-factor split: a
# single BLAS call costs less than the saved arithmetic (measured with one
# BLAS thread, x86-64: 1.4-1.6 us against 3.4-5.3 us at 8-64 cells).
_ONE_FACTOR_CELLS = 64


@functools.lru_cache(maxsize=None)
def _hadamard(size: int) -> np.ndarray:
    """Read-only Sylvester matrix H[k, x] = (-1)**|k & x| of order ``size``."""
    x = np.arange(size, dtype=np.uint32)
    h = 1.0 - 2.0 * (np.bitwise_count(x[:, None] & x[None, :]) & 1)
    h.flags.writeable = False
    return h


def fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis, Sylvester ordering.

    Returns b with b[..., k] = sum_x (-1)**|k & x| * a[..., x].  The
    transform is its own inverse up to the factor 2**n.

    Computed as Hadamard matrix products.  With the length n = r * c and
    the cell index x = i * c + j, the sign (-1)**|k & x| splits over the
    high and low bits, so H_n = H_r kron H_c and, row-major,

        fwht(a) = H_r @ a.reshape(..., r, c) @ H_c.

    Up to 64 cells r = 1, one product a @ H_n; above that r and c are the
    balanced powers of two, both at most 256 for the 2**16 cells of
    ``MAX_VARS`` variables.  The matrices are built once per order.  Sums
    add in another order than in a radix-2 butterfly, so the results are
    not bit-identical to one: on standard normal draws of 1 to 2**16 cells
    they differ by at most 1.5e-15 of the largest output.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    if n <= _ONE_FACTOR_CELLS:
        return a @ _hadamard(n)
    r = 1 << ((n.bit_length() - 1) // 2)
    c = n // r
    b = _hadamard(r) @ a.reshape(a.shape[:-1] + (r, c)) @ _hadamard(c)
    return b.reshape(a.shape)


def weights(eta: np.ndarray) -> tuple[np.ndarray, float]:
    """Unnormalised cell weights exp(s - max s) of ``eta``, s = fwht(eta),
    and max s.  Raises DIVERGENCE unless s is finite: max keeps a NaN, so
    a finite max and min mean a finite s.  The transform may overflow, so
    callers run this under ``np.errstate(over="ignore", invalid="ignore")``."""
    s = fwht(eta)
    top = s.max()
    if not (math.isfinite(top) and math.isfinite(s.min())):
        raise SolverError(DIVERGENCE, "log scale overflowed during iteration")
    return np.exp(s - top), float(top)


# ---------------------------------------------------------------------------
# Variable sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarSet:
    """Ordered collection of distinct binary-variable labels, each a string.

    Position k in ``names`` corresponds to bit k in every mask used with
    this variable set.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        for s in names:
            if not isinstance(s, str):
                raise InvalidTableError(f"variable names must be strings, got {s!r}")
        object.__setattr__(self, "names", tuple(map(str, names)))
        if not 1 <= len(self.names) <= MAX_VARS:
            raise InvalidTableError(
                f"need between 1 and {MAX_VARS} variables, got {len(self.names)}"
            )
        if len(set(self.names)) != len(self.names):
            raise InvalidTableError(f"duplicate variable names in {self.names}")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def n_cells(self) -> int:
        return 1 << self.n

    def position(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidTableError(
                f"unknown variable {name!r}; have {self.names}"
            ) from None

    def mask_of(self, labels: Iterable[str]) -> int:
        """Mask of a list of names.  A string is refused, not read as its
        characters: the compact form goes through :meth:`mask`.  So is a
        name that is not a string, which no variable set holds."""
        if isinstance(labels, str):
            raise TypeError(f"expected a list of variable names, got {labels!r}")
        m = 0
        for s in labels:
            if not isinstance(s, str):
                raise TypeError(f"variable names must be strings, got {s!r}")
            m |= 1 << self.position(s)
        return m

    def mask(self, compact: str) -> int:
        """Mask from a compact string of single-character labels, e.g. "13"."""
        return self.mask_of(tuple(compact))

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in bit_positions(mask))

    def restrict(self, mask: int) -> "VarSet":
        """Variable set for a marginal table over ``mask`` (order preserved)."""
        if mask == 0:
            raise InvalidTableError("cannot restrict to the empty variable set")
        return VarSet(self.names_of(mask))


def float_array(values, error: type[Exception]) -> np.ndarray:
    """``values`` read from outside input as float64; raises ``error`` when
    they are not numbers."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise error(f"values must be numbers: {exc}") from None


# ---------------------------------------------------------------------------
# Joint tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointTable:
    """Strictly positive joint distribution over binary variables."""

    vars: VarSet
    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64)
        if p.shape != (self.vars.n_cells,):
            raise InvalidTableError(
                f"table over {self.vars.n} variables needs {self.vars.n_cells} "
                f"cells, got shape {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise InvalidTableError("table contains non-finite entries")
        if np.any(p < POSITIVITY_FLOOR):
            raise InvalidTableError(
                f"table entries must be >= {POSITIVITY_FLOOR}; "
                f"smallest is {float(p.min()):.3e}"
            )
        if abs(float(p.sum()) - 1.0) > SUM_TOL:
            raise InvalidTableError(
                f"table entries must sum to 1 within {SUM_TOL}; "
                f"sum is {float(p.sum()):.17g}"
            )
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.vars.n

    @property
    def min_cell(self) -> float:
        return float(self.p.min())

    def log_p(self) -> np.ndarray:
        return np.log(self.p)

    def to_json(self) -> str:
        return json.dumps(
            {"variables": list(self.vars.names), "p": [float(x) for x in self.p]}
        )

    @staticmethod
    def from_json(text: str) -> "JointTable":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidTableError(f"invalid table JSON: {exc}") from exc
        if not (isinstance(obj, dict) and isinstance(obj.get("variables"), list)
                and "p" in obj):
            raise InvalidTableError('table JSON needs a "variables" list and "p"')
        vs = VarSet(tuple(obj["variables"]))
        p = float_array(obj["p"], InvalidTableError)
        if p.shape != (vs.n_cells,):
            raise InvalidTableError(
                f'"p" must have length {vs.n_cells} for {vs.n} variables, '
                f"got {p.size}"
            )
        return JointTable(vs, p)


def table_from_probs(vars: VarSet, probs: Iterable[float]) -> JointTable:
    return JointTable(vars, np.asarray(list(probs), dtype=np.float64))


def uniform_table(vars: VarSet) -> JointTable:
    return JointTable(vars, np.full(vars.n_cells, 1.0 / vars.n_cells))


def random_table(vars: VarSet, rng: np.random.Generator) -> JointTable:
    """Dirichlet(1,...,1) draw from the open simplex."""
    while True:
        p = rng.dirichlet(np.ones(vars.n_cells))
        if p.min() >= POSITIVITY_FLOOR:
            return JointTable(vars, p)


# ---------------------------------------------------------------------------
# Log-linear coefficient vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaVector:
    """Log-linear coefficients eta_L for every nonempty subset L.

    ``values`` has length 2**n indexed by subset mask; index 0 is fixed at
    0.0 and is not a parameter (the normalising constant is implicit).
    """

    vars: VarSet
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.vars.n_cells,):
            raise InvalidTableError(
                f"eta vector needs {self.vars.n_cells} slots, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidTableError("eta vector contains non-finite entries")
        v = v.copy()
        v[0] = 0.0
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def value(self, effect: int) -> float:
        if effect == 0:
            raise InvalidTableError("the empty effect is not a parameter")
        return float(self.values[effect])


def eta_from_dict(vars: VarSet, entries: Mapping[int, float]) -> EtaVector:
    v = np.zeros(vars.n_cells)
    for mask, value in entries.items():
        if not 0 < mask < vars.n_cells:
            raise InvalidTableError(f"effect mask {mask} out of range")
        v[mask] = value
    return EtaVector(vars, v)


def eta_from_table(t: JointTable) -> EtaVector:
    """Alternating-sign averages of log probabilities, one per nonempty subset."""
    values = fwht(t.log_p()) / t.vars.n_cells
    return EtaVector(t.vars, values)


def table_from_eta(e: EtaVector) -> JointTable:
    """Inverse of :func:`eta_from_table`: the :func:`weights` of the
    coefficients, normalised to sum to one (:func:`table_cells`)."""
    return JointTable(e.vars, table_cells(e.values))


def table_cells(eta: np.ndarray) -> np.ndarray:
    """The cells of the table whose coefficients are the array ``eta``:
    its :func:`weights`, normalised to sum to one.

    Raises :class:`InvalidTableError` if the coefficients are so large that
    the log scale overflows or a cell falls below the positivity floor; the
    failure is reported, never silently clamped.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            w = weights(eta)[0]
    except SolverError:
        raise InvalidTableError("log-probability scale overflowed; eta too large") from None
    p = w / w.sum()
    if p.min() < POSITIVITY_FLOOR:
        raise InvalidTableError(
            f"eta vector implies a cell below the positivity floor "
            f"({float(p.min()):.3e} < {POSITIVITY_FLOOR})"
        )
    return p


# ---------------------------------------------------------------------------
# Marginals and conditionals
# ---------------------------------------------------------------------------

def marginal_array(p: np.ndarray, n: int, mask: int) -> np.ndarray:
    """Marginal of a 2**n cell vector onto the variables in ``mask``.

    Returned vector is indexed by the compressed cell index of ``mask``.
    Trailing axes of ``p`` (columns of a 2**n-row array) are kept.
    """
    p = np.asarray(p, dtype=np.float64)
    if mask == (1 << n) - 1:
        return p.copy()
    cube = p.reshape((2,) * n + p.shape[1:])
    # C-order reshape puts bit k on axis n-1-k.
    drop_axes = tuple(n - 1 - k for k in range(n) if not (mask >> k) & 1)
    return cube.sum(axis=drop_axes).reshape((-1,) + p.shape[1:])


def marginalize(t: JointTable, mask: int) -> JointTable:
    """Marginal table over the nonempty subset ``mask``."""
    if mask == 0:
        raise InvalidTableError("cannot marginalise onto the empty set")
    if mask & ~t.vars.full_mask:
        raise InvalidTableError("margin mask uses unknown variables")
    if mask == t.vars.full_mask:
        return t
    q = marginal_array(t.p, t.n, mask)
    return JointTable(t.vars.restrict(mask), q / q.sum())


@dataclass(frozen=True)
class ConditionalTable:
    """Conditional distribution p(target | given) with positive entries.

    ``values`` has shape (2**|target|, 2**|given|); each column (fixed
    conditioning assignment) sums to one.  Rows and columns are indexed by
    compressed cell indices in the ascending-bit order of the listed names.
    """

    target: tuple[str, ...]
    given: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "given", tuple(self.given))
        if not self.target:
            raise InvalidTableError("conditional needs a nonempty target")
        names = self.target + self.given
        for s in names:
            if not isinstance(s, str):
                raise InvalidTableError(f"variable names must be strings, got {s!r}")
        if len(set(names)) != len(names):
            raise InvalidTableError("target and given list each variable once")
        v = np.asarray(self.values, dtype=np.float64)
        want = (1 << len(self.target), 1 << len(self.given))
        if v.shape != want:
            raise InvalidTableError(f"conditional values must have shape {want}")
        if np.any(v < POSITIVITY_FLOOR) or not np.all(np.isfinite(v)):
            raise InvalidTableError("conditional entries must be positive")
        if np.max(np.abs(v.sum(axis=0) - 1.0)) > SUM_TOL:
            raise InvalidTableError(
                "each conditioning column must sum to 1 within "
                f"{SUM_TOL}"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def to_json_obj(self) -> dict:
        return {
            "target": list(self.target),
            "given": list(self.given),
            "values": [[float(x) for x in row] for row in self.values],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "ConditionalTable":
        if not (isinstance(obj, dict) and isinstance(obj.get("target"), list)
                and isinstance(obj.get("given", []), list) and "values" in obj):
            raise InvalidTableError(
                'a conditional needs "target" and "given" lists and "values"'
            )
        return ConditionalTable(
            tuple(obj["target"]), tuple(obj.get("given", [])),
            float_array(obj["values"], InvalidTableError),
        )


def condition(t: JointTable, target_mask: int, given_mask: int) -> ConditionalTable:
    """Conditional p(x_target | x_given) from a joint table.

    ``target_mask`` and ``given_mask`` must be disjoint; the conditioning
    set may be empty, in which case the result is the plain marginal laid
    out as a single column.
    """
    if target_mask == 0:
        raise InvalidTableError("conditional needs a nonempty target")
    if target_mask & given_mask:
        raise InvalidTableError("target and given sets overlap")
    both = target_mask | given_mask
    tb = marginalize(t, both)
    sub = tb.vars  # variables of `both`, in original order
    t_in = sub.mask_of(t.vars.names_of(target_mask))
    g_in = sub.mask_of(t.vars.names_of(given_mask))
    rows = compress_map(sub.n, t_in)
    cols = compress_map(sub.n, g_in)
    values = np.zeros((1 << popcount(target_mask), 1 << popcount(given_mask)))
    values[rows, cols] = tb.p
    values /= values.sum(axis=0, keepdims=True)
    return ConditionalTable(
        t.vars.names_of(target_mask), t.vars.names_of(given_mask), values
    )


def packed_indices(vars: VarSet, names: tuple[str, ...]) -> np.ndarray:
    """For every cell x of ``vars``, the index obtained by packing the bits
    of the listed ``names`` (in list order: first name at bit 0)."""
    return _pack_bits(vars.n, [vars.position(nm) for nm in names])
