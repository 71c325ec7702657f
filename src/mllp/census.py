"""Enumeration, canonical forms and the census of complete collections.

A complete collection (Bergsma & Rudas, Ann. Statist. 30, 2002) on n
variables places each nonempty effect in one margin that contains it.
Relabeling the variables permutes such collections, and a relabeled
collection is smooth exactly when the original is, so the census
classifies one representative per orbit: :func:`enumerate_complete`
materialises them for n <= 3, :func:`burnside_orbit_count` counts them
for larger n, and :func:`census` classifies each with
:func:`mllp.classify.classify`.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

import numpy as np

from .classify import CONTRACTION_RULE, MOVABLE_RULES, PROVEN_SMOOTH, classify
from .errors import SpecError
from .mll import MLLSpec, Pair
from .tables import VarSet, bit_positions, popcount


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    out = 0
    for b in bit_positions(mask):
        out |= 1 << perm[b]
    return out


# canonical_form tries every relabeling of up to this many variables (a
# 120 x 32 table at five) and only the identity above, where the class of a
# collection is the labelled collection itself.  Five is the largest
# variable count of the measured AUTO inversions; at six the 720
# relabelings cost about 1.65 ms a call, which no measured traffic repays.
RELABEL_MAX_VARS = 5


@functools.lru_cache(maxsize=None)
def _relabelings(n: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The relabelings canonical_form tries, in ``itertools.permutations``
    order, and the image of every mask under each: row k, column mask."""
    if n <= RELABEL_MAX_VARS:
        perms = list(itertools.permutations(range(n)))
    else:
        perms = [tuple(range(n))]
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    table = (bits @ (1 << np.array(perms, dtype=np.int64)).T).T
    table.flags.writeable = False
    return perms, table


def canonical_form(
    pairs: Iterable[Pair], n: int
) -> tuple[tuple[Pair, ...], tuple[int, ...]]:
    """Minimum over variable relabelings of the sorted (margin, effect)
    encoding, and the first relabeling, in ``itertools.permutations`` order,
    that reaches it: bit b goes to bit perm[b].  Equal canonical forms mean
    the specs differ by a relabeling (up to :data:`RELABEL_MAX_VARS`
    variables).

    Each pair is encoded as margin * 2**n + effect, so integer order is
    (margin, effect) order; every relabeling's row is gathered from the
    mask table, sorted, and the lexicographically smallest row is taken
    (a stable sort, so ties go to the first relabeling)."""
    perms, table = _relabelings(n)
    effects, margins = np.array(tuple(pairs), dtype=np.int64).reshape(-1, 2).T
    enc = np.sort(table[:, margins] << n | table[:, effects], axis=1)
    best = int(np.lexsort(enc.T[::-1])[0])
    full = (1 << n) - 1
    form = tuple((c & full, c >> n) for c in enc[best].tolist())
    return form, perms[best]


def labeled_complete_count(n: int) -> int:
    """Number of complete collections with labelled variables: every effect
    independently picks one of its 2**(n-|L|) superset margins."""
    exponent = sum(n - popcount(L) for L in range(1, 1 << n))
    return 1 << exponent


def _perm_fixed_count(n: int, perm: Sequence[int]) -> int:
    """Complete collections fixed by a relabeling: each effect orbit picks a
    superset margin fixed by the orbit-length power of the permutation."""
    full = (1 << n) - 1
    seen: set[int] = set()
    count = 1
    for L in range(1, full + 1):
        if L in seen:
            continue
        orbit = [L]
        cur = permute_mask(L, perm)
        while cur != L:
            orbit.append(cur)
            cur = permute_mask(cur, perm)
        seen.update(orbit)
        power = list(range(n))
        for _ in range(len(orbit)):
            power = [perm[b] for b in power]
        choices = 0
        for M in range(1, full + 1):
            if (L & ~M) == 0 and permute_mask(M, power) == M:
                choices += 1
        count *= choices
    return count


def burnside_orbit_count(n: int) -> int:
    perms = list(itertools.permutations(range(n)))
    total = sum(_perm_fixed_count(n, perm) for perm in perms)
    assert total % len(perms) == 0
    return total // len(perms)


def enumerate_complete(n: int, up_to_symmetry: bool = False) -> list[MLLSpec]:
    """Materialise complete collections on n variables (n <= 3), optionally
    one representative per relabeling orbit.  Use the counting helpers for
    larger n."""
    if n > 3:
        raise SpecError(
            "materialised enumeration is limited to 3 variables; "
            "use labeled_complete_count / burnside_orbit_count for counts"
        )
    vs = VarSet(tuple(str(i + 1) for i in range(n)))
    full = vs.full_mask
    effects = list(range(1, full + 1))
    superset_choices = [
        [M for M in range(1, full + 1) if (L & ~M) == 0] for L in effects
    ]
    specs = []
    seen_keys = set()
    for assignment in itertools.product(*superset_choices):
        pairs = tuple(zip(effects, assignment))
        if up_to_symmetry:
            key = canonical_form(pairs, n)[0]
            if key in seen_keys:
                continue
            seen_keys.add(key)
            specs.append(MLLSpec(vs, key))
        else:
            specs.append(MLLSpec(vs, pairs))
    return specs


def census(n: int = 3) -> dict:
    """Classify every complete collection on n variables up to relabeling
    and tabulate verdicts and first rules.  Only n = 3 is supported."""
    if n != 3:
        raise SpecError("the census is defined for exactly 3 variables")
    reps = enumerate_complete(n, up_to_symmetry=True)
    rows = []
    first_rule_counts: dict[str, int] = {}
    proven_hard = 0
    proven_total = 0
    unknown = 0
    for idx, spec in enumerate(reps):
        report = classify(spec)
        first = report.first_rule or "none"
        if report.verdict == PROVEN_SMOOTH:
            proven_total += 1
            if first != CONTRACTION_RULE:
                proven_hard += 1
        else:
            unknown += 1
        first_rule_counts[first] = first_rule_counts.get(first, 0) + 1
        rows.append(
            {
                "orbit": idx,
                "spec": spec.to_text().replace("\n", "; ").strip("; "),
                "margins": len(spec.margins),
                "verdict": report.verdict,
                "first_rule": first,
                "chain": [s.describe() for s in report.rule_chain],
            }
        )
    return {
        "variables": n,
        "labeled_complete": labeled_complete_count(n),
        "complete_orbits": len(reps),
        "burnside_orbits": burnside_orbit_count(n),
        "hierarchical_orbits": first_rule_counts.get("hierarchical", 0),
        "two_margin_extra": first_rule_counts.get("two_margin", 0),
        **{f"{r}_first": first_rule_counts.get(r, 0) for r in MOVABLE_RULES},
        "contraction_first": first_rule_counts.get(CONTRACTION_RULE, 0),
        "proven_smooth_hard": proven_hard,
        "proven_smooth_total": proven_total,
        "unknown_orbits": unknown,
        "rows": rows,
    }
