"""Seeded inputs for the benchmark workloads.

Everything here is plain data: a collection is a tuple of
``(effect mask, margin mask)`` pairs over variables ``"1".."n"`` (the
first variable is bit 0), and a table is a NumPy vector of ``2**n``
strictly positive probabilities.  Nothing here imports ``mllp``, so a
parent commit and a change receive identical inputs from the same seed.

Two kinds of collections are used:

* random ones, drawn by :func:`few_margin_collection` and
  :func:`wide_margin_collection` without looking at any verdict;
* frozen lists, written out once as spec text: the 3-variable census
  orbits split by the verdict mllp 0.1.0 gives them, and a sample of
  proven-smooth 4- and 5-variable collections, one block per route
  family.  Freezing them keeps the inputs fixed when a later change moves
  an orbit from one bucket to another.

The collection sample of the classification sweep is drawn from the fixed
:data:`SAMPLE_SEED`, so every run classifies the same collections (and
meets the same known failures) and the run seed only orders them.  In the
other workloads the run seed relabels the variables of each collection,
draws every table and orders the operations.
"""

from __future__ import annotations

import numpy as np

Pairs = tuple[tuple[int, int], ...]

SAMPLE_SEED = 1406
POSITIVITY_FLOOR = 1e-15

# Collection whose classification recursed without bound in mllp 0.1.0.
RECURSION_REPRO = "3: 3; 34: 4; 14: 1 14"

OPEN_FOUR_MARGIN = "12: 1 2; 13: 3 13; 23: 23; 123: 12 123"
TWO_ANCHOR_CYCLE = (
    "14: 1 4 14; 23: 2 3 23; 123: 12 123; 124: 24 124; 134: 13 134; "
    "234: 34 234; 1234: 1234"
)

# Conditional-independence models, with the half-width of the uniform draw
# of free values that keeps members inside the model's parameter domain
# (the acceptance suite's ranges, except that the three-statement model
# draws from +-0.3: at +-0.4, 3 of 2000 draws pinned margins that no joint
# table carries, and every solver stalled at a residual near 5e-3).
# ``embedding`` names a fixed complete embedding; None means the model's
# own constructed embedding.
# ``draws`` is the number of members per pass: the five-variable members
# are many so that the tail percentile of the fallback workload falls in a
# dense band of operations rather than on one or two outliers.
CI_MODELS = {
    "ci_loop_three": {
        "n": 4,
        "statements": ("1 _||_ 2 | 3", "1 _||_ 3 | 4", "1 _||_ 4 | 2"),
        "half_width": 0.3,
        "embedding": None,
        "draws": 12,
    },
    "ci_loop_four": {
        "n": 4,
        "statements": (
            "1 _||_ 2 | 3", "2 _||_ 4 | 1", "1 _||_ 3 | 4", "3 _||_ 4 | 2",
        ),
        "half_width": 0.6,
        "embedding": TWO_ANCHOR_CYCLE,
        "draws": 12,
    },
    "ci_five_var": {
        "n": 5,
        "statements": (
            "1 _||_ 2 | 3", "1 _||_ 5 | 2", "1 _||_ 3 | 4", "3 _||_ 5 | 1",
            "3 _||_ 4 | 2,5",
        ),
        "half_width": 0.3,
        "embedding": None,
        "draws": 30,
    },
}

# 3-variable census orbits mllp 0.1.0 proves smooth (61), one per line.
SMOOTH_ORBITS_N3 = """
1: 1; 2: 2; 12: 12; 3: 3; 13: 13; 23: 23; 123: 123  # hierarchical
1: 1; 2: 2; 12: 12; 3: 3; 13: 13; 123: 23 123  # hierarchical
1: 1; 2: 2; 12: 12; 3: 3; 123: 13 23 123  # hierarchical
1: 1; 2: 2; 12: 12; 13: 3 13; 23: 23; 123: 123  # hierarchical
1: 1; 2: 2; 12: 12; 13: 3 13; 123: 23 123  # hierarchical
1: 1; 2: 2; 12: 12; 123: 3 13 23 123  # hierarchical
1: 1; 2: 2; 3: 3; 123: 12 13 23 123  # hierarchical
1: 1; 2: 2; 13: 3 13; 23: 23; 123: 12 123  # hierarchical
1: 1; 2: 2; 13: 3 13; 123: 12 23 123  # hierarchical
1: 1; 2: 2; 123: 12 3 13 23 123  # hierarchical
1: 1; 12: 2 12; 13: 3 13; 23: 23; 123: 123  # hierarchical
1: 1; 12: 2 12; 13: 3 13; 123: 23 123  # hierarchical
1: 1; 12: 2 12; 13: 3; 123: 13 23 123  # three_margin
1: 1; 12: 2 12; 13: 13; 23: 3 23; 123: 123  # hierarchical
1: 1; 12: 2 12; 23: 3 23; 123: 13 123  # hierarchical
1: 1; 12: 2 12; 23: 3; 123: 13 23 123  # three_margin
1: 1; 12: 2 12; 13: 13; 123: 3 23 123  # three_margin
1: 1; 12: 2 12; 23: 23; 123: 3 13 123  # three_margin
1: 1; 12: 2 12; 123: 3 13 23 123  # hierarchical
1: 1; 12: 2; 13: 3; 123: 12 13 23 123  # contraction_reduce
1: 1; 12: 2; 13: 13; 123: 12 3 23 123  # contraction_reduce
1: 1; 12: 2; 123: 12 3 13 23 123  # variable_removal
1: 1; 12: 12; 13: 13; 23: 2 3 23; 123: 123  # hierarchical
1: 1; 12: 12; 23: 2 3 23; 123: 13 123  # hierarchical
1: 1; 12: 12; 23: 2; 123: 3 13 23 123  # three_margin
1: 1; 23: 2 3 23; 123: 12 13 123  # hierarchical
1: 1; 23: 2 3; 123: 12 13 23 123  # three_margin
1: 1; 23: 2 23; 123: 12 3 13 123  # three_margin
1: 1; 23: 2; 123: 12 3 13 23 123  # three_margin
1: 1; 12: 12; 13: 13; 123: 2 3 23 123  # contraction_reduce
1: 1; 12: 12; 123: 2 3 13 23 123  # variable_removal
1: 1; 23: 23; 123: 2 12 3 13 123  # three_margin
1: 1; 123: 2 12 3 13 23 123  # hierarchical
12: 1 2 12; 13: 3 13; 23: 23; 123: 123  # hierarchical
12: 1 2 12; 13: 3 13; 123: 23 123  # hierarchical
12: 1 2 12; 13: 3; 123: 13 23 123  # three_margin
12: 1 2 12; 13: 13; 123: 3 23 123  # three_margin
12: 1 2 12; 123: 3 13 23 123  # hierarchical
12: 1 2; 13: 3 13; 123: 12 23 123  # three_margin
12: 1 2; 13: 3; 123: 12 13 23 123  # three_margin
12: 1 2; 13: 13; 123: 12 3 23 123  # three_margin
12: 1 2; 123: 12 3 13 23 123  # two_margin
12: 1 12; 13: 3 13; 23: 2 23; 123: 123  # cyclic
12: 1 12; 13: 3 13; 123: 2 23 123  # three_margin
12: 1 12; 23: 2; 123: 3 13 23 123  # variable_removal
12: 1; 13: 3; 23: 2; 123: 12 13 23 123  # single_feedback
12: 1 12; 13: 3; 123: 2 13 23 123  # three_margin
12: 1; 13: 3; 123: 2 12 13 23 123  # variable_removal
12: 1 12; 23: 3 23; 123: 2 13 123  # slice_split
12: 1 12; 23: 3; 123: 2 13 23 123  # three_margin
12: 1 12; 13: 13; 123: 2 3 23 123  # three_margin
12: 1 12; 23: 23; 123: 2 3 13 123  # three_margin
12: 1 12; 123: 2 3 13 23 123  # two_margin
12: 1; 13: 13; 23: 3; 123: 2 12 23 123  # three_margin
12: 1; 23: 3; 123: 2 12 13 23 123  # three_margin
12: 1; 13: 13; 123: 2 12 3 23 123  # variable_removal
12: 1; 23: 23; 123: 2 12 3 13 123  # three_margin
12: 1; 123: 2 12 3 13 23 123  # two_margin
12: 12; 13: 13; 123: 1 2 3 23 123  # three_margin
12: 12; 123: 1 2 3 13 23 123  # two_margin
123: 1 2 12 3 13 23 123  # hierarchical
"""

# 3-variable census orbits mllp 0.1.0 leaves undecided (43).
UNDECIDED_ORBITS_N3 = """
1: 1; 2: 2; 12: 12; 13: 3; 23: 23; 123: 13 123
1: 1; 2: 2; 12: 12; 13: 3; 123: 13 23 123
1: 1; 2: 2; 12: 12; 13: 13; 23: 23; 123: 3 123
1: 1; 2: 2; 12: 12; 13: 13; 123: 3 23 123
1: 1; 2: 2; 13: 3; 23: 23; 123: 12 13 123
1: 1; 2: 2; 13: 3; 123: 12 13 23 123
1: 1; 2: 2; 13: 13; 23: 23; 123: 12 3 123
1: 1; 2: 2; 13: 13; 123: 12 3 23 123
1: 1; 12: 2 12; 13: 3; 23: 23; 123: 13 123
1: 1; 12: 2 12; 13: 13; 23: 3; 123: 23 123
1: 1; 12: 2 12; 13: 13; 23: 23; 123: 3 123
1: 1; 12: 2; 13: 3; 23: 23; 123: 12 13 123
1: 1; 12: 2; 13: 13; 23: 3 23; 123: 12 123
1: 1; 12: 2; 13: 13; 23: 3; 123: 12 23 123
1: 1; 12: 2; 23: 3 23; 123: 12 13 123
1: 1; 12: 2; 23: 3; 123: 12 13 23 123
1: 1; 12: 2; 13: 13; 23: 23; 123: 12 3 123
1: 1; 12: 2; 23: 23; 123: 12 3 13 123
1: 1; 12: 12; 13: 13; 23: 2 3; 123: 23 123
1: 1; 12: 12; 23: 2 3; 123: 13 23 123
1: 1; 12: 12; 13: 13; 23: 2 23; 123: 3 123
1: 1; 12: 12; 13: 13; 23: 2; 123: 3 23 123
1: 1; 12: 12; 23: 2 23; 123: 3 13 123
1: 1; 12: 12; 23: 3 23; 123: 2 13 123
1: 1; 12: 12; 23: 3; 123: 2 13 23 123
1: 1; 12: 12; 13: 13; 23: 23; 123: 2 3 123
1: 1; 12: 12; 23: 23; 123: 2 3 13 123
12: 1 2 12; 13: 3; 23: 23; 123: 13 123
12: 1 2 12; 13: 13; 23: 23; 123: 3 123
12: 1 2; 13: 3 13; 23: 23; 123: 12 123
12: 1 2; 13: 3; 23: 23; 123: 12 13 123
12: 1 2; 13: 13; 23: 23; 123: 12 3 123
12: 1 12; 13: 3 13; 23: 2; 123: 23 123
12: 1 12; 13: 3; 23: 2; 123: 13 23 123
12: 1 12; 13: 3 13; 23: 23; 123: 2 123
12: 1 12; 13: 13; 23: 2; 123: 3 23 123
12: 1 12; 13: 3; 23: 23; 123: 2 13 123
12: 1; 13: 3; 23: 23; 123: 2 12 13 123
12: 1 12; 13: 13; 23: 3 23; 123: 2 123
12: 1 12; 13: 13; 23: 3; 123: 2 23 123
12: 1 12; 13: 13; 23: 23; 123: 2 3 123
12: 1; 13: 13; 23: 23; 123: 2 12 3 123
12: 12; 13: 13; 23: 23; 123: 1 2 3 123
"""

# Proven-smooth 4- and 5-variable collections: draws of few_margin_collection
# from SAMPLE_SEED + 1 (400 at n=4, 150 at n=5), keeping the first two of
# each rule chain mllp 0.1.0 proves them by (the chain follows the #).
SMOOTH_ROUTES_N45 = """
134: 1 14 134; 234: 2 24 234; 1234: 12 3 13 23 123 124 34 1234; 34: 4  # contraction_reduce>two_margin
14: 1; 123: 2 12 23; 1234: 3 13 123 4 24 124 134 234 1234; 134: 14 34  # contraction_reduce>two_margin
1: 1; 124: 2 4 24 124; 1234: 12 23 123 234 1234; 134: 3 13 14 34 134  # contraction_reduce>variable_removal>hierarchical
1: 1; 124: 2 12 4 124; 123: 3 13 23; 1234: 123 14 24 34 134 234 1234  # contraction_reduce>variable_removal>hierarchical
1234: 1 12 23 14 24 124 134 234 1234; 123: 2 13 123; 34: 3; 234: 4 34  # contraction_reduce>variable_removal>two_margin
1234: 1 2 12 13 23 123 14 24 124 134 234 1234; 3: 3; 34: 4 34  # hierarchical
1234: 1 12 13 23 123 14 24 124 134 234 1234; 2: 2; 34: 3 4 34  # hierarchical
1234: 1 2 13 23 123 134 234 1234; 124: 12 14 24 124; 134: 3 4 34  # three_margin
1234: 1 2 13 123 14 124 134 234 1234; 124: 12 24; 234: 3 23 4 34  # three_margin
1234: 1 2 12 13 123 4 14 124 34 134 234 1234; 234: 3 23 24  # two_margin
1234: 1 12 3 13 123 4 14 24 124 34 134 234 1234; 23: 2 23  # two_margin
1234: 1 12 13 23 123 14 24 124 34 134 234 1234; 24: 2; 34: 3; 4: 4  # variable_removal>contraction_reduce>hierarchical
14: 1 4 14; 1234: 2 12 3 13 23 123 24 124 234 1234; 134: 34 134  # variable_removal>hierarchical
1234: 1 12 13 23 123 14 24 124 34 134 1234; 234: 2 4 234; 3: 3  # variable_removal>hierarchical
12: 1; 23: 2 23; 1234: 12 3 13 123 4 14 24 124 34 134 234 1234  # variable_removal>three_margin
1234: 1 2 3 13 23 123 4 14 124 34 134 234 1234; 12: 12; 24: 24  # variable_removal>three_margin
1234: 1 12 13 123 14 124 134 1234; 23: 2 3; 234: 23 4 24 34 234  # variable_removal>two_margin
14: 1; 1234: 2 12 3 13 23 123 4 34 134 234 1234; 124: 14 24 124  # variable_removal>two_margin
123: 1 12; 1234: 2 13 123 4 14 24 124 34 134 234 1234; 3: 3; 23: 23  # variable_removal>variable_removal>hierarchical
1234: 1 2 12 13 123 4 14 24 124 34 134 234 1234; 3: 3; 23: 23  # variable_removal>variable_removal>hierarchical
12345: 1 12 3 13 23 123 14 24 124 34 134 234 1234 35 135 235 1235 145 245 1245 1345 2345 12345; 125: 2 25 125; 1345: 4 15 45 345; 35: 5  # contraction_reduce>variable_removal>two_margin
125: 1 15 125; 235: 2 3 23 35 235; 12345: 12 13 123 4 14 24 124 34 134 234 1234 135 1235 45 145 245 1245 345 1345 2345 12345; 245: 5 25  # contraction_reduce>variable_removal>variable_removal>hierarchical
12345: 1 2 12 13 23 123 14 24 124 134 234 1234 5 15 25 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345; 34: 3 4 34  # hierarchical
12345: 1 2 12 3 13 23 123 4 14 24 124 34 134 234 1234 5 15 25 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345  # hierarchical
12345: 1 3 13 4 14 124 34 134 234 1234 5 15 25 35 135 1235 45 145 245 1245 345 1345 2345 12345; 234: 2 24; 1235: 12 23 123 125 235  # three_margin
1345: 1 34 135 45 345; 1235: 2 12 123 5 15 25 35 235; 12345: 3 13 23 4 14 24 124 134 234 1234 125 1235 145 245 1245 1345 2345 12345  # three_margin
12345: 1 12 3 13 23 123 4 14 24 124 34 134 234 1234 5 15 25 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345; 23: 2  # two_margin
124: 1 14 124; 12345: 2 12 3 13 23 123 4 24 34 134 234 1234 5 15 25 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345  # two_margin
124: 1 2 12 24; 12345: 3 13 23 123 124 34 134 234 1234 15 25 125 35 135 235 1235 145 245 1245 345 1345 2345 12345; 14: 4; 145: 14 5 45  # variable_removal>contraction_reduce>variable_removal>two_margin
1: 1; 12345: 2 12 13 23 123 4 14 124 34 134 1234 5 15 25 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345; 1234: 3 24 234  # variable_removal>hierarchical
1245: 1 2 24 124 5 15 125 45; 12345: 12 3 13 23 123 14 34 134 234 1234 25 35 135 235 1235 145 245 1245 345 1345 2345 12345; 4: 4  # variable_removal>hierarchical
12: 1 2 12; 12345: 3 13 23 123 14 24 124 34 134 234 1234 5 15 25 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345; 34: 4  # variable_removal>three_margin
14: 1 14; 12345: 2 12 23 123 4 24 124 34 134 234 1234 25 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345; 135: 3 13 5 15  # variable_removal>three_margin
145: 1 45; 12345: 2 12 23 123 4 24 124 34 134 234 1234 5 15 25 125 35 135 235 1235 145 245 1245 345 1345 2345 12345; 1345: 3 13 14  # variable_removal>two_margin
12345: 1 2 12 13 23 123 4 24 124 134 234 1234 5 15 25 125 35 235 1235 45 245 1245 1345 2345 12345; 34: 3; 1345: 14 34 135 145 345  # variable_removal>two_margin
12345: 1 12 3 13 23 123 14 24 124 34 134 234 1234 5 15 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345; 2: 2; 245: 4 25  # variable_removal>variable_removal>hierarchical
12345: 1 2 12 3 13 23 123 4 14 24 124 34 134 234 1234 5 15 125 35 135 1235 45 145 245 1245 345 1345 2345 12345; 245: 25; 235: 235  # variable_removal>variable_removal>hierarchical
12345: 1 2 12 3 13 23 123 4 14 24 124 34 134 234 1234 5 15 125 35 135 235 1235 145 245 1245 345 1345 2345 12345; 25: 25; 45: 45  # variable_removal>variable_removal>three_margin
12345: 1 2 12 3 13 123 4 14 24 124 34 134 234 1234 15 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345; 23: 23; 25: 5 25  # variable_removal>variable_removal>three_margin
12345: 1 2 12 3 13 23 123 14 24 124 134 234 1234 15 25 125 135 235 1235 45 145 245 1245 1345 2345 12345; 34: 4 34; 345: 5 35 345  # variable_removal>variable_removal>two_margin
15: 1 5; 12345: 2 12 3 13 23 123 4 14 24 124 34 134 234 1234 25 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345; 135: 15  # variable_removal>variable_removal>two_margin
15: 1; 12: 2 12; 12345: 3 13 23 123 4 14 24 124 34 134 234 1234 5 15 25 125 35 135 235 1235 45 145 245 1245 345 1345 2345 12345  # variable_removal>variable_removal>variable_removal>hierarchical
"""


# ---------------------------------------------------------------------------
# Spec text
# ---------------------------------------------------------------------------

def _mask(labels: str) -> int:
    out = 0
    for ch in labels:
        out |= 1 << (int(ch) - 1)
    return out


def parse_spec(text: str, n: int | None = None) -> tuple[int, Pairs]:
    """Parse ``"MARGIN: EFFECT ...; MARGIN: ..."`` over variables "1".."n".

    Effects not listed go to the full margin, so a frozen line may leave
    the full-margin block out.  ``n`` defaults to the largest label used.
    """
    listed: list[tuple[int, int]] = []
    for part in text.split(";"):
        if not part.strip():
            continue
        margin_s, effects_s = part.split(":")
        margin = _mask(margin_s.strip())
        listed.extend((_mask(e), margin) for e in effects_s.split())
    if n is None:
        n = max((m.bit_length() for _, m in listed), default=0)
    return n, complete_pairs(n, listed)


def spec_lines(block: str) -> list[tuple[int, Pairs]]:
    return [parse_spec(line.split("#")[0]) for line in block.strip().splitlines()]


def complete_pairs(n: int, listed) -> Pairs:
    """Given pairs plus every other nonempty effect in the full margin."""
    full = (1 << n) - 1
    given = dict(listed)
    if len(given) != len(listed):
        raise ValueError("an effect is listed twice")
    return tuple(given.items()) + tuple(
        (e, full) for e in range(1, full + 1) if e not in given
    )


# ---------------------------------------------------------------------------
# Random draws
# ---------------------------------------------------------------------------

def permute_mask(mask: int, perm) -> int:
    out = 0
    for b in range(len(perm)):
        if mask >> b & 1:
            out |= 1 << perm[b]
    return out


def relabel(pairs: Pairs, perm) -> Pairs:
    return tuple((permute_mask(e, perm), permute_mask(m, perm)) for e, m in pairs)


def random_perm(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(i) for i in rng.permutation(n))


def few_margin_collection(rng: np.random.Generator, n: int) -> Pairs:
    """Complete collection with two or three distinct proper margins: each
    effect picks uniformly among the drawn margins containing it and the
    full margin."""
    full = (1 << n) - 1
    k = int(rng.integers(2, 4))
    proper: list[int] = []
    while len(proper) < k:
        m = int(rng.integers(1, full))
        if m not in proper:
            proper.append(m)
    proper.sort()
    pairs = []
    for effect in range(1, full + 1):
        options = [m for m in proper if effect & ~m == 0] + [full]
        pairs.append((effect, options[int(rng.integers(len(options)))]))
    return tuple(pairs)


def wide_margin_collection(rng: np.random.Generator, n: int, k: int) -> Pairs:
    """Hierarchical collection whose ``k`` proper margins each drop one
    variable; every effect sits in the first margin containing it."""
    full = (1 << n) - 1
    dropped = rng.choice(n, size=k, replace=False)
    order = [full ^ (1 << int(v)) for v in dropped] + [full]
    return tuple(
        (effect, next(m for m in order if effect & ~m == 0))
        for effect in range(1, full + 1)
    )


def positive_table(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dirichlet(1, ..., 1) draw over 2**n cells, redrawn below the floor."""
    while True:
        p = rng.dirichlet(np.ones(1 << n))
        if p.min() >= POSITIVITY_FLOOR:
            return p


def collection_sample(n4: int, n5: int) -> list[tuple[int, Pairs]]:
    """The classification sweep's fixed sample, drawn from SAMPLE_SEED."""
    rng = np.random.default_rng(SAMPLE_SEED)
    return [(4, few_margin_collection(rng, 4)) for _ in range(n4)] + [
        (5, few_margin_collection(rng, 5)) for _ in range(n5)
    ]


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------
# Each function returns the operations of one pass as plain dicts, in a
# seeded order.  ``kind`` names the operation; the other keys are its input.

SWEEP_N4, SWEEP_N5 = 200, 75
ROUTE_TABLES_N3, ROUTE_TABLES_N45 = 8, 4
CLI_EVERY = 10
UNDECIDED_TABLES = 4
EXTRA_UNDECIDED_TABLES = 3  # OPEN_FOUR_MARGIN and TWO_ANCHOR_CYCLE
MAX_FREE_VALUES = 32
LARGE_TABLES = ((8, 8), (9, 36), (10, 12))  # (variables, collections)
LARGE_PROPER_MARGINS = 2
# Hierarchical inversion runs at 9 variables (256-cell margins, 512-cell
# table): at 10 one inversion takes 0.6-2.1 s depending on the table,
# which alone spread the workload's throughput by a fifth across seeds, and
# at 8 its cost overlaps the 9-variable Jacobians, which made the median
# jump between the two groups from seed to seed.
LARGE_INVERT_N = 9


def _shuffled(rng: np.random.Generator, items: list[dict]) -> list[dict]:
    return [items[int(i)] for i in rng.permutation(len(items))]


def classify_sweep(seed: int) -> list[dict]:
    """The census once, the fixed few-margin sample and the recursion
    repro, in seeded order.  The collections are not relabeled: the cost
    of classifying one collection moves by up to a factor of two between
    relabelings, which would spread every timing across seeds."""
    rng = np.random.default_rng(seed)
    sample = collection_sample(SWEEP_N4, SWEEP_N5)
    sample.append(parse_spec(RECURSION_REPRO, 4))
    items = [{"kind": "census"}] + [
        {"kind": "classify", "n": n, "pairs": pairs} for n, pairs in sample
    ]
    return _shuffled(rng, items)


def invert_routes(seed: int) -> list[dict]:
    """Forward map then AUTO inversion over every proven-smooth route
    family; every CLI_EVERY-th operation goes through the CLI."""
    rng = np.random.default_rng(seed)
    items = []
    for block, tables in (
        (SMOOTH_ORBITS_N3, ROUTE_TABLES_N3),
        (SMOOTH_ROUTES_N45, ROUTE_TABLES_N45),
    ):
        for n, pairs in spec_lines(block):
            for _ in range(tables):
                items.append({
                    "kind": "invert",
                    "n": n,
                    "pairs": relabel(pairs, random_perm(rng, n)),
                    "p": positive_table(rng, n),
                })
    items = _shuffled(rng, items)
    for item in items[::CLI_EVERY]:
        item["kind"] = "invert_cli"
    return items


def fallback_models(seed: int) -> list[dict]:
    """AUTO inversion of the undecided collections plus members of the
    conditional-independence models."""
    rng = np.random.default_rng(seed)
    items = []
    undecided = [(n, pairs, UNDECIDED_TABLES) for n, pairs in spec_lines(UNDECIDED_ORBITS_N3)]
    undecided += [
        parse_spec(text) + (EXTRA_UNDECIDED_TABLES,)
        for text in (OPEN_FOUR_MARGIN, TWO_ANCHOR_CYCLE)
    ]
    for n, pairs, tables in undecided:
        for _ in range(tables):
            items.append({
                "kind": "invert",
                "n": n,
                "pairs": relabel(pairs, random_perm(rng, n)),
                "p": positive_table(rng, n),
            })
    for name, model in CI_MODELS.items():
        hw = model["half_width"]
        for _ in range(model["draws"]):
            items.append({
                "kind": "member",
                "model": name,
                "values": rng.uniform(-hw, hw, MAX_FREE_VALUES),
            })
    return _shuffled(rng, items)


def large_tables(seed: int) -> list[dict]:
    """Forward map and Jacobian at 8-10 variables, and hierarchical
    inversion at 9, on collections whose proper margins drop one variable
    each."""
    rng = np.random.default_rng(seed)
    items = []
    for n, count in LARGE_TABLES:
        for _ in range(count):
            pairs = wide_margin_collection(rng, n, LARGE_PROPER_MARGINS)
            p = positive_table(rng, n)
            base = {"n": n, "pairs": pairs}
            items.append({**base, "kind": "forward", "p": p})
            items.append({
                **base,
                "kind": "jacobian",
                "p": p,
                "direction": rng.normal(size=(1 << n) - 1),
            })
            if n == LARGE_INVERT_N:
                items.append({**base, "kind": "invert_hierarchical", "p": p})
    return _shuffled(rng, items)


WORKLOAD_INPUTS = {
    "classify-sweep": classify_sweep,
    "invert-routes": invert_routes,
    "fallback-models": fallback_models,
    "large-tables": large_tables,
}
