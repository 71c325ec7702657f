"""Named demonstration collections and models used by tests and scripts.

Specs are written in the compact text form and named by their structure.
"""

from __future__ import annotations

from .mll import MLLSpec

# Hierarchical chain built from the margin sequence 12, 23, 123.
CHAIN_THREE = MLLSpec.from_text("12: 1 2 12\n23: 3 23\n123: 13 123\n")

# Nested margins 3 < 23 < 123 with one singleton effect deferred to the top;
# not hierarchical, but a single variable sits only in the full margin.
NESTED_SKIP = MLLSpec.from_text("3: 3\n23: 23\n123: 1 2 12 13 123\n")

# Margin 13 holding only the effect 3; margins are not nested and no
# variable is confined to the full margin.
CROSS_SINGLE = MLLSpec.from_text("13: 3\n23: 23\n123: 1 2 12 13 123\n")

# Two conditional blocks (2,23 | 1) plus a lone singleton margin; the
# classic single-feedback fixed-point example, with three margins.
TWO_BLOCK_FIXPOINT = MLLSpec.from_text("23: 2 23\n13: 1\n123: 12 3 13 123\n")

# Every effect paired with its one-variable extension inside the same
# margin: the slice-reduction example.
PAIRED_SLICES = MLLSpec.from_text("12: 2 12\n13: 3 13\n123: 1 23 123\n")

# Three singleton proper margins feeding a saturated full margin; the
# subsystem-relocation (contraction-reduce) example.
SINGLETON_FEEDERS = MLLSpec.from_text("1: 1\n12: 2\n13: 3\n123: 12 13 23 123\n")

# Cycle of three conditionals p(1|2), p(2|3), p(3|1); only the full margin
# holds the rest.
CYCLE_THREE = MLLSpec.from_text("12: 1 12\n23: 2 23\n13: 3 13\n123: 123\n")

# Hierarchical equivalent of CYCLE_THREE once one group marginal is known.
CYCLE_THREE_RESOLVED = MLLSpec.from_text(
    "3: 3\n23: 2 23\n12: 1 12\n13: 13\n123: 123\n"
)

# Four-margin collection whose smoothness is not settled by any rule here.
OPEN_FOUR_MARGIN = MLLSpec.from_text("12: 1 2\n13: 3 13\n23: 23\n123: 12 123\n")

# One effect carried in two different margins, the remaining slots filled
# so the pair count matches the coefficient count; the parameter map drops
# rank at the uniform table where the two repeated rows coincide.
REPEATED_EFFECT = MLLSpec.from_text(
    "124: 124\n1234: 124 1 2 3 4 12 13 14 23 24 34 123 134 234\n"
)

# Four-variable embedding with paired slices for variable 1: three
# conditional blocks plus the full margin.
PAIRED_SLICES_FOUR = MLLSpec.from_text(
    "123: 2 23 12 123\n134: 3 34 13 134\n124: 4 24 14 124\n1234: 1 234 1234\n"
)

# Four-variable embedding carrying two complete two-variable anchor margins
# (14 and 23) plus four conditional-difference margins and the top effect.
TWO_ANCHOR_CYCLE = MLLSpec.from_text(
    "14: 1 4 14\n23: 2 3 23\n123: 12 123\n124: 24 124\n134: 13 134\n234: 34 234\n1234: 1234\n"
)

# Conditional-independence statement lists (text form) for the models above.
CI_LOOP_THREE = ["1 _||_ 2 | 3", "1 _||_ 3 | 4", "1 _||_ 4 | 2"]
CI_LOOP_FOUR = [
    "1 _||_ 2 | 3",
    "2 _||_ 4 | 1",
    "1 _||_ 3 | 4",
    "3 _||_ 4 | 2",
]
CI_NON_SMOOTH = ["1 _||_ 2,4", "2 _||_ 4 | 1,3"]
CI_FIVE_VAR = [
    "1 _||_ 2 | 3",
    "1 _||_ 5 | 2",
    "1 _||_ 3 | 4",
    "3 _||_ 5 | 1",
    "3 _||_ 4 | 2,5",
]
