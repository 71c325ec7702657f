"""Marginal log-linear parameterizations of strictly positive binary tables.

Submodules:

* :mod:`mllp.tables`   -- bit-lattice algebra, joint/marginal/conditional tables,
  the transform between tables and log-linear coefficients (fwht, weights).
* :mod:`mllp.mll`      -- effect-margin parameters, the forward map, its
  compiled per-margin plan and the analytic Jacobian.
* :mod:`mllp.classify` -- smoothness rules and the search over interchange
  moves that proves a collection smooth.
* :mod:`mllp.census`   -- enumeration, canonical forms and orbit counts of
  complete collections, and the census that classifies each orbit.
* :mod:`mllp.mixed`    -- a table from its sub-margins and the log-linear
  coefficients no sub-margin covers (the mixed-coordinate solve).
* :mod:`mllp.markov`   -- Gibbs sweeps and cycles of conditionals, the one
  kernel that composes them, and its stationary distribution.
* :mod:`mllp.solvers`  -- inversion back to joint tables: hierarchical
  reconstruction, fixed-point contraction, Markov-chain recovery, Newton,
  and the replay of a classification chain, which checks each table once.
* :mod:`mllp.cimodels` -- conditional-independence statements as zero
  constraints, model embeddings and members.
* :mod:`mllp.cli`      -- batch command-line front end.
"""

from . import tables, mll, classify, solvers, cimodels, catalog  # noqa: F401

__version__ = "0.1.0"
