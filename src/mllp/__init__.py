"""Marginal log-linear parameterizations of strictly positive binary tables.

Submodules:

* :mod:`mllp.tables`   -- bit-lattice algebra, joint/marginal/conditional tables,
  the transform between tables and log-linear coefficients.
* :mod:`mllp.mll`      -- effect-margin parameters, their decomposition,
  analytic derivatives and norm bounds.
* :mod:`mllp.classify` -- smoothness rules, orbit enumeration and the census.
* :mod:`mllp.solvers`  -- inversion back to joint tables: hierarchical
  reconstruction, fixed-point contraction, Markov-chain recovery, Newton.
* :mod:`mllp.cimodels` -- conditional-independence statements as zero
  constraints, model embeddings and members, Gibbs sweep kernels and
  their stationary distributions.
* :mod:`mllp.cli`      -- batch command-line front end.
"""

from . import tables, mll, classify, solvers, cimodels, catalog  # noqa: F401

__version__ = "0.1.0"
