"""fracmeas: desk-scale numerics for fractal measures.

Discretized signed measures on regular grids, the heat semigroup acting on
them, certification of cancellative atoms with dimensional normalization,
Riesz potentials and Lorentz norms, dyadic/grand maximal functions,
Hausdorff-content Choquet integrals with covering regularization, and
lower-dimension estimation.  A CLI (``fracmeas``) drives reproducible
verification experiments.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
