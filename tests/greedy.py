"""Greedy budgeted mass capture as one call, for the capture tests.

``dimension.lower_dim_estimate`` builds the capture's candidates and tree
once and runs one scan per (beta, budget); the tests compare its curves with
``greedy_mass_capture``, which builds them for a single capture and also
returns the selected cubes.  No command selects cubes, so the reference
lives with the tests.
"""

from __future__ import annotations

import numpy as np

from fracmeas.content import CubeUnion
from fracmeas.dimension import _capture_scan, _capture_tables, _capture_tree, _occupied_cubes
from fracmeas.measures import _unique_rows


def greedy_mass_capture(mu, lattice, beta: float, delta: float, max_level: int,
                        min_level: int = 0, candidates=None):
    """Greedy budgeted capture of |mu| mass by disjoint dyadic cubes.

    Candidates are the occupied cubes at levels min_level..max_level
    (``candidates`` may pass them in, as ``{level: (indices, masses)}``;
    every parent of a candidate above the coarsest level must be one too).
    They are scanned in decreasing density |mu|(Q)/l(Q)^beta, ties broken by
    level and then lexicographically by index; a cube is taken when it fits
    the remaining budget and neither contains nor is contained in a selected
    cube.  Returns the selected cubes, the captured mass, and the budget
    actually spent.
    """
    if delta <= 0:
        raise ValueError("budget must be positive")
    if mu.n_masses == 0:
        return CubeUnion.build(lattice, [], np.zeros((0, lattice.d))), 0.0, 0.0
    occ = candidates if candidates is not None else \
        _occupied_cubes(mu, lattice, min_level, max_level)
    tree = _capture_tree(occ)
    picked, captured, spent = _capture_scan(_capture_tables(tree, lattice, beta), delta)
    # the tree's rows: the candidates (distinct per level) by level, then index
    rows, _, _ = _unique_rows(np.vstack([np.column_stack([np.full(len(ix), k), ix])
                                         for k, (ix, _) in occ.items()]))
    return CubeUnion.build(lattice, rows[picked, 0], rows[picked, 1:]), captured, spent
