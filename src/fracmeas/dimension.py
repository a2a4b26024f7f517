"""Lower-dimension estimation from budgeted dyadic mass capture, plus the
maximal-function/Choquet diagnostics that feed it.

Dimension at finite resolution is ill-posed, so the estimate is operational:
for each candidate exponent beta the modulus curve (capture budget delta ->
captured mass fraction) is computed in full, and the reported beta-hat is
the largest grid beta whose capture stays proportionate at the finest
meaningful budget.  "Meaningful" matters for discrete surrogates: budgets
below the cost of a single candidate cube capture nothing vacuously, so the
verdict is evaluated at delta* = the smallest probed budget admitting any
selection, and beta passes when the capture density
``(captured/|mu|) / (spent/l0^beta)`` stays below ``_TOL_FACTOR`` (1.5)
there; a bounded density is the mass-capture form of a Frostman bound,
while an inflated one exhibits a low-dimensional mass concentration.  Full
curves are always part of the report.

The greedy capture holds its candidates as int64 arrays (level, index
rows, masses) with their tree (ancestors and a preorder), which depend on
neither beta nor the budget: the estimate builds them once.  Per beta it
sorts them by decreasing density, then level, then index, and runs one
scan per budget, linear in the candidates: a pick rules out its ancestors
(an ancestor table) and its descendants (one slice of the preorder), and
the scan reads forward windows that never look back, since a candidate
passed over is dead or does not fit, and the budget spent only grows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .atoms import AtomicDecomposition
from .content import _level_set_contents, choquet_integral
from .heat import TGrid
from .maximal import dyadic_maximal, grand_maximal, standard_family
from .measures import (DyadicLattice, GridMeasure, _cube_sums, _match_rows,
                       lattice_points, measure_sum)

# the largest capture density at which a beta passes
_TOL_FACTOR = 1.5


def _occupied_cubes(mu: GridMeasure, lattice: DyadicLattice,
                    min_level: int, max_level: int):
    """Per level: unique occupied cube indices with |mu| masses."""
    pts = mu.points()
    absw = np.abs(mu.weights)
    return {k: _cube_sums(lattice.index_of(pts, k), absw)
            for k in range(min_level, max_level + 1)}


class _CaptureTree(NamedTuple):
    """The candidates of every beta, sorted by level and then index, with
    their tree.  ``pos`` is each one's place in a tree preorder (rows of the
    ancestor table sorted, -1 first); ``up[i, j]`` is the place of its
    level-``lo + j`` ancestor, read only above its own level.  ``nodes``
    holds each one's mass, ancestor column and subtree bounds (its place
    and the place past its subtree) as Python scalars."""

    lv: np.ndarray
    mass: np.ndarray
    lo: int
    pos: np.ndarray
    up: np.ndarray
    nodes: list


def _capture_tree(occ) -> _CaptureTree:
    """The beta-independent part of the capture: candidates, parent match
    (a missing parent raises ``ValueError``), ancestors and preorder."""
    levels = sorted(occ)
    lv = np.concatenate([np.full(len(occ[k][0]), k, dtype=np.int64) for k in levels])
    ix = np.vstack([occ[k][0] for k in levels])
    mass = np.concatenate([occ[k][1] for k in levels])
    base = np.lexsort([*ix.T[::-1], lv])
    lv, ix, mass = lv[base], ix[base], mass[base]
    n, lo = len(lv), levels[0]
    parent = _match_rows(np.column_stack([lv, ix]), np.column_stack([lv - 1, ix >> 1]))
    if np.any(parent[lv > lo] < 0):
        raise ValueError("candidates must include the parent of every "
                         "candidate above the coarsest level")
    # anc[i, j]: the candidate that is the level-(lo + j) ancestor of
    # candidate i (i itself at its own level), or -1 at finer levels
    anc = np.full((n, levels[-1] - lo + 1), -1, dtype=np.int64)
    cur = np.arange(n)
    for k in range(levels[-1], lo - 1, -1):
        cur = np.where(lv > k, parent[cur], cur)
        anc[lv >= k, k - lo] = cur[lv >= k]
    # any preorder keeps each subtree contiguous, which is all the scan needs
    pos = np.argsort(np.lexsort(anc.T[::-1]))
    end = pos + np.bincount(anc[anc >= 0], minlength=n)
    nodes = list(zip(mass.tolist(), (lv - lo).tolist(), pos.tolist(), end.tolist()))
    return _CaptureTree(lv, mass, lo, pos, pos[anc], nodes)


def _capture_tables(tree: _CaptureTree, lattice: DyadicLattice, beta: float):
    """The scan order of one beta, ``(tree, order, costs, pos, level_costs)``:
    candidates by decreasing density, then level, then index (the tree's
    order, kept by a stable sort), with their costs and preorder places in
    that order; ``order`` is a list of tree rows, ``level_costs[j]`` the
    cost of a level-``lo + j`` cube."""
    level_costs = [lattice.side(k) ** beta
                   for k in range(tree.lo, tree.lo + tree.up.shape[1])]
    cost = np.array(level_costs)[tree.lv - tree.lo]
    order = np.argsort(-(tree.mass / cost), kind="stable")
    return tree, order.tolist(), cost[order], tree.pos[order], level_costs


def _capture_scan(tables, delta: float):
    """One budget's greedy scan over ``_capture_tables`` output: the picked
    tree rows, the captured mass and the budget spent.  Windows that double
    in size mark the candidates live and fitting at their start, each then
    tested again in order; one left out stays out, as ``spent`` only grows
    (float addition is monotone), and the scan stops once the cheapest
    level's cube does not fit.  Liveness is kept by preorder place."""
    tree, order, cost, pos, level_costs = tables
    n = len(order)
    live = np.ones(n, dtype=bool)
    limit = delta * (1.0 + 1e-12)
    cheapest = min(level_costs)
    spent = captured = 0.0
    picked = []
    start, width = 0, 16
    while start < n and spent + cheapest <= limit:
        stop = min(n, start + width)
        fits = live[pos[start:stop]] & (spent + cost[start:stop] <= limit)
        for s in (start + np.flatnonzero(fits)).tolist():
            i = order[s]
            m, j, a, b = tree.nodes[i]
            c = level_costs[j]
            if live[a] and spent + c <= limit:
                picked.append(i)
                spent += c
                captured += m
                live[a:b] = False                # its subtree, itself included
                live[tree.up[i, :j]] = False     # its ancestors
        start, width = stop, 2 * width
    return picked, captured, spent


@dataclass(frozen=True)
class DimensionReport:
    betas: np.ndarray
    deltas: np.ndarray
    curves: np.ndarray            # (n_beta, n_delta) captured mass fractions
    beta_hat: float
    passes: np.ndarray            # per-beta verdicts
    delta_star: np.ndarray        # per-beta smallest budget admitting selection
    tol_factor: float
    max_level: int
    total_variation: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def lower_dim_estimate(mu: GridMeasure, lattice: DyadicLattice, betas,
                       max_level: int) -> DimensionReport:
    """Modulus curves over the budgets 2^-1 .. 2^-12 and the operational
    beta-hat, capturing with the cubes of levels 0 .. ``max_level``."""
    betas = np.asarray(betas, dtype=np.float64)
    if len(betas) == 0:
        raise ValueError("beta grid is empty")
    if np.any(betas <= 0) or np.any(betas > lattice.d):
        raise ValueError("beta grid must lie in (0, d]")
    if max_level < 0:
        raise ValueError("max_level (--depth) must be at least 0")
    deltas = 2.0 ** (-np.arange(1, 13, dtype=np.float64))
    tv = mu.total_variation()
    curves = np.zeros((len(betas), len(deltas)))
    passes = np.zeros(len(betas), dtype=bool)
    delta_star = np.zeros(len(betas))
    if tv == 0:
        return DimensionReport(betas=betas, deltas=deltas, curves=curves,
                               beta_hat=float(np.max(betas)),
                               passes=np.ones(len(betas), dtype=bool),
                               delta_star=deltas[-1] * np.ones(len(betas)),
                               tol_factor=_TOL_FACTOR, max_level=max_level,
                               total_variation=0.0,
                               diagnostics={"min_level": 0,
                                            "spent": curves.tolist(),
                                            "vacuous_betas": []})
    occ = _occupied_cubes(mu, lattice, 0, max_level)
    tree = _capture_tree(occ)
    unit = lattice.l0
    spent_mat = np.zeros_like(curves)
    vacuous = []
    for i, beta in enumerate(betas):
        min_cost = min(lattice.side(k) ** beta for k in occ if len(occ[k][0]))
        tables = _capture_tables(tree, lattice, beta)
        for j, delta in enumerate(deltas):
            _, captured, spent = _capture_scan(tables, delta)
            curves[i, j] = captured / tv
            spent_mat[i, j] = spent
        feasible = deltas[deltas >= min_cost * (1 - 1e-12)]
        if len(feasible) == 0:
            # no probed budget affords even one cube: the probe is vacuous at
            # this resolution, which is not evidence of dimension >= beta
            vacuous.append(float(beta))
            delta_star[i] = float(deltas[0])
            passes[i] = False
            continue
        dstar = float(feasible[-1])
        delta_star[i] = dstar
        j_star = int(np.argmin(np.abs(deltas - dstar)))
        # bounded capture density: mass fraction per unit of content spent
        density = curves[i, j_star] / (spent_mat[i, j_star] / unit ** beta)
        passes[i] = density <= _TOL_FACTOR
    beta_hat = float(np.max(betas[passes])) if np.any(passes) else 0.0
    return DimensionReport(betas=betas, deltas=deltas, curves=curves,
                           beta_hat=beta_hat, passes=passes,
                           delta_star=delta_star, tol_factor=_TOL_FACTOR,
                           max_level=max_level, total_variation=tv,
                           diagnostics={"min_level": 0,
                                        "spent": spent_mat.tolist(),
                                        "vacuous_betas": vacuous})


# ---------------------------------------------------------------------------
# maximal-function diagnostics
# ---------------------------------------------------------------------------

def choquet_maximal_test(mu: GridMeasure, lattice: DyadicLattice, beta: float,
                         truncation: float) -> float:
    """Choquet integral over Q0 of the truncated dyadic maximal function
    (cube levels 0 through the truncation level).

    The truncated field is constant on cells at the truncation level, so
    sampling there represents it exactly.
    """
    if truncation <= 0:
        raise ValueError("truncation must be positive")
    d = lattice.d
    k_trunc = int(math.floor(math.log2(lattice.l0 / truncation) + 1e-9))
    cells = lattice_points([np.arange(2 ** k_trunc)] * d)
    centers = lattice.corner[None, :] + (cells + 0.5) * lattice.side(k_trunc)
    fld = dyadic_maximal(mu, lattice, d - beta, centers, 0, k_trunc,
                         min_side=truncation)
    return choquet_integral(cells, fld.values, lattice, k_trunc, beta)


def maximal_level_sums(cells, values, lattice: DyadicLattice, level: int,
                       beta: float, k_max: int = 60) -> np.ndarray:
    """Partial sums of sum_k 2^-k H_beta({M >= 2^-k}) from a sampled field.

    The level sets grow with k and are all swept over one ancestor tree
    (``content._level_set_contents``); one with as many cells as the
    previous one is that set, and its content is reused.
    """
    values = np.asarray(values, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.int64)
    cuts = 2.0 ** -np.arange(k_max + 1)
    return np.cumsum(cuts * _level_set_contents(cells, values, lattice, level, beta, cuts,
                                                strict=False))


def atom_sum_dimension_check(dec: AtomicDecomposition, sample_level: int = 6,
                             max_level: int = 14) -> dict:
    """Maximal/Choquet bound and dimension estimate for an atom combination.

    Computes ``||M(sum lambda_i a_i)||_{L^1(H^beta)}`` via the grand maximal
    field sampled on a dyadic grid (a margin of 4 around the sum's support)
    and its Choquet integral, reports the ratio to the coefficient budget,
    then runs the dimension estimate on the sum over the betas 0.05, 0.10,
    ..., d (``beta_hat``).
    """
    if not dec.entries:
        return {"budget": 0.0, "maximal_l1": 0.0, "bound_constant": 0.0,
                "beta_hat": None, "level_sums": []}
    beta = dec.beta
    parts = [cand.measure.scaled(lam) for lam, cand in dec.entries]
    mu = measure_sum(parts, name="atom_sum")
    d = mu.d
    lo, hi = mu.bbox()
    center = 0.5 * (lo + hi)
    extent = max(float(np.max(hi - lo)), 1.0) + 2.0 * 4.0
    size = 2.0 ** math.ceil(math.log2(extent))
    lattice = DyadicLattice(corner=center - 0.5 * size, l0=size, d=d)
    cells = lattice_points([np.arange(2 ** sample_level)] * d)
    centers = lattice.corner[None, :] + (cells + 0.5) * lattice.side(sample_level)
    fam = standard_family(d)
    tg = TGrid.for_measure(mu, nodes_per_decade=16, reach=0.5 * size)
    fld = grand_maximal(mu, fam, d - beta, centers, tg)
    l1 = choquet_integral(cells, fld.values, lattice, sample_level, beta)
    level_sums = maximal_level_sums(cells, fld.values, lattice, sample_level,
                                    beta, k_max=48)
    # dimension estimate on the sum, on a unit lattice at the sum's corner
    est_lattice = DyadicLattice(corner=np.floor(lo), l0=1.0, d=d)
    betas = np.arange(0.05, d + 1e-9, 0.05)
    report = lower_dim_estimate(mu, est_lattice, betas, max_level)
    budget = dec.budget
    return {
        "budget": budget,
        "maximal_l1": l1,
        "bound_constant": l1 / budget if budget > 0 else 0.0,
        "beta_hat": report.beta_hat,
        "level_sums": [float(v) for v in level_sums],
        "convention": fld.convention,
    }
