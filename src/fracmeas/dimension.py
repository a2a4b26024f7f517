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
``(captured/|mu|) / (spent/l0^beta)`` stays below ``tol_factor`` (default
1.5) there; a bounded density is the mass-capture form of a Frostman bound,
while an inflated one exhibits a low-dimensional mass concentration.  Full
curves are always part of the report.

The greedy capture holds its candidates as int64 arrays (level, index
rows, masses, costs), sorted once per call by decreasing density, then
level, then index.  An ancestor table over the candidates (every ancestor
of an occupied cube is occupied) lets each selection rule out its
ancestors and descendants at once, so the scan steps from one selected
cube to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atoms import AtomicDecomposition
from .content import CubeUnion, choquet_integral, dyadic_content
from .heat import TGrid
from .maximal import grand_maximal, standard_family, truncated_dyadic_maximal
from .measures import (Cube, DyadicLattice, GridMeasure, _cube_sums, _match_rows,
                       lattice_points, measure_sum)


def _occupied_cubes(mu: GridMeasure, lattice: DyadicLattice,
                    min_level: int, max_level: int):
    """Per level: unique occupied cube indices with |mu| masses."""
    pts = mu.points()
    absw = np.abs(mu.weights)
    return {k: _cube_sums(lattice.index_of(pts, k), absw)
            for k in range(min_level, max_level + 1)}


def greedy_mass_capture(mu: GridMeasure, lattice: DyadicLattice, beta: float,
                        delta: float, max_level: int, min_level: int = 0,
                        candidates=None):
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
    levels = sorted(occ)
    lv = np.concatenate([np.full(len(occ[k][0]), k, dtype=np.int64) for k in levels])
    ix = np.vstack([occ[k][0] for k in levels])
    mass = np.concatenate([occ[k][1] for k in levels])
    cost = np.concatenate([np.full(len(occ[k][0]), lattice.side(k) ** beta)
                           for k in levels])
    order = np.lexsort([*ix.T[::-1], lv, -(mass / cost)])
    lv, ix, mass, cost = lv[order], ix[order], mass[order], cost[order]
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
    alive = np.ones(n, dtype=bool)
    limit = delta * (1.0 + 1e-12)
    spent = 0.0
    captured = 0.0
    picked = []
    start = 0
    while start < n:
        fits = alive[start:] & (spent + cost[start:] <= limit)
        s = start + int(np.argmax(fits))
        if not fits[s - start]:
            break
        picked.append(s)
        spent += cost[s]
        captured += mass[s]
        # selecting a cube rules out itself, its descendants and ancestors
        j = lv[s] - lo
        alive[anc[:, j] == s] = False
        alive[anc[s, :j]] = False
        start = s + 1
    union = CubeUnion.build(lattice, lv[picked], ix[picked])
    return union, captured, spent


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
        return {
            "betas": [float(b) for b in self.betas],
            "deltas": [float(x) for x in self.deltas],
            "curves": [[float(v) for v in row] for row in self.curves],
            "beta_hat": self.beta_hat,
            "passes": [bool(p) for p in self.passes],
            "delta_star": [float(x) for x in self.delta_star],
            "tol_factor": self.tol_factor,
            "max_level": self.max_level,
            "total_variation": self.total_variation,
            "diagnostics": self.diagnostics,
        }


def lower_dim_estimate(mu: GridMeasure, lattice: DyadicLattice, betas,
                       max_level: int, tol_factor: float = 1.5,
                       deltas=None, min_level: int = 0) -> DimensionReport:
    """Modulus curves over the budget grid and the operational beta-hat."""
    betas = np.asarray(betas, dtype=np.float64)
    if np.any(betas <= 0) or np.any(betas > lattice.d):
        raise ValueError("beta grid must lie in (0, d]")
    if deltas is None:
        deltas = 2.0 ** (-np.arange(1, 13, dtype=np.float64))
    deltas = np.sort(np.asarray(deltas, dtype=np.float64))[::-1]
    tv = mu.total_variation()
    curves = np.zeros((len(betas), len(deltas)))
    passes = np.zeros(len(betas), dtype=bool)
    delta_star = np.zeros(len(betas))
    if tv == 0:
        return DimensionReport(betas=betas, deltas=deltas, curves=curves,
                               beta_hat=float(np.max(betas)),
                               passes=np.ones(len(betas), dtype=bool),
                               delta_star=deltas[-1] * np.ones(len(betas)),
                               tol_factor=tol_factor, max_level=max_level,
                               total_variation=0.0)
    occ = _occupied_cubes(mu, lattice, min_level, max_level)
    unit = lattice.l0
    spent_mat = np.zeros_like(curves)
    for i, beta in enumerate(betas):
        min_cost = min(lattice.side(k) ** beta for k in occ if len(occ[k][0]))
        for j, delta in enumerate(deltas):
            _, captured, spent = greedy_mass_capture(mu, lattice, beta, delta,
                                                     max_level, min_level,
                                                     candidates=occ)
            curves[i, j] = captured / tv
            spent_mat[i, j] = spent
        feasible = deltas[deltas >= min_cost * (1 - 1e-12)]
        if len(feasible) == 0:
            # no probed budget affords even one cube: the probe is vacuous at
            # this resolution, which is not evidence of dimension >= beta
            delta_star[i] = float(deltas[0])
            passes[i] = False
            continue
        dstar = float(feasible[-1])
        delta_star[i] = dstar
        j_star = int(np.argmin(np.abs(deltas - dstar)))
        # bounded capture density: mass fraction per unit of content spent
        density = curves[i, j_star] / (spent_mat[i, j_star] / unit ** beta)
        passes[i] = density <= tol_factor
    beta_hat = float(np.max(betas[passes])) if np.any(passes) else 0.0
    return DimensionReport(betas=betas, deltas=deltas, curves=curves,
                           beta_hat=beta_hat, passes=passes,
                           delta_star=delta_star, tol_factor=tol_factor,
                           max_level=max_level, total_variation=tv,
                           diagnostics={"min_level": min_level,
                                        "spent": spent_mat.tolist()})


# ---------------------------------------------------------------------------
# maximal-function diagnostics
# ---------------------------------------------------------------------------

def choquet_maximal_test(mu: GridMeasure, lattice: DyadicLattice, beta: float,
                         truncation: float, k_min: int = 0,
                         domain: Cube | None = None) -> float:
    """Choquet integral over Q0 of the truncated dyadic maximal function.

    The truncated field is constant on cells at the truncation level, so
    sampling there represents it exactly.
    """
    if truncation <= 0:
        raise ValueError("truncation must be positive")
    if mu.n_masses == 0:
        return 0.0
    d = lattice.d
    k_trunc = int(math.floor(math.log2(lattice.l0 / truncation) + 1e-9))
    domain = domain or Cube(corner=lattice.corner.copy(), side=lattice.l0)
    side = lattice.side(k_trunc)
    n0 = np.floor((domain.corner - lattice.corner) / side).astype(np.int64)
    counts = [int(round(domain.side / side))] * d
    cells = lattice_points([n0[a] + np.arange(counts[a]) for a in range(d)])
    centers = lattice.corner[None, :] + (cells + 0.5) * side
    fld = truncated_dyadic_maximal(mu, lattice, d - beta, truncation,
                                   centers, k_min, k_trunc)
    return choquet_integral(cells, fld.values, lattice, k_trunc, beta,
                            domain=domain)


def maximal_level_sums(cells, values, lattice: DyadicLattice, level: int,
                       beta: float, k_max: int = 60) -> np.ndarray:
    """Partial sums of sum_k 2^-k H_beta({M >= 2^-k}) from a sampled field."""
    values = np.asarray(values, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.int64)
    partial = np.zeros(k_max + 1)
    acc = 0.0
    for k in range(k_max + 1):
        mask = values >= 2.0 ** (-k)
        if np.any(mask):
            E = CubeUnion.build(lattice, np.full(int(mask.sum()), level),
                                cells[mask])
            acc += 2.0 ** (-k) * dyadic_content(E, beta)
        partial[k] = acc
    return partial


def atom_sum_dimension_check(dec: AtomicDecomposition, sample_level: int = 6,
                             margin: float = 4.0, betas=None,
                             max_level: int = 14, tol_factor: float = 1.5,
                             nodes_per_decade: int = 16,
                             beta_slack: float = 0.1) -> dict:
    """Maximal/Choquet bound and dimension estimate for an atom combination.

    Computes ``||M(sum lambda_i a_i)||_{L^1(H^beta)}`` via the grand maximal
    field sampled on a dyadic grid and its Choquet integral, reports the
    ratio to the coefficient budget, then runs the dimension estimate on the
    sum and checks beta_hat >= beta - beta_slack.
    """
    if not dec.entries:
        return {"budget": 0.0, "maximal_l1": 0.0, "bound_constant": 0.0,
                "beta_hat": None, "dim_pass": True, "level_sums": []}
    beta = dec.beta
    parts = [cand.measure.scaled(lam) for lam, cand, _ in dec.entries]
    mu = measure_sum(parts, name="atom_sum")
    d = mu.d
    lo, hi = mu.bbox()
    center = 0.5 * (lo + hi)
    extent = max(float(np.max(hi - lo)), 1.0) + 2.0 * margin
    size = 2.0 ** math.ceil(math.log2(extent))
    lattice = DyadicLattice(corner=center - 0.5 * size, l0=size, d=d)
    domain = Cube(corner=lattice.corner.copy(), side=size)
    side = lattice.side(sample_level)
    cells = lattice_points([np.arange(2 ** sample_level)] * d)
    centers = lattice.corner[None, :] + (cells + 0.5) * side
    fam = standard_family(d)
    tg = TGrid.for_measure(mu, nodes_per_decade=nodes_per_decade,
                           reach=0.5 * size)
    fld = grand_maximal(mu, fam, d - beta, centers, tg)
    l1 = choquet_integral(cells, fld.values, lattice, sample_level, beta,
                          domain=domain)
    level_sums = maximal_level_sums(cells, fld.values, lattice, sample_level,
                                    beta, k_max=48)
    # dimension estimate on the sum, on a unit lattice at the sum's corner
    est_lattice = DyadicLattice(corner=np.floor(lo), l0=1.0, d=d)
    if betas is None:
        betas = np.arange(0.05, d + 1e-9, 0.05)
    report = lower_dim_estimate(mu, est_lattice, betas, max_level,
                                tol_factor=tol_factor)
    budget = dec.budget
    return {
        "beta": beta,
        "budget": budget,
        "maximal_l1": l1,
        "bound_constant": l1 / budget if budget > 0 else 0.0,
        "beta_hat": report.beta_hat,
        "dim_pass": report.beta_hat >= beta - beta_slack,
        "level_sums": [float(v) for v in level_sums],
        "dimension_report": report,
        "convention": fld.convention,
    }
