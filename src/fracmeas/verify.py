"""Theorem-level verification harnesses.

Each ``verify_*`` function runs one desk-scale experiment suite and returns
a ``VerifyOutcome``: its verdict as named checks (``io.Check``, one per
condition, and the outcome passes when every check does), a results dict of
the other logged constants, and named CSV tables.  A non-finite
value fails a check of its own.  The CLI wraps these; the acceptance test
suite calls them directly.  All randomness flows from an explicit seed.

thm13's heat-integral functionals and thm15's scales do not depend on each
other, so they run on one thread pool with a worker per usable core
(``_map_cases``); numpy releases the GIL in the kernels that hold their
time.  Results are taken in input order and every case computes alone, with
the blocks and summation order of a serial run, so the results and tables
are those of a serial run bit for bit.  With one usable core the cases run
inline.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import atoms, dimension, heat, measures, potential
from .io import Check
from .measures import Cube

# verdict bounds; each is the bound of a named check
_DILATION_TOL = 0.02        # thm13: relative deviation across dilations
_KIND_RATIO_CAP = 10.0      # thm13: largest over smallest atom-kind value
_SPREAD_CAP = 2.0           # thm14, thm15: largest over smallest trace
_DISPERSION_CAP = 10.0      # cor16: largest over smallest trace ratio
_BETA_HAT_TOL = 0.05        # thm18: distance of each estimate from its target
_BETA_HAT_DROP = 0.1        # thm19: how far an atom sum's estimate may fall below beta
_C_SPREAD_CAP = 2.0         # thm19: larger over smaller bound constant

_pool = None                # the case pool of ``_map_cases``, made on first use


def _map_cases(fn, cases) -> list:
    """``[fn(c) for c in cases]``, on a thread pool of one worker per usable
    core.

    Cases are submitted in the given order and their results returned in
    that order; a case's exception is raised when its result is reached, as
    in the serial loop.  With one usable core they run inline.
    ``concurrent.futures`` is imported here, so importing the CLI does not
    load it.
    """
    global _pool
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:           # a platform without affinity masks
        cores = os.cpu_count() or 1
    if cores < 2:
        return [fn(c) for c in cases]
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(max_workers=cores, thread_name_prefix="fracmeas")
    return list(_pool.map(fn, cases))


@dataclass
class VerifyOutcome:
    name: str
    checks: tuple                                 # the verdict's io.Check records
    results: dict
    tables: dict = field(default_factory=dict)   # name -> (header, rows)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# shared geometry helpers
# ---------------------------------------------------------------------------

def square_loop(n_per_side: int = 16) -> np.ndarray:
    """Closed unit-square polyline, counterclockwise, ``n_per_side`` >= 1
    segments per side."""
    if n_per_side < 1:
        raise ValueError("a square loop needs at least one segment per side")
    s = np.linspace(0.0, 1.0, n_per_side + 1)
    bottom = np.stack([s, np.zeros_like(s)], axis=1)
    right = np.stack([np.ones_like(s), s], axis=1)[1:]
    top = np.stack([s[::-1], np.ones_like(s)], axis=1)[1:]
    left = np.stack([np.zeros_like(s), s[::-1]], axis=1)[1:]
    return np.vstack([bottom, right, top, left])


def ngon_loop(n: int) -> np.ndarray:
    """Closed regular n-gon of radius 0.35 about (0.5, 0.5)."""
    th = 2.0 * np.pi * np.arange(n + 1) / n
    pts = np.stack([0.5 + 0.35 * np.cos(th), 0.5 + 0.35 * np.sin(th)], axis=1)
    pts[-1] = pts[0]
    return pts


def segment_measure() -> measures.GridMeasure:
    """Arclength measure on a diagonal segment in the unit square (2d), 128
    masses on the 1/512 lattice; satisfies nu(B(x,r)) <= C r."""
    n, h = 128, 1.0 / 512.0
    t = (np.arange(n) + 0.5) / n
    pts = np.stack([0.1 + 0.8 * t, 0.15 + 0.7 * t], axis=1)
    idx = np.rint(pts / h).astype(np.int64)
    seg_len = math.hypot(0.8, 0.7)
    return measures.new_grid_measure(2, h, [0.0, 0.0], idx,
                                     np.full(n, seg_len / n), name="segment")


def _check_scales(n_scales: int):
    # with one scale the capped spread is 1 (the deviation 0) whatever the inputs
    if n_scales < 2:
        raise ValueError("n_scales must be >= 2: one scale leaves nothing to compare")


def _dilated_atom(cand: atoms.AtomCandidate, s: float) -> atoms.AtomCandidate:
    """The atom dilated by s about its cube's corner, mass-preserving."""
    origin = cand.cube.corner
    return atoms.AtomCandidate(
        measure=cand.measure.dilated(s, origin).translated(origin),
        cube=Cube(corner=origin, side=cand.side * s), beta=cand.beta)


def _scaled_pair(cand: atoms.AtomCandidate, nu: measures.GridMeasure,
                 growth_exp: float, s: float):
    """Jointly rescaled (atom, trace measure) with the growth constant of nu
    held fixed: the dilation is mass-preserving on the atom and renormalized
    by s^growth_exp on nu."""
    origin = cand.cube.corner
    nu_s = nu.dilated(s, origin).translated(origin).scaled(s ** growth_exp)
    return _dilated_atom(cand, s), nu_s


# ---------------------------------------------------------------------------
# strong-type inequality (heat-integral functional)
# ---------------------------------------------------------------------------

def _refinement(values) -> dict:
    """The refinement record of values at consecutive construction depths,
    at least three: the increments Δ_k = v_k - v_{k-1}, their ratios
    r_k = Δ_k / Δ_{k-1}, and the geometric (Richardson-type) limit
    ``v_n + Δ_n r_n / (1 - r_n)``.  ``limit_err`` is the distance from that
    limit to the same extrapolation one depth earlier (NaN with one ratio).
    A zero increment gives a NaN or infinite ratio, and a ratio of 1 an
    infinite limit; neither warns."""
    v = np.asarray(values, dtype=np.float64)
    inc = np.diff(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = inc[1:] / inc[:-1]
        limits = v[2:] + inc[1:] * ratios / (1.0 - ratios)
        err = abs(limits[-1] - limits[-2]) if len(limits) > 1 else math.nan
    return {"values": v.tolist(), "increments": inc.tolist(), "ratios": ratios.tolist(),
            "limit": float(limits[-1]), "limit_err": float(err)}


def verify_thm13(alpha: float = 0.5, n_scales: int = 5, depth: int = 8) -> VerifyOutcome:
    """Heat-integral functional of the Cantor atom as a depth sequence, with
    dilation invariance and bounded spread across atom kinds.

    The Cantor atom runs once at each construction depth
    ``max(1, depth - 3)..depth``, and the increments of its totals must
    shrink geometrically (``depth_ratio_max``: every |Δ_{k+1} / Δ_k| below
    1), with the limit and its error bar from ``_refinement``.  The
    shallowest atom's dilates by 2^-1..2^-(n_scales-1) must match it
    (``dilation_max_rel_dev``), and the deepest atom's total is the Cantor
    kind's value against the loop and L∞ atoms (``kind_min``,
    ``kind_ratio``).  Every functional's tail estimate must be finite
    (``tail_estimate_max``).  All the cases go through one ``_map_cases``
    call, the longest first.
    """
    _check_scales(n_scales)
    # three depths give the two increments of one ratio
    if depth < 3:
        raise ValueError(f"--depth {depth}: the depth sequence needs --depth >= 3")
    depths = list(range(max(1, depth - 3), depth + 1))
    cantor = [atoms.make_frostman_atom(depth=k)[0] for k in depths]
    dilates = [_dilated_atom(cantor[0], 2.0 ** (-j)) for j in range(1, n_scales)]
    linf = atoms.make_linf_atom(1, 6)
    loop, _ = atoms.make_loop_atom(square_loop(16), 0, h=1.0 / 32.0)
    # longest first: the deepest Cantor atom, the loop atom, the shallower depths
    done = _map_cases(lambda c: potential.heat_besov_functional(c, alpha),
                      [cantor[-1], loop, *cantor[-2::-1], *dilates, linf])
    deep_res, loop_res, *rest, linf_res = done
    n = len(depths) - 1
    seq_res, dil_res = rest[:n][::-1] + [deep_res], rest[n:]
    base = seq_res[0]

    def row(atom, k, j, res):
        return [atom, k, j, res.total, res.below_split, res.above_split, res.tail_estimate]

    rows = ([row("cantor", k, 0, res) for k, res in zip(depths, seq_res)]
            + [row(f"cantor@2^-{j}", depths[0], j, res) for j, res in enumerate(dil_res, 1)]
            + [row("linf", "", 0, linf_res), row("loop", "", 0, loop_res)])
    # np.max, not max: a NaN deviation, ratio or tail is the largest and fails its check
    worst_dev = np.max([abs(res.total - base.total) / base.total for res in dil_res])
    ref = _refinement([res.total for res in seq_res])
    kind_vals = {"cantor": deep_res.total, "linf": linf_res.total, "loop": loop_res.total}
    # a NaN or a value <= 0 fails kind_min; an infinite one, kind_ratio
    return VerifyOutcome(
        name="thm13",
        checks=(Check("kind_min", np.min(list(kind_vals.values())), ">", 0.0),
                Check("dilation_max_rel_dev", worst_dev, "<=", _DILATION_TOL),
                Check("kind_ratio", max(kind_vals.values()) / min(kind_vals.values()),
                      "<=", _KIND_RATIO_CAP),
                Check("depth_ratio_max", np.max(np.abs(ref["ratios"])), "<", 1.0),
                Check("tail_estimate_max", np.max([res.tail_estimate for res in done]), "<",
                      math.inf)),
        results={"alpha": alpha, "kind_values": kind_vals,
                 "depth_sequence": {"depths": depths, **ref},
                 "functional": "heat-integral of Lorentz norms "
                               "(upper-bound surface, split at l(Q)^2)"},
        tables={"besov": (["atom", "depth", "scale_j", "total", "below_split",
                           "above_split", "tail_estimate"], rows)})


# ---------------------------------------------------------------------------
# trace inequalities
# ---------------------------------------------------------------------------

def _trace_outcome(name: str, rows, results: dict) -> VerifyOutcome:
    """A trace verdict from rows ``[j, s, trace, C_nu]``: every trace finite
    (traces are >= 0), and largest over smallest at most ``_SPREAD_CAP``."""
    traces = [row[2] for row in rows]
    return VerifyOutcome(
        name=name, checks=(Check("trace_max", np.max(traces), "<", math.inf),
                           Check("spread", max(traces) / min(traces), "<=", _SPREAD_CAP)),
        results={**results, "traces": traces,
                 "frostman_constants": [row[3] for row in rows]},
        tables={"trace": (["scale_j", "s", "trace", "nu_frostman_C"], rows)})


def verify_thm14(alpha: float = 0.5, n_scales: int = 5, depth: int = 8) -> VerifyOutcome:
    """Riesz-potential trace against a Frostman measure, uniform over jointly
    rescaled (atom, measure) pairs with the certified growth constant fixed.
    Each atom mass is spread over its construction cell ``[y - h, y + h]``
    (``measures.cantor_measure``), in closed form (``potential.riesz_cells``)."""
    _check_scales(n_scales)
    d = 1
    if not (d - atoms.LOG2_OVER_LOG3 < alpha < d):
        raise ValueError("alpha must lie in (d - beta, d)")
    cand, _ = atoms.make_frostman_atom(depth=depth)
    nu = measures.cantor_measure(depth)
    cfg = potential.RieszConfig(alpha=alpha, d=d)
    rows = []
    for j in range(n_scales):
        s = 2.0 ** (-j)
        a_s, nu_s = _scaled_pair(cand, nu, d - alpha, s)
        c_nu = measures.frostman_constant(nu_s, d - alpha, 2 * nu_s.h)
        pot = potential.riesz_cells(cfg, a_s.measure, nu_s.points(), a_s.measure.h)
        rows.append([j, s, potential.trace_integral(pot, nu_s), c_nu])
    return _trace_outcome("thm14", rows, {"alpha": alpha, "growth_exponent": d - alpha})


def verify_thm15(n_scales: int = 5, depth: int = 8) -> VerifyOutcome:
    """Endpoint trace: sup_t t^{alpha/2}|e^{t Delta} a| at alpha = d - beta."""
    _check_scales(n_scales)
    d = 1
    beta = atoms.LOG2_OVER_LOG3
    alpha = d - beta
    cand, _ = atoms.make_frostman_atom(depth=depth)
    nu = measures.cantor_measure(depth)

    def one_scale(j):
        s = 2.0 ** (-j)
        a_s, nu_s = _scaled_pair(cand, nu, d - alpha, s)
        c_nu = measures.frostman_constant(nu_s, d - alpha, 2 * nu_s.h)
        tg = heat.TGrid.for_measure(a_s.measure, nodes_per_decade=16)
        sup = heat.heat_sup_field(a_s.measure, alpha, nu_s.points(), tg,
                                  refine=False)
        tr = potential.trace_integral(sup.values, nu_s)
        return [j, s, tr, c_nu]

    return _trace_outcome("thm15", _map_cases(one_scale, range(n_scales)), {"alpha": alpha})


def verify_cor16() -> VerifyOutcome:
    """Divergence-free surrogate: every component of three closed-loop vector
    measures (on the 1/64 lattice) obeys one shared trace constant against a
    certified measure."""
    d = 2
    alpha = 1.0                      # = d - 1, the curve-measure endpoint
    nu = segment_measure()
    c_nu = measures.frostman_constant(nu, d - alpha, 4 * nu.h)
    loops = [("square", square_loop(16)), ("hexagon", ngon_loop(6)),
             ("circle64", ngon_loop(64))]
    rows = []
    for name, poly in loops:
        vm = measures.curve_measure(poly, 1.0 / 64.0)
        tv = vm.total_variation()
        for i in range(d):
            comp = vm.components[i]
            if comp.n_masses == 0:
                continue
            tg = heat.TGrid.for_measure(comp, nodes_per_decade=12)
            sup = heat.heat_sup_field(comp, alpha, nu.points(), tg, refine=False)
            tr = potential.trace_integral(sup.values, nu)
            rows.append([name, i, tr, tv, tr / tv])
    ratios = [row[4] for row in rows]
    shared_c = max(ratios)
    return VerifyOutcome(
        name="cor16",
        checks=(Check("ratio_max", np.max(ratios), "<", math.inf),
                Check("trace_excess", max(tr - shared_c * tv * (1 + 1e-12)
                                          for _, _, tr, tv, _ in rows), "<=", 0.0),
                Check("dispersion", max(ratios) / min(ratios), "<=", _DISPERSION_CAP)),
        results={"alpha": alpha, "shared_C": shared_c,
                 "nu_frostman_C": c_nu, "n_components": len(ratios)},
        tables={"loops": (["loop", "component", "trace", "total_variation",
                           "ratio"], rows)})


# ---------------------------------------------------------------------------
# dimension estimates
# ---------------------------------------------------------------------------

def verify_thm18(depth: int = 8, dirac_seed: int = 7) -> VerifyOutcome:
    """Dimension estimates for Lebesgue, Dirac, and the Cantor measure, plus
    the truncated maximal/Choquet diagnostic curves."""
    lat = measures.unit_lattice(1)
    betas = np.round(np.arange(0.05, 1.0001, 0.05), 4)
    rng = np.random.default_rng(dirac_seed)
    beta0 = atoms.LOG2_OVER_LOG3
    leb = measures.lebesgue_sample(1, 2.0 ** -10)
    dir1 = measures.dirac(1, x=[float(rng.integers(1, 1023)) / 1024.0], h=2.0 ** -10)
    can = measures.cantor_measure(depth)
    # probe down to the triadic construction scale 3^-depth/2, not below
    # (deeper cubes see bare atoms)
    j_can = int(math.floor(1.0 + depth * math.log2(3.0)))
    reps = {
        "lebesgue": dimension.lower_dim_estimate(leb, lat, betas, max_level=10),
        "dirac": dimension.lower_dim_estimate(dir1, lat, betas, max_level=16),
        "cantor": dimension.lower_dim_estimate(can, lat, betas, max_level=j_can),
    }
    curves_rows = [[name, b, dl, rep.curves[i, j]] for name, rep in reps.items()
                   for i, b in enumerate(rep.betas) for j, dl in enumerate(rep.deltas)]
    choquet_rows = [[name, 2.0 ** -lexp,
                     dimension.choquet_maximal_test(mu, lat, 0.5, 2.0 ** -lexp)]
                    for name, mu in [("lebesgue", leb), ("dirac", dir1)] for lexp in (3, 5, 8)]
    hats = {k: r.beta_hat for k, r in reps.items()}
    return VerifyOutcome(
        name="thm18",
        checks=(Check("lebesgue.beta_hat", hats["lebesgue"], ">=", 1.0 - _BETA_HAT_TOL),
                Check("dirac.beta_hat", hats["dirac"], "<=", _BETA_HAT_TOL),
                Check("cantor.beta_hat_error", abs(hats["cantor"] - beta0), "<=",
                      _BETA_HAT_TOL)),
        results={"beta_hat": hats, "tol_factor": reps["cantor"].tol_factor,
                 "cantor_depth": depth, "cantor_max_level": j_can},
        tables={"curves": (["measure", "beta", "delta", "captured_mass"],
                           curves_rows),
                "choquet_maximal": (["measure", "truncation", "value"],
                                    choquet_rows)})


def verify_thm19(depth: int = 8) -> VerifyOutcome:
    """Maximal/Choquet bound against the coefficient budget for a single atom
    and a 4-atom combination, one logged constant, plus the atom's
    certificate and the sums' dimension estimates."""
    cand, _ = atoms.make_frostman_atom(depth=depth)
    cert = atoms.check_beta_atom(cand)
    dec1 = atoms.AtomicDecomposition(entries=((1.0, cand),))
    rep1 = dimension.atom_sum_dimension_check(dec1, sample_level=7, max_level=13)
    dec4 = atoms.AtomicDecomposition(entries=tuple(
        (0.25, atoms.AtomCandidate(measure=cand.measure.translated([2.0 * i]),
                                   cube=Cube(corner=np.array([2.0 * i]), side=1.0),
                                   beta=cand.beta)) for i in range(4)))
    rep4 = dimension.atom_sum_dimension_check(dec4, sample_level=7, max_level=13)
    c1, c4 = rep1["bound_constant"], rep4["bound_constant"]
    shared_c = np.max([c1, c4])        # NaN if either is: both checks fail
    low = cand.beta - _BETA_HAT_DROP
    rows = [["single", rep1["budget"], rep1["maximal_l1"], c1, rep1["beta_hat"]],
            ["sum4", rep4["budget"], rep4["maximal_l1"], c4, rep4["beta_hat"]]]
    return VerifyOutcome(
        name="thm19",
        checks=(*(replace(c, name=f"certificate.{c.name}") for c in cert.checks),
                Check("single.beta_hat", rep1["beta_hat"], ">=", low),
                Check("sum4.beta_hat", rep4["beta_hat"], ">=", low),
                Check("shared_C", shared_c, "<", math.inf),
                Check("constant_spread", shared_c / np.min([c1, c4]), "<=", _C_SPREAD_CAP)),
        results={"beta": cand.beta,
                 "level_sum_final": {"single": rep1["level_sums"][-1],
                                     "sum4": rep4["level_sums"][-1]},
                 "convention": rep1["convention"]},
        tables={"atomsum": (["case", "budget", "maximal_l1", "C", "beta_hat"],
                            rows)})


VERIFIERS = {
    "thm13": verify_thm13,
    "thm14": verify_thm14,
    "thm15": verify_thm15,
    "cor16": verify_cor16,
    "thm18": verify_thm18,
    "thm19": verify_thm19,
}
