"""Theorem-level verification harnesses.

Each ``verify_*`` function runs one desk-scale experiment suite, returns a
``VerifyOutcome`` with a pass flag, a results dict (every logged constant
included), and named CSV tables.  The CLI wraps these; the acceptance test
suite calls them directly.  All randomness flows from an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import atoms, dimension, heat, measures, potential
from .measures import Cube


@dataclass
class VerifyOutcome:
    name: str
    ok: bool
    results: dict
    tables: dict = field(default_factory=dict)   # name -> (header, rows)


# ---------------------------------------------------------------------------
# shared geometry helpers
# ---------------------------------------------------------------------------

def square_loop(n_per_side: int = 16) -> np.ndarray:
    """Closed unit-square polyline, counterclockwise."""
    s = np.linspace(0.0, 1.0, n_per_side + 1)
    bottom = np.stack([s, np.zeros_like(s)], axis=1)
    right = np.stack([np.ones_like(s), s], axis=1)[1:]
    top = np.stack([s[::-1], np.ones_like(s)], axis=1)[1:]
    left = np.stack([np.zeros_like(s), s[::-1]], axis=1)[1:]
    return np.vstack([bottom, right, top, left])


def ngon_loop(n: int, radius: float = 0.35, center=(0.5, 0.5)) -> np.ndarray:
    th = 2.0 * np.pi * np.arange(n + 1) / n
    pts = np.stack([center[0] + radius * np.cos(th),
                    center[1] + radius * np.sin(th)], axis=1)
    pts[-1] = pts[0]
    return pts


def segment_measure(n: int = 128, h: float = 1.0 / 512.0) -> measures.GridMeasure:
    """Arclength measure on a diagonal segment in the unit square (2d);
    satisfies nu(B(x,r)) <= C r."""
    t = (np.arange(n) + 0.5) / n
    pts = np.stack([0.1 + 0.8 * t, 0.15 + 0.7 * t], axis=1)
    idx = np.rint(pts / h).astype(np.int64)
    seg_len = math.hypot(0.8, 0.7)
    return measures.new_grid_measure(2, h, [0.0, 0.0], idx,
                                     np.full(n, seg_len / n), name="segment")


def _scaled_pair(cand: atoms.AtomCandidate, nu: measures.GridMeasure,
                 growth_exp: float, s: float):
    """Jointly rescaled (atom, trace measure) with the growth constant of nu
    held fixed: the dilation is mass-preserving on the atom and renormalized
    by s^growth_exp on nu."""
    origin = cand.cube.corner
    a_s = atoms.AtomCandidate(
        measure=cand.measure.dilated(s, origin).translated(origin),
        cube=Cube(corner=origin, side=cand.side * s), beta=cand.beta)
    nu_s = nu.dilated(s, origin).translated(origin).scaled(s ** growth_exp)
    return a_s, nu_s


# ---------------------------------------------------------------------------
# strong-type inequality (heat-integral functional)
# ---------------------------------------------------------------------------

def verify_thm13(alpha: float = 0.5, n_scales: int = 7, depth: int = 6,
                 dilation_tol: float = 0.02, kind_ratio_cap: float = 10.0) -> VerifyOutcome:
    """Heat-integral functional: dilation invariance across scales 2^0..2^-(n-1)
    and finiteness with bounded spread across atom kinds."""
    cand, _ = atoms.make_frostman_atom(depth=depth)
    base = potential.heat_besov_functional(cand, alpha)
    rows = [["cantor", 0, base.total, base.below_split, base.above_split]]
    worst_dev = 0.0
    for j in range(1, n_scales):
        s = 2.0 ** (-j)
        dil = atoms.AtomCandidate(
            measure=cand.measure.dilated(s, cand.cube.corner).translated(cand.cube.corner),
            cube=Cube(corner=cand.cube.corner, side=cand.side * s),
            beta=cand.beta)
        res = potential.heat_besov_functional(dil, alpha)
        worst_dev = max(worst_dev, abs(res.total - base.total) / base.total)
        rows.append([f"cantor@2^-{j}", j, res.total, res.below_split, res.above_split])
    kind_vals = {"cantor": base.total}
    linf = atoms.make_linf_atom(1, 6)
    kind_vals["linf"] = potential.heat_besov_functional(linf, alpha).total
    loop, _ = atoms.make_loop_atom(square_loop(16), 0, h=1.0 / 32.0)
    kind_vals["loop"] = potential.heat_besov_functional(loop, alpha).total
    for k, v in kind_vals.items():
        if k != "cantor":
            rows.append([k, 0, v, math.nan, math.nan])
    finite = all(math.isfinite(v) and v > 0 for v in kind_vals.values())
    ratio = max(kind_vals.values()) / min(kind_vals.values())
    ok = finite and worst_dev <= dilation_tol and ratio <= kind_ratio_cap
    return VerifyOutcome(
        name="thm13", ok=ok,
        results={"alpha": alpha, "dilation_max_rel_dev": worst_dev,
                 "dilation_tol": dilation_tol, "kind_values": kind_vals,
                 "kind_ratio": ratio, "kind_ratio_cap": kind_ratio_cap,
                 "functional": "heat-integral of Lorentz norms "
                               "(upper-bound surface, split at l(Q)^2)"},
        tables={"besov": (["atom", "scale_j", "total", "below_split", "above_split"],
                          rows)})


# ---------------------------------------------------------------------------
# trace inequalities
# ---------------------------------------------------------------------------

def verify_thm14(alpha: float = 0.5, n_scales: int = 5, depth: int = 8,
                 spread_cap: float = 2.0) -> VerifyOutcome:
    """Riesz-potential trace against a Frostman measure, uniform over jointly
    rescaled (atom, measure) pairs with the certified growth constant fixed."""
    d = 1
    if not (d - atoms.LOG2_OVER_LOG3 < alpha < d):
        raise ValueError("alpha must lie in (d - beta, d)")
    cand, _ = atoms.make_frostman_atom(depth=depth)
    nu, _ = measures.cantor_frostman(depth, 1.0)
    cfg = potential.RieszConfig(alpha=alpha, d=d)
    rows, traces, consts = [], [], []
    riesz_nodes = {"evaluated": [], "total": []}
    for j in range(n_scales):
        s = 2.0 ** (-j)
        a_s, nu_s = _scaled_pair(cand, nu, d - alpha, s)
        cert = measures.frostman_constant(
            nu_s, d - alpha, measures.default_radius_grid(nu_s, r_min=2 * nu_s.h))
        nu_pts = nu_s.points()
        h_f = nu_s.h / 2.0
        lo = min(a_s.measure.bbox()[0][0], nu_s.bbox()[0][0]) - 0.1 * s
        hi = max(a_s.measure.bbox()[1][0], nu_s.bbox()[1][0]) + 0.1 * s
        n = int((hi - lo) / h_f) + 2
        # grid offset by an irrational-ish fraction: no evaluation at masses;
        # only the nodes the trace interpolates from are evaluated
        fld = potential.riesz_field(cfg, a_s.measure, [lo + 0.2371 * h_f], h_f, [n],
                                    at=nu_pts)
        tr = potential.trace_integral(fld, nu_s)
        riesz_nodes["evaluated"].append(len(np.unique(fld.stencil(nu_pts)[0])))
        riesz_nodes["total"].append(n)
        traces.append(tr)
        consts.append(cert.constant)
        rows.append([j, s, tr, cert.constant])
    spread = max(traces) / min(traces)
    finite = all(math.isfinite(v) for v in traces)
    ok = finite and spread <= spread_cap
    return VerifyOutcome(
        name="thm14", ok=ok,
        results={"alpha": alpha, "traces": traces, "spread": spread,
                 "spread_cap": spread_cap, "frostman_constants": consts,
                 "growth_exponent": d - alpha,
                 "riesz_nodes": riesz_nodes},
        tables={"trace": (["scale_j", "s", "trace", "nu_frostman_C"], rows)})


def verify_thm15(n_scales: int = 5, depth: int = 8,
                 spread_cap: float = 2.0) -> VerifyOutcome:
    """Endpoint trace: sup_t t^{alpha/2}|e^{t Delta} a| at alpha = d - beta."""
    d = 1
    beta = atoms.LOG2_OVER_LOG3
    alpha = d - beta
    cand, _ = atoms.make_frostman_atom(depth=depth)
    nu, _ = measures.cantor_frostman(depth, 1.0)
    rows, traces, consts = [], [], []
    for j in range(n_scales):
        s = 2.0 ** (-j)
        a_s, nu_s = _scaled_pair(cand, nu, d - alpha, s)
        cert = measures.frostman_constant(
            nu_s, d - alpha, measures.default_radius_grid(nu_s, r_min=2 * nu_s.h))
        tg = heat.TGrid.for_measure(a_s.measure, nodes_per_decade=16)
        sup = heat.heat_sup_field(a_s.measure, alpha, nu_s.points(), tg,
                                  refine=False)
        tr = potential.trace_integral(sup.values, nu_s, values_at=True)
        traces.append(tr)
        consts.append(cert.constant)
        rows.append([j, s, tr, cert.constant])
    spread = max(traces) / min(traces)
    ok = all(math.isfinite(v) for v in traces) and spread <= spread_cap
    return VerifyOutcome(
        name="thm15", ok=ok,
        results={"alpha": alpha, "traces": traces, "spread": spread,
                 "spread_cap": spread_cap, "frostman_constants": consts},
        tables={"trace": (["scale_j", "s", "trace", "nu_frostman_C"], rows)})


def verify_cor16(h: float = 1.0 / 64.0, dispersion_cap: float = 10.0) -> VerifyOutcome:
    """Divergence-free surrogate: every component of three closed-loop vector
    measures obeys one shared trace constant against a certified measure."""
    d = 2
    alpha = 1.0                      # = d - 1, the curve-measure endpoint
    nu = segment_measure()
    cert = measures.frostman_constant(
        nu, d - alpha, measures.default_radius_grid(nu, r_min=4 * nu.h))
    loops = [("square", square_loop(16)), ("hexagon", ngon_loop(6)),
             ("circle64", ngon_loop(64))]
    rows, ratios = [], []
    for name, poly in loops:
        vm = measures.curve_measure(poly, h)
        tv = vm.total_variation()
        for i in range(d):
            comp = vm.components[i]
            if comp.n_masses == 0:
                continue
            tg = heat.TGrid.for_measure(comp, nodes_per_decade=12)
            sup = heat.heat_sup_field(comp, alpha, nu.points(), tg, refine=False)
            tr = potential.trace_integral(sup.values, nu, values_at=True)
            ratios.append(tr / tv)
            rows.append([name, i, tr, tv, tr / tv])
    shared_c = max(ratios)
    dispersion = max(ratios) / min(ratios)
    ok = (all(math.isfinite(r) for r in ratios)
          and all(tr <= shared_c * tv * (1 + 1e-12) for _, _, tr, tv, _ in rows)
          and dispersion <= dispersion_cap)
    return VerifyOutcome(
        name="cor16", ok=ok,
        results={"alpha": alpha, "shared_C": shared_c, "dispersion": dispersion,
                 "dispersion_cap": dispersion_cap,
                 "nu_frostman_C": cert.constant, "n_components": len(ratios)},
        tables={"loops": (["loop", "component", "trace", "total_variation",
                           "ratio"], rows)})


# ---------------------------------------------------------------------------
# dimension estimates
# ---------------------------------------------------------------------------

def verify_thm18(depth: int = 10, dirac_seed: int = 7) -> VerifyOutcome:
    """Dimension estimates for Lebesgue, Dirac, and the Cantor measure, plus
    the truncated maximal/Choquet diagnostic curves."""
    lat = measures.unit_lattice(1)
    betas = np.round(np.arange(0.05, 1.0001, 0.05), 4)
    rng = np.random.default_rng(dirac_seed)
    beta0 = atoms.LOG2_OVER_LOG3
    leb = measures.lebesgue_sample(1, 2.0 ** -10)
    dir1 = measures.dirac(1, x=[float(rng.integers(1, 1023)) / 1024.0], h=2.0 ** -10)
    can, _ = measures.cantor_frostman(depth, 1.0)
    # probe down to the triadic construction scale 3^-depth/2, not below
    # (deeper cubes see bare atoms)
    j_can = int(math.floor(1.0 + depth * math.log2(3.0)))
    reps = {
        "lebesgue": dimension.lower_dim_estimate(leb, lat, betas, max_level=10),
        "dirac": dimension.lower_dim_estimate(dir1, lat, betas, max_level=16),
        "cantor": dimension.lower_dim_estimate(can, lat, betas, max_level=j_can),
    }
    curves_rows = []
    for name, rep in reps.items():
        for i, b in enumerate(rep.betas):
            for j, dl in enumerate(rep.deltas):
                curves_rows.append([name, b, dl, rep.curves[i, j]])
    choquet_rows = []
    for name, mu in [("lebesgue", leb), ("dirac", dir1)]:
        for lexp in (3, 5, 8):
            v = dimension.choquet_maximal_test(mu, lat, 0.5, 2.0 ** -lexp)
            choquet_rows.append([name, 2.0 ** -lexp, v])
    ok = (reps["lebesgue"].beta_hat >= 1.0 - 0.05
          and reps["dirac"].beta_hat <= 0.05
          and abs(reps["cantor"].beta_hat - beta0) <= 0.05)
    return VerifyOutcome(
        name="thm18", ok=ok,
        results={"beta_hat": {k: r.beta_hat for k, r in reps.items()},
                 "expected": {"lebesgue": ">= 0.95", "dirac": "<= 0.05",
                              "cantor": f"{beta0:.4f} +- 0.05"},
                 "tol_factor": reps["cantor"].tol_factor,
                 "cantor_depth": depth, "cantor_max_level": j_can},
        tables={"curves": (["measure", "beta", "delta", "captured_mass"],
                           curves_rows),
                "choquet_maximal": (["measure", "truncation", "value"],
                                    choquet_rows)})


def verify_thm19(depth: int = 8, c_spread_cap: float = 2.0) -> VerifyOutcome:
    """Maximal/Choquet bound against the coefficient budget for a single atom
    and a 4-atom combination, one logged constant, plus dimension passes."""
    cand, _ = atoms.make_frostman_atom(depth=depth)
    cert = atoms.check_beta_atom(cand)
    dec1 = atoms.AtomicDecomposition(entries=((1.0, cand, cert),))
    rep1 = dimension.atom_sum_dimension_check(dec1, sample_level=7, max_level=13)
    entries = []
    for i in range(4):
        m = cand.measure.translated([2.0 * i])
        c = atoms.AtomCandidate(measure=m,
                                cube=Cube(corner=np.array([2.0 * i]), side=1.0),
                                beta=cand.beta)
        entries.append((0.25, c, None))
    dec4 = atoms.AtomicDecomposition(entries=tuple(entries))
    rep4 = dimension.atom_sum_dimension_check(dec4, sample_level=7, max_level=13)
    c1, c4 = rep1["bound_constant"], rep4["bound_constant"]
    shared_c = max(c1, c4)
    spread = shared_c / min(c1, c4)
    ok = (rep1["dim_pass"] and rep4["dim_pass"]
          and math.isfinite(shared_c) and spread <= c_spread_cap)
    rows = [["single", rep1["budget"], rep1["maximal_l1"], c1, rep1["beta_hat"]],
            ["sum4", rep4["budget"], rep4["maximal_l1"], c4, rep4["beta_hat"]]]
    return VerifyOutcome(
        name="thm19", ok=ok,
        results={"shared_C": shared_c, "constant_spread": spread,
                 "c_spread_cap": c_spread_cap,
                 "beta": cand.beta,
                 "beta_hat": {"single": rep1["beta_hat"], "sum4": rep4["beta_hat"]},
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
