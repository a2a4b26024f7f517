"""Command-line frontend: config-driven experiment runner.

Exit codes: 0 all declared checks pass, 1 a check failed (the failing
invariant is named on stderr), 2 usage or config errors.  Every run writes a
JSON summary embedding the tool version, the resolved config and its hash,
and all logged constants; data goes to CSV.  Reruns with one seed produce
byte-identical CSVs.  Only the output directory may come from the
environment (``FRACMEAS_OUT``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import atoms, content, dimension, heat, io, maximal, measures, potential
from .verify import VERIFIERS


def _fail(msg: str, code: int = 2):
    print(f"fracmeas: {msg}", file=sys.stderr)
    raise SystemExit(code)


def _outdir(args) -> str:
    out = args.out or os.environ.get("FRACMEAS_OUT") or "fracmeas_out"
    return io.ensure_dir(out)


def _load_measure(path: str) -> measures.GridMeasure:
    if not os.path.exists(path):
        _fail(f"measure file not found: {path}")
    return io.load_measure(path)


def _report(args, name: str, results: dict, constants: dict | None = None,
            config: dict | None = None) -> str:
    out = _outdir(args)
    cfg = dict(config or {})
    cfg.setdefault("command", name)
    if getattr(args, "seed", None) is not None:
        cfg.setdefault("seed", args.seed)
    path = os.path.join(out, f"{name}.json")
    io.write_report(path, cfg, results, constants)
    return path


# ---------------------------------------------------------------------------
# atom subcommands
# ---------------------------------------------------------------------------

def cmd_atom_gen(args) -> int:
    out = _outdir(args)
    if args.kind == "cantor":
        cand, info = atoms.make_frostman_atom(beta=args.beta or measures.LOG2_OVER_LOG3,
                                              depth=args.depth)
    elif args.kind == "linf":
        cand = atoms.make_linf_atom(1, args.depth)
        info = {"resolution": args.depth}
    elif args.kind == "loop":
        from .verify import square_loop
        cand, info = atoms.make_loop_atom(square_loop(args.depth), args.component,
                                          h=1.0 / (2.0 * args.depth))
    else:
        _fail(f"unknown atom kind {args.kind}")
    path = os.path.join(out, f"atom_{args.kind}.csv")
    io.save_measure(cand.measure, path)
    _report(args, f"atom_gen_{args.kind}",
            {"measure_csv": path, "beta": cand.beta,
             "cube_corner": [float(v) for v in cand.cube.corner],
             "cube_side": cand.side, "build": info},
            config={"kind": args.kind, "depth": args.depth, "beta": args.beta})
    return 0


def cmd_atom_check(args) -> int:
    mu = _load_measure(args.measure)
    corner = np.array(args.cube_corner or [0.0] * mu.d)
    cand = atoms.AtomCandidate(measure=mu,
                               cube=measures.Cube(corner=corner, side=args.cube_side),
                               beta=args.beta)
    tg = None
    if args.t_lo is not None and args.t_hi is not None:
        tg = heat.TGrid.build(args.t_lo, args.t_hi, args.npd)
    cert = atoms.check_beta_atom(cand, tgrid=tg)
    _report(args, "atom_check", cert.to_dict(),
            config={"measure": args.measure, "beta": args.beta,
                    "cube_side": args.cube_side,
                    "t_lo": args.t_lo, "t_hi": args.t_hi})
    if not cert.all_pass:
        failing = [k for k, v in cert.passes.items() if not v]
        print(f"atom check FAILED conditions: {failing}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# heat / potential / maximal / content / dim subcommands
# ---------------------------------------------------------------------------

def cmd_heat(args) -> int:
    mu = _load_measure(args.measure)
    tg = heat.TGrid.for_measure(mu, nodes_per_decade=args.npd)
    pts = mu.points()
    fld = heat.heat_field(mu, tg, pts)
    out = _outdir(args)
    io.save_heat_field(fld, os.path.join(out, "heat_field.csv"))
    worst = 0.0
    for t in tg.nodes[:: max(1, len(tg.nodes) // 8)]:
        worst = max(worst, heat.mass_conservation_residual(mu, float(t)))
    tv = mu.total_variation()
    ok = worst <= 1e-6 * max(tv, 1e-300)
    _report(args, "heat", {"mass_conservation_residual": worst,
                           "total_variation": tv, "pass": ok},
            config={"measure": args.measure, "npd": args.npd})
    if not ok:
        print("heat mass conservation FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_potential_riesz(args) -> int:
    mu = _load_measure(args.measure)
    rr = np.geomspace(args.r_lo, args.r_hi, args.n_points)
    pts = np.zeros((len(rr), mu.d))
    pts[:, 0] = rr
    center = 0.5 * (mu.bbox()[0] + mu.bbox()[1])
    pts += center[None, :]
    cfg = potential.RieszConfig(alpha=args.alpha, d=mu.d)
    k = potential.riesz_kernel(cfg, mu, pts)
    hres = potential.riesz_heat(cfg, mu, pts)
    good = np.isfinite(k) & (np.abs(k) > 0)
    rel = float(np.max(np.abs(hres.values[good] - k[good]) / np.abs(k[good]))) \
        if np.any(good) else 0.0
    out = _outdir(args)
    io.write_csv(os.path.join(out, "riesz.csv"),
                 [f"x{a}" for a in range(mu.d)] + ["kernel", "heat_route"],
                 [list(p) + [kv, hv] for p, kv, hv in zip(pts, k, hres.values)])
    ok = rel <= args.tol and not hres.flagged
    _report(args, "potential_riesz",
            {"max_rel_gap": rel, "quad_error_est": hres.quad_error_est,
             "flagged": hres.flagged, "pass": ok},
            config={"measure": args.measure, "alpha": args.alpha, "tol": args.tol})
    if not ok:
        print("riesz route equivalence FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_potential_besov(args) -> int:
    mu = _load_measure(args.measure)
    corner = np.array(args.cube_corner or [0.0] * mu.d)
    cand = atoms.AtomCandidate(measure=mu,
                               cube=measures.Cube(corner=corner, side=args.cube_side),
                               beta=args.beta)
    res = potential.heat_besov_functional(cand, args.alpha)
    _report(args, "potential_besov",
            {"total": res.total, "below_split": res.below_split,
             "above_split": res.above_split, "tail_estimate": res.tail_estimate,
             "p": res.p, "split_t": res.split_t, "flagged": res.flagged,
             "label": "heat-integral functional (upper-bound surface)"},
            config={"measure": args.measure, "alpha": args.alpha,
                    "beta": args.beta, "cube_side": args.cube_side})
    return 1 if res.flagged else 0


def cmd_potential_trace(args) -> int:
    outcome = VERIFIERS["thm14"](alpha=args.alpha, n_scales=args.scales,
                                 depth=args.depth)
    return _emit_outcome(args, outcome, "potential_trace")


def cmd_maximal(args) -> int:
    mu = _load_measure(args.measure)
    out = _outdir(args)
    pts = mu.points()
    if args.variant in ("dyadic", "truncated"):
        lat = measures.unit_lattice(mu.d)
        if args.variant == "truncated":
            fld = maximal.truncated_dyadic_maximal(mu, lat, args.gamma,
                                                   args.truncation, pts,
                                                   args.k_min, args.k_max)
        else:
            fld = maximal.dyadic_maximal(mu, lat, args.gamma, pts,
                                         args.k_min, args.k_max)
    elif args.variant in ("grand", "antilocal"):
        fam = maximal.standard_family(mu.d)
        tg = heat.TGrid.for_measure(mu, nodes_per_decade=args.npd)
        if args.variant == "antilocal":
            fld = maximal.anti_local_maximal(mu, fam, args.gamma, args.rho, pts, tg)
        else:
            fld = maximal.grand_maximal(mu, fam, args.gamma, pts, tg)
    else:
        _fail(f"unknown maximal variant {args.variant}")
    io.save_maximal_field(fld, os.path.join(out, f"maximal_{args.variant}.csv"))
    _report(args, f"maximal_{args.variant}",
            {"max_value": float(np.max(fld.values)), "n_points": len(pts),
             "convention": fld.convention},
            config={"measure": args.measure, "variant": args.variant,
                    "gamma": args.gamma})
    return 0


def cmd_maximal_lp(args) -> int:
    mu = _load_measure(args.measure)
    out = _outdir(args)
    try:
        fld = (maximal.lp_band if args.band else maximal.lp_lowpass)(mu, args.k)
    except ValueError as exc:
        _fail(str(exc), 1)
    name = "band" if args.band else "lowpass"
    io.write_csv(os.path.join(out, f"lp_{name}.csv"),
                 [f"x{a}" for a in range(mu.d)] + ["value"],
                 [list(p) + [v] for p, v in zip(fld.points(), fld.values.ravel())])
    _report(args, f"lp_{name}",
            {"k": args.k, "grid_sum": fld.grid_sum(),
             "measure_mass": mu.total_mass()},
            config={"measure": args.measure, "k": args.k, "band": args.band})
    return 0


def _load_balls(path: str) -> content.BallFamily | None:
    if not os.path.exists(path):
        _fail(f"ball file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines()[1:] if ln.strip()]
    if not lines:
        return None
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    return content.make_ball_family(data[:, :-1], data[:, -1])


def cmd_content(args) -> int:
    out = _outdir(args)
    if args.action == "cover":
        F = _load_balls(args.balls)
        if F is None:
            io.write_csv(os.path.join(out, "cover.csv"),
                         ["type", "corner0", "size", "witness_ball_id"], [])
            _report(args, "content_cover",
                    {"n_elements": 0, "total": 0.0, "empty_input": True},
                    config={"balls": args.balls, "beta": args.beta})
            return 0
        cov = content.regularized_cover(F, args.beta)
        io.save_cover(cov, os.path.join(out, "cover.csv"))
        ok = bool(np.all(cov.witness_ratio >= cov.constants["c"] - 1e-12))
        _report(args, "content_cover",
                {"n_elements": cov.n_elements, "total": cov.total,
                 "witness_min_ratio": float(np.min(cov.witness_ratio)),
                 "pass": ok},
                constants=cov.constants,
                config={"balls": args.balls, "beta": args.beta})
        if not ok:
            print("cover postcondition FAILED (witness ratio below c)",
                  file=sys.stderr)
            return 1
        return 0
    if args.action == "value":
        F = _load_balls(args.balls)
        if F is None:
            val, upper = 0.0, 0.0
        else:
            lat = measures.unit_lattice(F.d)
            r_min = float(np.min(F.radii))
            lvl = int(math.ceil(math.log2(1.0 / (r_min / 4.0))))
            raster = content.rasterize_balls(F, lat, lvl)
            val = content.dyadic_content(raster, args.beta)
            upper = content.spherical_content_upper(F, args.beta)
        _report(args, "content_value",
                {"dyadic_content": val, "spherical_upper": upper},
                config={"balls": args.balls, "beta": args.beta})
        return 0
    if args.action == "choquet":
        with open(args.field, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines()[1:] if ln.strip()]
        if not lines:
            _report(args, "content_choquet", {"value": 0.0},
                    config={"field": args.field, "beta": args.beta})
            return 0
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines])
        d = data.shape[1] - 2
        lat = measures.unit_lattice(d)
        level = int(data[0, 0])
        val = content.choquet_integral(data[:, 1:1 + d].astype(np.int64),
                                       data[:, -1], lat, level, args.beta)
        _report(args, "content_choquet", {"value": val},
                config={"field": args.field, "beta": args.beta})
        return 0
    _fail(f"unknown content action {args.action}")


def cmd_dim(args) -> int:
    out = _outdir(args)
    if args.action == "estimate":
        mu = _load_measure(args.measure)
        lat = measures.unit_lattice(mu.d)
        betas = np.round(np.arange(args.beta_step, mu.d + 1e-9, args.beta_step), 6)
        rep = dimension.lower_dim_estimate(mu, lat, betas, max_level=args.depth)
        io.save_modulus_curves(rep, os.path.join(out, "modulus_curves.csv"))
        _report(args, "dim_estimate", rep.to_dict(),
                config={"measure": args.measure, "depth": args.depth,
                        "beta_step": args.beta_step})
        return 0
    if args.action == "atomsum":
        outcome = VERIFIERS["thm19"](depth=args.depth)
        return _emit_outcome(args, outcome, "dim_atomsum")
    _fail(f"unknown dim action {args.action}")


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------

def _emit_outcome(args, outcome, name=None) -> int:
    out = _outdir(args)
    name = name or f"verify_{outcome.name}"
    for tname, (header, rows) in outcome.tables.items():
        io.write_csv(os.path.join(out, f"{name}_{tname}.csv"), header, rows)
    _report(args, name, {"pass": outcome.ok, **outcome.results},
            config=getattr(args, "_config", None) or {"verifier": outcome.name})
    if not outcome.ok:
        print(f"{name} FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    fn = VERIFIERS.get(args.target)
    if fn is None:
        _fail(f"unknown verify target {args.target}")
    kwargs = {}
    if args.target == "thm13":
        kwargs = {"alpha": args.alpha, "n_scales": args.scales, "depth": args.depth}
    elif args.target == "thm14":
        kwargs = {"alpha": args.alpha, "n_scales": args.scales, "depth": args.depth}
    elif args.target == "thm15":
        kwargs = {"n_scales": args.scales, "depth": args.depth}
    elif args.target == "thm18":
        kwargs = {"depth": args.depth, "dirac_seed": args.seed}
    elif args.target == "thm19":
        kwargs = {"depth": args.depth}
    args._config = {"verifier": args.target, **{k: v for k, v in kwargs.items()}}
    outcome = fn(**kwargs)
    return _emit_outcome(args, outcome)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracmeas",
        description="desk-scale experiments on fractal measures")
    ap.add_argument("--config", help="JSON config file; flags override its keys")
    ap.add_argument("--out", help="output directory (or FRACMEAS_OUT)")
    ap.add_argument("--seed", type=int, default=7, help="seed for random instances")
    sub = ap.add_subparsers(dest="command", required=True)

    atom = sub.add_parser("atom", help="atom generation and certification")
    atomsub = atom.add_subparsers(dest="action", required=True)
    g = atomsub.add_parser("gen")
    g.add_argument("--kind", choices=["cantor", "linf", "loop"], required=True)
    g.add_argument("--beta", type=float, default=None)
    g.add_argument("--depth", type=int, default=8)
    g.add_argument("--component", type=int, default=0)
    g.set_defaults(func=cmd_atom_gen)
    c = atomsub.add_parser("check")
    c.add_argument("--measure", required=True)
    c.add_argument("--beta", type=float, required=True)
    c.add_argument("--cube-corner", type=float, nargs="*", default=None)
    c.add_argument("--cube-side", type=float, default=1.0)
    c.add_argument("--t-lo", type=float, default=None)
    c.add_argument("--t-hi", type=float, default=None)
    c.add_argument("--npd", type=int, default=16)
    c.set_defaults(func=cmd_atom_check)

    h = sub.add_parser("heat", help="heat field over the default time grid")
    h.add_argument("--measure", required=True)
    h.add_argument("--npd", type=int, default=8)
    h.set_defaults(func=cmd_heat)

    pot = sub.add_parser("potential")
    potsub = pot.add_subparsers(dest="action", required=True)
    pr = potsub.add_parser("riesz")
    pr.add_argument("--measure", required=True)
    pr.add_argument("--alpha", type=float, required=True)
    pr.add_argument("--r-lo", type=float, default=0.1)
    pr.add_argument("--r-hi", type=float, default=10.0)
    pr.add_argument("--n-points", type=int, default=12)
    pr.add_argument("--tol", type=float, default=1e-3)
    pr.set_defaults(func=cmd_potential_riesz)
    pb = potsub.add_parser("besov")
    pb.add_argument("--measure", required=True)
    pb.add_argument("--alpha", type=float, required=True)
    pb.add_argument("--beta", type=float, required=True)
    pb.add_argument("--cube-corner", type=float, nargs="*", default=None)
    pb.add_argument("--cube-side", type=float, default=1.0)
    pb.set_defaults(func=cmd_potential_besov)
    pt = potsub.add_parser("trace")
    pt.add_argument("--alpha", type=float, default=0.5)
    pt.add_argument("--scales", type=int, default=5)
    pt.add_argument("--depth", type=int, default=8)
    pt.set_defaults(func=cmd_potential_trace)

    mx = sub.add_parser("maximal")
    mxsub = mx.add_subparsers(dest="variant", required=True)
    for variant in ("dyadic", "truncated", "grand", "antilocal"):
        m = mxsub.add_parser(variant)
        m.add_argument("--measure", required=True)
        m.add_argument("--gamma", type=float, required=True)
        m.add_argument("--k-min", type=int, default=0)
        m.add_argument("--k-max", type=int, default=12)
        m.add_argument("--npd", type=int, default=16)
        if variant == "truncated":
            m.add_argument("--truncation", type=float, required=True)
        if variant == "antilocal":
            m.add_argument("--rho", type=float, required=True)
        m.set_defaults(func=cmd_maximal, variant=variant)
    lp = mxsub.add_parser("lp")
    lp.add_argument("--measure", required=True)
    lp.add_argument("--k", type=int, required=True)
    lp.add_argument("--band", action="store_true")
    lp.set_defaults(func=cmd_maximal_lp)

    ct = sub.add_parser("content")
    ctsub = ct.add_subparsers(dest="action", required=True)
    cv = ctsub.add_parser("value")
    cv.add_argument("--balls", required=True)
    cv.add_argument("--beta", type=float, required=True)
    cv.set_defaults(func=cmd_content, action="value")
    cc = ctsub.add_parser("cover")
    cc.add_argument("--balls", required=True)
    cc.add_argument("--beta", type=float, required=True)
    cc.set_defaults(func=cmd_content, action="cover")
    cq = ctsub.add_parser("choquet")
    cq.add_argument("--field", required=True)
    cq.add_argument("--beta", type=float, required=True)
    cq.set_defaults(func=cmd_content, action="choquet")

    dm = sub.add_parser("dim")
    dmsub = dm.add_subparsers(dest="action", required=True)
    de = dmsub.add_parser("estimate")
    de.add_argument("--measure", required=True)
    de.add_argument("--depth", type=int, default=14)
    de.add_argument("--beta-step", type=float, default=0.05)
    de.set_defaults(func=cmd_dim, action="estimate")
    da = dmsub.add_parser("atomsum")
    da.add_argument("--depth", type=int, default=8)
    da.set_defaults(func=cmd_dim, action="atomsum")

    vf = sub.add_parser("verify", help="theorem-level verification suites")
    vf.add_argument("target", choices=sorted(VERIFIERS))
    vf.add_argument("--alpha", type=float, default=0.5)
    vf.add_argument("--scales", type=int, default=5)
    vf.add_argument("--depth", type=int, default=8)
    vf.set_defaults(func=cmd_verify)
    return ap


def _apply_config(ap: argparse.ArgumentParser, argv):
    """Pull defaults from --config JSON; explicit flags still win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        with open(argv[i + 1], "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, IndexError) as exc:
        _fail(f"bad config file: {exc}")
    extra = []
    for key, val in sorted(cfg.items()):
        flag = "--" + key.replace("_", "-")
        if flag not in argv:
            if isinstance(val, bool):
                if val:
                    extra.append(flag)
            elif isinstance(val, list):
                extra.extend([flag] + [str(v) for v in val])
            else:
                extra.extend([flag, str(val)])
    return argv + extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    argv = _apply_config(ap, argv)
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ValueError as exc:
        _fail(f"invalid configuration: {exc}")
    except (RuntimeError, AssertionError) as exc:
        _fail(f"invariant violated: {exc}", code=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
