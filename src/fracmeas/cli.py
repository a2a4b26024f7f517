"""Command-line frontend: config-driven experiment runner.

Exit codes: 0 all declared checks pass, 1 a check failed or memory ran out,
2 usage or config errors.  Every command that judges ends in ``_verdict``:
its report holds ``pass`` and ``checks`` (``io.Check``: ``value op
bound``), and a failure prints ``<report> FAILED: <name>: <value> <op>
<bound>; ...`` on stderr, one entry per failing check.  Each subcommand
registers only the flags it reads, so any other flag is a usage error; a
``verify`` target's flags and their defaults are its verifier's parameters.
Every run writes a JSON summary embedding the tool version, the config
(every flag the run parsed, with ``command`` naming the report) and its
hash, and all logged constants; data goes to CSV.  Reruns with one seed
produce byte-identical CSVs.  Only the output directory may come from the
environment (``FRACMEAS_OUT``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

import numpy as np

from . import _kernels, atoms, content, dimension, heat, io, maximal, measures, potential
from .io import Check
from .verify import VERIFIERS

# verifier parameter -> the flag that sets it
_VERIFY_FLAGS = {"alpha": "--alpha", "n_scales": "--scales", "depth": "--depth",
                 "dirac_seed": "--seed"}
# `potential riesz`: the largest relative move of the heat route's quadrature
# at half its node density that passes
_QUAD_TOL = 1e-4


def _fail(msg: str, code: int = 2):
    print(f"fracmeas: {msg}", file=sys.stderr)
    raise SystemExit(code)


def _outdir(args) -> str:
    out = args.out or os.environ.get("FRACMEAS_OUT") or "fracmeas_out"
    return io.ensure_dir(out)


def _report(args, name: str, results: dict, constants: dict | None = None) -> str:
    """Write ``<name>.json``; its config is every flag the run parsed."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("out", "config", "func")}
    cfg["command"] = name
    path = os.path.join(_outdir(args), f"{name}.json")
    io.write_report(path, cfg, results, constants)
    return path


def _verdict(args, name: str, results: dict, checks, constants: dict) -> int:
    """Write ``<name>.json`` with ``pass`` and ``checks`` in its results;
    return 1, naming every failing check on stderr, if one fails."""
    failed = [c for c in checks if not c.passed]
    _report(args, name, {**results, "pass": not failed,
                         "checks": [c.to_dict() for c in checks]}, constants)
    if failed:
        print(f"{name} FAILED: " + "; ".join(map(str, failed)), file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# atom subcommands
# ---------------------------------------------------------------------------

def cmd_atom_gen(args) -> int:
    if args.component is not None and args.kind != "loop":
        _fail("--component applies only to --kind loop")
    out = _outdir(args)
    if args.kind == "cantor":
        cand, info = atoms.make_frostman_atom(depth=args.depth)
    elif args.kind == "linf":
        cand = atoms.make_linf_atom(1, args.depth)
        info = {"resolution": args.depth}
    else:
        from .verify import square_loop
        cand, info = atoms.make_loop_atom(square_loop(args.depth), args.component or 0,
                                          h=1.0 / (2.0 * args.depth))
    path = os.path.join(out, f"atom_{args.kind}.csv")
    io.save_measure(cand.measure, path)
    _report(args, f"atom_gen_{args.kind}",
            {"measure_csv": path, "beta": cand.beta,
             "cube_corner": [float(v) for v in cand.cube.corner],
             "cube_side": cand.side, "build": info})
    return 0


def _candidate(args, mu) -> atoms.AtomCandidate:
    """The atom candidate of ``--cube-corner`` (default the origin),
    ``--cube-side`` and ``--beta`` on the measure ``mu``."""
    corner = np.array(args.cube_corner or [0.0] * mu.d, dtype=np.float64)
    if len(corner) != mu.d:
        _fail(f"--cube-corner takes {mu.d} coordinates for this {mu.d}-d measure, "
              f"got {len(corner)}")
    # `potential besov` squares the side for its split time l(Q)^2
    if 0 < args.cube_side < math.inf and math.isinf(args.cube_side * args.cube_side):
        _fail(f"--cube-side {args.cube_side} is too large: its square overflows")
    return atoms.AtomCandidate(measure=mu,
                               cube=measures.Cube(corner=corner, side=args.cube_side),
                               beta=args.beta)


def cmd_atom_check(args) -> int:
    if (args.t_lo is None) != (args.t_hi is None):
        given, missing = ("--t-lo", "--t-hi") if args.t_hi is None else ("--t-hi", "--t-lo")
        _fail(f"{given} needs {missing}: a time window takes both bounds")
    if args.npd is not None and args.t_lo is None:
        _fail("--npd needs --t-lo and --t-hi: it sets the time window's nodes per decade")
    cand = _candidate(args, io.load_measure(args.measure))
    npd = 16 if args.npd is None else args.npd
    tg = None if args.t_lo is None else heat.TGrid.build(args.t_lo, args.t_hi, npd)
    cert = atoms.check_beta_atom(cand, tgrid=tg)
    return _verdict(args, "atom_check", cert.to_dict(), cert.checks, {})


# ---------------------------------------------------------------------------
# heat / potential / maximal / content / dim subcommands
# ---------------------------------------------------------------------------

def cmd_heat(args) -> int:
    mu = io.load_measure(args.measure)
    tg = heat.TGrid.for_measure(mu, nodes_per_decade=args.npd)
    pts = mu.points()
    io.save_heat_field(pts, tg.nodes, _kernels.heat_values(pts, pts, mu.weights, tg.nodes),
                       os.path.join(_outdir(args), "heat_field.csv"))
    worst = 0.0
    for t in tg.nodes[:: max(1, len(tg.nodes) // 8)]:
        worst = max(worst, heat.mass_conservation_residual(mu, float(t)))
    tv = mu.total_variation()
    return _verdict(args, "heat", {"total_variation": tv},
                    [Check("mass_conservation_residual", worst, "<=", 1e-6 * max(tv, 1e-300))],
                    {})


def cmd_potential_riesz(args) -> int:
    if args.n_points < 1:
        _fail("--n-points must be at least 1")
    if not 0 < args.r_lo < math.inf:
        _fail(f"--r-lo {args.r_lo} must be positive and finite")
    if not args.r_lo < args.r_hi < math.inf:
        _fail(f"--r-hi {args.r_hi} must be finite and above --r-lo {args.r_lo}")
    if not 0 <= args.tol < math.inf:
        _fail(f"--tol {args.tol} must be finite and at least 0")
    mu = io.load_measure(args.measure)
    rr = np.geomspace(args.r_lo, args.r_hi, args.n_points)
    pts = np.zeros((len(rr), mu.d))
    pts[:, 0] = rr
    center = 0.5 * (mu.bbox()[0] + mu.bbox()[1])
    pts += center[None, :]
    cfg = potential.RieszConfig(alpha=args.alpha, d=mu.d)
    k = potential.riesz_kernel(cfg, mu, pts)
    hres = potential.riesz_heat(cfg, mu, pts)
    good = np.isfinite(k) & (np.abs(k) > 0)
    rel = float(np.max(np.abs(hres.values[good] - k[good]) / np.abs(k[good]), initial=0.0))
    io.write_csv(os.path.join(_outdir(args), "riesz.csv"),
                 [f"x{a}" for a in range(mu.d)] + ["kernel", "heat_route"],
                 [list(p) + [kv, hv] for p, kv, hv in zip(pts, k, hres.values)])
    return _verdict(args, "potential_riesz", {},
                    [Check("max_rel_gap", rel, "<=", args.tol),
                     Check("quad_error_est", hres.quad_error_est, "<=", _QUAD_TOL)], {})


def cmd_potential_besov(args) -> int:
    cand = _candidate(args, io.load_measure(args.measure))
    res = potential.heat_besov_functional(cand, args.alpha)
    # the integrand's values are >= 0, so the total is finite when they are
    return _verdict(args, "potential_besov",
                    {"below_split": res.below_split, "above_split": res.above_split,
                     "p": res.p, "split_t": res.split_t,
                     "label": "heat-integral functional (upper-bound surface)"},
                    [Check("total", res.total, "<", math.inf),
                     Check("tail_estimate", res.tail_estimate, "<", math.inf)], {})


def cmd_maximal(args) -> int:
    # the truncated and anti-local variants: the sup over cubes of side at
    # least --truncation, or over scales above --rho
    bounds = {k: v for k, v in vars(args).items() if k in ("truncation", "rho")}
    for name, value in bounds.items():
        if not 0 < value < math.inf:
            _fail(f"--{name} {value} must be positive and finite")
    mu = io.load_measure(args.measure)
    out = _outdir(args)
    pts = mu.points()
    if args.variant in ("dyadic", "truncated"):
        fld = maximal.dyadic_maximal(mu, measures.unit_lattice(mu.d), args.gamma, pts,
                                     args.k_min, args.k_max,
                                     min_side=bounds.get("truncation"))
    else:
        fam = maximal.standard_family(mu.d)
        tg = heat.TGrid.for_measure(mu, nodes_per_decade=args.npd)
        fld = maximal.grand_maximal(mu, fam, args.gamma, pts, tg, s_min=bounds.get("rho"))
    io.save_maximal_field(fld, os.path.join(out, f"maximal_{args.variant}.csv"))
    _report(args, f"maximal_{args.variant}",
            {"max_value": float(np.max(fld.values, initial=0.0)), "n_points": len(pts),
             "convention": fld.convention})
    return 0


def cmd_maximal_lp(args) -> int:
    mu = io.load_measure(args.measure)
    if mu.n_masses == 0:
        _fail(f"{args.measure}: a measure with no masses has no grid to project on")
    out = _outdir(args)
    fld = (maximal.lp_band if args.band else maximal.lp_lowpass)(mu, args.k)
    name = "band" if args.band else "lowpass"
    io.write_csv(os.path.join(out, f"lp_{name}.csv"),
                 [f"x{a}" for a in range(mu.d)] + ["value"],
                 [list(p) + [v] for p, v in zip(fld.points(), fld.values.ravel())])
    _report(args, f"lp_{name}",
            {"k": args.k, "grid_sum": fld.grid_sum(),
             "measure_mass": mu.total_mass()})
    return 0


def _load_balls(args, beta_at_d: bool) -> content.BallFamily:
    """The ball family of ``--balls`` (no balls for a header-only file),
    after checking ``--beta`` against its dimension, read from the header:
    beta in (0, d], or in (0, d) when ``beta_at_d`` is false."""
    _, data = io.read_csv_rows(args.balls)
    d = data.shape[1] - 1
    if not (0 < args.beta < d or (beta_at_d and args.beta == d)):
        _fail(f"--beta {args.beta} must lie in (0, {d}{']' if beta_at_d else ')'} "
              f"for the {d}-d balls of {args.balls}")
    return content.make_ball_family(data[:, :-1], data[:, -1])


def cmd_content_cover(args) -> int:
    F = _load_balls(args, beta_at_d=False)
    out = _outdir(args)
    cov = content.regularized_cover(F, args.beta)
    io.save_cover(cov, os.path.join(out, "cover.csv"))
    # NaN propagates through the min, so a NaN ratio fails
    return _verdict(args, "content_cover", {"n_elements": cov.n_elements, "total": cov.total},
                    [Check("witness_min_ratio", np.min(cov.witness_ratio, initial=np.inf),
                           ">=", cov.constants["c"] - 1e-12)],
                    cov.constants)


def cmd_content_value(args) -> int:
    F = _load_balls(args, beta_at_d=True)
    if args.beta < F.d:
        # one cover: its raster's exact content and its cubes' balls
        cover = content.regularized_cover(F, args.beta)
        val = cover.constants["raster_content"]
        upper = content.spherical_content_upper(F, args.beta, cover)
    else:
        # no regularized cover at beta = d: the raster at the cover's level
        lat = measures.unit_lattice(F.d)
        raster = content.rasterize_balls(F, lat, content._cell_level(F, lat))
        val = content.dyadic_content(raster, args.beta)
        upper = content.spherical_content_upper(F, args.beta)
    _report(args, "content_value", {"dyadic_content": val, "spherical_upper": upper})
    return 0


def cmd_content_choquet(args) -> int:
    keys, values = io.read_csv_rows(args.field, indexed=True)
    if keys.shape[1] < 2:
        _fail(f"{args.field}: a field needs a level, at least one index "
              "and a value in every row")
    if len(keys) == 0:
        _report(args, "content_choquet", {"value": 0.0})
        return 0
    levels = np.unique(keys[:, 0]).tolist()
    if len(levels) > 1:
        _fail(f"{args.field}: rows at levels {levels}; a field has one level")
    lat = measures.unit_lattice(keys.shape[1] - 1)
    val = content.choquet_integral(keys[:, 1:], values[:, 0], lat, levels[0], args.beta)
    _report(args, "content_choquet", {"value": val})
    return 0


def cmd_dim_estimate(args) -> int:
    mu = io.load_measure(args.measure)
    lat = measures.unit_lattice(mu.d)
    if not args.beta_step > 0:
        _fail("--beta-step must be positive")
    betas = np.round(np.arange(args.beta_step, mu.d + 1e-9, args.beta_step), 6)
    rep = dimension.lower_dim_estimate(mu, lat, betas, max_level=args.depth)
    io.save_modulus_curves(rep, os.path.join(_outdir(args), "modulus_curves.csv"))
    _report(args, "dim_estimate", rep.to_dict())
    return 0


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    fn = VERIFIERS[args.verifier]
    params = inspect.signature(fn).parameters
    kwargs = {p: getattr(args, p) for p in _VERIFY_FLAGS if p in params}
    outcome = fn(**kwargs)
    name = f"verify_{outcome.name}"
    for tname, (header, rows) in outcome.tables.items():
        io.write_csv(os.path.join(_outdir(args), f"{name}_{tname}.csv"), header, rows)
    return _verdict(args, name, outcome.results, outcome.checks, {})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser that takes no prefix of a long flag for the flag (``--conf``
    is not ``--config``); its subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="fracmeas",
        description="desk-scale experiments on fractal measures")
    ap.add_argument("--config", help="JSON config file; flags override its keys")
    ap.add_argument("--out", help="output directory (or FRACMEAS_OUT)")
    sub = ap.add_subparsers(dest="command", required=True)

    atom = sub.add_parser("atom", help="atom generation and certification")
    atomsub = atom.add_subparsers(dest="action", required=True)
    g = atomsub.add_parser("gen")
    g.add_argument("--kind", choices=["cantor", "linf", "loop"], required=True)
    g.add_argument("--depth", type=int, default=8)
    g.add_argument("--component", type=int, default=None)
    g.set_defaults(func=cmd_atom_gen)
    c = atomsub.add_parser("check")
    c.add_argument("--measure", required=True)
    c.add_argument("--beta", type=float, required=True)
    c.add_argument("--cube-corner", type=float, nargs="*", default=None)
    c.add_argument("--cube-side", type=float, default=1.0)
    c.add_argument("--t-lo", type=float, default=None)
    c.add_argument("--t-hi", type=float, default=None)
    c.add_argument("--npd", type=int, default=None)
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

    mx = sub.add_parser("maximal")
    mxsub = mx.add_subparsers(dest="variant", required=True)
    for variant in ("dyadic", "truncated", "grand", "antilocal"):
        m = mxsub.add_parser(variant)
        m.add_argument("--measure", required=True)
        m.add_argument("--gamma", type=float, required=True)
        if variant in ("dyadic", "truncated"):
            m.add_argument("--k-min", type=int, default=0)
            m.add_argument("--k-max", type=int, default=12)
        else:
            m.add_argument("--npd", type=int, default=16)
        if variant == "truncated":
            m.add_argument("--truncation", type=float, required=True)
        if variant == "antilocal":
            m.add_argument("--rho", type=float, required=True)
        m.set_defaults(func=cmd_maximal)
    lp = mxsub.add_parser("lp")
    lp.add_argument("--measure", required=True)
    lp.add_argument("--k", type=int, required=True)
    lp.add_argument("--band", action="store_true")
    lp.set_defaults(func=cmd_maximal_lp)

    ct = sub.add_parser("content")
    ctsub = ct.add_subparsers(dest="action", required=True)
    for action, func in (("value", cmd_content_value), ("cover", cmd_content_cover)):
        cb = ctsub.add_parser(action)
        cb.add_argument("--balls", required=True)
        cb.add_argument("--beta", type=float, required=True)
        cb.set_defaults(func=func)
    cq = ctsub.add_parser("choquet")
    cq.add_argument("--field", required=True)
    cq.add_argument("--beta", type=float, required=True)
    cq.set_defaults(func=cmd_content_choquet)

    dm = sub.add_parser("dim")
    dmsub = dm.add_subparsers(dest="action", required=True)
    de = dmsub.add_parser("estimate")
    de.add_argument("--measure", required=True)
    de.add_argument("--depth", type=int, default=14)
    de.add_argument("--beta-step", type=float, default=0.05)
    de.set_defaults(func=cmd_dim_estimate)

    vf = sub.add_parser("verify", help="theorem-level verification suites")
    vfsub = vf.add_subparsers(dest="verifier", required=True)
    for target, fn in VERIFIERS.items():
        v = vfsub.add_parser(target)
        for p in inspect.signature(fn).parameters.values():
            if p.name in _VERIFY_FLAGS:
                v.add_argument(_VERIFY_FLAGS[p.name], dest=p.name,
                               type=type(p.default), default=p.default)
        v.set_defaults(func=cmd_verify)
    return ap


def _apply_config(ap: argparse.ArgumentParser, argv):
    """Pull defaults from the --config JSON (``--config F`` or
    ``--config=F``); explicit flags still win, and a null value means the
    flag was not given.  Keys of the top-level flags go before the command,
    all others after it."""
    for i, arg in enumerate(argv):
        flag, eq, path = arg.partition("=")
        if flag == "--config":
            break
    else:
        return argv
    try:
        path = path if eq else argv[i + 1]
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, IndexError) as exc:
        _fail(f"bad config file: {exc}")
    if not isinstance(cfg, dict):
        _fail(f"bad config file: {path} holds no JSON object")
    head, tail = [], []
    for key, val in sorted(cfg.items()):
        flag = "--" + key.replace("_", "-")
        extra = head if flag in ap._option_string_actions else tail
        if val is not None and not any(a == flag or a.startswith(flag + "=")
                                       for a in argv):
            if isinstance(val, bool):
                if val:
                    extra.append(flag)
            elif isinstance(val, list):
                extra.extend([flag] + [str(v) for v in val])
            else:
                extra.extend([flag, str(val)])
    return head + argv + tail


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(_apply_config(ap, argv))
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ValueError as exc:
        _fail(f"invalid configuration: {exc}")
    except OSError as exc:
        _fail(f"file error: {exc}")
    except (RuntimeError, AssertionError) as exc:
        _fail(f"invariant violated: {exc}", code=1)
    except MemoryError:
        _fail("out of memory", code=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
