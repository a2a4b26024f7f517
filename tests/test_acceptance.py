"""Acceptance suite: one test per criterion, each timed and printing a
single PASS/FAIL line with the measured quantities.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Kernel jit
compilation and profile-table builds happen in the session ``warm`` fixture,
outside the timed sections.
"""

import math
import os
import time

import numpy as np
import pytest
from decay import decay_fit

from fracmeas import atoms, content, dimension, heat, io, maximal, measures, \
    potential
from fracmeas.cli import main as cli_main
from fracmeas.verify import (verify_cor16, verify_thm13, verify_thm14,
                             verify_thm15, verify_thm18, verify_thm19)

BETA0 = math.log(2) / math.log(3)


def _line(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPT-{num:02d} {name}: {status} ({detail}; "
          f"{elapsed:.1f}s < {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"
    assert ok, f"criterion {num} failed: {detail}"


def _checks(outcome):
    """A verify outcome's checks, ``name: value op bound`` each."""
    return "; ".join(map(str, outcome.checks))


def _random_measures(seed=2024):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(12):
        n = int(rng.integers(5, 40))
        h = float(rng.choice([1 / 8, 1 / 16, 1 / 32]))
        mu = measures.new_grid_measure(
            1, h, [0.0], rng.integers(0, 64, (n, 1)), rng.uniform(-1, 1, n))
        if mu.n_masses:
            out.append(mu)
    for _ in range(8):
        n = int(rng.integers(4, 16))
        mu = measures.new_grid_measure(
            2, 1 / 8, [0.0, 0.0], rng.integers(0, 16, (n, 2)),
            rng.uniform(-1, 1, n))
        if mu.n_masses:
            out.append(mu)
    return out[:20]


def test_c01_heat_mass_conservation(warm):
    t0 = time.perf_counter()
    worst = 0.0
    for mu in _random_measures():
        tg = heat.TGrid.for_measure(mu, nodes_per_decade=6)
        tv = mu.total_variation()
        for t in tg.nodes:
            res = heat.mass_conservation_residual(mu, float(t)) / tv
            worst = max(worst, res)
    el = time.perf_counter() - t0
    _line(1, "heat mass conservation", worst <= 1e-6,
          f"20 measures, max rel residual {worst:.2e} <= 1e-6", el, 10)


def test_c02_riesz_route_equivalence(warm):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2):
        mu = measures.dirac(d)
        for alpha in (0.3, 0.5, 1.2):
            if alpha >= d:
                continue
            cfg = potential.RieszConfig(alpha=alpha, d=d)
            rr = np.geomspace(0.1, 10.0, 12)
            pts = np.zeros((len(rr), d))
            pts[:, 0] = rr
            k = potential.riesz_kernel(cfg, mu, pts)
            res = potential.riesz_heat(cfg, mu, pts)
            worst = max(worst, float(np.max(np.abs(res.values - k) / k)))
    el = time.perf_counter() - t0
    _line(2, "riesz route equivalence", worst <= 1e-3,
          f"max rel error {worst:.2e} <= 1e-3", el, 30)


def test_c03_atom_certification(warm):
    t0 = time.perf_counter()
    cand, info = atoms.make_frostman_atom(depth=8)
    cert = atoms.check_beta_atom(cand)
    series = atoms.frostman_series_value(info["c1"], BETA0, 1)
    dirac_pair = measures.new_grid_measure(1, 0.5, [0.0], [[0], [1]],
                                           [0.5, -0.5])
    bad = atoms.AtomCandidate(measure=dirac_pair,
                              cube=measures.unit_cube(1), beta=0.3)
    bad_cert = atoms.check_beta_atom(bad, tgrid=heat.TGrid.build(1e-9, 64.0, 32))
    bad_failed = [c.name for c in bad_cert.checks if not c.passed]
    ok = (all(c.passed for c in cert.checks) and series <= 1.0 and "heat_bound" in bad_failed
          and abs(bad_cert.small_t_exponent + 0.15) <= 0.05)
    el = time.perf_counter() - t0
    _line(3, "atom certification",
          ok,
          f"cantor ratio {cert.sup_ratio:.3f}, series {series:.3f} <= 1, "
          f"dirac growth {bad_cert.small_t_exponent:.3f} = -0.15 +- 0.05",
          el, 60)


def test_c04_besov_functional(warm):
    t0 = time.perf_counter()
    out = verify_thm13(alpha=0.5, n_scales=7, depth=6)
    el = time.perf_counter() - t0
    _line(4, "strong-type functional", out.ok, _checks(out), el, 300)


def test_c05_trace_inequalities(warm):
    t0 = time.perf_counter()
    out14 = verify_thm14(alpha=0.5, n_scales=5, depth=8)
    out15 = verify_thm15(n_scales=5, depth=8)
    el = time.perf_counter() - t0
    _line(5, "trace inequalities", out14.ok and out15.ok,
          f"riesz {_checks(out14)}; endpoint {_checks(out15)}", el, 300)


def test_c06_divfree_surrogate(warm):
    t0 = time.perf_counter()
    out = verify_cor16()
    el = time.perf_counter() - t0
    _line(6, "loop-component traces", out.ok,
          f"shared C {out.results['shared_C']:.4f}, {_checks(out)}", el, 120)


def test_c07_dyadic_content_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 3))
        lat = measures.unit_lattice(d)
        lv = int(rng.integers(-2, 9))
        n = rng.integers(-2 ** 8, 2 ** 8, d)
        E = content.CubeUnion.build(lat, [lv], n[None, :])
        for beta in (0.3, 0.63, 1.0, float(d)):
            expect = (2.0 ** -lv) ** beta
            got = content.dyadic_content(E, beta)
            worst = max(worst, abs(got - expect) / np.spacing(expect))
    el = time.perf_counter() - t0
    _line(7, "dyadic content exactness", worst <= 4.0,
          f"50 cubes x 4 exponents, worst {worst:.1f} ulps <= 4", el, 1)


def _covers_raster(cov, raster):
    # each raster cell must lie in a cover cube; rows are keyed
    # i0 * 2^32 + i1, one key per row while |i1| < 2^31
    def key(rows):
        return rows[:, 0] * 2 ** 32 + rows[:, 1]

    level = raster.levels[0]
    covered = np.zeros(raster.n_cubes, dtype=bool)
    for lv in np.unique(cov.levels[cov.levels <= level]):
        covered |= np.isin(key(raster.indices >> (level - lv)),
                           key(cov.indices[cov.levels == lv]))
    return bool(covered.all())


def _mixed_start(raster, rng):
    """A mixed-level cover of the raster: about a quarter of its cells moved
    up to their ancestor one or two levels coarser (coarser moves leave the
    swap loop little to do), then reduced: the distinct cubes in (level,
    index) order, less each one inside a coarser one."""
    level = int(raster.levels[0])
    up = rng.integers(1, 3, raster.n_cubes) * (rng.random(raster.n_cubes) < 0.25)
    up = np.minimum(up, level)
    rows, _, _ = measures._unique_rows(np.column_stack([raster.levels - up,
                                                         raster.indices >> up[:, None]]))
    inside = np.zeros(len(rows), dtype=bool)
    for j in (1, 2):
        ancestors = np.column_stack([rows[:, 0] - j, rows[:, 1:] >> j])
        inside |= measures._match_rows(rows, ancestors) >= 0
    rows = rows[~inside]
    return content.CubeUnion(lattice=raster.lattice, levels=rows[:, 0], indices=rows[:, 1:])


def test_c08_covering_lemma():
    t0 = time.perf_counter()
    failures = 0
    swaps = mixed_swaps = 0
    beta = 0.5
    for seed in range(100):
        rng = np.random.default_rng(seed)
        nb = int(rng.integers(2, 14))
        F = content.make_ball_family(rng.uniform(0, 1, (nb, 2)),
                                     rng.uniform(0.03, 0.3, nb))
        cov = content.regularized_cover(F, beta)
        raster = content.rasterize_balls(F, cov.lattice,
                                         cov.constants["cell_level"])
        # from the raw raster the swap loop has to do the regularizing
        raw = content.regularized_cover(F, beta, initial_cover=raster)
        swaps += raw.constants["swaps"]
        # and from random mixed-level covers of it
        start = _mixed_start(raster, rng)
        mixed = content.regularized_cover(F, beta, initial_cover=start)
        mixed_swaps += mixed.constants["swaps"]
        # the start's side^beta summed in the cover's (level, index) row
        # order, so with no swap both sides are one sum in one order
        start_total = np.sum(cov.lattice.side(np.sort(start.levels)) ** beta)
        ok = (np.all(cov.witness_ratio >= cov.constants["c"])
              and np.all(raw.witness_ratio >= raw.constants["c"])
              and np.all(mixed.witness_ratio >= mixed.constants["c"])
              and cov.total <= cov.constants["raster_content"] * (1 + 1e-12)
              and raw.total <= np.sum(cov.lattice.side(raster.levels) ** beta)
              and mixed.total <= start_total
              and mixed.constants["raster_content"] == cov.constants["raster_content"]
              and _covers_raster(cov, raster) and _covers_raster(raw, raster)
              and _covers_raster(mixed, raster))
        bc = content.ball_cover(F, beta)
        if np.any(bc.witness_ratio < -1e-9):
            ok = False
        failures += 0 if ok else 1
    el = time.perf_counter() - t0
    _line(8, "covering regularization",
          failures == 0 and swaps > 0 and mixed_swaps > 0,
          f"100 seeded families from three starts, {failures} failures, "
          f"{swaps} + {mixed_swaps} swaps (raster, mixed)", el, 60)


def test_c09_choquet_layer_cake():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    lat = measures.unit_lattice(2)
    exact_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 25))
        lv = int(rng.integers(3, 6))
        ix = np.unique(rng.integers(0, 2 ** lv, (n, 2)), axis=0)
        E = content.CubeUnion.build(lat, np.full(len(ix), lv), ix)
        got = content.choquet_integral(ix, np.ones(len(ix)), lat, lv, 0.63)
        if got != pytest.approx(content.dyadic_content(E, 0.63), rel=1e-13):
            exact_ok = False
    lat1 = measures.unit_lattice(1)
    cells = np.arange(0, 64)[:, None]
    f = rng.uniform(0.1, 2.0, 64)
    a = content.choquet_integral(cells, f, lat1, 6, 0.5)
    b = content.choquet_integral(cells, 3.7 * f, lat1, 6, 0.5)
    hom_err = abs(b - 3.7 * a) / (3.7 * a)
    el = time.perf_counter() - t0
    _line(9, "choquet layer cake", exact_ok and hom_err <= 1e-12,
          f"50 indicators exact, homogeneity err {hom_err:.2e} <= 1e-12",
          el, 30)


def test_c10_decay_fits(warm):
    t0 = time.perf_counter()
    cand, _ = atoms.make_frostman_atom(depth=6)
    # the atom dilated, mass-preserving, from its cube onto [-1, 1]
    std = cand.measure.dilated(2.0 / cand.side, cand.cube.center)
    band = maximal.lp_band(std, 1)
    fit_band = decay_fit(band.points(), band.values.ravel(),
                         np.zeros(1), 4.0, 64.0)
    fam = maximal.standard_family(1)
    tg = heat.TGrid.for_measure(cand.measure, 16, reach=20.0)
    radii = np.geomspace(2.0, 16.0, 16)
    pts = np.concatenate([0.5 + radii, 0.5 - radii])[:, None]
    fld = maximal.grand_maximal(cand.measure, fam, 1 - BETA0, pts, tg)
    fit_max = decay_fit(pts, fld.values, np.array([0.5]), 2.0, 16.0)
    ok = (fit_band.defined and fit_band.exponent <= -(1 + 1) + 0.3
          and fit_band.residual <= 0.1
          and fit_max.defined and fit_max.exponent <= -(1 + BETA0) + 0.3
          and fit_max.residual <= 0.1)
    el = time.perf_counter() - t0
    _line(10, "band/maximal decay fits", ok,
          f"band {fit_band.exponent:.2f} <= -1.7 (res {fit_band.residual:.3f}), "
          f"maximal {fit_max.exponent:.2f} <= {-(1 + BETA0) + 0.3:.2f} "
          f"(res {fit_max.residual:.3f})", el, 300)


def test_c11_dimension_estimation(warm):
    t0 = time.perf_counter()
    out18 = verify_thm18(depth=10)
    out19 = verify_thm19(depth=8)
    el = time.perf_counter() - t0
    _line(11, "dimension estimation", out18.ok and out19.ok,
          f"{_checks(out18)}; atomsum {_checks(out19)}", el, 600)


def test_c12_verify_determinism(tmp_path, warm):
    t0 = time.perf_counter()
    fast = {
        "thm13": ["--scales", "2", "--depth", "5"],
        "thm14": ["--scales", "2", "--depth", "6"],
        "thm15": ["--scales", "2", "--depth", "6"],
        "cor16": [],
        "thm18": ["--depth", "6", "--seed", "7"],
        "thm19": ["--depth", "5"],
    }
    identical = True
    for target, extra in fast.items():
        dirs = []
        for run in (0, 1):
            out = str(tmp_path / f"{target}_{run}")
            rc = cli_main(["--out", out, "verify", target] + extra)
            assert rc in (0, 1)
            dirs.append(out)
        for name in sorted(os.listdir(dirs[0])):
            if not name.endswith(".csv"):
                continue
            with open(os.path.join(dirs[0], name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(dirs[1], name), "rb") as fh:
                b = fh.read()
            if a != b:
                identical = False
    el = time.perf_counter() - t0
    _line(12, "verify determinism", identical,
          "6 verify targets rerun, CSVs byte-identical", el, 600)
