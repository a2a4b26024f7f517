import math

import numpy as np
import pytest
from greedy import greedy_mass_capture

from fracmeas import dimension
from fracmeas.atoms import AtomCandidate, AtomicDecomposition, make_frostman_atom
from fracmeas.dimension import (atom_sum_dimension_check, choquet_maximal_test,
                                lower_dim_estimate)
from fracmeas.measures import (Cube, DyadicLattice, cantor_measure, dirac,
                               lebesgue_sample, measure_sum, new_grid_measure,
                               unit_lattice)

BETA0 = math.log(2) / math.log(3)
BETAS = np.round(np.arange(0.05, 1.0001, 0.05), 4)


def cantor_levels(depth):
    # dyadic level matching the triadic construction scale 3^-depth / 2;
    # probing deeper sees bare atoms (dimension-0 contamination)
    return int(math.floor(1.0 + depth * math.log2(3.0)))


def test_greedy_captures_dirac_cheaply():
    lat = unit_lattice(1)
    d0 = dirac(1, x=[0.4375], h=2.0 ** -6)
    J = 10
    delta = (2.0 ** -J) ** 0.5
    _, captured, spent = greedy_mass_capture(d0, lat, 0.5, delta, J)
    assert captured == 1.0
    assert spent <= delta


def test_greedy_lebesgue_volume_bound():
    lat = unit_lattice(1)
    leb = lebesgue_sample(1, 2.0 ** -8)
    for beta in (0.4, 0.7):
        for delta in (2.0 ** -4, 2.0 ** -7):
            _, captured, spent = greedy_mass_capture(leb, lat, beta, delta, 8)
            # volume bound: mass l per cube of cost l^beta
            assert captured <= delta * (2.0 ** -8) ** (1 - beta) * 2 ** 8 + 1e-9
            assert spent <= delta * (1 + 1e-9)


def test_greedy_disjointness(rng):
    lat = unit_lattice(1)
    mu = new_grid_measure(1, 2.0 ** -8, [0.0], rng.integers(0, 256, (40, 1)),
                          rng.uniform(0.1, 1.0, 40))
    union, captured, _ = greedy_mass_capture(mu, lat, 0.6, 0.3, 10)
    # reduced union implies disjointness; captured equals the union's mass
    total = 0.0
    pts = mu.points()
    absw = np.abs(mu.weights)
    for lv, n in zip(union.levels, union.indices):
        idx = lat.index_of(pts, int(lv))
        total += absw[np.all(idx == n[None, :], axis=1)].sum()
    assert captured == pytest.approx(total, rel=1e-12)


def test_greedy_cantor_bands():
    # self-similar oracle: the 1024 level-16 singletons cost exactly
    # 1024 * 2^(-16 * 0.75) = 0.25, so that budget captures everything
    # (the greedy may do it cheaper with two-point cubes one level up)
    lat = unit_lattice(1)
    can = cantor_measure(10)
    _, captured, spent = greedy_mass_capture(can, lat, 0.75, 0.2500001, 16)
    assert captured == pytest.approx(1.0)
    assert spent <= 1024 * 2.0 ** (-16 * 0.75) + 1e-9
    # slightly below the critical exponent, small budgets capture little
    _, captured, _ = greedy_mass_capture(can, lat, 0.55, 1e-2, 16)
    assert captured < 0.1


def _loop_scan(tables, delta):
    """The capture scan with one pass over all n candidates per pick to
    rule out its descendants, and a fit test over the whole rest of the
    scan order, O(n x picks): the reference."""
    tree, order, cost = tables[:3]
    col = tree.lv - tree.lo
    rank = np.argsort(order)                  # scan position of each tree row
    row_at = np.argsort(tree.pos)             # tree row at each preorder place
    alive = np.ones(len(order), dtype=bool)
    limit = delta * (1.0 + 1e-12)
    spent = captured = 0.0
    picked = []
    start = 0
    while start < len(order):
        fits = alive[start:] & (spent + cost[start:] <= limit)
        s = start + int(np.argmax(fits))
        if not fits[s - start]:
            break
        i = order[s]
        picked.append(i)
        spent += cost[s]
        captured += tree.mass[i]
        j = col[i]
        alive[rank[(col >= j) & (tree.up[:, j] == tree.pos[i])]] = False
        alive[rank[row_at[tree.up[i, :j]]]] = False
        start = s + 1
    return picked, captured, spent


def _deep_2d_measure():
    rng = np.random.default_rng(7)
    # a tight cluster under a spread-out cloud: deep subtrees beside
    # shallow ones, on both sides of the lattice corner
    idx = np.vstack([rng.integers(0, 1500, (200, 2)),
                     rng.integers(700, 716, (200, 2))])
    return new_grid_measure(2, 2.0 ** -9, [-0.9, -0.9], idx,
                            rng.uniform(0.1, 1.0, len(idx)))


@pytest.mark.parametrize("case", ["cantor10", "plane"])
def test_scan_matches_loop_scan_on_deep_trees(case):
    # levels 0-16 of the depth-10 Cantor measure, levels -2..8 of a planar
    # one: picks and both sums bit for bit, for every beta and budget
    if case == "cantor10":
        mu, lat, lo, hi = cantor_measure(10), unit_lattice(1), 0, 16
    else:
        mu, lo, hi = _deep_2d_measure(), -2, 8
        lat = DyadicLattice(corner=np.full(2, -0.25), l0=1.0, d=2)
    occ = dimension._occupied_cubes(mu, lat, lo, hi)
    assert min(occ) == lo and max(occ) == hi
    deltas = 2.0 ** -np.arange(1, 13, dtype=np.float64)
    tree = dimension._capture_tree(occ)
    for beta in BETAS * mu.d:
        tables = dimension._capture_tables(tree, lat, beta)
        for delta in deltas:
            picked, captured, spent = dimension._capture_scan(tables, delta)
            assert (picked, captured, spent) == _loop_scan(tables, delta)


def test_modulus_curves_monotone_in_delta():
    lat = unit_lattice(1)
    can = cantor_measure(8)
    rep = lower_dim_estimate(can, lat, [0.4, BETA0, 0.8], cantor_levels(8))
    assert np.all(np.diff(rep.curves[:, ::-1], axis=1) >= -1e-12)


def test_beta_hat_lebesgue():
    lat = unit_lattice(1)
    leb = lebesgue_sample(1, 2.0 ** -10)
    rep = lower_dim_estimate(leb, lat, BETAS, max_level=10)
    assert rep.beta_hat >= 1.0 - 0.05


def test_beta_hat_dirac():
    lat = unit_lattice(1)
    d0 = dirac(1, x=[0.375], h=2.0 ** -10)
    rep = lower_dim_estimate(d0, lat, BETAS, max_level=16)
    assert rep.beta_hat <= 0.05


def test_beta_hat_cantor_depths():
    # finite-depth bias quantified across depths (Richardson-style)
    lat = unit_lattice(1)
    hats = {}
    for depth in (8, 10, 12):
        can = cantor_measure(depth)
        rep = lower_dim_estimate(can, lat, BETAS, max_level=cantor_levels(depth))
        hats[depth] = rep.beta_hat
        assert abs(rep.beta_hat - BETA0) <= 0.05
    assert abs(hats[8] - hats[12]) <= 0.1


def test_beta_hat_zero_measure():
    lat = unit_lattice(1)
    zero = new_grid_measure(1, 1.0, [0.0], np.zeros((0, 1)), [])
    rep = lower_dim_estimate(zero, lat, BETAS, max_level=8)
    assert rep.beta_hat == pytest.approx(1.0)
    # the report keys do not depend on the input
    can = cantor_measure(3)
    keys = lower_dim_estimate(can, lat, BETAS, max_level=8).diagnostics.keys()
    assert rep.diagnostics.keys() == keys
    assert rep.diagnostics["min_level"] == 0
    assert np.array_equal(rep.diagnostics["spent"], np.zeros(rep.curves.shape))
    assert rep.diagnostics["vacuous_betas"] == []


def test_translation_invariance_exact():
    lat = unit_lattice(1)
    can = cantor_measure(7)
    r1 = lower_dim_estimate(can, lat, [0.3, 0.6, 0.9], cantor_levels(7))
    r2 = lower_dim_estimate(can.translated([0.5]), lat, [0.3, 0.6, 0.9],
                            cantor_levels(7))
    assert r1.beta_hat == r2.beta_hat
    assert np.array_equal(r1.curves, r2.curves)


def test_min_rule_for_sums():
    lat = unit_lattice(1)
    leb = lebesgue_sample(1, 2.0 ** -10)
    d0 = dirac(1, x=[0.375 + 2.0 ** -11], h=2.0 ** -10)
    both = measure_sum([leb, d0])
    rep = lower_dim_estimate(both, lat, BETAS, max_level=16)
    assert rep.beta_hat <= 0.05


def test_beta_grid_guard():
    lat = unit_lattice(1)
    with pytest.raises(ValueError):
        lower_dim_estimate(dirac(1), lat, [0.0, 0.5], 8)
    with pytest.raises(ValueError):
        lower_dim_estimate(dirac(1), lat, [1.5], 8)
    with pytest.raises(ValueError, match="empty"):
        lower_dim_estimate(dirac(1), lat, [], 8)


def test_vacuous_betas_flagged():
    # the largest budget is 1/2; a level-1 cube costs 2^-beta: 0.71 at beta
    # 0.5 (above every budget), 0.5 at beta 1; a level-2 cube costs 0.5 at
    # beta 0.5
    lat = unit_lattice(1)
    d0 = dirac(1, x=[0.4375], h=2.0 ** -6)
    rep = lower_dim_estimate(d0, lat, [0.5, 1.0], 1)
    assert rep.diagnostics["vacuous_betas"] == [0.5]
    assert not rep.passes[0] and rep.delta_star[0] == 0.5
    rep = lower_dim_estimate(d0, lat, [0.5, 1.0], 2)
    assert rep.diagnostics["vacuous_betas"] == []


# ---------------------------------------------------------------------------
# maximal/Choquet diagnostics
# ---------------------------------------------------------------------------

def test_choquet_maximal_zero():
    lat = unit_lattice(1)
    zero = new_grid_measure(1, 1.0, [0.0], np.zeros((0, 1)), [])
    assert choquet_maximal_test(zero, lat, 0.5, 2.0 ** -4) == 0.0


def test_choquet_maximal_lebesgue_stable():
    lat = unit_lattice(1)
    leb = lebesgue_sample(1, 2.0 ** -10)
    vals = [choquet_maximal_test(leb, lat, 0.5, 2.0 ** -k) for k in (3, 5, 8)]
    assert max(vals) / min(vals) <= 1.5


def test_choquet_maximal_dirac_log_curve():
    # raw curve grows slowly (log-like); report it, bound the growth
    lat = unit_lattice(1)
    d0 = dirac(1, x=[0.375], h=2.0 ** -10)
    vals = [choquet_maximal_test(d0, lat, 0.5, 2.0 ** -k) for k in (3, 5, 8)]
    assert all(np.isfinite(vals))
    assert vals[-1] >= vals[0]
    assert vals[-1] / vals[0] <= 3.0


def test_level_sums_stabilize(warm):
    cand, _ = make_frostman_atom(depth=6)
    dec = AtomicDecomposition(entries=((1.0, cand),))
    rep = atom_sum_dimension_check(dec, sample_level=6, max_level=12)
    sums = rep["level_sums"]
    k40, k48 = sums[40], sums[-1]
    assert abs(k48 - k40) <= 0.01 * k48


def test_atom_sum_single_and_four(warm):
    cand, _ = make_frostman_atom(depth=6)
    dec1 = AtomicDecomposition(entries=((1.0, cand),))
    rep1 = atom_sum_dimension_check(dec1, sample_level=6, max_level=12)
    assert rep1["beta_hat"] >= cand.beta - 0.1
    assert math.isfinite(rep1["bound_constant"])
    entries = []
    for i in range(4):
        m = cand.measure.translated([2.0 * i])
        entries.append((0.25, AtomCandidate(
            measure=m, cube=Cube(corner=np.array([2.0 * i]), side=1.0),
            beta=cand.beta)))
    rep4 = atom_sum_dimension_check(AtomicDecomposition(entries=tuple(entries)),
                                    sample_level=6, max_level=12)
    assert rep4["beta_hat"] >= cand.beta - 0.1
    ratio = rep4["bound_constant"] / rep1["bound_constant"]
    assert 0.5 <= ratio <= 2.0


def test_atom_sum_empty():
    rep = atom_sum_dimension_check(AtomicDecomposition(entries=()))
    assert rep["beta_hat"] is None
    assert rep["maximal_l1"] == 0.0
    assert rep["budget"] == 0.0
