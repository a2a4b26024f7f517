import functools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fracmeas import _kernels, maximal, verify
from fracmeas.maximal import standard_family

DBL_MIN = sys.float_info.min


def _sums(terms, w):
    """Row sums of ``terms * w`` in the pair driver's own loop: the
    references' sum, which no BLAS kernel changes."""
    return np.einsum("ij,j->i", terms, w)


def test_heat_rejects_bad_times():
    with pytest.raises(ValueError):
        _kernels.heat_values(np.zeros((1, 1)), np.zeros((1, 1)), np.ones(1),
                             np.array([0.0]))


def test_conv_rejects_bad_scales():
    with pytest.raises(ValueError):
        _kernels.radial_conv_values(np.zeros((1, 1)), np.zeros((1, 1)),
                                    np.ones(1), np.array([-1.0]),
                                    standard_family(1).profiles)


@pytest.mark.parametrize("d, t", [(1, 1e-316), (2, 1e-316), (3, 1e-300)])
def test_heat_rejects_overflowing_times(d, t):
    # 1/4t overflows at t = 1e-316, and (4 pi t)^{-3/2} already at 1e-300;
    # the error comes with no numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small"):
            _kernels.heat_values(np.zeros((2, d)), np.ones((1, d)), np.ones(1),
                                 np.array([1.0, t]))


@pytest.mark.parametrize("d, s", [(1, 1e-310), (2, 1e-160)])
def test_conv_rejects_overflowing_scales(d, s):
    # s^{-d} overflows; the error comes with no numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small"):
            _kernels.radial_conv_values(np.zeros((2, d)), np.ones((1, d)),
                                        np.ones(1), np.array([1.0, s]),
                                        standard_family(d).profiles)


@pytest.mark.parametrize("d", [1, 2])
def test_conv_matches_pair_sum(d, warm, rng):
    # scales away from 1, so a lost s^-d factor shows; four masses sit near
    # points, inside the narrow psi support, and the rest reach past every
    # profile's support at the small scales
    x = rng.uniform(-3.0, 3.0, (7, d))
    y = np.vstack([x[:4] + rng.uniform(-0.05, 0.05, (4, d)),
                   rng.uniform(-3.0, 3.0, (5, d))])
    w = rng.uniform(-1.0, 2.0, 9)
    s = np.array([0.05, 0.3, 0.7, 1.9, 4.0])
    profiles = standard_family(d).profiles
    conv = _kernels.radial_conv_values(x, y, w, s, profiles)
    assert conv.shape == (len(x), len(profiles) * len(s))
    for p, prof in enumerate(profiles):
        # one column per (profile, scale), profile-major
        got = conv[:, p * len(s):(p + 1) * len(s)]
        ref = np.zeros_like(got)
        bound = np.zeros_like(got)
        for i in range(len(x)):
            for j in range(len(s)):
                for m in range(len(y)):
                    term = w[m] * prof.values(np.linalg.norm(x[i] - y[m]) / s[j])
                    ref[i, j] += term * s[j] ** -d
                    bound[i, j] += abs(term) * s[j] ** -d
        assert np.all(np.abs(got - ref) <= 1e-12 * bound), prof.name
        assert np.any(ref != 0.0), prof.name


def _block_loop_conv(x, y, w, s, phi):
    """radial_conv_values of one profile with its own row-block loop, as it
    was written before the shared pair driver: the reference."""
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=np.float64)))
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    s = np.ascontiguousarray(np.asarray(s, dtype=np.float64))
    out = np.zeros((x.shape[0], s.shape[0]))
    if y.shape[0] == 0 or x.shape[0] == 0:
        return out
    sd = s ** (-x.shape[1])
    for lo, hi, d2 in _kernels.pairwise_sq_dists(x, y):
        r = np.sqrt(d2)
        for j in range(s.shape[0]):
            z = r / s[j]
            vals = phi(z)
            out[lo:hi, j] = _sums(vals, w) * sd[j]
    return out


@st.composite
def conv_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    coords = st.floats(-5.0, 5.0, allow_nan=False)
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, 30)), d), elements=coords))
    y = draw(hnp.arrays(np.float64, (draw(st.integers(0, 20)), d), elements=coords))
    w = draw(hnp.arrays(np.float64, len(y), elements=st.floats(-2.0, 2.0)))
    # scales from 1e-3 to 30, log-uniform
    s = draw(st.lists(st.floats(-3.0, math.log10(30.0)).map(lambda e: 10.0 ** e),
                      min_size=1, max_size=6))
    return x, y, w, np.array(s)


@st.composite
def lattice_conv_cases(draw):
    """Points on a coarse lattice, masses on some of them and on other
    lattice points, some masses twice, and scales that are lattice steps:
    distances repeat within a block, some are zero, and some scaled ones
    fall on profile support edges."""
    d = draw(st.sampled_from([1, 2]))
    step = draw(st.sampled_from([0.125, 0.3, 1.0]))
    cells = st.integers(-6, 6)
    x = draw(hnp.arrays(np.int64, (draw(st.integers(1, 30)), d), elements=cells)) * step
    on = draw(st.lists(st.integers(0, len(x) - 1), max_size=8))
    off = draw(hnp.arrays(np.int64, (draw(st.integers(0, 8)), d), elements=cells)) * step
    y = np.vstack([x[on], off])
    y = np.vstack([y, y[draw(st.lists(st.integers(0, max(len(y) - 1, 0)),
                                      max_size=6 if len(y) else 0))]])
    w = draw(hnp.arrays(np.float64, len(y), elements=st.floats(-2.0, 2.0)))
    s = draw(st.lists(st.sampled_from([step, 2.0 * step, 0.5, 1.0])
                      | st.floats(-3.0, math.log10(30.0)).map(lambda e: 10.0 ** e),
                      min_size=1, max_size=6))
    return x, y, w, np.array(s)


@settings(max_examples=300)
@given(case=conv_cases() | lattice_conv_cases())
def test_conv_matches_block_loop(case, warm):
    # the pair driver sums in the blocks the kernel's own loop used, and each
    # distinct distance's profile value is the pair-by-pair one: same bits,
    # for every profile of one call, and +0.0 where no distance is in reach
    x, y, w, s = case
    profiles = standard_family(x.shape[1]).profiles
    conv = _kernels.radial_conv_values(x, y, w, s, profiles)
    for p, prof in enumerate(profiles):
        got = conv[:, p * len(s):(p + 1) * len(s)]
        ref = _block_loop_conv(x, y, w, s, prof.values)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), prof.name


def test_kernels_match_block_loops_across_blocks(warm, rng):
    # 2001 masses give blocks of 16 rows: 45 points take three blocks, the
    # last one shorter
    x = rng.uniform(-1.0, 1.0, (45, 1))
    y = rng.uniform(-1.0, 1.0, (2001, 1))
    w = rng.uniform(-1.0, 1.0, len(y))
    assert _kernels._block_rows(len(y)) == 16
    s = np.array([0.01, 0.4])
    prof = standard_family(1).profiles[0]
    got = _kernels.radial_conv_values(x, y, w, s, (prof,))
    ref = _block_loop_conv(x, y, w, s, prof.values)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    t = s ** 2
    got = _kernels.heat_values(x, y, w, t)
    ref = np.zeros_like(got)
    for lo, hi, d2 in _kernels.pairwise_sq_dists(x, y):
        for j in range(len(t)):
            ref[lo:hi, j] = _sums(np.exp(d2 * -(1.0 / (4.0 * t[j]))), w)
    ref *= (4.0 * np.pi * t) ** -0.5
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_conv_matches_block_loop_on_lattice_across_blocks(warm, rng):
    # 3001 lattice masses give blocks of 10 rows: 21 points take three, the
    # last one of a single row; distances repeat within each block and across them,
    # and 8 points sit on masses; a bump and a table profile (the test above
    # has the Gaussian), same bits
    y = rng.integers(-64, 64, (3001, 1)) / 64.0
    x = np.vstack([y[:8], rng.integers(-64, 64, (13, 1)) / 64.0])
    w = rng.uniform(-1.0, 1.0, len(y))
    assert _kernels._block_rows(len(y)) == 10
    s = np.array([1.0 / 64.0, 0.4])
    family = standard_family(1)
    got = _kernels.radial_conv_values(x, y, w, s, (family["psi"], family["xi_band"]))
    for p, name in enumerate(("psi", "xi_band")):
        ref = _block_loop_conv(x, y, w, s, family[name].values)
        assert np.array_equal(got[:, 2 * p:2 * p + 2].view(np.uint64),
                              ref.view(np.uint64)), name


@pytest.mark.parametrize("d", [1, 2])
def test_conv_evaluates_profiles_inside_their_support_only(d, monkeypatch, warm, rng):
    # lattice distances reach 256 steps of the smallest scale, far past every
    # support radius, and land on the support edges of gauss, rho and the
    # tables (12, 1, 96 and 32 times the scales 1/64 and 1/32 are lattice
    # distances): the 30 points fill one block and 10 sit on masses, so each
    # scale has a distance in reach and makes one call of the profile, which
    # sees no scaled distance past its reach, and the sums keep their bits
    y = rng.integers(-128, 128, (300, d)) / 64.0
    x = np.vstack([y[:10], rng.integers(-128, 128, (20, d)) / 64.0])
    w = rng.uniform(-1.0, 2.0, len(y))
    s = np.array([1.0 / 64.0, 1.0 / 32.0, 0.3, 1.0])
    values = maximal.Profile.values
    seen = []

    def spy(prof, z):
        seen.append(np.max(z, initial=0.0) / prof.support_radius)
        return values(prof, z)

    monkeypatch.setattr(maximal.Profile, "values", spy)
    for prof in standard_family(d).profiles:
        seen.clear()
        got = _kernels.radial_conv_values(x, y, w, s, (prof,))
        assert len(seen) == len(s), prof.name
        assert max(seen) < 1.0 + 2.0 * _kernels.SUPPORT_MARGIN, prof.name
        ref = _block_loop_conv(x, y, w, s, functools.partial(values, prof))
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), prof.name


def test_conv_keeps_a_distance_that_rounds_into_the_support():
    # r lies at or past 12 s, yet r / s rounds to the float below the gauss
    # support radius 12, where the profile is not 0.0: the window's margin
    # keeps it
    s, r = 0.4410372420317049, 5.2924469043804585
    assert r >= 12.0 * s and r / s < 12.0
    prof = standard_family(1)["gauss"]
    case = np.zeros((1, 1)), np.array([[r]]), np.ones(1), np.array([s])
    got = _kernels.radial_conv_values(*case, (prof,))
    assert got[0, 0] != 0.0
    assert np.array_equal(got, _block_loop_conv(*case, prof.values))


def test_empty_measure_returns_zeros():
    out = _kernels.heat_values(np.zeros((3, 1)), np.zeros((0, 1)),
                               np.zeros(0), np.array([0.5, 1.0]))
    assert out.shape == (3, 2)
    assert np.all(out == 0.0)


def test_heat_traces_cache_sized_blocks(rng):
    # 20,000 points over 512 masses: blocks of 64 rows hold 256 KB per
    # array, where blocks of 7812 rows held 32 MB (92 MB traced); the
    # output is 0.15 MB
    x = rng.uniform(-1.0, 1.0, (20_000, 1))
    y = rng.uniform(-1.0, 1.0, (512, 1))
    w = rng.uniform(0.0, 1.0, 512)
    tracemalloc.start()
    try:
        _kernels.heat_values(x, y, w, np.array([0.01]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_pair_rows_match_dense_rows_past_the_block_budget(rng):
    # 5000 masses give blocks of 6 rows, and 45 points end on a short block
    # of 3.  The rows equal one sum over all 45 rows, and a subset of the
    # points gets those rows bit for bit, whatever blocks it falls into
    x = rng.uniform(-1.0, 1.0, (45, 2))
    y = rng.uniform(-1.0, 1.0, (5000, 2))
    w = rng.uniform(-1.0, 1.0, len(y))
    assert _kernels._block_rows(len(y)) == 6

    def columns(pts):
        def block(d2, rows):
            # the driver hands each block its own rows of the points
            assert np.array_equal(_kernels._sq_dists(pts[rows], y), d2)
            yield 0, np.exp(-d2)
            yield 0, np.sqrt(d2)
        return block

    dense = _kernels._pair_sums(x, y, w, lambda d: np.ones(2), columns(x))
    d2 = _kernels._sq_dists(x, y)
    ref = np.stack([_sums(np.exp(-d2), w), _sums(np.sqrt(d2), w)], axis=1)
    assert np.array_equal(dense.view(np.uint64), ref.view(np.uint64))
    for rows in ([0, 3, 7, 8, 21, 40, 44], [41], np.arange(45)):
        got = _kernels._pair_sums(x[rows], y, w, lambda d: np.ones(2), columns(x[rows]))
        assert np.array_equal(got.view(np.uint64), dense[rows].view(np.uint64))


def test_lone_rows_keep_their_bits_past_the_einsum_run(rng):
    # einsum sums a lone row of more than 8192 terms in runs of 8192 (its
    # iterator buffer) and a row among others in one run, which round
    # differently (the first assert).  9000 masses give blocks of 3 rows, and
    # 7 points end on a lone row: the whole blocks, each point alone and the
    # one-row windows all get the bits of sums in runs of EINSUM_RUN masses
    x = rng.uniform(-1.0, 1.0, (7, 1))
    y = rng.uniform(-1.0, 1.0, (9000, 1))
    w = rng.uniform(-1.0, 1.0, len(y))
    run = _kernels.EINSUM_RUN
    assert _kernels._block_rows(len(y)) == 3 and run < len(y)
    terms = np.exp(-_kernels._sq_dists(x, y))
    ref = _sums(terms[:, :run], w[:run]) + _sums(terms[:, run:], w[run:])
    assert not np.array_equal(_sums(terms[6:], w), _sums(terms, w)[6:])
    dense = _kernels._pair_sums(x, y, w, lambda d: np.ones(1),
                                lambda d2, _: iter([(0, np.exp(-d2))]))[:, 0]
    got = _kernels._pair_sums(x, y, w, lambda d: np.ones(1),
                              lambda d2, _: iter([(1, np.exp(-d2)[1:2])]))[:, 0]
    lone = [_kernels._pair_sums(x[i:i + 1], y, w, lambda d: np.ones(1),
                                lambda d2, _: iter([(0, np.exp(-d2))]))[0, 0]
            for i in range(len(x))]
    assert np.array_equal(dense.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(np.array(lone).view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(got[1::3].view(np.uint64), ref[1::3].view(np.uint64))
    assert np.all(np.delete(got, [1, 4]) == 0.0)


@st.composite
def point_sets(draw):
    d = draw(st.sampled_from([1, 2]))
    coords = st.floats(-1e6, 1e6, allow_nan=False)
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, 40)), d), elements=coords))
    y = draw(hnp.arrays(np.float64, (draw(st.integers(1, 30)), d), elements=coords))
    return x, y


def _row_slices(x, y, rows):
    """``_sq_dists`` of ``x`` taken ``rows`` rows at a time, stacked."""
    return np.vstack([_kernels._sq_dists(x[s:s + rows], y) for s in range(0, len(x), rows)])


@settings(max_examples=200)
@given(pts=point_sets(), rows=st.integers(1, 64))
def test_pairwise_blocks_match_one_block(pts, rows):
    # byte-identical verify CSVs rely on row blocking never moving a bit
    x, y = pts
    whole = _kernels._sq_dists(x, y)
    assert np.array_equal(_row_slices(x, y, rows), whole)
    blocks = list(_kernels.pairwise_sq_dists(x, y))
    step = _kernels._block_rows(len(y))
    assert [s for s, _, _ in blocks] == list(range(0, len(x), step))
    assert all(e - s == len(b) for s, e, b in blocks)
    assert np.array_equal(np.vstack([b for _, _, b in blocks]), whole)


@settings(max_examples=200)
@given(d=st.integers(1, 7), n=st.integers(1, 40), m=st.integers(1, 30),
       rows=st.integers(1, 64), data=st.data())
def test_pairwise_matches_einsum(d, n, m, rows, data):
    # the per-axis sum adds the squares in einsum's order for d <= 7
    coords = st.floats(-1e6, 1e6, allow_nan=False)
    x = data.draw(hnp.arrays(np.float64, (n, d), elements=coords))
    y = data.draw(hnp.arrays(np.float64, (m, d), elements=coords))
    diff = x[:, None, :] - y[None, :, :]
    ref = np.einsum("ijk,ijk->ij", diff, diff)
    got = _row_slices(x, y, rows)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    got = np.vstack([b for _, _, b in _kernels.pairwise_sq_dists(x, y)])
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _dense_heat(x, y, w, t, floor=_kernels.EXP_FLOOR):
    """The heat sum with exp evaluated on every pair, each term whose
    exponent lies below ``floor`` then 0.0 (the kernel's documented rule;
    -inf: plain exp): the reference."""
    diff = x[:, None, :] - y[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    inv4t = 1.0 / (4.0 * t)
    out = np.zeros((len(x), len(t)))
    for j in range(len(t)):
        arg = -d2 * inv4t[j]
        out[:, j] = _sums(np.where(arg < floor, 0.0, np.exp(arg)), w)
    return out * ((4.0 * np.pi * t) ** (-x.shape[1] / 2.0))[None, :]


@st.composite
def heat_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    coords = st.floats(-50.0, 50.0, allow_nan=False)
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, 30)), d), elements=coords))
    y = draw(hnp.arrays(np.float64, (draw(st.integers(1, 20)), d), elements=coords))
    w = draw(hnp.arrays(np.float64, len(y), elements=st.floats(-2.0, 2.0)))
    # times that put one point's nearest exponent in the bulk, about the exp
    # floor log(DBL_MIN) ~ -708.40, in the subnormal band below it, or just
    # below -745.13, where exp gives 0.0
    near = np.min(np.sum((x[draw(st.integers(0, len(x) - 1))] - y) ** 2, axis=1))
    floor = _kernels.EXP_FLOOR
    expo = st.one_of(st.floats(-745.2, -745.0), st.floats(-760.0, -700.0),
                     st.floats(floor - 0.01, floor + 0.01), st.floats(-50.0, -1e-3))
    t = [near / (4.0 * -draw(expo)) for _ in range(draw(st.integers(1, 4)))]
    # heat_values rejects times whose 1/4t or (4 pi t)^{-d/2} overflows
    # (below about 1.4e-309 for d <= 2)
    t = [v for v in t if v > 1e-308] + draw(st.lists(st.floats(1e-6, 1.0), max_size=2))
    return x, y, w, np.array(t or [1e-3])


@settings(max_examples=300)
@given(case=heat_cases())
def test_heat_matches_dense_exp(case):
    # terms below the exp floor are written as 0.0, not evaluated: the bits
    # of the dense sum under the same rule
    x, y, w, t = case
    with np.errstate(all="ignore"):
        got = _kernels.heat_values(x, y, w, t)
        ref = _dense_heat(x, y, w, t)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@settings(max_examples=300)
@given(case=heat_cases())
def test_heat_lies_within_the_floor_bound_of_plain_exp(case):
    # every term the floor drops is below DBL_MIN, so a value moves by at most
    # (4 pi t)^{-d/2} sum_m |w_m| DBL_MIN from the sum of plain exp over every pair
    x, y, w, t = case
    with np.errstate(all="ignore"):
        got = _kernels.heat_values(x, y, w, t)
        ref = _dense_heat(x, y, w, t, floor=-np.inf)
        bound = (4.0 * np.pi * t) ** (-x.shape[1] / 2.0) * np.sum(np.abs(w)) * DBL_MIN
    assert np.all(np.abs(got - ref) <= bound[None, :])


def test_exp_floor_is_the_normal_range():
    # exp is at least DBL_MIN at the floor and subnormal just below it, and
    # _gauss_terms writes 0.0 from there on down
    floor = _kernels.EXP_FLOOR
    below = np.nextafter(floor, -np.inf)
    assert np.exp(floor) >= DBL_MIN > np.exp(below) > 0.0
    arg = np.array([[floor, below, -746.0, -np.inf]])
    got = _kernels._gauss_terms(arg, np.empty_like(arg), np.empty(arg.shape, dtype=bool))
    assert got[0, 0] == np.exp(floor)
    assert np.array_equal(got[0, 1:].view(np.uint64), np.zeros(3).view(np.uint64))


def test_fully_kept_block_takes_plain_exp_with_the_masked_bits(monkeypatch, rng):
    # a block with no exponent below the floor takes exp with no mask; the
    # same exponents in a block with one below the floor take the masked
    # path, with the same bits, and a NaN exponent gives NaN on both
    kept = rng.uniform(_kernels.EXP_FLOOR, 0.0, (6, 40))
    kept[0, :3] = _kernels.EXP_FLOOR, np.nan, 0.0
    mixed = np.vstack([kept, np.full((1, 40), -800.0)])
    exp, masked = np.exp, []

    def spy(*args, **kwargs):
        masked.append("where" in kwargs)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    terms = [_kernels._gauss_terms(a, np.empty_like(a), np.empty(a.shape, dtype=bool))
             for a in (kept, mixed)]
    assert masked == [False, True]
    assert np.isnan(terms[0][0, 1]) and np.isnan(terms[1][0, 1])
    assert np.array_equal(terms[0].view(np.uint64), terms[1][:-1].view(np.uint64))
    assert np.all(terms[1][-1] == 0.0)


def test_no_subnormal_term_is_computed(monkeypatch):
    # over verify thm15 at depth 5, every Gaussian term is 0.0 or at least
    # DBL_MIN, though the run has exponents in the subnormal band, where exp
    # is slow: a change that evaluates them again fails here
    gauss_terms = _kernels._gauss_terms
    band, low = [], []

    def spy(arg, out, keep):
        terms = gauss_terms(arg, out, keep)
        band.append(np.count_nonzero((arg >= -746.0) & (arg < _kernels.EXP_FLOOR)))
        low.append(np.count_nonzero((terms != 0.0) & (terms < DBL_MIN)))
        return terms

    monkeypatch.setattr(_kernels, "_gauss_terms", spy)
    assert verify.verify_thm15(depth=5).ok
    assert sum(band) > 0
    assert sum(low) == 0


def _record_windows(monkeypatch):
    """Wrap the pair driver so that every column of every block that a term
    generator hands it is recorded as ``(block rows, start, window rows)``,
    ``start`` None for a column left at 0.0."""
    pair_sums = _kernels._pair_sums
    seen = []

    def spy(x, y, w, scale, block_terms):
        def recorded(d2, rows):
            for window in block_terms(d2, rows):
                seen.append((len(d2), None, 0) if window is None
                            else (len(d2), window[0], len(window[1])))
                yield window

        return pair_sums(x, y, w, scale, recorded)

    monkeypatch.setattr(_kernels, "_pair_sums", spy)
    return seen


def test_conv_windows_skip_rows_out_of_reach(monkeypatch, warm, rng):
    # 2001 masses on [0.5, 1.5] give blocks of 16 rows; 45 points on [-3, 3]
    # fill two and end on a short one of 13.  At the small scales only the
    # points near the masses have a distance in reach (rows 25-33): each
    # column's window runs from the first row of its block in reach to the
    # last, off any row grid, and the sums keep the block loop's bits
    x = np.linspace(-3.0, 3.0, 45)[:, None]
    y = rng.uniform(0.5, 1.5, (2001, 1))
    w = rng.uniform(-1.0, 1.0, len(y))
    assert _kernels._block_rows(len(y)) == 16
    s = np.array([1e-3, 4e-3, 0.05])
    profiles = standard_family(1).profiles
    seen = _record_windows(monkeypatch)
    conv = _kernels.radial_conv_values(x, y, w, s, profiles)
    want = []
    for _, _, d2 in _kernels.pairwise_sq_dists(x, y):
        near = np.sqrt(d2).min(axis=1)
        for prof in profiles:
            reach = prof.support_radius * (1.0 + _kernels.SUPPORT_MARGIN)
            for sj in s:
                hit = np.flatnonzero(near < reach * sj)
                want.append((len(d2), hit[0], hit[-1] + 1 - hit[0]) if len(hit)
                            else (len(d2), None, 0))
    assert seen == want
    windows = [(n, start, rows) for n, start, rows in seen if start is not None]
    assert any(start > 0 for _, start, _ in windows)
    assert any(start + rows < n for n, start, rows in windows)
    assert any(start % 8 for _, start, _ in windows)
    for p, prof in enumerate(profiles):
        got = conv[:, p * len(s):(p + 1) * len(s)]
        ref = _block_loop_conv(x, y, w, s, prof.values)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), prof.name


def test_pair_windows_keep_the_dense_bits(rng):
    # 800 masses give blocks of 40 rows, and 45 points a short last block of
    # 5.  A window on any rows of a block gets the dense sums' bits there,
    # and the rows outside it stay +0.0
    x = rng.uniform(-1.0, 1.0, (45, 2))
    y = rng.uniform(-1.0, 1.0, (800, 2))
    w = rng.uniform(-1.0, 1.0, len(y))
    assert _kernels._block_rows(len(y)) == 40
    spans = [(0, None), (8, None), (3, 24), (17, 1), (32, 8), (0, 5), (39, 1)]

    def columns(d2, _):
        terms = np.exp(-d2)
        for start, rows in spans:
            stop = len(d2) if rows is None else min(len(d2), start + rows)
            yield (start, terms[start:stop]) if start < len(d2) else None

    got = _kernels._pair_sums(x, y, w, lambda d: np.ones(len(spans)), columns)
    dense = _sums(np.exp(-_kernels._sq_dists(x, y)), w)
    for j, (start, rows) in enumerate(spans):
        keep = np.zeros(len(x), dtype=bool)
        for s in (0, 40):
            keep[s + start:s + 40 if rows is None else s + start + rows] = True
        ref = np.where(keep, dense, 0.0)
        assert np.array_equal(got[:, j].view(np.uint64), ref.view(np.uint64)), (start, rows)


def test_thm19_conv_gathers_a_share_of_the_rows(monkeypatch, warm):
    # a work count, not a time: on verify thm19 at depth 6 the radial
    # windows gather at most 60% of the row-columns of both grand maximal
    # fields (50.2% when the windows went in); a dense gather takes all
    from fracmeas import verify

    seen = _record_windows(monkeypatch)
    radial = _kernels.radial_conv_values
    fields = []

    def counted(x, y, w, s, profiles):
        start = len(seen)
        out = radial(x, y, w, s, profiles)
        fields.append((out.size, seen[start:]))
        return out

    monkeypatch.setattr(_kernels, "radial_conv_values", counted)
    verify.VERIFIERS["thm19"](depth=6)
    assert len(fields) == 2
    dense = sum(size for size, _ in fields)
    gathered = sum(rows for _, windows in fields for _, _, rows in windows)
    assert sum(n for _, windows in fields for n, _, _ in windows) == dense
    assert gathered <= 0.6 * dense, gathered / dense
