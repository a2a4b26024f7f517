"""Golden digests of the dyadic-tree layer's outputs.

Rasters, regularized covers (from the optimal and from the raster start),
ball covers and Choquet integrals of fixed seeded inputs are hashed and
compared with ``tests/data/content_digests.json``, so a change to the tree
code that moves any bit of a cover, a witness or an integral fails here.

Regenerate the file (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_content_golden.py > tests/data/content_digests.json
"""

import hashlib
import json
import os

import numpy as np

from fracmeas import content
from fracmeas.dimension import maximal_level_sums
from fracmeas.measures import unit_lattice

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "content_digests.json")

COVER_BETA = 0.5
CHOQUET_BETA = 0.63
FIELD_LEVEL = 6
COVER_SEEDS = range(12)
FIELD_SEEDS = range(4)


def _digest(*parts) -> str:
    """SHA-256 over arrays (shape, dtype and bytes) and floats (hex)."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(repr((p.shape, p.dtype.str)).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, float):
            h.update(p.hex().encode())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _cover_parts(cov):
    k = cov.constants
    return (cov.levels, cov.indices, cov.witness, cov.witness_ratio, cov.total,
            k["C_impl"], k["swaps"], k["raster_content"], k["cell_level"])


def ball_family(seed):
    """The acceptance suite's covering recipe: 2-13 balls, centres uniform on
    the unit square, radii uniform on [0.03, 0.3]."""
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(2, 14))
    return content.make_ball_family(rng.uniform(0, 1, (nb, 2)), rng.uniform(0.03, 0.3, nb))


def field(seed):
    """A 64x64 field with about a third of its cells zero and the rest on 24
    geometric values, so level sets repeat and cells share values."""
    rng = np.random.default_rng(1000 + seed)
    n = 2 ** FIELD_LEVEL
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cells = np.stack([ii.ravel(), jj.ravel()], axis=1)
    values = np.geomspace(0.01, 3.0, 24)[rng.integers(0, 24, n * n)]
    values[rng.uniform(0, 1, n * n) < 0.35] = 0.0
    return cells, values


def content_digests() -> dict:
    lat = unit_lattice(2)
    out = {}
    for seed in COVER_SEEDS:
        F = ball_family(seed)
        opt = content.regularized_cover(F, COVER_BETA)
        raster = content.rasterize_balls(F, lat, opt.constants["cell_level"])
        raw = content.regularized_cover(F, COVER_BETA, initial_cover=raster)
        balls = content.ball_cover(F, COVER_BETA)
        out[f"rasterize_balls/{seed}"] = _digest(raster.levels, raster.indices)
        out[f"regularized_cover.optimal/{seed}"] = _digest(*_cover_parts(opt))
        out[f"regularized_cover.raster/{seed}"] = _digest(*_cover_parts(raw))
        out[f"ball_cover/{seed}"] = _digest(balls.centers, balls.radii, balls.witness,
                                            balls.witness_ratio, balls.total)
    for seed in FIELD_SEEDS:
        cells, values = field(seed)
        default = content.choquet_integral(cells, values, lat, FIELD_LEVEL, CHOQUET_BETA)
        given = content.choquet_integral(cells, values, lat, FIELD_LEVEL, CHOQUET_BETA,
                                         thresholds=np.linspace(0.0, 2.0, 33))
        sums = maximal_level_sums(cells, values, lat, FIELD_LEVEL, CHOQUET_BETA, k_max=12)
        out[f"choquet_integral/{seed}"] = _digest(default, given)
        out[f"maximal_level_sums/{seed}"] = _digest(sums)
    return out


def test_content_outputs_match_golden_digests():
    with open(DIGESTS) as fh:
        want = json.load(fh)
    got = content_digests()
    assert sorted(got) == sorted(want)
    moved = [name for name in sorted(want) if got[name] != want[name]]
    assert not moved, f"outputs changed: {moved}"


def test_golden_families_exercise_the_swap_loop():
    # the raster start must force swaps, or the digests miss the swap path
    lat = unit_lattice(2)
    swaps = 0
    for seed in COVER_SEEDS:
        F = ball_family(seed)
        opt = content.regularized_cover(F, COVER_BETA)
        raster = content.rasterize_balls(F, lat, opt.constants["cell_level"])
        swaps += content.regularized_cover(F, COVER_BETA,
                                           initial_cover=raster).constants["swaps"]
    assert swaps > 0


if __name__ == "__main__":
    print(json.dumps(content_digests(), indent=1, sort_keys=True))
