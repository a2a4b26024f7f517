import math
import os
import threading
import time

import numpy as np
import pytest

from fracmeas import atoms, measures, verify


def _serial(fn, cases):
    return [fn(c) for c in cases]


@pytest.fixture()
def two_cores(monkeypatch):
    # the pool path runs whatever the host's core count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_map_cases_keeps_input_order(two_cores):
    # later cases finish first; results still come back in input order
    def slow_first(c):
        time.sleep(0.02 * (4 - c))
        return c, threading.current_thread().name

    got = verify._map_cases(slow_first, range(4))
    assert [c for c, _ in got] == [0, 1, 2, 3]
    assert all(name.startswith("fracmeas") for _, name in got)


def test_map_cases_raises_first_failing_case(two_cores):
    def fail_on(c):
        if c in (1, 2):
            raise ValueError(f"case {c}")
        return c

    with pytest.raises(ValueError, match="case 1"):
        verify._map_cases(fail_on, range(4))


@pytest.mark.parametrize("fn, kwargs", [
    (verify.verify_thm13, {"depth": 5}),
    (verify.verify_thm15, {"depth": 6}),
], ids=["thm13", "thm15"])
def test_pooled_verify_equals_serial(monkeypatch, two_cores, fn, kwargs):
    # every case computes alone, so the pooled results and tables are the
    # serial ones bit for bit (repr tells floats apart and NaN equals NaN)
    pooled = fn(**kwargs)
    monkeypatch.setattr(verify, "_map_cases", _serial)
    serial = fn(**kwargs)
    assert repr(pooled.checks) == repr(serial.checks)
    assert repr(pooled.results) == repr(serial.results)
    assert repr(pooled.tables) == repr(serial.tables)


def test_refinement_extrapolates_a_geometric_sequence():
    # v_k = 2 - 2^-k: every ratio 1/2, and each extrapolation lands on 2
    ref = verify._refinement([2.0 - 0.5 ** k for k in range(5)])
    assert ref["increments"] == [0.5, 0.25, 0.125, 0.0625]
    assert ref["ratios"] == [0.5, 0.5, 0.5]
    assert ref["limit"] == 2.0 and ref["limit_err"] == 0.0
    # one ratio leaves no earlier extrapolation; a flat sequence has no
    # ratio, and says so with NaN, not a warning
    assert math.isnan(verify._refinement([0.0, 1.0, 1.5])["limit_err"])
    assert all(math.isnan(r) for r in verify._refinement([1.0, 1.0, 1.0])["ratios"])


def test_thm13_needs_three_depths():
    # refused before any atom is built, naming the flag
    with pytest.raises(ValueError, match="--depth 2"):
        verify.verify_thm13(depth=2)


@pytest.mark.parametrize("depth", [5, 8])
def test_scaled_atom_keeps_the_cells_as_its_spacing(depth):
    # thm14 spreads each atom mass over [y - h, y + h] with h the atom's
    # spacing: at every scale the positive masses sit on nu's, each on its
    # dilated Cantor cell, and the negative ones on that cell moved by s/2
    cand, _ = atoms.make_frostman_atom(depth=depth)
    nu = measures.cantor_measure(depth)
    shift = 2 * 3 ** depth                   # 1/2 in units of nu.h
    for j in range(5):
        s = 2.0 ** -j
        a_s, nu_s = verify._scaled_pair(cand, nu, 0.5, s)
        mu = a_s.measure
        assert mu.h == nu_s.h == nu.h * s
        assert np.array_equal(mu.origin, nu_s.origin)
        pos = mu.weights > 0
        assert np.array_equal(mu.indices[pos], nu_s.indices)
        assert np.array_equal(mu.indices[~pos], nu_s.indices + shift)
