import numpy as np
import pytest
from hypothesis import settings

# Hypothesis also draws constants found in every loaded non-test module, so
# load the whole package up front: a test then draws the same examples
# whether it runs alone or in the full suite
import fracmeas.cli  # noqa: F401
from fracmeas.maximal import standard_family

# property tests replay the same examples on every run, with no time limit
# per example (timings on a loaded host say nothing about correctness)
settings.register_profile("fracmeas", deadline=None, derandomize=True)
settings.load_profile("fracmeas")


@pytest.fixture(scope="session")
def warm():
    """Build the test families once, outside timings.

    Their plateau tables are read from the package (``radial_tables.npz``),
    so this costs milliseconds; the fixture keeps that out of timed tests.
    """
    standard_family(1)
    standard_family(1, normalize=False)
    standard_family(2)
    return True


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
