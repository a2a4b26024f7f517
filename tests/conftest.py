import numpy as np
import pytest
from hypothesis import settings

from fracmeas.maximal import standard_family

# property tests replay the same examples on every run, with no time limit
# per example (timings on a loaded host say nothing about correctness)
settings.register_profile("fracmeas", deadline=None, derandomize=True)
settings.load_profile("fracmeas")


@pytest.fixture(scope="session")
def warm():
    """Build the profile tables once, outside timings."""
    standard_family(1)
    standard_family(1, normalize=False)
    standard_family(2)
    return True


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
