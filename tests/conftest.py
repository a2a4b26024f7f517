import numpy as np
import pytest

from fracmeas.maximal import standard_family


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
