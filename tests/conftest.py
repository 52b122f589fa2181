import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# the vector-data rotation warning is expected noise in most trainer tests
logging.getLogger("clusterssl.trainer").setLevel(logging.ERROR)

# every property test runs derandomized and free of timing checks, so a run
# does not depend on machine speed or on examples saved by an earlier run
settings.register_profile(
    "clusterssl", derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("clusterssl")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_gmm():
    from clusterssl.data import make_gaussian_mixture, partition

    ds = make_gaussian_mixture(4, 400, 16, 6.0, seed=7)
    split = partition(ds, 4, 0.2, seed=1)
    return ds, split
