import logging
import os

from clusterssl import THREAD_VARS

# one BLAS thread, as the committed runs/ were written under; numpy reads
# these once, when it is first imported, which must come after this
for var in THREAD_VARS:
    os.environ[var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

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


@pytest.fixture(scope="session")
def openblas():
    """The thread count, core name and config string of the OpenBLAS that numpy
    loaded, read from the library; each None without one."""
    from clusterssl.network import openblas_info

    return openblas_info()
