import ctypes
import glob
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
    """The core name, config string and thread count of the OpenBLAS that
    numpy loaded, read from the library; "unknown" and None without one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if not libs:
        return {"corename": "unknown", "config": "unknown", "threads": None}
    lib = ctypes.CDLL(libs[0])  # the copy numpy already loaded
    info = {"threads": lib.scipy_openblas_get_num_threads64_()}
    for name in ("corename", "config"):
        fn = getattr(lib, f"scipy_openblas_get_{name}64_")
        fn.restype = ctypes.c_char_p
        info[name] = fn().decode()
    return info
