import logging
import os
from contextlib import contextmanager

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


@pytest.fixture(scope="session")
def watch_clustering_epochs():
    """``with watch_clustering_epochs(watch):`` calls ``watch(pool, n)`` after the
    n-th clustering epoch that ``train`` runs inside the block returns, with the
    live target pool, by wrapping the ``clustering_epoch`` that ``train`` looks up."""
    from clusterssl import trainer

    @contextmanager
    def watching(watch):
        epoch = trainer.clustering_epoch
        n = 0

        def watched(pool, *args, **kwargs):
            nonlocal n
            stats = epoch(pool, *args, **kwargs)
            n += 1
            watch(pool, n)
            return stats

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "clustering_epoch", watched)
            yield

    return watching
