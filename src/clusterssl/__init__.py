"""Boosted semi-supervised learning with balanced clustering targets.

Alternates consistency-based semi-supervised epochs with a clustering
phase that binds images to a balanced pool of one-hot targets through
optimal assignment, plus a rotation-prediction pretext for images.
"""

__version__ = "0.1.0"

# the environment variables that size the BLAS and OpenMP thread pools; numpy
# reads them once, when it is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

from .errors import ConfigurationError, DivergenceError

__all__ = ["ConfigurationError", "DivergenceError", "__version__"]
