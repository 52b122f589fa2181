"""Exception types shared across the package, and the type check of config values."""

import math
from numbers import Integral, Real


class ConfigurationError(ValueError):
    """Invalid or infeasible configuration. CLI maps this to exit code 2."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite or runaway loss. CLI maps this to exit code 3."""


_CONFIG_TYPES = {"int": (Integral, "an integer"), "float": (Real, "a number"), "bool": (bool, "true or false")}


def check_type(key: str, value, expected: str) -> None:
    """Raise ConfigurationError naming ``key`` unless ``value`` is an "int", "float" or "bool".

    A bool is neither an int nor a float here, though Python counts it as both,
    and a "float" must be finite: JSON parsing lets NaN and Infinity through."""
    kind, words = _CONFIG_TYPES[expected]
    if not isinstance(value, kind) or (isinstance(value, bool) and expected != "bool"):
        raise ConfigurationError(f"{key} must be {words}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
