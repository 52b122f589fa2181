"""Exception types shared across the package, and the bounds table: the type
and the accepted interval of every numeric or boolean config key and of every
range-checked checkpoint field."""

import math
from numbers import Integral, Real


class ConfigurationError(ValueError):
    """Invalid or infeasible configuration. CLI maps this to exit code 2."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite or runaway loss. CLI maps this to exit code 3."""


# (type, interval, the keys whose values lie in it), each interval written
# once: "[" and "]" close an end, "(" and ")" open it, and [i] stands for each
# entry of a list. Rules that relate two keys stay with their callers
# (dataset.n >= dataset.k; dataset.d >= dataset.k when dataset.separation > 0;
# at most one shapes class per shape; enough training points per class to
# label), and so do the checks of the string keys.
BOUNDS_TABLE = (
    ("int", "[1, 1]", "version"),
    ("int", "[2, inf)", "dataset.k"),  # the clustering phase needs two classes
    ("int", "[8, 32]", "dataset.size"),
    ("int", "[0, inf)", "dataset.seed split.seed train.iters train.e1 train.e2 "
                        "train.warmup_rot_epochs train.seed iteration"),
    ("int", "(0, inf)", "dataset.n dataset.d split.labels_per_class train.mu train.r train.batch_size "
                        "train.hidden_sizes[i] arch.in_dim arch.k arch.hidden_sizes[i]"),
    ("float", "[0, inf)", "dataset.separation train.wd_ssl train.wd_cluster train.lambda_u"),
    ("float", "(0, inf)", "train.lr_ssl train.lr_cluster train.logit_temperature train.divergence_limit"),
    ("float", "[0, 1)", "split.test_frac train.momentum train.ema_decay ema_decay "
                        "train.leaky_slope arch.leaky_slope"),
    ("float", "(0, 1)", "train.tau"),
    ("float", "(0, 2)", "train.rho"),
    ("float", "(0, 1]", "train.alpha"),
    ("bool", "", "train.rotnet"),
)

_TYPES = {"int": Integral, "float": Real, "bool": bool}


def bound_words(kind: str, interval: str) -> str:
    """What a value of this type and interval must be, as the messages say it."""
    if kind == "bool":
        return "true or false"
    article, noun = ("an", "integer") if kind == "int" else ("a", "number")
    low, high = interval[1:-1].split(", ")
    if low == high:
        return low
    if high != "inf":
        return f"{article} {noun} in {interval}"
    if low == "0":
        return f"a {'positive' if interval[0] == '(' else 'non-negative'} {noun}"
    return f"{article} {noun} {'>' if interval[0] == '(' else '>='} {low}"


def _bound(kind: str, interval: str) -> tuple:
    low, high = interval[1:-1].split(", ") if interval else ("-inf", "inf")
    return kind, float(low), float(high), interval[:1] == "(", interval[-1:] == ")", interval


# key -> (type, low, high, low end open, high end open, interval)
BOUNDS = {key: _bound(kind, interval) for kind, interval, keys in BOUNDS_TABLE for key in keys.split()}


def check_value(key: str, value) -> None:
    """Raise ConfigurationError naming ``key`` unless ``value`` has the type
    and lies in the interval that the bounds table gives the key.

    ``train.hidden_sizes[2]`` reads the entry ``train.hidden_sizes[i]``. A bool
    is neither an int nor a float here, though Python counts it as both, and a
    float must be finite: JSON parsing lets NaN and Infinity through."""
    kind, low, high, low_open, high_open, interval = (
        BOUNDS[key] if key in BOUNDS else BOUNDS[key.partition("[")[0] + "[i]"])
    typed = isinstance(value, _TYPES[kind]) and (kind == "bool" or not isinstance(value, bool))
    if typed and isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    if not (typed and (low < value if low_open else low <= value)
            and (value < high if high_open else value <= high)):
        raise ConfigurationError(f"{key} must be {bound_words(kind, interval)}, got {value!r}")
