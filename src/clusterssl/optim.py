"""SGD with momentum and decoupled weight decay, plus EMA shadow weights.

Both update in place, in the order of the out-of-place formulas, one
``BLOCK`` of parameters at a time so each block's operands stay in L2 cache.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError, check_value
from .network import BLOCK, Model


def _blocks(n: int):
    return (slice(start, start + BLOCK) for start in range(0, n, BLOCK))


class Sgd:
    """Momentum SGD. Both phases share the velocity buffer and the momentum;
    each step passes its phase's learning rate and weight decay:
    theta' = theta - lr * (grads + momentum * velocity + weight_decay * theta).

    ``scratch`` holds new parameters until checked; ``grads`` may live in it.
    """

    def __init__(self, n_params: int, momentum: float, velocity: np.ndarray | None = None):
        velocity = np.zeros(n_params) if velocity is None else velocity
        self.velocity = np.array(velocity, dtype=np.float64)  # a copy: the step writes into it
        if self.velocity.shape != (n_params,):
            raise ValueError(f"velocity shape {self.velocity.shape} != ({n_params},)")
        self.momentum = momentum
        self.scratch = np.empty(n_params)

    def step(self, model: Model, grads: np.ndarray, lr: float, weight_decay: float) -> None:
        """One update; raises DivergenceError on a non-finite result, parameters untouched."""
        grads = np.asarray(grads, dtype=np.float64)
        if grads.shape != self.velocity.shape:
            raise ValueError(f"gradient shape {grads.shape} != {self.velocity.shape}")
        if not np.all(np.isfinite(grads)):
            raise DivergenceError("non-finite gradient")
        theta = model.params
        for block in _blocks(theta.shape[0]):
            velocity = self.velocity[block]
            velocity *= self.momentum
            velocity += grads[block]
            update = np.multiply(theta[block], weight_decay, out=self.scratch[block])
            update += velocity
            update *= lr
            np.subtract(theta[block], update, out=update)
        if not np.all(np.isfinite(self.scratch)):
            raise DivergenceError("non-finite parameters after update")
        model.set_params(self.scratch)


class EmaState:
    """Exponential moving average of a flat parameter vector."""

    def __init__(self, theta: np.ndarray, decay: float):
        check_value("ema_decay", decay)
        self.shadow = np.array(theta, dtype=np.float64, copy=True)
        self.decay = float(decay)
        self.scratch = np.empty(min(BLOCK, self.shadow.size))

    def update(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self.shadow.shape:
            raise ValueError(f"parameter shape {theta.shape} != shadow shape {self.shadow.shape}")
        for block in _blocks(theta.shape[0]):
            shadow = self.shadow[block]
            shadow *= self.decay
            shadow += np.multiply(theta[block], 1.0 - self.decay, out=self.scratch[: shadow.size])
