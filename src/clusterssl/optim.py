"""SGD with momentum and decoupled weight decay, plus EMA shadow weights."""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError
from .network import Model


class Sgd:
    """Momentum SGD. Both phases share the velocity buffer and the momentum;
    each step passes its phase's learning rate and weight decay:
    theta' = theta - lr * (grads + momentum * velocity + weight_decay * theta).
    """

    def __init__(self, n_params: int, momentum: float):
        self.velocity = np.zeros(n_params)
        self.momentum = momentum

    def step(self, model: Model, grads: np.ndarray, lr: float, weight_decay: float) -> None:
        grads = np.asarray(grads, dtype=np.float64)
        if grads.shape != self.velocity.shape:
            raise ValueError(f"gradient shape {grads.shape} != {self.velocity.shape}")
        if not np.all(np.isfinite(grads)):
            raise DivergenceError("non-finite gradient")
        theta = model.params
        self.velocity = self.momentum * self.velocity + grads
        theta = theta - lr * (self.velocity + weight_decay * theta)
        if not np.all(np.isfinite(theta)):
            raise DivergenceError("non-finite parameters after update")
        model.set_params(theta)


class EmaState:
    """Exponential moving average of a flat parameter vector."""

    def __init__(self, theta: np.ndarray, decay: float):
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.shadow = np.array(theta, dtype=np.float64, copy=True)
        self.decay = float(decay)

    def update(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self.shadow.shape:
            raise ValueError(f"parameter shape {theta.shape} != shadow shape {self.shadow.shape}")
        self.shadow = self.decay * self.shadow + (1.0 - self.decay) * theta

