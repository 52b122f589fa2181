"""SGD with momentum and decoupled weight decay, plus EMA shadow weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .network import Model


@dataclass
class SgdConfig:
    learning_rate: float
    weight_decay: float = 0.0
    momentum: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


class Sgd:
    """Momentum SGD. The velocity buffer is shared across phase configs:
    theta' = theta - lr * (grads + momentum * velocity + weight_decay * theta).
    """

    def __init__(self, n_params: int):
        self.velocity = np.zeros(n_params)

    def step(self, model: Model, grads: np.ndarray, cfg: SgdConfig) -> None:
        grads = np.asarray(grads, dtype=np.float64)
        if grads.shape != self.velocity.shape:
            raise ValueError(f"gradient shape {grads.shape} != {self.velocity.shape}")
        if not np.all(np.isfinite(grads)):
            raise DivergenceError("non-finite gradient")
        theta = model.get_params()
        self.velocity = cfg.momentum * self.velocity + grads
        theta = theta - cfg.learning_rate * (self.velocity + cfg.weight_decay * theta)
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

