"""Small dense network with explicit gradients.

A leaky-ReLU MLP trunk feeds two heads: a K-way head whose rows are
L2-normalized onto the unit sphere, and a 4-way logit head used for the
rotation pretext task. Forward caches activations; backward replays the
chain by hand (no autodiff).

All parameters live in one flat float64 vector; ``layer_views`` is the
only place that knows its layout. Layers come in order trunk, cluster
head, rotation head, and each layer holds its row-major ``(out, in)``
weight followed by its bias. Every layer's weight and bias are views into
the model's vector, and backward returns gradients in the same layout.

The hot path writes into arrays it already owns. A 448x128 activation is
458 KB, above glibc's 128 KB mmap threshold, so each such temporary costs
fresh pages: on one BLAS thread ``x @ W.T + b`` took 671 us against 345 us
with the bias added in place, and ``np.where(z > 0, z, slope * z)`` 814 us
against 32 us for ``np.maximum(z, slope * z)`` into the ``slope * z``
buffer, with the same bytes. ``forward`` returns fresh arrays; its cache
owns the input and trunk activations, which ``backward`` consumes, turning
each into its slope factor after its last use. ``backward`` returns the
model's own gradient vector, which the next ``backward`` overwrites.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError

NORM_EPS = 1e-12


def leaky_relu(z: np.ndarray, slope: float) -> np.ndarray:
    """``where(z > 0, z, slope * z)`` bit for bit for slope in [0, 1), except
    that slope 0 maps +inf to NaN (0 * inf); ``Model.forward`` raises on either."""
    out = slope * z
    return np.maximum(z, out, out=out)


def leaky_relu_factor(h: np.ndarray, slope: float) -> np.ndarray:
    """Overwrite ``h = leaky_relu(z, slope)`` with ``where(z > 0, 1.0, slope)``; h > 0 iff z > 0."""
    np.greater(h, 0.0, out=h)
    return np.maximum(h, slope, out=h)


def l2_normalize_rows(v: np.ndarray, eps: float = NORM_EPS) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each row to unit L2 norm.

    Rows with norm below ``eps`` are replaced by the first canonical basis
    vector (a documented degenerate rule; their gradient is zero).
    Returns (normalized, row_norms).
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(v, axis=1)
    safe = np.maximum(norms, eps)
    out = v / safe[:, None]
    degenerate = norms < eps
    if np.any(degenerate):
        out[degenerate] = 0.0
        out[degenerate, 0] = 1.0
    return out, norms


def l2_normalize_rows_backward(
    v: np.ndarray, out: np.ndarray, norms: np.ndarray, upstream: np.ndarray, eps: float = NORM_EPS
) -> np.ndarray:
    """Gradient of row normalization: (I - y y^T) g / ||v|| per row, 0 for degenerate rows."""
    safe = np.maximum(norms, eps)
    inner = np.sum(out * upstream, axis=1, keepdims=True)
    grad = (upstream - out * inner) / safe[:, None]
    degenerate = norms < eps
    if np.any(degenerate):
        grad[degenerate] = 0.0
    return grad


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-stabilized."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over rows and its gradient w.r.t. the logits.

    The returned gradient already carries the 1/batch factor.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    m = logits.shape[0]
    if m == 0:
        raise ValueError("cross-entropy over an empty batch")
    if labels.shape != (m,):
        raise ValueError(f"labels shape {labels.shape} != ({m},)")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError(f"labels out of range [0, {logits.shape[1]})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_p = shifted - log_z[:, None]
    loss = float(-log_p[np.arange(m), labels].mean())
    d_logits = np.exp(log_p)
    d_logits[np.arange(m), labels] -= 1.0
    return loss, d_logits / m


def layer_views(flat: np.ndarray, shapes: list[tuple[int, int]]) -> list[tuple[np.ndarray, ...]]:
    """Per-layer ``(weight, bias)`` views into a flat vector, one per ``(out, in)`` shape."""
    views = []
    pos = 0
    for out_dim, in_dim in shapes:
        weight = flat[pos : pos + out_dim * in_dim].reshape(out_dim, in_dim)
        pos += out_dim * in_dim
        views.append((weight, flat[pos : pos + out_dim]))
        pos += out_dim
    return views


class AffineLayer:
    """y = x @ W.T + b over caller-owned weight and bias arrays."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        self.weight = weight
        self.bias = bias

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.T
        out += self.bias
        return out

    def backward(
        self, x: np.ndarray, d_out: np.ndarray, d_weight: np.ndarray, d_bias: np.ndarray
    ) -> None:
        """Write the weight and bias gradients; the caller forms d_x = d_out @ weight."""
        np.matmul(d_out.T, x, out=d_weight)
        d_out.sum(axis=0, out=d_bias)


class Model:
    """MLP trunk + normalized K-way clustering head + 4-way rotation head.

    ``forward`` is pure given a parameter snapshot; ``backward``/parameter
    mutation require exclusive access. The parameter count is fixed at
    construction and never changes.
    """

    N_ROTATIONS = 4

    def __init__(
        self,
        in_dim: int,
        hidden_sizes: tuple[int, ...],
        k: int,
        leaky_slope: float = 0.01,
        *,
        rng: np.random.Generator,
    ):
        """He-normal weights drawn layer by layer in layout order; zero biases."""
        self._build(in_dim, hidden_sizes, k, leaky_slope)
        for weight, _ in layer_views(self._params, self._shapes):
            weight[...] = rng.normal(0.0, np.sqrt(2.0 / weight.shape[1]), size=weight.shape)

    def _build(self, in_dim: int, hidden_sizes, k: int, leaky_slope: float) -> None:
        """Set the architecture and a zero parameter vector with the layers as views into it."""
        if in_dim < 1 or k < 1:
            raise ValueError(f"in_dim and k must be positive, got {in_dim}, {k}")
        self.in_dim = int(in_dim)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.k = int(k)
        self.leaky_slope = float(leaky_slope)
        if not 0.0 <= self.leaky_slope < 1.0:
            raise ValueError(f"leaky_slope must be a finite value in [0, 1), got {leaky_slope}")
        dims = [self.in_dim, *self.hidden_sizes]
        self._shapes = [
            *zip(dims[1:], dims[:-1]), (self.k, dims[-1]), (self.N_ROTATIONS, dims[-1])
        ]
        self.n_params = sum(out_dim * (in_dim + 1) for out_dim, in_dim in self._shapes)
        self._params = np.zeros(self.n_params)
        *self.trunk, self.cluster_head, self.rot_head = (
            AffineLayer(weight, bias) for weight, bias in layer_views(self._params, self._shapes)
        )
        self._grads = np.empty(self.n_params)  # backward writes every entry
        self._cache = None

    # -- parameter plumbing ------------------------------------------------

    @property
    def params(self) -> np.ndarray:
        """The parameter vector itself, not a copy; write to it only through ``set_params``."""
        return self._params

    def get_params(self) -> np.ndarray:
        return self._params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {flat.shape}")
        self._params[...] = flat

    def arch(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "hidden_sizes": list(self.hidden_sizes),
            "k": self.k,
            "leaky_slope": self.leaky_slope,
        }

    @classmethod
    def from_arch(cls, arch: dict, params: np.ndarray) -> "Model":
        """A model of the given architecture holding a copy of ``params``; draws nothing."""
        model = cls.__new__(cls)
        model._build(arch["in_dim"], arch["hidden_sizes"], arch["k"], arch["leaky_slope"])
        model.set_params(params)
        return model

    # -- forward / backward ------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run a batch through trunk and both heads.

        x: (batch, in_dim). Returns (cluster_out, rot_logits) where each
        cluster_out row has unit L2 norm and rot_logits has 4 columns.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected input of shape (batch, {self.in_dim}), got {x.shape}")
        acts = [x]
        for layer in self.trunk:
            acts.append(leaky_relu(layer.forward(acts[-1]), self.leaky_slope))
        h = acts[-1]
        cluster_pre = self.cluster_head.forward(h)
        cluster_out, norms = l2_normalize_rows(cluster_pre)
        if not np.all(np.isfinite(norms)):
            # dividing by an overflowed norm would quietly zero the row and
            # keep every loss bounded, hiding a runaway parameter scale
            raise DivergenceError("cluster head activations overflowed")
        rot_logits = self.rot_head.forward(h)
        self._cache = (acts, cluster_pre, cluster_out, norms)
        return cluster_out, rot_logits

    def backward(
        self, d_cluster: np.ndarray | None = None, d_rot: np.ndarray | None = None
    ) -> np.ndarray:
        """Backpropagate upstream gradients from either or both heads.

        Returns the model's gradient vector in the layout of ``params``; a
        head without an upstream gradient gets zeros. Consumes the forward
        cache: raises RuntimeError unless a forward ran since the last backward.
        """
        if self._cache is None:
            raise RuntimeError("backward needs a forward pass since the last backward")
        (acts, cluster_pre, cluster_out, norms), self._cache = self._cache, None
        batch = acts[0].shape[0]
        if d_cluster is not None:
            d_cluster = np.asarray(d_cluster, dtype=np.float64)
            if d_cluster.shape != (batch, self.k):
                raise ValueError(f"d_cluster shape {d_cluster.shape} != {(batch, self.k)}")
            d_cluster = l2_normalize_rows_backward(cluster_pre, cluster_out, norms, d_cluster)
        if d_rot is not None:
            d_rot = np.asarray(d_rot, dtype=np.float64)
            if d_rot.shape != (batch, self.N_ROTATIONS):
                raise ValueError(f"d_rot shape {d_rot.shape} != {(batch, self.N_ROTATIONS)}")
        penult = acts[-1]
        *trunk_grads, cluster_grads, rot_grads = layer_views(self._grads, self._shapes)
        d_penult = []
        for head, d_out, (d_weight, d_bias) in (
            (self.cluster_head, d_cluster, cluster_grads), (self.rot_head, d_rot, rot_grads)
        ):
            if d_out is None:
                d_weight[...] = 0.0
                d_bias[...] = 0.0
            else:
                head.backward(penult, d_out, d_weight, d_bias)
                d_penult.append(d_out @ head.weight)
        if not self.trunk:
            return self._grads
        d_h = d_penult[0] if d_penult else np.zeros_like(penult)
        d_h += 0.0  # as a sum started from zeros: -0.0 becomes +0.0, nothing else changes
        for term in d_penult[1:]:
            d_h += term
        for idx in range(len(self.trunk) - 1, -1, -1):
            # the layer's activation has had its last use and becomes its slope factor
            d_h *= leaky_relu_factor(acts[idx + 1], self.leaky_slope)
            layer = self.trunk[idx]
            layer.backward(acts[idx], d_h, *trunk_grads[idx])
            if idx:  # nothing upstream of the first layer needs its input gradient
                d_h = d_h @ layer.weight
        return self._grads
