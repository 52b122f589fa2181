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

The hot path writes into arrays it already owns: on one BLAS thread a
448x128 ``x @ W.T + b`` took 671 us against 345 us with the bias added in
place, and ``np.where(z > 0, z, slope * z)`` 814 us against 32 us for
``np.maximum(z, slope * z)`` written into ``z``, with the same bytes.
``forward`` runs only the head the caller asks for and returns its output
fresh; its cache owns the input and the trunk activations, which
``backward`` turns into slope factors after their last use. ``backward``
returns the model's own gradient vector, which the next one overwrites.

Inside ``with model.epoch():`` (every training epoch) the model keeps a
buffer per trunk activation and one for the top trunk gradient, each rows
x widest hidden layer. A batch larger than the buffers grows them all at
once, so the gradient buffer, which only backward uses, is sized by the
forward pass before it rather than reallocated at each new largest
backward batch. A lower trunk gradient reuses the buffer whose slope
factor it just consumed. A 458 KB activation is above glibc's 128 KB mmap
threshold, so a fresh one faults its pages in: 636 minor faults per
gmm_k4-shaped SSL step and clustering batch, 0 in the scope. Outside it
the same code allocates fresh arrays, so a model kept after training, or
one built to evaluate, holds no buffers.

``leaky_relu`` forms ``slope * z`` one ``BLOCK`` at a time in a 128 KB
scratch the model keeps for its life, where a rows x width scratch took
1.8 MB at 448x512. With the same bytes, the medians of 1,200 single calls
on one core read 211 against 346 us at 448x512, 392 against 640 us at
800x512 and 34.7 against 34.5 us at 448x128.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DivergenceError, check_value

NORM_EPS = 1e-12
BLOCK = 1 << 14  # 128 KB of float64 per operand, so a block's operands stay in L2 cache


def leaky_relu(z: np.ndarray, slope: float, scratch: np.ndarray | None = None) -> np.ndarray:
    """Overwrite the C-contiguous z with ``where(z > 0, z, slope * z)``, one flat
    ``BLOCK`` at a time, holding ``slope * z`` in ``scratch`` (at least
    min(BLOCK, z.size) elements; a new array when None). Bit for bit for slope in
    [0, 1), except that slope 0 maps +inf to NaN (0 * inf); ``Model.forward``
    raises on either."""
    if not z.flags.c_contiguous:
        raise ValueError("leaky_relu works in place on a C-contiguous array")
    flat = z.reshape(-1)
    if scratch is None:
        scratch = np.empty(min(BLOCK, flat.size))
    for start in range(0, flat.size, BLOCK):
        block = flat[start : start + BLOCK]
        np.maximum(block, np.multiply(slope, block, out=scratch[: block.size]), out=block)
    return z


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

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.matmul(x, self.weight.T, out=out)
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

    ``forward`` returns a function of the parameters and input alone;
    forward, backward and parameter mutation need exclusive access. The
    parameter count is fixed at construction and never changes.
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
            # the bits and generator state of rng.normal(0.0, std, size), with no temporary
            rng.standard_normal(out=weight)
            weight *= np.sqrt(2.0 / weight.shape[1])
            weight += 0.0

    def _build(
        self, in_dim: int, hidden_sizes, k: int, leaky_slope: float, params: np.ndarray | None = None
    ) -> None:
        """Set the architecture and the parameter vector, with the layers as views into it.

        The vector is ``params`` itself, not a copy, or zeros when None."""
        for key, value in (("arch.in_dim", in_dim), ("arch.k", k), ("arch.leaky_slope", leaky_slope),
                           *((f"arch.hidden_sizes[{i}]", h) for i, h in enumerate(hidden_sizes))):
            check_value(key, value)
        self.in_dim = int(in_dim)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.k = int(k)
        self.leaky_slope = float(leaky_slope)
        dims = [self.in_dim, *self.hidden_sizes]
        self._shapes = [
            *zip(dims[1:], dims[:-1]), (self.k, dims[-1]), (self.N_ROTATIONS, dims[-1])
        ]
        self.n_params = sum(out_dim * (in_dim + 1) for out_dim, in_dim in self._shapes)
        if params is None:
            params = np.zeros(self.n_params)
        if params.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {params.shape}")
        if params.dtype != np.float64 or not params.flags.c_contiguous:
            raise ValueError(f"parameters must be a contiguous float64 vector, got {params.dtype}")
        self._params = params
        *self.trunk, self.cluster_head, self.rot_head = (
            AffineLayer(weight, bias) for weight, bias in layer_views(self._params, self._shapes)
        )
        self._grads = np.empty(self.n_params)  # backward writes every entry
        self._relu_scratch = np.empty(BLOCK)
        self._cache = None
        self._held = None  # flat activation buffers, kept only inside ``epoch``

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
        return cls._on_vector(arch, np.array(params, dtype=np.float64))

    @classmethod
    def _on_vector(cls, arch: dict, params: np.ndarray) -> "Model":
        """A model of the given architecture whose parameter vector is ``params`` itself,
        for callers that own that vector or only read through the model; draws nothing."""
        model = cls.__new__(cls)
        model._build(arch["in_dim"], arch["hidden_sizes"], arch["k"], arch["leaky_slope"], params)
        return model

    # -- forward / backward ------------------------------------------------

    @contextmanager
    def epoch(self):
        """Keep activation buffers between calls; on exit drop them and the forward cache."""
        self._held = [np.empty(0) for _ in range(len(self.trunk) + 1)]
        try:
            yield
        finally:
            self._held = self._cache = None

    def _buffer(self, slot: int, rows: int, cols: int) -> np.ndarray:
        """A (rows, cols) array: held buffer ``slot`` inside ``epoch``, else a new one."""
        if self._held is None:
            return np.empty((rows, cols))
        if self._held[slot].size < rows * cols:
            # every slot at once: see the module docstring
            self._held = [np.empty(rows * max(self.hidden_sizes)) for _ in self._held]
        return self._held[slot][: rows * cols].reshape(rows, cols)

    def forward(self, x: np.ndarray, head: str = "cluster") -> np.ndarray:
        """Run x (batch, in_dim) through the trunk and one head; returns its output.

        ``head="cluster"`` gives K unit-L2-norm columns, ``head="rotation"``
        4 logits. A non-finite output raises DivergenceError."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected input of shape (batch, {self.in_dim}), got {x.shape}")
        if head not in ("cluster", "rotation"):
            raise ValueError(f"head must be 'cluster' or 'rotation', got {head!r}")
        self._cache = None  # its activations may sit in the buffers this pass overwrites
        rows = x.shape[0]
        acts = [x]
        for slot, layer in enumerate(self.trunk):
            z = layer.forward(acts[-1], out=self._buffer(slot, rows, layer.bias.size))
            acts.append(leaky_relu(z, self.leaky_slope, self._relu_scratch))
        if head == "cluster":
            pre = self.cluster_head.forward(acts[-1])
            out, norms = l2_normalize_rows(pre)
            normalized, finite = (pre, out, norms), np.isfinite(norms)
        else:
            out = self.rot_head.forward(acts[-1])
            normalized, finite = None, np.isfinite(out)
        if not finite.all():
            # raise here: an overflowed norm would quietly zero its row, hiding the blow-up
            raise DivergenceError(f"{head} head outputs overflowed")
        self._cache = (head, acts, normalized)
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        """Backpropagate ``d_out`` through the head the cached forward ran; consumes the
        cache (RuntimeError without one) and returns the model's gradient vector,
        zero in the other head's block."""
        if self._cache is None:
            raise RuntimeError("backward needs a forward pass since the last backward")
        (head, acts, normalized), self._cache = self._cache, None
        rows, n_trunk = acts[0].shape[0], len(self.trunk)
        head_layer = self.cluster_head if head == "cluster" else self.rot_head
        d_out = np.asarray(d_out, dtype=np.float64)
        if d_out.shape != (rows, head_layer.bias.size):
            raise ValueError(f"d_out shape {d_out.shape} != {(rows, head_layer.bias.size)}")
        *trunk_grads, cluster_grads, rot_grads = layer_views(self._grads, self._shapes)
        if head == "cluster":
            d_out = l2_normalize_rows_backward(*normalized, d_out)
            head_grads, idle_grads = cluster_grads, rot_grads
        else:
            head_grads, idle_grads = rot_grads, cluster_grads
        idle_grads[0][...] = idle_grads[1][...] = 0.0
        head_layer.backward(acts[-1], d_out, *head_grads)
        if not n_trunk:
            return self._grads
        d_h = np.matmul(d_out, head_layer.weight, out=self._buffer(n_trunk, rows, acts[-1].shape[1]))
        d_h += 0.0  # as a sum started from zeros: -0.0 becomes +0.0, nothing else changes
        for idx in range(n_trunk - 1, -1, -1):
            # the layer's activation has had its last use and becomes its slope factor
            d_h *= leaky_relu_factor(acts[idx + 1], self.leaky_slope)
            layer = self.trunk[idx]
            layer.backward(acts[idx], d_h, *trunk_grads[idx])
            if idx:  # nothing upstream of the first layer needs its input gradient
                # into the buffer of the activation whose slope factor was just used
                d_h = np.matmul(d_h, layer.weight, out=self._buffer(idx, rows, acts[idx].shape[1]))
        return self._grads
