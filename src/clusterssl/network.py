"""Small dense network with explicit gradients.

A leaky-ReLU MLP trunk feeds two heads: a K-way head whose rows are
L2-normalized onto the unit sphere, and a 4-way logit head used for the
rotation pretext task. Forward caches activations; backward replays the
chain by hand (no autodiff).

All parameters live in one flat float64 vector; ``layer_views`` is the
only place that knows its layout. Layers come in order trunk, cluster
head, rotation head, and each layer holds its row-major ``(out, in)``
weight followed by its bias. A layer is a ``Layer`` pair of views into the
model's vector, and backward writes gradients through the same views of
its gradient vector.

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

The trunk's large forward passes run on two CPUs. When a batch has at least
``split_rows`` rows, one worker thread runs rows ``[rows // 2:]`` through
every trunk layer into their rows of the activation slots, with a second
128 KB scratch, while the caller runs the first half; the caller joins the
worker, also when either half raises, and then runs the head whole. At
gmm_wide_k10's 128-512-512 trunk that takes the 800-row evals and the 448-
and ~340-row SSL passes, not its 64-row batches; no batch of gmm_k4 or
shapes8 qualifies, and backward always runs whole. The rule's width part,
every width a multiple of 8 and each half at least two rows, is for the
bytes: other widths leave kernel tails that sum in another order, and numpy
runs a one-row half as a matrix-vector product. Its size part, at least
``SPLIT_MACS`` (2^22) multiply-adds per layer in each half, is for speed: a
thread handoff inside a training run costs more than halving a 128-wide
layer's products saves. It also keeps each half clear of OpenBLAS's small
products, whose halves can sum in another order (64x32x512 does). Within
the rule each output element's sum runs over the inner dimension alone, in
blocks that do not depend on the row count, so the bytes are the whole
products' whether the halves ran at once or one after the other. The
worker's BLAS buffer and scratch raise gmm_wide_k10's peak RSS by about
2.7 MB (71.2 -> 74.0 MB, medians of 12 perfbench runs on a 2-vCPU AVX-512
machine). The split runs only where the OpenBLAS numpy loaded runs one
thread and the process may use two CPUs; elsewhere (more BLAS threads,
another BLAS, one CPU) the whole products run. The worker is one thread for
the process, not one per model, because evaluation builds a model per
checkpoint.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import math
import os
from concurrent import futures
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, check_value

NORM_EPS = 1e-12
BLOCK = 1 << 14  # 128 KB of float64 per operand, so a block's operands stay in L2 cache
SPLIT_MACS = 1 << 22  # the least multiply-adds per layer in each half worth a thread handoff


def openblas_info() -> dict:
    """The thread count, core name and config string of the OpenBLAS that numpy
    loaded, read from the library itself; each None where that is not OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])  # the copy numpy already loaded
        info = {"threads": lib.scipy_openblas_get_num_threads64_()}
        for name in ("corename", "config"):
            fn = getattr(lib, f"scipy_openblas_get_{name}64_")
            fn.restype = ctypes.c_char_p
            info[name] = fn().decode()
    except (IndexError, OSError, AttributeError):
        return dict.fromkeys(("threads", "corename", "config"))
    return info


def split_rows(shapes) -> float:
    """The least batch whose products through layers of these ``(out, in)`` shapes
    may run as two row halves, ``[:rows // 2]`` and ``[rows // 2:]``, and give the
    bytes of the whole products; inf where no batch may. The module docstring
    states the rule and why."""
    if not shapes or any(out % 8 or in_dim % 8 for out, in_dim in shapes):
        return math.inf
    return max(4, *(2 * -(-SPLIT_MACS // (out * in_dim)) for out, in_dim in shapes))


@functools.cache
def _worker() -> futures.Executor | None:
    """The one thread that runs ``Model.forward``'s second row half, started on its
    first submission; None unless the OpenBLAS numpy loaded runs one thread and this
    process may run on two CPUs."""
    if openblas_info()["threads"] != 1 or len(os.sched_getaffinity(0)) < 2:
        return None
    return futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="clusterssl-trunk")


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


class Layer(NamedTuple):
    """One layer's row-major ``(out, in)`` weight and its bias, views into a flat vector."""

    weight: np.ndarray
    bias: np.ndarray


def layer_views(flat: np.ndarray, shapes: list[tuple[int, int]]) -> list[Layer]:
    """Per-layer ``(weight, bias)`` views into a flat vector, one per ``(out, in)`` shape."""
    views = []
    pos = 0
    for out_dim, in_dim in shapes:
        weight = flat[pos : pos + out_dim * in_dim].reshape(out_dim, in_dim)
        pos += out_dim * in_dim
        views.append(Layer(weight, flat[pos : pos + out_dim]))
        pos += out_dim
    return views


def affine(x: np.ndarray, layer: Layer, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ layer.weight.T + layer.bias`` into ``out`` (new when None), the bias added in place."""
    out = np.matmul(x, layer.weight.T, out=out)
    out += layer.bias
    return out


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
        *self.trunk, self.cluster_head, self.rot_head = layer_views(self._params, self._shapes)
        self._grads = np.empty(self.n_params)  # backward writes every entry
        self._relu_scratch = np.empty(BLOCK)
        self._split_rows = split_rows(self._shapes[: len(self.hidden_sizes)])
        self._worker_scratch = None  # the worker half's, made at the first split
        self._cache = None
        self._held = None  # flat activation buffers, kept only inside ``epoch``

    # -- parameter plumbing ------------------------------------------------

    @property
    def params(self) -> np.ndarray:
        """The parameter vector itself, not a copy; write to it only through ``set_params``."""
        return self._params

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
        """A model of the given architecture whose parameter vector is ``params`` itself,
        not a copy (pass ``params.copy()`` for an independent model); draws nothing."""
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
        # every slot before either half runs: taking one may regrow them all
        acts = [x, *(self._buffer(slot, rows, layer.bias.size) for slot, layer in enumerate(self.trunk))]
        worker = _worker() if rows >= self._split_rows else None
        if worker is None:
            self._trunk_rows(acts, slice(None), self._relu_scratch)
        else:
            if self._worker_scratch is None:
                self._worker_scratch = np.empty(BLOCK)
            half = rows // 2
            job = worker.submit(contextvars.copy_context().run, self._trunk_rows, acts,
                                slice(half, None), self._worker_scratch)
            try:
                self._trunk_rows(acts, slice(half), self._relu_scratch)
            finally:
                futures.wait((job,))  # nothing reads or drops acts while the worker writes
            job.result()
        if head == "cluster":
            pre = affine(acts[-1], self.cluster_head)
            out, norms = l2_normalize_rows(pre)
            normalized, finite = (pre, out, norms), np.isfinite(norms)
        else:
            out = affine(acts[-1], self.rot_head)
            normalized, finite = None, np.isfinite(out)
        if not finite.all():
            # raise here: an overflowed norm would quietly zero its row, hiding the blow-up
            raise DivergenceError(f"{head} head outputs overflowed")
        self._cache = (head, acts, normalized)
        return out

    def _trunk_rows(self, acts: list[np.ndarray], rows: slice, scratch: np.ndarray) -> None:
        """Run ``rows`` of the input through the trunk into the same rows of each slot."""
        for layer, below, z in zip(self.trunk, acts, acts[1:]):
            leaky_relu(affine(below[rows], layer, out=z[rows]), self.leaky_slope, scratch)

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
            d_z = l2_normalize_rows_backward(*normalized, d_out)
            head_grads, idle_grads = cluster_grads, rot_grads
        else:
            d_z, head_grads, idle_grads = d_out, rot_grads, cluster_grads
        idle_grads.weight[...] = idle_grads.bias[...] = 0.0
        chain = [*zip(self.trunk, trunk_grads), (head_layer, head_grads)]
        for idx in range(n_trunk, -1, -1):  # the head, then the trunk from the top
            layer, grads = chain[idx]
            np.matmul(d_z.T, acts[idx], out=grads.weight)
            d_z.sum(axis=0, out=grads.bias)
            if not idx:  # nothing upstream of the first layer needs its input gradient
                break
            # the head's into the gradient buffer, a trunk layer's into the buffer of
            # the activation whose slope factor was just used
            d_z = np.matmul(d_z, layer.weight, out=self._buffer(idx, rows, acts[idx].shape[1]))
            if idx == n_trunk:
                d_z += 0.0  # as a sum started from zeros: -0.0 becomes +0.0, nothing else changes
            # the activation has had its last use and becomes its slope factor
            d_z *= leaky_relu_factor(acts[idx], self.leaky_slope)
        return self._grads
