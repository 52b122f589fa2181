import contextlib
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterssl import network
from clusterssl.errors import DivergenceError
from clusterssl.network import (
    AffineLayer,
    Model,
    layer_views,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    leaky_relu,
    leaky_relu_factor,
    softmax_cross_entropy,
    softmax_rows,
    split_rows,
)

SLOPES = (0.0, 0.01, 0.5)

# signed zeros, infinities, NaNs of both signs, subnormals and ordinary values
SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
    2.2250738585072014e-308, -2.2250738585072014e-308, 1e308, -1e308, 1.0, -1.0, 3.5, -7.25,
])


def where_leaky_relu(z, slope):
    """The former forward form, kept as the oracle."""
    return np.where(z > 0.0, z, slope * z)


def where_leaky_relu_grad(z, slope):
    """The former derivative form, kept as the oracle."""
    return np.where(z > 0.0, 1.0, slope)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_leaky_relu_values():
    x = np.array([-2.0, 0.0, 3.0])
    scratch = np.empty(3)
    h = leaky_relu(x, 0.1, scratch)
    assert h is x and np.array_equal(x, [-0.2, 0.0, 3.0])  # in place; scratch holds 0.1 * x
    assert np.array_equal(leaky_relu_factor(h, 0.1), [0.1, 0.1, 1.0])


@pytest.mark.parametrize("slope", SLOPES)
def test_leaky_relu_matches_the_where_form_bit_for_bit(slope):
    z = np.concatenate([SPECIALS, np.random.default_rng(0).normal(size=200)])
    with np.errstate(invalid="ignore"):
        got, want = leaky_relu(z.copy(), slope), where_leaky_relu(z, slope)
    differs = bits(got) != bits(want)
    if slope == 0.0:
        # 0 * inf is NaN, which maximum propagates where the where form keeps
        # +inf; Model.forward raises on a non-finite activation either way
        assert np.array_equal(differs, z == np.inf) and np.isnan(got[z == np.inf]).all()
    else:
        assert not differs.any()


@pytest.mark.parametrize("shape", [(800, 512), (3, network.BLOCK + 1)])
@pytest.mark.parametrize("slope", SLOPES)
def test_blocked_leaky_relu_matches_the_one_call_form_bit_for_bit(shape, slope):
    # several blocks and a partial last one, with the specials in the first and last
    z = np.random.default_rng(0).normal(size=shape)
    z.reshape(-1)[: SPECIALS.size] = SPECIALS
    z.reshape(-1)[-SPECIALS.size :] = SPECIALS
    with np.errstate(invalid="ignore"):
        want = np.maximum(z, slope * z)
        got = leaky_relu(z.copy(), slope, np.empty(network.BLOCK))
    assert np.array_equal(bits(got), bits(want))


def test_leaky_relu_refuses_a_strided_array():
    z = np.ones((4, 6))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        leaky_relu(z, 0.01)


@pytest.mark.parametrize("slope", SLOPES)
def test_slope_factor_matches_the_where_form_bit_for_bit(slope):
    # backward turns each activation h = leaky_relu(z) into the derivative at z
    z = np.concatenate([SPECIALS, np.random.default_rng(0).normal(size=200)])
    with np.errstate(invalid="ignore"):
        h = leaky_relu(z.copy(), slope)
    assert leaky_relu_factor(h, slope) is h
    differs = bits(h) != bits(where_leaky_relu_grad(z, slope))
    if slope == 0.0:  # the +inf that leaky_relu maps to NaN, as above
        assert np.array_equal(differs, z == np.inf)
    else:
        assert not differs.any()


def test_normalize_rows_unit_norm(rng):
    v = rng.normal(size=(50, 8)) * 10
    out, norms = l2_normalize_rows(v)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)
    assert np.allclose(norms, np.linalg.norm(v, axis=1))


def test_normalize_rows_degenerate_rule():
    v = np.array([[0.0, 0.0, 0.0], [1e-15, 0.0, 0.0], [3.0, 4.0, 0.0]])
    out, _ = l2_normalize_rows(v)
    assert np.array_equal(out[0], [1.0, 0.0, 0.0])
    assert np.array_equal(out[1], [1.0, 0.0, 0.0])
    assert np.allclose(out[2], [0.6, 0.8, 0.0])


def test_normalize_backward_matches_fd(rng):
    v = rng.normal(size=(4, 5))
    w = rng.normal(size=(4, 5))
    out, norms = l2_normalize_rows(v)
    d_v = l2_normalize_rows_backward(v, out, norms, w)
    h = 1e-6
    for i in range(4):
        for j in range(5):
            vp = v.copy(); vp[i, j] += h
            vm = v.copy(); vm[i, j] -= h
            fp = (l2_normalize_rows(vp)[0] * w).sum()
            fm = (l2_normalize_rows(vm)[0] * w).sum()
            fd = (fp - fm) / (2 * h)
            assert abs(fd - d_v[i, j]) < 1e-6


def test_degenerate_row_has_zero_gradient():
    v = np.array([[0.0, 0.0], [1.0, 2.0]])
    out, norms = l2_normalize_rows(v)
    d_v = l2_normalize_rows_backward(v, out, norms, np.ones((2, 2)))
    assert np.array_equal(d_v[0], [0.0, 0.0])
    assert not np.array_equal(d_v[1], [0.0, 0.0])


def test_softmax_rows_uniform_and_shift_invariance(rng):
    probs = softmax_rows(np.zeros((3, 5)))
    assert np.allclose(probs, 0.2)
    logits = rng.normal(size=(4, 6))
    shifted = softmax_rows(logits + 100.0)
    assert np.allclose(shifted, softmax_rows(logits), atol=1e-12)


def test_cross_entropy_oracles():
    # uniform logits over 4 classes -> ln 4
    loss, _ = softmax_cross_entropy(np.zeros((2, 4)), np.array([0, 3]))
    assert abs(loss - 1.3862943611198906) < 1e-12
    # hard one-hot logits at large scale -> exactly zero in float64
    logits = np.zeros((1, 10))
    logits[0, 4] = 100.0
    loss, _ = softmax_cross_entropy(logits, np.array([4]))
    assert loss == 0.0


def test_cross_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((0, 4)), np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((2, 4)), np.array([0, 4]))


def test_affine_layer_shapes_and_grad(rng):
    layer = AffineLayer(rng.normal(size=(3, 6)), np.zeros(3))
    x = rng.normal(size=(5, 6))
    out = layer.forward(x)
    assert out.shape == (5, 3)
    d_w, d_b = np.empty((3, 6)), np.empty(3)
    assert layer.backward(x, np.ones((5, 3)), d_w, d_b) is None
    assert np.allclose(d_w, np.ones((3, 5)) @ x)
    assert np.allclose(d_b, 5.0)


def test_layers_are_views_in_layout_order(rng):
    model = Model(6, (5, 4), 3, rng=rng)
    theta = model.get_params()
    shapes = [(5, 6), (4, 5), (3, 4), (4, 4)]
    views = layer_views(theta, shapes)
    layers = [*model.trunk, model.cluster_head, model.rot_head]
    assert sum(w.size + b.size for w, b in views) == model.n_params
    for layer, (w, b) in zip(layers, views):
        assert np.array_equal(layer.weight, w) and np.array_equal(layer.bias, b)
        assert np.shares_memory(layer.weight, model.params)
    model.set_params(theta + 1.0)
    assert np.array_equal(model.rot_head.bias, views[-1][1] + 1.0)
    model.forward(rng.normal(size=(2, 6)), head="rotation")
    grads = model.backward(np.ones((2, 4)))
    *_, (d_cluster_w, d_cluster_b), (_, d_rot_b) = layer_views(grads, shapes)
    assert not d_cluster_w.any() and not d_cluster_b.any()
    assert np.allclose(d_rot_b, 2.0)


def test_same_generator_same_initial_params():
    a = Model(6, (5,), 3, rng=np.random.default_rng(3))
    b = Model(6, (5,), 3, rng=np.random.default_rng(3))
    assert np.array_equal(a.params, b.params)
    with pytest.raises(TypeError):
        Model(6, (5,), 3)


def test_model_forward_shapes(rng):
    model = Model(12, (16, 8), 5, rng=rng)
    x = rng.normal(size=(7, 12))
    f, r = model.forward(x), model.forward(x, head="rotation")
    assert f.shape == (7, 5) and r.shape == (7, 4)
    assert np.allclose(np.linalg.norm(f, axis=1), 1.0)
    with pytest.raises(ValueError, match="head"):
        model.forward(x, head="both")


def test_model_rejects_bad_input_shape(rng):
    model = Model(12, (16,), 3, rng=rng)
    with pytest.raises(ValueError):
        model.forward(rng.normal(size=(7, 11)))


def test_backward_before_forward_raises(rng):
    model = Model(4, (8,), 3, rng=rng)
    with pytest.raises(RuntimeError):
        model.backward(np.zeros((1, 3)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("in_dim, hidden, k", [(16, (128, 128), 4), (128, (512, 512), 10), (3, (), 2)])
def test_init_draws_what_rng_normal_draws(seed, in_dim, hidden, k):
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    model = Model(in_dim, hidden, k, rng=rng)
    for weight, bias in layer_views(model.params, model._shapes):
        want = oracle.normal(0.0, np.sqrt(2.0 / weight.shape[1]), size=weight.shape)
        assert np.array_equal(bits(weight), bits(want)) and not bias.any()
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_params_round_trip_and_copy(rng):
    model = Model(6, (10,), 4, rng=rng)
    theta = model.get_params()
    clone = Model.from_arch(model.arch(), model.params)
    assert np.array_equal(clone.get_params(), theta)
    clone.set_params(theta * 2)
    assert np.array_equal(model.get_params(), theta)  # copy is independent
    model.set_params(theta)
    assert model.n_params == theta.shape[0]


def test_arch_round_trip(rng):
    model = Model(6, (10, 5), 4, leaky_slope=0.05, rng=rng)
    rebuilt = Model.from_arch(model.arch(), model.params)
    assert rebuilt.in_dim == 6 and rebuilt.k == 4 and rebuilt.leaky_slope == 0.05
    assert rebuilt.n_params == model.n_params
    assert np.array_equal(rebuilt.params, model.params)
    assert not np.shares_memory(rebuilt.params, model.params)
    with pytest.raises(ValueError):
        Model.from_arch(model.arch(), model.params[:-1])


def test_rebuilding_a_model_draws_nothing(tmp_path, rng, monkeypatch):
    from clusterssl.clustering import init_target_pool
    from clusterssl.optim import EmaState, Sgd
    from clusterssl.trainer import TrainConfig, load_checkpoint, save_checkpoint

    model = Model(6, (5,), 3, rng=rng)
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, iteration=0, model=model, ema=EmaState(model.get_params(), 0.9),
                    opt=Sgd(model.n_params, 0.9), pool=init_target_pool(9, 3, 1.0, rng),
                    rng=rng, cfg=TrainConfig(), rows=[])

    def no_generator(*args, **kwargs):
        raise AssertionError("a rebuilt model drew random numbers")

    monkeypatch.setattr(network.np.random, "default_rng", no_generator)
    assert np.array_equal(Model.from_arch(model.arch(), model.params).params, model.params)
    assert np.array_equal(load_checkpoint(path)["model"].params, model.params)


def test_full_model_gradient_matches_fd(rng):
    model = Model(5, (8,), 3, rng=rng)
    x = rng.normal(size=(4, 5))
    theta = model.get_params()
    h = 1e-6
    for head, width in (("cluster", 3), ("rotation", 4)):
        w = rng.normal(size=(4, width))

        def loss(mod):
            return float((mod.forward(x, head=head) * w).sum())

        model.forward(x, head=head)
        grads = model.backward(w).copy()
        for j in range(0, theta.shape[0], 7):
            tp = theta.copy(); tp[j] += h
            tm = theta.copy(); tm[j] -= h
            model.set_params(tp); lp = loss(model)
            model.set_params(tm); lm = loss(model)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grads[j]) < 1e-6
        model.set_params(theta)


def test_forward_detects_activation_overflow(rng):
    model = Model(4, (8,), 3, rng=rng)
    model.set_params(model.get_params() * 1e200)
    for head in ("cluster", "rotation"):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=head):
                model.forward(rng.normal(size=(2, 4)), head=head)


def reference_pass(model, x, d_cluster, d_rot):
    """The former out-of-place forward and backward: (cluster_out, rot_logits, grads)."""
    slope = model.leaky_slope
    layers = [*model.trunk, model.cluster_head, model.rot_head]
    acts, pre, h = [x], [], x
    for layer in model.trunk:
        z = h @ layer.weight.T + layer.bias
        pre.append(z)
        h = where_leaky_relu(z, slope)
        acts.append(h)
    cluster_pre = h @ model.cluster_head.weight.T + model.cluster_head.bias
    cluster_out, norms = l2_normalize_rows(cluster_pre)
    rot_logits = h @ model.rot_head.weight.T + model.rot_head.bias
    grads = np.zeros(model.n_params)
    *trunk_grads, (cw, cb), (rw, rb) = layer_views(grads, [lay.weight.shape for lay in layers])
    d_penult = np.zeros_like(h)
    if d_cluster is not None:
        d_pre_norm = l2_normalize_rows_backward(cluster_pre, cluster_out, norms, d_cluster)
        np.matmul(d_pre_norm.T, h, out=cw)
        d_pre_norm.sum(axis=0, out=cb)
        d_penult += d_pre_norm @ model.cluster_head.weight
    if d_rot is not None:
        np.matmul(d_rot.T, h, out=rw)
        d_rot.sum(axis=0, out=rb)
        d_penult += d_rot @ model.rot_head.weight
    d_h = d_penult
    for idx in range(len(model.trunk) - 1, -1, -1):
        d_z = d_h * where_leaky_relu_grad(pre[idx], slope)
        np.matmul(d_z.T, acts[idx], out=trunk_grads[idx][0])
        d_z.sum(axis=0, out=trunk_grads[idx][1])
        if idx:
            d_h = d_z @ model.trunk[idx].weight
    return cluster_out, rot_logits, grads


def check_head_against_reference(model, x, head, rng):
    """One forward and backward through ``head``, compared bit for bit with ``reference_pass``."""
    d_out = rng.normal(size=(x.shape[0], model.k if head == "cluster" else Model.N_ROTATIONS))
    d_out[2 % len(d_out)] = -0.0  # signed zero upstream gradients reach the zero cases
    d_out[3 % len(d_out)] = 0.0
    want_f, want_r, want_g = reference_pass(
        model, x, *((d_out, None) if head == "cluster" else (None, d_out))
    )
    got = model.forward(x, head=head)
    assert np.array_equal(bits(got), bits(want_f if head == "cluster" else want_r))
    assert np.array_equal(bits(model.backward(d_out)), bits(want_g))


@pytest.mark.parametrize("hidden", [(), (9,), (9, 6)], ids=["0hidden", "1hidden", "2hidden"])
@pytest.mark.parametrize("head", ["cluster", pytest.param("rotation", id="rot")])
def test_forward_backward_match_the_former_formulas_bit_for_bit(hidden, head):
    for seed, slope in enumerate(SLOPES):
        rng = np.random.default_rng(seed)
        model = Model(5, hidden, 3, leaky_slope=slope, rng=rng)
        model.set_params(model.params + rng.normal(scale=0.1, size=model.n_params))
        x = rng.normal(size=(11, 5))
        x[0] = 0.0  # rows of zeros reach the zero cases
        x[1] = -0.0
        check_head_against_reference(model, x, head, rng)


@pytest.mark.parametrize("slope", SLOPES)
def test_epoch_buffers_match_the_former_formulas_bit_for_bit(slope):
    # the gmm_k4 shape, with batches above, below and back at the largest
    # seen: a stale or too-short buffer slice would change some byte
    rng = np.random.default_rng(1)
    model = Model(16, (128, 128), 4, leaky_slope=slope, rng=rng)
    with model.epoch():
        for rows in (448, 435, 64, 448, 1):
            for head in ("cluster", "rotation"):
                x = rng.normal(size=(rows, 16))
                x[0] = -0.0
                check_head_against_reference(model, x, head, rng)


def held_buffers(model):
    return [buf for buf in model._held or [] if buf.size]


def test_a_larger_batch_grows_every_buffer_and_backward_reuses_them(rng):
    # backward's gradient buffer grows with the forward batch before it, not
    # once more at each new largest backward batch
    model = Model(16, (128, 128), 4, rng=rng)
    with model.epoch():
        check_head_against_reference(model, rng.normal(size=(64, 16)), "cluster", rng)
        model.forward(rng.normal(size=(448, 16)))
        held = list(model._held)
        assert len(held_buffers(model)) == 3
        for rows in (100, 300, 448):
            check_head_against_reference(model, rng.normal(size=(rows, 16)), "cluster", rng)
            assert all(now is then for now, then in zip(model._held, held))


def test_forward_returns_fresh_arrays_and_backward_consumes_the_cache(rng):
    model = Model(5, (7, 6), 3, rng=rng)
    x = rng.normal(size=(4, 5))
    with model.epoch():
        f1 = model.forward(x)
        r1 = model.forward(x, head="rotation")
        f1_bytes, r1_bytes = f1.copy(), r1.copy()
        f2 = model.forward(2.0 * x)
        grads = model.backward(np.ones((4, 3)))
        model.forward(3.0 * x, head="rotation")
        model.backward(np.ones((4, 4)))
        assert np.array_equal(f1, f1_bytes) and np.array_equal(r1, r1_bytes)
        assert len(held_buffers(model)) == 3  # two activations and one scratch buffer
        for out in (f1, r1, f2):
            assert not any(np.shares_memory(out, buf) for buf in held_buffers(model))
        assert not np.shares_memory(grads, model.params)
        with pytest.raises(RuntimeError):
            model.backward(np.ones((4, 4)))
        model.forward(x)
    # leaving the scope drops the buffers and the cache of the last forward
    assert model._held is None
    with pytest.raises(RuntimeError):
        model.backward(np.ones((4, 3)))


def arrays_on(obj, seen=None):
    """Every ndarray reachable from ``obj`` through attributes, lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [a for item in items for a in arrays_on(item, seen)]


def test_forward_outside_a_scope_holds_no_activation(rng):
    model = Model(16, (128, 128), 4, rng=rng)
    x = rng.normal(size=(448, 16))

    def activation_sized(obj):
        return [a.shape for a in arrays_on(obj) if a.size >= 448 * 128]

    for head in ("cluster", "rotation"):
        model.forward(x, head=head)
        # only the cache that backward consumes holds activations, as without buffers
        assert model._held is None
        assert not activation_sized([v for name, v in vars(model).items() if name != "_cache"])
        model.backward(np.ones((448, 4)))
        assert not activation_sized(model)


def ssl_step_peak(model, x_weak, x_strong, x_lab, scoped):
    """Traced peak bytes of three SSL-step-shaped passes."""
    tracemalloc.start()
    try:
        with model.epoch() if scoped else contextlib.nullcontext():
            for _ in range(3):
                model.forward(x_weak)
                for x in (x_strong, x_lab):
                    model.forward(x)
                    model.backward(np.ones((x.shape[0], model.k)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("in_dim, hidden, k", [(16, (128, 128), 4), (128, (512, 512), 10)],
                         ids=["gmm_k4", "gmm_wide_k10"])
def test_epoch_scope_peak_memory_is_no_higher(rng, in_dim, hidden, k):
    # pseudo-label forward of mu*b = 448 rows, then the strong (all confident)
    # and labeled (b = 64) forward and backward passes
    model = Model(in_dim, hidden, k, rng=rng)
    x_weak, x_strong, x_lab = (rng.normal(size=(rows, in_dim)) for rows in (448, 448, 64))
    outside = ssl_step_peak(model, x_weak, x_strong, x_lab, scoped=False)
    inside = ssl_step_peak(model, x_weak, x_strong, x_lab, scoped=True)
    assert inside <= outside, (inside, outside)


@pytest.mark.parametrize("slope", [1.0, 2.0, -0.01, float("nan"), float("inf")])
def test_model_rejects_leaky_slope_outside_0_1(rng, slope):
    with pytest.raises(ValueError, match="leaky_slope"):
        Model(4, (3,), 2, leaky_slope=slope, rng=rng)
    model = Model(4, (3,), 2, rng=rng)
    with pytest.raises(ValueError, match="leaky_slope"):
        Model.from_arch({**model.arch(), "leaky_slope": slope}, model.params)


# -- the trunk's two row halves -------------------------------------------

@st.composite
def split_products(draw):
    """(m, n, k) for an (m, k) by (k, n) product whose row halves ``split_rows``
    accepts, with n * k <= 2**21, m * max(n, k) <= 2**20 and m * n * k <= 2**27
    so each example stays small."""
    n = 8 * draw(st.integers(1, 512))
    k = 8 * draw(st.integers(1, min(512, 2**18 // n)))
    low = split_rows([(n, k)])
    m = draw(st.integers(low, max(low, min(2**20 // max(n, k), 2**27 // (n * k)))))
    return m, n, k


def halves_product(a, b, a_half):
    """``a @ b`` with the two row halves of ``a``, as ``a_half(rows)`` gives them,
    multiplied apart into their halves of one output."""
    m = a.shape[0]
    out = np.empty((m, b.shape[1]))
    for rows in (slice(m // 2), slice(m // 2, None)):
        np.matmul(a_half(rows), b, out=out[rows])
    return out


@settings(max_examples=60)
@given(split_products(), st.integers(0, 2**32 - 1))
def test_split_products_equal_the_whole_over_the_rule(shape, seed):
    # the three product forms the model runs: x @ W.T, d @ W and d.T @ a
    m, n, k = shape
    rng = np.random.default_rng(seed)
    x, d_t = rng.normal(size=(m, k)), rng.normal(size=(k, m))
    w, w_t = rng.normal(size=(n, k)), rng.normal(size=(k, n))
    for a, b, a_half in ((x, w.T, lambda rows: x[rows]),
                         (x, w_t, lambda rows: x[rows]),
                         (d_t.T, w_t, lambda rows: d_t[:, rows].T)):
        assert np.array_equal(bits(halves_product(a, b, a_half)), bits(a @ b)), (m, n, k)


@pytest.mark.parametrize("rows,out,in_dim", [
    (448, 4, 512), (128, 10, 512),  # the heads
    (448, 196, 512),  # a width that is not a multiple of 8
    (64, 32, 512),  # OpenBLAS's small-matrix region
    (3, 2048, 2048),  # a one-row half runs as a matrix-vector product
])
def test_split_rows_refuses_shapes_whose_halves_changed_bytes(rows, out, in_dim):
    # under the SkylakeX kernel each of these gave other bytes in two halves
    # than in the whole x @ W.T
    assert rows < split_rows([(out, in_dim)])


def test_split_rows_at_the_workload_trunks():
    # far above any batch gmm_k4 or shapes8 runs; below gmm_wide_k10's 340-row
    # SSL passes, above its 64-row batches
    wide, gmm_k4, shapes8 = [(512, 128), (512, 512)], [(128, 16), (128, 128)], [(128, 64), (128, 128)]
    assert [split_rows(shapes) for shapes in (wide, gmm_k4, shapes8)] == [128, 4096, 1024]
    assert split_rows([(512, 128), (4, 512)]) == split_rows([]) == np.inf


class InlineWorker:
    """Stands in for the worker thread: runs each submission at once, in the caller."""

    def __init__(self):
        self.submissions = 0

    def submit(self, fn, *args):
        self.submissions += 1
        job = futures.Future()
        try:
            job.set_result(fn(*args))
        except Exception as exc:  # handed back through the future, as the worker does
            job.set_exception(exc)
        return job


class SlowWorker:
    """A one-thread executor that starts each half after ``delay`` seconds and, with
    ``fail``, raises once the half has run; ``finished`` counts the halves run."""

    def __init__(self, delay=0.0, fail=False):
        self.pool = futures.ThreadPoolExecutor(max_workers=1)
        self.delay, self.fail, self.finished = delay, fail, 0

    def submit(self, fn, *args):
        def run():
            time.sleep(self.delay)
            fn(*args)
            self.finished += 1
            if self.fail:
                raise RuntimeError("worker half failed")
        return self.pool.submit(run)


@pytest.fixture
def use_worker(monkeypatch):
    """``use_worker(w)`` makes ``w`` the worker ``Model.forward`` hands its second half
    to (None: no split); the test's SlowWorkers are shut down after it."""
    made = []

    def use(worker):
        if isinstance(worker, SlowWorker):
            made.append(worker)
        monkeypatch.setattr(network, "_worker", lambda: worker)
        return worker

    yield use
    for worker in made:
        worker.pool.shutdown()


WIDE = (128, (512, 512), 10)  # the gmm_wide_k10 network


def wide_model():
    return Model(*WIDE, rng=np.random.default_rng(10))


def wide_forward(x):
    """A fresh gmm_wide_k10 model's cluster output for x, from whole products."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_worker", lambda: None)
        return wide_model().forward(x)


@pytest.mark.parametrize("rows", [800, 448, 340, 64])
def test_split_forward_and_backward_give_the_whole_bytes(rows, use_worker):
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows, WIDE[0]))
    x[0] = -0.0
    d_outs = {"cluster": rng.normal(size=(rows, WIDE[2])), "rotation": rng.normal(size=(rows, 4))}
    inline = InlineWorker()
    passes = []
    for worker in (None, inline, SlowWorker()):
        use_worker(worker)
        model = wide_model()
        got = []
        with model.epoch():
            for head, d_out in d_outs.items():
                got += [bits(model.forward(x, head)), bits(model.backward(d_out)).copy()]
        got.append(bits(model.forward(x)))  # outside the scope: fresh activation arrays
        passes.append(got)
    for got in passes[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(got, passes[0]))
    assert inline.submissions == (3 if rows != 64 else 0)


def test_split_batches_that_regrow_the_buffers_keep_the_whole_bytes(use_worker):
    # the thread switch interval shortened to make the worker and the caller
    # interleave often; a buffer regrown under a running half would show here
    use_worker(SlowWorker())
    rng = np.random.default_rng(3)
    model = wide_model()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with model.epoch():
            for rows in (128, 800, 340, 1000, 64, 448, 1000):
                x = rng.normal(size=(rows, WIDE[0]))
                assert np.array_equal(bits(model.forward(x)), bits(wide_forward(x))), rows
    finally:
        sys.setswitchinterval(interval)


class CallerHalfFailed(Exception):
    pass


def test_forward_joins_the_worker_when_either_half_fails(use_worker, monkeypatch):
    x = np.random.default_rng(0).normal(size=(800, WIDE[0]))
    model = wide_model()
    worker = use_worker(SlowWorker(delay=0.05, fail=True))
    with pytest.raises(RuntimeError, match="worker half failed"):
        model.forward(x)
    assert worker.finished == 1

    worker = use_worker(SlowWorker(delay=0.2))
    real = network.leaky_relu

    def caller_half_fails(z, *args):
        if threading.current_thread() is threading.main_thread():
            raise CallerHalfFailed
        return real(z, *args)

    monkeypatch.setattr(network, "leaky_relu", caller_half_fails)
    with pytest.raises(CallerHalfFailed):
        model.forward(x)
    assert worker.finished == 1  # its half ran to the end before the error left forward
    monkeypatch.setattr(network, "leaky_relu", real)
    assert np.array_equal(bits(model.forward(x)), bits(wide_forward(x)))
    assert worker.finished == 2


def test_an_overflowed_split_forward_diverges_after_the_join(use_worker):
    # every first-layer product is exactly 1.5e308, so adding the bias overflows
    # in both halves' ufuncs, and the head's norms come out non-finite
    model = wide_model()
    params = model.get_params()
    model.trunk[0].weight[...] = 2.0**-7
    model.trunk[0].bias[...] = 1e308
    x = np.full((800, WIDE[0]), 1.5e308)
    worker = use_worker(SlowWorker(delay=0.05))
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        # the worker's half runs under the caller's errstate, so it warns of nothing
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="cluster"):
            model.forward(x)
    assert worker.finished == 1
    model.set_params(params)
    y = np.random.default_rng(1).normal(size=(800, WIDE[0]))
    assert np.array_equal(bits(model.forward(y)), bits(wide_forward(y)))
    assert worker.finished == 2


def test_forward_starts_at_most_one_worker_thread(monkeypatch):
    def workers():
        return [t for t in threading.enumerate() if t.name.startswith("clusterssl-trunk")]

    before, count_before = workers(), threading.active_count()
    x = np.random.default_rng(2).normal(size=(800, WIDE[0]))
    model = wide_model()
    want = wide_forward(x)
    real = network.leaky_relu

    def worker_half_fails(z, *args):
        if threading.current_thread() is not threading.main_thread():
            raise CallerHalfFailed
        return real(z, *args)

    for fails in (False, True, True, False):
        monkeypatch.setattr(network, "leaky_relu", worker_half_fails if fails else real)
        with pytest.raises(CallerHalfFailed) if fails and network._worker() else contextlib.nullcontext():
            got = model.forward(x)
        if not fails:
            assert np.array_equal(bits(got), bits(want))
    assert len(workers()) <= 1
    assert threading.active_count() - count_before == len(workers()) - len(before)
