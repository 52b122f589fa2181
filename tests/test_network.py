import numpy as np
import pytest

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
    assert np.array_equal(leaky_relu(x, 0.1), [-0.2, 0.0, 3.0])
    assert np.array_equal(leaky_relu_factor(leaky_relu(x, 0.1), 0.1), [0.1, 0.1, 1.0])


@pytest.mark.parametrize("slope", SLOPES)
def test_leaky_relu_matches_the_where_form_bit_for_bit(slope):
    z = np.concatenate([SPECIALS, np.random.default_rng(0).normal(size=200)])
    with np.errstate(invalid="ignore"):
        got, want = leaky_relu(z, slope), where_leaky_relu(z, slope)
    differs = bits(got) != bits(want)
    if slope == 0.0:
        # 0 * inf is NaN, which maximum propagates where the where form keeps
        # +inf; Model.forward raises on a non-finite activation either way
        assert np.array_equal(differs, z == np.inf) and np.isnan(got[z == np.inf]).all()
    else:
        assert not differs.any()


@pytest.mark.parametrize("slope", SLOPES)
def test_slope_factor_matches_the_where_form_bit_for_bit(slope):
    # backward turns each activation h = leaky_relu(z) into the derivative at z
    z = np.concatenate([SPECIALS, np.random.default_rng(0).normal(size=200)])
    with np.errstate(invalid="ignore"):
        h = leaky_relu(z, slope)
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
    model.forward(rng.normal(size=(2, 6)))
    grads = model.backward(d_rot=np.ones((2, 4)))
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
    f, r = model.forward(rng.normal(size=(7, 12)))
    assert f.shape == (7, 5) and r.shape == (7, 4)
    assert np.allclose(np.linalg.norm(f, axis=1), 1.0)


def test_model_rejects_bad_input_shape(rng):
    model = Model(12, (16,), 3, rng=rng)
    with pytest.raises(ValueError):
        model.forward(rng.normal(size=(7, 11)))


def test_backward_before_forward_raises(rng):
    model = Model(4, (8,), 3, rng=rng)
    with pytest.raises(RuntimeError):
        model.backward(d_cluster=np.zeros((1, 3)))


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
    w = rng.normal(size=(4, 3))
    wr = rng.normal(size=(4, 4))

    def loss(mod):
        f, r = mod.forward(x)
        return float((f * w).sum() + 0.5 * (r * wr).sum())

    model.forward(x)
    grads = model.backward(d_cluster=w, d_rot=0.5 * wr)
    theta = model.get_params()
    h = 1e-6
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
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            model.forward(rng.normal(size=(2, 4)))


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


@pytest.mark.parametrize("hidden", [(), (9,), (9, 6)], ids=["0hidden", "1hidden", "2hidden"])
@pytest.mark.parametrize("heads", ["cluster", "rot", "both"])
def test_forward_backward_match_the_former_formulas_bit_for_bit(hidden, heads):
    for seed, slope in enumerate(SLOPES):
        rng = np.random.default_rng(seed)
        model = Model(5, hidden, 3, leaky_slope=slope, rng=rng)
        model.set_params(model.params + rng.normal(scale=0.1, size=model.n_params))
        x = rng.normal(size=(11, 5))
        x[0] = 0.0  # rows of zeros and signed zero upstream gradients reach the zero cases
        x[1] = -0.0
        d_cluster = rng.normal(size=(11, 3)) if heads != "rot" else None
        d_rot = rng.normal(size=(11, 4)) if heads != "cluster" else None
        for d in (d_cluster, d_rot):
            if d is not None:
                d[2] = -0.0
                d[3] = 0.0
        want_f, want_r, want_g = reference_pass(model, x, d_cluster, d_rot)
        got_f, got_r = model.forward(x)
        got_g = model.backward(d_cluster=d_cluster, d_rot=d_rot)
        assert np.array_equal(bits(got_f), bits(want_f))
        assert np.array_equal(bits(got_r), bits(want_r))
        assert np.array_equal(bits(got_g), bits(want_g))


def test_forward_returns_fresh_arrays_and_backward_consumes_the_cache(rng):
    model = Model(5, (7,), 3, rng=rng)
    x = rng.normal(size=(4, 5))
    f1, r1 = model.forward(x)
    f1_bytes, r1_bytes = f1.copy(), r1.copy()
    f2, r2 = model.forward(2.0 * x)
    assert not np.shares_memory(f1, f2) and not np.shares_memory(r1, r2)
    assert np.array_equal(f1, f1_bytes) and np.array_equal(r1, r1_bytes)
    grads = model.backward(d_cluster=np.ones((4, 3)))
    assert not np.shares_memory(grads, model.params)
    with pytest.raises(RuntimeError):
        model.backward(d_cluster=np.ones((4, 3)))


@pytest.mark.parametrize("slope", [1.0, 2.0, -0.01, float("nan"), float("inf")])
def test_model_rejects_leaky_slope_outside_0_1(rng, slope):
    with pytest.raises(ValueError, match="leaky_slope"):
        Model(4, (3,), 2, leaky_slope=slope, rng=rng)
    model = Model(4, (3,), 2, rng=rng)
    with pytest.raises(ValueError, match="leaky_slope"):
        Model.from_arch({**model.arch(), "leaky_slope": slope}, model.params)
