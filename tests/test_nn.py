import math
import tracemalloc

import numpy as np
import pytest

from coldrec import nn, zoo
from coldrec.nn import (ADAM_CHUNK, AdamState, LayerSpec, NetworkSpec, ShapeError,
                        adam_step, cosine_loss, infer_shapes, init_params,
                        layer_backward, layer_forward, net_backward, net_forward)

import conv_oracle
from gradcheck import gradient_check


class TestLayerForward:
    def test_relu(self):
        y, _ = layer_forward(LayerSpec("relu"), {}, np.array([[-1.0, 2.0]]))
        assert np.array_equal(y, [[0.0, 2.0]])

    def test_conv_same_hand(self):
        # 1 channel, kernel [1, 1], input [1, 2, 3] padded on the right -> [3, 5, 3]
        spec = LayerSpec("conv1d_time", filters=1, width=2)
        params = {"W": np.ones((1, 1, 2)), "b": np.zeros(1)}
        y, _ = layer_forward(spec, params, np.array([[[1.0, 2.0, 3.0]]]))
        assert np.array_equal(y, [[[3.0, 5.0, 3.0]]])

    def test_conv_same_padding_keeps_length(self):
        spec = LayerSpec("conv1d_time", filters=2, width=4)
        rng = np.random.default_rng(0)
        params = {"W": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=2)}
        y, _ = layer_forward(spec, params, rng.normal(size=(5, 3, 11)))
        assert y.shape == (5, 2, 11)

    def test_maxpool(self):
        spec = LayerSpec("maxpool_time", pool=4)
        x = np.array([[[1.0, 3.0, 2.0, 0.0, 5.0, 1.0, 0.0, 0.0]]])
        y, _ = layer_forward(spec, {}, x)
        assert np.array_equal(y, [[[3.0, 5.0]]])

    def test_maxpool_floor_truncation(self):
        spec = LayerSpec("maxpool_time", pool=3)
        x = np.arange(7.0).reshape(1, 1, 7)
        y, _ = layer_forward(spec, {}, x)
        assert y.shape == (1, 1, 2)
        assert np.array_equal(y, [[[2.0, 5.0]]])

    def test_l2norm_triangle(self):
        y, _ = layer_forward(LayerSpec("l2norm"), {}, np.array([[3.0, 4.0]]))
        assert np.allclose(y, [[0.6, 0.8]])

    def test_l2norm_unit_output(self):
        rng = np.random.default_rng(1)
        y, _ = layer_forward(LayerSpec("l2norm"), {}, rng.normal(size=(10, 5)))
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-9)

    def test_batchnorm_train_hand(self):
        spec = LayerSpec("batchnorm")
        params = {"gamma": np.ones(1), "beta": np.zeros(1),
                  "running_mean": np.zeros(1), "running_var": np.ones(1)}
        x = np.array([[1.0], [3.0]])
        y, _ = layer_forward(spec, params, x, mode="train")
        # mean 2, var 1, eps 1e-5 -> close to (-1, 1)
        assert np.allclose(y, [[-1.0], [1.0]], atol=1e-4)

    def test_batchnorm_eval_uses_running_stats(self):
        spec = LayerSpec("batchnorm")
        params = {"gamma": np.ones(1), "beta": np.zeros(1),
                  "running_mean": np.array([2.0]), "running_var": np.array([4.0])}
        y, _ = layer_forward(spec, params, np.array([[4.0]]), mode="eval")
        assert y[0, 0] == pytest.approx(1.0, rel=1e-4)

    def test_dropout_eval_identity(self):
        x = np.ones((3, 4))
        y, _ = layer_forward(LayerSpec("dropout", rate=0.5), {}, x, mode="eval")
        assert np.array_equal(y, x)

    def test_dropout_train_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = np.ones((100, 100))
        y, _ = layer_forward(LayerSpec("dropout", rate=0.5), {}, x,
                             mode="train", rng=rng)
        values = set(np.unique(y))
        assert values <= {0.0, 2.0}
        assert y.mean() == pytest.approx(1.0, abs=0.05)

    def test_flatten(self):
        x = np.arange(12.0).reshape(2, 2, 3)
        y, _ = layer_forward(LayerSpec("flatten"), {}, x)
        assert y.shape == (2, 6)

    def test_concat(self):
        a = np.ones((2, 3))
        b = np.zeros((2, 2))
        y, _ = layer_forward(LayerSpec("concat"), {}, [a, b])
        assert y.shape == (2, 5)


class TestLayerBackward:
    def test_relu_gate(self):
        spec = LayerSpec("relu")
        _, cache = layer_forward(spec, {}, np.array([[-1.0, 2.0]]))
        dx, _ = layer_backward(spec, {}, cache, np.array([[1.0, 1.0]]))
        assert np.array_equal(dx, [[0.0, 1.0]])

    def test_dense_hand_outer_product(self):
        spec = LayerSpec("dense", units=1)
        params = {"W": np.zeros((2, 1)), "b": np.zeros(1)}
        _, cache = layer_forward(spec, params, np.array([[1.0, 2.0]]))
        dx, grads = layer_backward(spec, params, cache, np.array([[1.0]]))
        assert np.array_equal(grads["W"], [[1.0], [2.0]])
        assert np.array_equal(grads["b"], [1.0])


def fd_layer_check(spec, in_shape, batch=3, seed=0, mode="train", h=1e-6):
    """Central-difference check of one layer's input and parameter gradients."""
    rng = np.random.default_rng(seed)
    net = NetworkSpec(trunk=[spec], input_shapes={"": in_shape})
    params = init_params(net, seed)["trunk/0"]
    x = rng.normal(size=(batch,) + in_shape)
    if spec.kind == "relu":
        x = np.where(np.abs(x) < 1e-3, 1e-3, x)  # keep away from the kink
    w = rng.normal(size=(batch,) + infer_shapes(net)["trunk/0"])

    def forward():
        # the dropout stream net_forward(seed=7) gives a net's first layer
        return layer_forward(spec, params, x, mode, np.random.default_rng([7, 0]))

    def loss():
        return float(np.sum(w * forward()[0]))

    _, cache = forward()
    dx, grads = layer_backward(spec, params, cache, w)

    worst = 0.0
    flat_x = x.reshape(-1)
    flat_dx = np.asarray(dx).reshape(-1)
    check = np.random.default_rng(99)
    for c in check.choice(flat_x.size, size=min(10, flat_x.size), replace=False):
        orig = flat_x[c]
        flat_x[c] = orig + h
        up = loss()
        flat_x[c] = orig - h
        down = loss()
        flat_x[c] = orig
        num = (up - down) / (2 * h)
        worst = max(worst, abs(num - flat_dx[c]) / max(abs(num), abs(flat_dx[c]), 1e-8))
    for key in grads:
        tensor = params[key].reshape(-1)
        g = np.asarray(grads[key]).reshape(-1)
        for c in check.choice(tensor.size, size=min(10, tensor.size), replace=False):
            orig = tensor[c]
            tensor[c] = orig + h
            up = loss()
            tensor[c] = orig - h
            down = loss()
            tensor[c] = orig
            num = (up - down) / (2 * h)
            worst = max(worst, abs(num - g[c]) / max(abs(num), abs(g[c]), 1e-8))
    return worst


@pytest.mark.parametrize("spec,shape", [
    (LayerSpec("dense", units=4), (6,)),
    (LayerSpec("conv1d_time", filters=3, width=4), (2, 12)),
    (LayerSpec("conv1d_time", filters=3, width=3), (2, 12)),
    (LayerSpec("maxpool_time", pool=3), (2, 10)),
    (LayerSpec("maxpool_time", pool=7), (2, 7)),  # one window over the whole clip
    (LayerSpec("relu"), (5,)),
    (LayerSpec("dropout", rate=0.5), (8,)),
    (LayerSpec("batchnorm"), (5,)),
    (LayerSpec("l2norm"), (5,)),
    (LayerSpec("flatten"), (3, 4)),
])
def test_every_layer_kind_matches_finite_differences(spec, shape):
    assert fd_layer_check(spec, shape) < 1e-4


def test_batchnorm_eval_mode_gradient():
    spec = LayerSpec("batchnorm")
    assert fd_layer_check(spec, (5,), mode="eval") < 1e-4


@pytest.mark.parametrize("width", [3, 4])
@pytest.mark.parametrize("t", [1, 6, 24, 96])
@pytest.mark.parametrize("batch", [1, 7, 32, 202, 256])
def test_conv_matches_per_tap_einsum(batch, t, width):
    """Forward, dW, db and dx equal the loop-built unroll's GEMMs exactly, and
    one einsum per tap to rounding; at T = 1 every tap but the centre one
    reads only padding."""
    rng = np.random.default_rng([batch, t, width])
    spec = LayerSpec("conv1d_time", filters=12, width=width)
    params = {"W": rng.normal(size=(12, 8, width)), "b": rng.normal(size=12)}
    x = rng.normal(size=(batch, 8, t))
    dy = rng.normal(size=(batch, 12, t))
    y, cache = layer_forward(spec, params, x)
    dx, grads = layer_backward(spec, params, cache, dy)
    got = (y, grads["W"], grads["b"], dx)
    # exact: the same GEMMs on the same column matrix round alike
    y_gemm, cols = conv_oracle.gemm_forward(params["W"], params["b"], x)
    dx_gemm, dw_gemm, db_gemm = conv_oracle.gemm_backward(params["W"], cols, dy)
    for g, ref in zip(got, (y_gemm, dw_gemm, db_gemm, dx_gemm)):
        np.testing.assert_array_equal(g, ref, strict=True)
    # the per-tap einsum sums in tap order, not BLAS's (channel, tap) order;
    # relative to each array's largest entry, since cancelling sums carry an
    # absolute rounding error, not a relative one
    y_ref, xp = conv_oracle.conv_forward(params["W"], params["b"], x)
    dx_ref, dw_ref, db_ref = conv_oracle.conv_backward(params["W"], xp, dy)
    for g, ref in zip(got, (y_ref, dw_ref, db_ref, dx_ref)):
        np.testing.assert_allclose(g, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_conv_eval_forward_equals_train_and_keeps_no_cache():
    rng = np.random.default_rng(4)
    spec = LayerSpec("conv1d_time", filters=12, width=4)
    params = {"W": rng.normal(size=(12, 8, 4)), "b": rng.normal(size=12)}
    x = rng.normal(size=(7, 8, 24))
    y_train, _ = layer_forward(spec, params, x, mode="train")
    y_eval, cache = layer_forward(spec, params, x, mode="eval")
    assert y_eval.tobytes() == y_train.tobytes()
    assert cache == {}


def _scatter_add_reference(cache, dy, pool):
    dx = np.zeros(cache["in_shape"])
    b, c, t_out = dy.shape
    src = cache["arg"] + np.arange(t_out) * pool  # window-local -> absolute frame
    np.add.at(dx, (np.arange(b)[:, None, None], np.arange(c)[None, :, None], src), dy)
    return dx


class TestPoolBackward:
    @pytest.mark.parametrize("spec,t", [
        (LayerSpec("maxpool_time", pool=4), 96),
        (LayerSpec("maxpool_time", pool=3), 10),          # the last frame is in no window
        (LayerSpec("maxpool_time", pool=8), 8),           # one window over the whole clip
    ])
    def test_disjoint_windows_bit_identical_to_scatter_add(self, spec, t):
        rng = np.random.default_rng(t)
        _, cache = layer_forward(spec, {}, rng.normal(size=(5, 3, t)))
        dy = rng.normal(size=(5, 3, cache["arg"].shape[2]))
        dy[0, 0, :] = -0.0
        dy[1, 2, 0] = -0.0
        dx, _ = layer_backward(spec, {}, cache, dy)
        # bytes, so a -0.0 where the sum onto zeros gives +0.0 fails
        assert dx.tobytes() == _scatter_add_reference(cache, dy, spec.pool).tobytes()
        assert not np.signbit(dx[0, 0]).any()


def _tied_input(rng, shape):
    """Small integers, so windows hold many equal maxima, with zeros of either sign."""
    x = rng.integers(-2, 2, size=shape).astype(np.float64)
    return np.where(x == 0, np.where(rng.random(shape) < 0.5, -0.0, 0.0), x)


class TestPoolFirstMax:
    """The pool keeps np.argmax's rule: of tied maxima, the first frame wins."""

    CASES = [(LayerSpec("maxpool_time", pool=4), 96), (LayerSpec("maxpool_time", pool=3), 10),
             (LayerSpec("maxpool_time", pool=8), 8), (LayerSpec("maxpool_time", pool=1), 5)]

    @pytest.mark.parametrize("spec,t", CASES)
    def test_index_and_value_of_first_max(self, spec, t):
        x = _tied_input(np.random.default_rng([7, t]), (6, 4, t))
        y, cache = layer_forward(spec, {}, x)
        t_out = t // spec.pool
        xw = x[:, :, :t_out * spec.pool].reshape(6, 4, t_out, spec.pool)
        first = xw.argmax(axis=3)
        np.testing.assert_array_equal(cache["arg"], first)
        # bytes, so a +0.0 taken where the first zero is -0.0 fails
        assert y.tobytes() == np.take_along_axis(xw, first[..., None], axis=3)[..., 0].tobytes()

    def test_signed_zero_ties(self):
        spec = LayerSpec("maxpool_time", pool=4)
        x = np.array([[[-0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -1.0, -0.0, 0.0, -2.0]]])
        y, cache = layer_forward(spec, {}, x)
        assert cache["arg"].tolist() == [[[0, 0, 1]]]
        assert np.signbit(y).tolist() == [[[True, False, True]]]
        dx, _ = layer_backward(spec, {}, cache, np.array([[[1.0, 2.0, 3.0]]]))
        assert dx.tolist() == [[[1.0, 0, 0, 0, 2.0, 0, 0, 0, 0, 3.0, 0, 0]]]

    @pytest.mark.parametrize("spec,t", CASES)
    def test_eval_values_equal_train_values(self, spec, t):
        x = _tied_input(np.random.default_rng([8, t]), (6, 4, t))
        y_train, _ = layer_forward(spec, {}, x, mode="train")
        y_eval, cache = layer_forward(spec, {}, x, mode="eval")
        assert y_eval.tobytes() == y_train.tobytes()
        assert cache == {}

    @pytest.mark.parametrize("spec,t", CASES)
    def test_gradient_lands_on_first_max(self, spec, t):
        rng = np.random.default_rng([9, t])
        x = _tied_input(rng, (6, 4, t))
        _, cache = layer_forward(spec, {}, x)
        t_out = t // spec.pool
        dy = rng.normal(size=(6, 4, t_out))
        dx, _ = layer_backward(spec, {}, cache, dy)
        first = x[:, :, :t_out * spec.pool].reshape(6, 4, t_out, spec.pool).argmax(axis=3)
        want = np.zeros_like(x)
        want[:, :, :t_out * spec.pool].reshape(6, 4, t_out, spec.pool)[
            np.arange(6)[:, None, None], np.arange(4)[None, :, None],
            np.arange(t_out)[None, None, :], first] = dy
        assert dx.tobytes() == want.tobytes()


class TestNetComposition:
    def test_identity_net(self):
        net = NetworkSpec(trunk=[LayerSpec("relu")], input_shapes={"": (3,)})
        params = init_params(net, 0)
        x = np.abs(np.random.default_rng(0).normal(size=(2, 3)))
        y, _, _ = net_forward(net, params, x, mode="eval")
        assert np.array_equal(y, x)

    def test_dense_relu_composition(self):
        net = NetworkSpec(trunk=[LayerSpec("dense", units=1), LayerSpec("relu")],
                          input_shapes={"": (1,)})
        params = init_params(net, 0)
        params["trunk/0"]["W"] = np.array([[1.0]])
        params["trunk/0"]["b"] = np.zeros(1)
        y, _, _ = net_forward(net, params, np.array([[-2.0]]), mode="eval")
        assert y[0, 0] == 0.0

    def test_branched_concat_shapes(self):
        net = NetworkSpec(
            trunk=[LayerSpec("concat"), LayerSpec("dense", units=2)],
            branches={"a": [LayerSpec("relu")], "b": [LayerSpec("relu")]},
            input_shapes={"a": (3,), "b": (4,)},
        )
        assert infer_shapes(net)["trunk/0"] == (7,)
        params = init_params(net, 0)
        rng = np.random.default_rng(1)
        y, _, _ = net_forward(net, params,
                              {"a": rng.normal(size=(5, 3)), "b": rng.normal(size=(5, 4))},
                              mode="eval")
        assert y.shape == (5, 2)

    def test_shape_mismatch_detected(self):
        net = NetworkSpec(trunk=[LayerSpec("dense", units=2),
                                 LayerSpec("maxpool_time", pool=2)],
                          input_shapes={"": (3,)})
        with pytest.raises(ShapeError):
            infer_shapes(net)

    def test_random_small_net_gradient_check(self):
        net = NetworkSpec(
            trunk=[LayerSpec("dense", units=6), LayerSpec("relu"),
                   LayerSpec("dense", units=3), LayerSpec("l2norm")],
            input_shapes={"": (4,)},
        )
        params = init_params(net, 3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 4))
        t = rng.normal(size=(4, 3))
        assert gradient_check(net, params, x, t) < 1e-4


class TestCosineLoss:
    def test_identical_unit_vectors(self):
        v = np.array([0.6, 0.8])
        loss, _ = cosine_loss(v, v)
        assert loss == pytest.approx(-1.0)

    def test_orthogonal(self):
        loss, _ = cosine_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert loss == pytest.approx(0.0)

    def test_hand_example(self):
        loss, _ = cosine_loss(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert loss == pytest.approx(-1.0 / np.sqrt(2), abs=1e-6)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            cosine_loss(np.ones(2), np.zeros(2))

    def test_batch_mean(self):
        pred = np.array([[1.0, 0.0], [0.0, 1.0]])
        target = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, _ = cosine_loss(pred, target)
        assert loss == pytest.approx(-0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        _, grad = cosine_loss(pred, target)
        h = 1e-7
        for idx in np.ndindex(pred.shape):
            orig = pred[idx]
            pred[idx] = orig + h
            up, _ = cosine_loss(pred, target)
            pred[idx] = orig - h
            down, _ = cosine_loss(pred, target)
            pred[idx] = orig
            num = (up - down) / (2 * h)
            assert grad[idx] == pytest.approx(num, abs=1e-6)

    def test_range_for_nonnegative_vectors(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            loss, _ = cosine_loss(np.abs(rng.normal(size=4)) + 1e-6,
                                  np.abs(rng.normal(size=4)) + 1e-6)
            assert -1.0 - 1e-12 <= loss <= 0.0


class TestAdam:
    def _scalar_params(self, theta):
        return {"trunk/0": {"W": np.array([[theta]])}}

    def test_zero_gradient_no_change(self):
        params = self._scalar_params(1.5)
        state = AdamState.for_params(params)
        adam_step(params, {"trunk/0": {"W": np.zeros((1, 1))}}, state)
        assert params["trunk/0"]["W"][0, 0] == 1.5

    def test_first_step_hand_value(self):
        params = self._scalar_params(0.0)
        state = AdamState.for_params(params)
        adam_step(params, {"trunk/0": {"W": np.ones((1, 1))}}, state)
        # m_hat = 1, v_hat = 1 -> step = -lr / (1 + eps)
        assert params["trunk/0"]["W"][0, 0] == pytest.approx(-0.000999999990, abs=1e-12)

    def test_matches_scalar_oracle_two_steps(self):
        params = self._scalar_params(0.0)
        state = AdamState.for_params(params)
        # independent scalar re-derivation of the update rule
        theta, m, v = 0.0, 0.0, 0.0
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        for t in (1, 2):
            adam_step(params, {"trunk/0": {"W": np.ones((1, 1))}}, state)
            g = 1.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            theta -= lr * mh / (np.sqrt(vh) + eps)
            assert params["trunk/0"]["W"][0, 0] == pytest.approx(theta, abs=1e-12)


    def test_chunked_update_bit_identical_to_per_tensor_formula(self):
        rng = np.random.default_rng(0)
        shapes = [(1,), (ADAM_CHUNK - 1,), (ADAM_CHUNK,), (5, (ADAM_CHUNK + 1) // 5),
                  (3 * ADAM_CHUNK + 5,)]
        assert [int(np.prod(s)) for s in shapes] == [1, ADAM_CHUNK - 1, ADAM_CHUNK,
                                                     ADAM_CHUNK + 1, 3 * ADAM_CHUNK + 5]
        params = {f"trunk/{i}": {"W": rng.normal(size=s)} for i, s in enumerate(shapes)}
        oracle = {layer: {k: t.copy() for k, t in ts.items()} for layer, ts in params.items()}
        m = {layer: {k: np.zeros_like(t) for k, t in ts.items()} for layer, ts in params.items()}
        v = {layer: {k: np.zeros_like(t) for k, t in ts.items()} for layer, ts in params.items()}
        state = AdamState.for_params(params, lr=0.01)
        for t in (1, 2, 3):
            grads = {layer: {k: rng.normal(size=x.shape) * 10.0**rng.integers(-6, 3, x.shape)
                             for k, x in ts.items()} for layer, ts in params.items()}
            grads["trunk/4"]["W"][::7] = 0.0
            adam_step(params, grads, state)
            # the per-tensor update on scaled moments, float order and all
            b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
            root_c2 = math.sqrt((1 - b2) / (1 - b2**t))
            lr = 0.01 * (1 - b1) / ((1 - b1**t) * root_c2)
            for layer, tensors in grads.items():
                for key, g in tensors.items():
                    mk, vk = m[layer][key], v[layer][key]
                    mk *= b1
                    mk += g
                    vk *= b2
                    vk += g * g
                    oracle[layer][key] -= mk / (np.sqrt(vk) + nn.ADAM_EPS / root_c2) * lr
            for layer in params:
                assert np.array_equal(params[layer]["W"], oracle[layer]["W"]), (t, layer)
                assert np.array_equal(state.m[layer]["W"], m[layer]["W"]), (t, layer)
                assert np.array_equal(state.v[layer]["W"], v[layer]["W"]), (t, layer)

    def test_matches_textbook_adam_over_200_steps(self):
        """Against unscaled float64 Adam (Kingma & Ba 2015, Algorithm 1) on gradients
        from 1e-6 to 1e3 with exact zeros, one tensor factored."""
        rng = np.random.default_rng(5)
        shapes = {"trunk/0": (3, ADAM_CHUNK + 7), "trunk/1": (300,), "trunk/2": (70, 40)}
        params = {layer: {"W": rng.normal(size=s)} for layer, s in shapes.items()}
        start = {layer: ts["W"].copy() for layer, ts in params.items()}
        book = {layer: ts["W"].copy() for layer, ts in params.items()}
        m = {layer: np.zeros(s) for layer, s in shapes.items()}
        v = {layer: np.zeros(s) for layer, s in shapes.items()}
        lr, b1, b2, eps = 0.01, nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
        state = AdamState.for_params(params, lr=lr)
        for t in range(1, 201):
            grads = {}
            for layer, s in shapes.items():
                g = rng.normal(size=s) * 10.0**rng.uniform(-6, 3, s)
                g[rng.random(s) < 0.1] = 0.0
                grads[layer] = {"W": g}
            x, dy = rng.normal(size=(8, 70)), rng.normal(size=(8, 40)) * 10.0**rng.uniform(-3, 1)
            grads["trunk/2"]["W"] = nn.FactoredGrad(x, dy)
            adam_step(params, grads, state)
            for layer in shapes:
                g = np.asarray(grads[layer]["W"])
                m[layer] = b1 * m[layer] + (1 - b1) * g
                v[layer] = b2 * v[layer] + (1 - b2) * g * g
                m_hat, v_hat = m[layer] / (1 - b1**t), v[layer] / (1 - b2**t)
                book[layer] = book[layer] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for layer in shapes:
            moved = np.abs(book[layer] - start[layer]).max()
            assert np.abs(params[layer]["W"] - book[layer]).max() <= 1e-12 * moved, layer
            for scaled, keep, want in ((state.m, 1 - b1, m), (state.v, 1 - b2, v)):
                got = scaled[layer]["W"] * keep
                assert np.abs(got - want[layer]).max() <= 1e-13 * np.abs(want[layer]).max(), layer

    @pytest.mark.parametrize("rows,units,batch", [
        # every dense weight the zoo trains on desk-train (seeds 3 and 7) and
        # wide-catalogue (seed 3), at batch 32 and each last-batch size: artist,
        # fusion-h1, fusion-lin, sem-emb and track
        *[(r, u, b) for (r, u), batches in {
            (108, 2048): (16, 20, 32), (2048, 2048): (16, 20, 32), (2048, 16): (8, 16, 20, 32),
            (2048, 512): (8, 32), (512, 512): (8, 32), (1024, 16): (8, 32),
            (2560, 16): (8, 32), (512, 16): (8, 32)}.items() for b in batches],
        (2048, 16, 1),
        (17, 2048, 32), (2049, 16, 7),  # a 1-row tail, merged into the block before it
        (5, ADAM_CHUNK + 1, 3),  # units > ADAM_CHUNK: blocks of 2 rows, then 3
        (1, 4, 2),  # one 1-row block, the whole product itself
    ])
    def test_factored_gradient_bit_identical_to_whole_product(self, rows, units, batch):
        blocks = nn._blocks(nn.FactoredGrad(np.empty((batch, rows)), np.empty((batch, units))))
        assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
        assert blocks[0][0] == 0 and blocks[-1][1] == rows * units
        assert all(hi - lo >= min(2, rows) * units for lo, hi in blocks)
        rng = np.random.default_rng([rows, units, batch])
        w = rng.normal(size=(rows, units))
        factored, whole = {"trunk/0": {"W": w}}, {"trunk/0": {"W": w.copy()}}
        states = AdamState.for_params(factored, lr=0.01), AdamState.for_params(whole, lr=0.01)
        for _ in range(3):
            x, dy = rng.normal(size=(batch, rows)), rng.normal(size=(batch, units))
            adam_step(factored, {"trunk/0": {"W": nn.FactoredGrad(x, dy)}}, states[0])
            adam_step(whole, {"trunk/0": {"W": x.T @ dy}}, states[1])
        for got, want in ((factored, whole), (states[0].m, states[1].m),
                          (states[0].v, states[1].v)):
            assert got["trunk/0"]["W"].tobytes() == want["trunk/0"]["W"].tobytes()

    def test_backward_and_step_never_hold_a_whole_dense_gradient(self):
        """A 1024x1024 dense layer's gradient (8 MiB) is formed a block at a time."""
        net = NetworkSpec(trunk=[LayerSpec("dense", units=1024), LayerSpec("relu"),
                                 LayerSpec("dense", units=1024), LayerSpec("l2norm")],
                          input_shapes={"": (64,)})
        params = init_params(net, 0)
        state = AdamState.for_params(params)
        rng = np.random.default_rng(1)
        out, caches, _ = net_forward(net, params, rng.normal(size=(32, 64)), seed=2)
        _, dy = cosine_loss(out, rng.normal(size=out.shape))
        tracemalloc.start()
        try:
            adam_step(params, net_backward(net, params, caches, dy), state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params["trunk/2"]["W"].nbytes / 2, peak

    def test_non_contiguous_parameter_rejected(self):
        params = {"trunk/0": {"W": np.zeros((4, 3))}}
        state = AdamState.for_params(params)
        params["trunk/0"]["W"] = np.zeros((3, 4)).T
        with pytest.raises(ValueError, match="trunk/0/W"):
            adam_step(params, {"trunk/0": {"W": np.ones((4, 3))}}, state)


def zoo_nets():
    """The five mapping nets the pipeline trains, small, with a batch of inputs each."""
    rng = np.random.default_rng(2)
    feats = {"artist": rng.normal(size=(4, 12)), "track": rng.normal(size=(4, 10))}
    return {
        "artist": (zoo.build_artist_net(vocab_size=30, k=8), np.abs(rng.normal(size=(4, 30)))),
        "track": (zoo.build_track_net(bins=6, frames=64, k=8, scale=1 / 64),
                  rng.normal(size=(4, 6, 64))),
        "fusion-lin": (zoo.build_fusion_net("lin", 12, 10, 8), feats),
        "fusion-h1": (zoo.build_fusion_net("h1", 12, 10, 8), feats),
        "sememb": (zoo.build_single_branch_net(12, 8), feats["artist"]),
    }


def backward_pass(net, inputs):
    """Train-mode forward and net_backward on a cosine loss; returns (params, caches, dy, grads)."""
    params = init_params(net, 1)
    out, caches, _ = net_forward(net, params, inputs, mode="train", seed=5)
    target = np.random.default_rng(3).normal(size=out.shape)
    _, dy = cosine_loss(out, target)
    return params, caches, dy, net_backward(net, params, caches, dy)


def full_backward(net, params, caches, dy):
    """Every layer's backward, input gradients included, from the output down."""
    grads = {}

    def walk(prefix, layers, g):
        for i in range(len(layers) - 1, -1, -1):
            name = f"{prefix}/{i}"
            g, pg = layer_backward(layers[i], params.get(name, {}), caches[name], g)
            if pg:
                grads[name] = pg
        return g

    g = walk("trunk", net.trunk, dy)
    for part, (branch, layers) in zip(g if net.branches else [], net.branches.items()):
        walk(branch, layers, part)
    return grads


class TestPrunedBackward:
    @pytest.mark.parametrize("name", ["artist", "track", "fusion-lin", "fusion-h1", "sememb"])
    def test_gradients_bit_identical_to_full_backward(self, name):
        net, inputs = zoo_nets()[name]
        params, caches, dy, grads = backward_pass(net, inputs)
        want = full_backward(net, params, caches, dy)
        assert {layer: set(ts) for layer, ts in grads.items()} == \
            {layer: set(ts) for layer, ts in want.items()}
        for layer, tensors in want.items():
            for key, g in tensors.items():
                assert np.array_equal(grads[layer][key], g), (layer, key)

    def _recorded_walk(self, monkeypatch, name):
        calls = []
        real = nn.layer_backward

        def recording(spec, params, cache, dy, skip_dx=False):
            calls.append((spec, skip_dx))
            return real(spec, params, cache, dy, skip_dx)

        monkeypatch.setattr(nn, "layer_backward", recording)
        net, inputs = zoo_nets()[name]
        backward_pass(net, inputs)
        return net, calls

    def test_fusion_lin_walks_only_its_head(self, monkeypatch):
        net, calls = self._recorded_walk(monkeypatch, "fusion-lin")
        assert len(calls) == 2
        assert calls[0][0] is net.trunk[2] and not calls[0][1]
        assert calls[1][0] is net.trunk[1] and calls[1][1]

    def test_track_first_conv_skips_input_gradient(self, monkeypatch):
        net, calls = self._recorded_walk(monkeypatch, "track")
        assert len(calls) == len(net.trunk)
        for (spec, skip), i in zip(calls, range(len(net.trunk) - 1, -1, -1)):
            assert spec is net.trunk[i] and skip == (i == 0), i

    def test_fusion_h1_stops_at_branch_batchnorm(self, monkeypatch):
        net, calls = self._recorded_walk(monkeypatch, "fusion-h1")
        # trunk l2norm, dense, concat; then each branch relu, dense, dropout, batchnorm
        assert [skip for _, skip in calls] == [False] * 3 + ([False] * 3 + [True]) * 2
        assert calls[6][0] is net.branches["artist"][0]

    def test_untrainable_net_walks_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(nn, "layer_backward", lambda *a, **k: calls.append(a))
        net = NetworkSpec(trunk=[LayerSpec("relu"), LayerSpec("l2norm")], input_shapes={"": (3,)})
        x = np.random.default_rng(0).normal(size=(2, 3))
        _, caches, _ = net_forward(net, init_params(net, 0), x)
        assert net_backward(net, {}, caches, x) == {} and calls == []


class TestGradientCheck:
    def test_linear_net_tight(self):
        net = NetworkSpec(trunk=[LayerSpec("dense", units=3)], input_shapes={"": (4,)})
        params = init_params(net, 0)
        rng = np.random.default_rng(1)
        err = gradient_check(net, params, rng.normal(size=(2, 4)), rng.normal(size=(2, 3)))
        assert err < 1e-6

    def test_two_layer_net(self):
        net = NetworkSpec(
            trunk=[LayerSpec("dense", units=5), LayerSpec("relu"),
                   LayerSpec("dense", units=3)],
            input_shapes={"": (4,)},
        )
        params = init_params(net, 2)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4))
        err = gradient_check(net, params, x, rng.normal(size=(3, 3)))
        assert err < 1e-4

    def test_detects_corrupted_gradient(self):
        # doubling a gradient must produce a relative error near 1/3
        analytic = 2.0
        numeric = 1.0
        err = abs(analytic - numeric) / max(analytic, numeric, 1e-8)
        assert err == pytest.approx(0.5)
        # through the real harness: scale weights gradient by hand
        net = NetworkSpec(trunk=[LayerSpec("dense", units=2)], input_shapes={"": (3,)})
        params = init_params(net, 0)
        rng = np.random.default_rng(1)
        x, t = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        out, caches, _ = net_forward(net, params, x, mode="train", seed=0)
        _, dpred = cosine_loss(out, t)
        grads = net_backward(net, params, caches, dpred)
        from coldrec.nn import cosine_loss as cl

        def loss_at():
            o, _, _ = net_forward(net, params, x, mode="train", seed=0)
            return cl(o, t)[0]

        h = 1e-5
        flat = params["trunk/0"]["W"].reshape(-1)
        corrupted = np.asarray(grads["trunk/0"]["W"]).reshape(-1) * 2.0
        errs = []
        for c in range(flat.size):
            orig = flat[c]
            flat[c] = orig + h
            up = loss_at()
            flat[c] = orig - h
            down = loss_at()
            flat[c] = orig
            num = (up - down) / (2 * h)
            errs.append(abs(corrupted[c] - num) / max(abs(corrupted[c]), abs(num), 1e-8))
        assert max(errs) > 0.1


class TestEvalDeterminism:
    def test_eval_forward_seed_independent(self):
        net = NetworkSpec(
            trunk=[LayerSpec("dropout", rate=0.5), LayerSpec("dense", units=2)],
            input_shapes={"": (3,)},
        )
        params = init_params(net, 0)
        x = np.random.default_rng(0).normal(size=(4, 3))
        y1, _, _ = net_forward(net, params, x, mode="eval", seed=1)
        y2, _, _ = net_forward(net, params, x, mode="eval", seed=999)
        assert np.array_equal(y1, y2)

    def test_train_forward_deterministic_given_seed(self):
        net = NetworkSpec(trunk=[LayerSpec("dropout", rate=0.5)], input_shapes={"": (6,)})
        params = init_params(net, 0)
        x = np.random.default_rng(0).normal(size=(4, 6))
        y1, _, _ = net_forward(net, params, x, mode="train", seed=5)
        y2, _, _ = net_forward(net, params, x, mode="train", seed=5)
        assert np.array_equal(y1, y2)
