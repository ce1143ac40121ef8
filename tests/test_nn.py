"""Layer forward semantics and hand-written backward passes.

Every backward pass is checked against central finite differences computed
by an independent helper; conv forward is additionally checked against a
direct seven-loop cross-correlation.
"""

import numpy as np
import pytest

from helpers import naive_conv2d, numeric_gradient, relative_error
from tdsv import nn
from tdsv.errors import (DimensionError, NumericalError,
                         UninitializedStatsError)

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def _projection_loss(layer, x, rng, **fwd):
    """loss = sum(forward(x) * R) for a fixed random R; its gradient through
    backward() is exactly backward(R).  The returned closure takes no
    arguments because numeric_gradient nudges arrays in place, so the same
    closure serves for x, weights, and biases."""
    ref = layer.forward(x, **fwd) if fwd else layer.forward(x)
    r = rng.normal(size=ref.shape)

    def loss():
        out = layer.forward(x, **fwd) if fwd else layer.forward(x)
        return float((out * r).sum())

    return r, loss


class TestPadding:
    def test_same_padding_examples(self):
        assert nn.same_padding(257, 7, 2) == (3, 3, 129)
        assert nn.same_padding(129, 3, 2) == (1, 1, 65)
        assert nn.same_padding(5, 3, 1) == (1, 1, 5)

    def test_output_size_is_ceil(self):
        for size in range(1, 40):
            for stride in (1, 2, 3):
                _, _, out = nn.same_padding(size, 3, stride)
                assert out == -(-size // stride)


class TestConv2D:
    def test_identity_kernel(self):
        conv = nn.Conv2D(1, 1, 3, dtype=np.float64)
        conv.weight[0, 0, 1, 1] = 1.0
        x = np.random.default_rng(0).normal(size=(2, 6, 5, 1))
        assert np.allclose(conv.forward(x), x)

    def test_all_ones_kernel_counts_neighbors(self):
        conv = nn.Conv2D(1, 1, 3, dtype=np.float64)
        conv.weight[...] = 1.0
        x = np.ones((1, 5, 5, 1))
        out = conv.forward(x)[0, :, :, 0]
        assert out[2, 2] == 9.0
        assert out[0, 0] == 4.0
        assert out[0, 2] == 6.0

    def test_bias_applied(self):
        conv = nn.Conv2D(2, 3, 1, dtype=np.float64)
        conv.bias[:] = [1.0, 2.0, 3.0]
        out = conv.forward(np.zeros((1, 2, 2, 2)))
        assert np.allclose(out, np.array([1.0, 2.0, 3.0]))

    def test_strided_output_shape(self):
        conv = nn.Conv2D(1, 4, 7, stride=2, rng=np.random.default_rng(0))
        out = conv.forward(np.zeros((1, 257, 100, 1), dtype=np.float32))
        assert out.shape == (1, 129, 50, 4)

    def test_rejects_wrong_channels(self):
        conv = nn.Conv2D(3, 1, 3)
        with pytest.raises(DimensionError):
            conv.forward(np.zeros((1, 4, 4, 2), dtype=np.float32))

    @pytest.mark.parametrize("stride,kernel", [(1, 3), (2, 3), ((2, 1), (3, 5))])
    def test_forward_matches_naive(self, stride, kernel):
        rng = np.random.default_rng(42)
        conv = nn.Conv2D(3, 2, kernel, stride=stride, rng=rng, dtype=np.float64)
        conv.bias[:] = rng.normal(size=2)
        x = rng.normal(size=(2, 7, 6, 3))
        fast = conv.forward(x)
        slow = naive_conv2d(x, conv.weight, conv.bias, stride)
        assert relative_error(fast, slow) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        conv = nn.Conv2D(2, 3, 3, stride=2, rng=rng, dtype=np.float64)
        conv.bias[:] = rng.normal(size=3)
        x = rng.normal(size=(2, 6, 5, 2))
        r, loss = _projection_loss(conv, x, rng)

        conv.zero_grad()
        conv.forward(x)
        gx = conv.backward(r)
        assert relative_error(gx, numeric_gradient(loss, x, FD_STEP)) < GRAD_TOL
        assert relative_error(conv.grad_weight,
                              numeric_gradient(loss, conv.weight, FD_STEP)) < GRAD_TOL
        assert relative_error(conv.grad_bias,
                              numeric_gradient(loss, conv.bias, FD_STEP)) < GRAD_TOL

    def test_grad_accumulates_until_zeroed(self):
        rng = np.random.default_rng(1)
        conv = nn.Conv2D(1, 1, 3, rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 4, 4, 1))
        g = rng.normal(size=(1, 4, 4, 1))
        conv.forward(x)
        conv.backward(g)
        once = conv.grad_weight.copy()
        conv.forward(x)
        conv.backward(g)
        assert np.allclose(conv.grad_weight, 2 * once)
        conv.zero_grad()
        assert np.all(conv.grad_weight == 0)


class TestBatchNorm:
    def test_constant_input_maps_to_beta(self):
        bn = nn.BatchNorm(2, dtype=np.float64)
        bn.beta[:] = [0.5, -1.0]
        out = bn.forward(np.full((3, 4, 4, 2), 7.0), train=True)
        assert np.allclose(out[..., 0], 0.5)
        assert np.allclose(out[..., 1], -1.0)

    def test_two_point_worked_example(self):
        bn = nn.BatchNorm(1, dtype=np.float64)
        bn.gamma[:] = 2.0
        bn.beta[:] = 0.5
        x = np.array([[1.0], [3.0]])
        out = bn.forward(x, train=True)
        # mean 2, biased var 1: xhat = (+-1)/sqrt(1 + 1e-5)
        expect = 0.5 + 2.0 * np.array([[-1.0], [1.0]]) / np.sqrt(1.0 + 1e-5)
        assert np.allclose(out, expect)

    def test_train_output_standardized(self):
        rng = np.random.default_rng(0)
        bn = nn.BatchNorm(3, dtype=np.float64)
        out = bn.forward(rng.normal(2.0, 5.0, size=(4, 6, 6, 3)), train=True)
        flat = out.reshape(-1, 3)
        assert np.abs(flat.mean(axis=0)).max() < 1e-10
        assert np.abs(flat.var(axis=0) - 1.0).max() < 1e-4

    def test_running_stats_momentum(self):
        bn = nn.BatchNorm(1, dtype=np.float64)
        bn.forward(np.full((10, 1), 4.0), train=True)
        # one update from (mean 0, var 1): 0.9*0 + 0.1*4, 0.9*1 + 0.1*0
        assert bn.running_mean[0] == pytest.approx(0.4)
        assert bn.running_var[0] == pytest.approx(0.9)

    def test_infer_before_train_rejected(self):
        bn = nn.BatchNorm(2)
        with pytest.raises(UninitializedStatsError):
            bn.forward(np.zeros((1, 2), dtype=np.float32), train=False)

    def test_infer_uses_running_stats(self):
        bn = nn.BatchNorm(1, dtype=np.float64)
        bn.running_mean[:] = 3.0
        bn.running_var[:] = 4.0
        bn.initialized = True
        out = bn.forward(np.array([[5.0]]), train=False)
        assert out[0, 0] == pytest.approx(2.0 / np.sqrt(4.0 + 1e-5))

    @pytest.mark.parametrize("seed", range(4))
    def test_train_gradients(self, seed):
        rng = np.random.default_rng(seed + 10)
        bn = nn.BatchNorm(3, dtype=np.float64)
        bn.gamma[:] = rng.normal(1.0, 0.2, size=3)
        bn.beta[:] = rng.normal(size=3)
        x = rng.normal(size=(3, 4, 2, 3))
        r, loss = _projection_loss(bn, x, rng, train=True)

        bn.zero_grad()
        bn.forward(x, train=True)
        gx = bn.backward(r)
        assert relative_error(gx, numeric_gradient(loss, x, FD_STEP)) < GRAD_TOL
        assert relative_error(bn.grad_gamma,
                              numeric_gradient(loss, bn.gamma, FD_STEP)) < GRAD_TOL
        assert relative_error(bn.grad_beta,
                              numeric_gradient(loss, bn.beta, FD_STEP)) < GRAD_TOL

    def test_infer_gradient(self):
        rng = np.random.default_rng(2)
        bn = nn.BatchNorm(2, dtype=np.float64)
        bn.forward(rng.normal(size=(8, 2)), train=True)
        x = rng.normal(size=(4, 2))
        r, loss = _projection_loss(bn, x, rng, train=False)
        bn.zero_grad()
        bn.forward(x, train=False)
        gx = bn.backward(r)
        assert relative_error(gx, numeric_gradient(loss, x, FD_STEP)) < GRAD_TOL


class TestReLU:
    def test_forward(self):
        relu = nn.ReLU()
        out = relu.forward(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 0.0, 0.5, 2.0])

    def test_gradient_masks_negatives(self):
        relu = nn.ReLU()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        x += 0.2 * np.sign(x)  # keep points away from the kink
        r, loss = _projection_loss(relu, x, rng)
        relu.forward(x)
        gx = relu.backward(r)
        assert relative_error(gx, numeric_gradient(loss, x, FD_STEP),
                              floor=1e-9) < GRAD_TOL


class TestMaxPool:
    def test_published_downsample_shape(self):
        pool = nn.MaxPool(3, 2)
        out = pool.forward(np.zeros((1, 129, 400, 4), dtype=np.float32))
        assert out.shape == (1, 65, 200, 4)

    def test_picks_window_maximum(self):
        pool = nn.MaxPool(2, 2)
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = pool.forward(x)[0, :, :, 0]
        assert np.array_equal(out, [[5.0, 7.0], [13.0, 15.0]])

    def test_padding_never_wins(self):
        pool = nn.MaxPool(3, 2)
        x = np.full((1, 3, 3, 1), -50.0)
        out = pool.forward(x)
        assert np.all(out == -50.0)

    def test_tie_routes_to_first_cell(self):
        pool = nn.MaxPool(2, 2)
        x = np.ones((1, 2, 2, 1))
        pool.forward(x)
        gx = pool.backward(np.array([[[[1.0]]]]))
        assert gx[0, 0, 0, 0] == 1.0
        assert gx.sum() == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed + 20)
        pool = nn.MaxPool(3, 2)
        x = rng.normal(size=(2, 7, 6, 2))
        r, loss = _projection_loss(pool, x, rng)
        pool.forward(x)
        gx = pool.backward(r)
        assert relative_error(gx, numeric_gradient(loss, x, FD_STEP),
                              floor=1e-9) < GRAD_TOL


class TestGlobalAvgPool:
    def test_constant_maps_to_constant(self):
        pool = nn.GlobalAvgPool()
        out = pool.forward(np.full((2, 9, 25, 3), 1.5))
        assert out.shape == (2, 3)
        assert np.allclose(out, 1.5)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        pool = nn.GlobalAvgPool()
        x = rng.normal(size=(2, 3, 4, 5))
        r, loss = _projection_loss(pool, x, rng)
        pool.forward(x)
        gx = pool.backward(r)
        assert relative_error(gx, numeric_gradient(loss, x, FD_STEP)) < GRAD_TOL


class TestDense:
    def test_affine_worked_example(self):
        dense = nn.Dense(2, 2, dtype=np.float64)
        dense.weight[:] = [[1.0, 2.0], [3.0, 4.0]]
        dense.bias[:] = [10.0, 20.0]
        out = dense.forward(np.array([[1.0, 1.0]]))
        assert np.array_equal(out, [[14.0, 26.0]])

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed + 30)
        dense = nn.Dense(5, 3, rng=rng, dtype=np.float64)
        dense.bias[:] = rng.normal(size=3)
        x = rng.normal(size=(4, 5))
        r, loss = _projection_loss(dense, x, rng)
        dense.zero_grad()
        dense.forward(x)
        gx = dense.backward(r)
        assert relative_error(gx, numeric_gradient(loss, x, FD_STEP)) < GRAD_TOL
        assert relative_error(dense.grad_weight,
                              numeric_gradient(loss, dense.weight, FD_STEP)) < GRAD_TOL
        assert relative_error(dense.grad_bias,
                              numeric_gradient(loss, dense.bias, FD_STEP)) < GRAD_TOL


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((3, 97))
        loss, _ = nn.softmax_cross_entropy(logits, np.array([0, 50, 96]))
        assert loss == pytest.approx(np.log(97.0), rel=1e-12)
        assert loss == pytest.approx(4.5747, abs=5e-5)

    def test_confident_correct_has_tiny_loss(self):
        logits = np.array([[30.0, 0.0]])
        loss, _ = nn.softmax_cross_entropy(logits, np.array([0]))
        assert loss < 1e-12

    def test_confident_wrong_costs_margin(self):
        logits = np.array([[30.0, 0.0]])
        loss, _ = nn.softmax_cross_entropy(logits, np.array([1]))
        assert loss == pytest.approx(30.0, abs=1e-6)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        loss, grad = nn.softmax_cross_entropy(logits, np.array([2]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_rejects_out_of_range_label(self):
        with pytest.raises(IndexError):
            nn.softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        _, grad = nn.softmax_cross_entropy(logits, labels)
        num = numeric_gradient(
            lambda: nn.softmax_cross_entropy(logits, labels)[0], logits, FD_STEP)
        assert relative_error(grad, num) < 1e-6

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 9))
        _, grad = nn.softmax_cross_entropy(logits, rng.integers(0, 9, size=4))
        assert np.abs(grad.sum(axis=1)).max() < 1e-12


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0])
        opt = nn.Adam({"p": p}, lr=0.5)
        opt.step({"p": np.zeros(2)})
        assert np.array_equal(p, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        p = np.zeros(3)
        opt = nn.Adam({"p": p}, lr=0.01)
        opt.step({"p": np.array([5.0, -0.3, 0.0])})
        assert p[0] == pytest.approx(-0.01, rel=1e-6)
        assert p[1] == pytest.approx(0.01, rel=1e-6)
        assert p[2] == 0.0

    def test_minimizes_parabola(self):
        p = np.array([0.0])
        opt = nn.Adam({"p": p}, lr=0.1)
        for _ in range(300):
            opt.step({"p": 2.0 * (p - 3.0)})
        assert abs(p[0] - 3.0) < 0.05

    def test_nonfinite_gradient_names_parameter(self):
        opt = nn.Adam({"block3.conv1.weight": np.zeros(2)})
        with pytest.raises(NumericalError, match="block3.conv1.weight"):
            opt.step({"block3.conv1.weight": np.array([1.0, np.nan])})

    def test_update_preserves_dtype(self):
        p = np.zeros(2, dtype=np.float32)
        opt = nn.Adam({"p": p}, lr=0.1)
        opt.step({"p": np.ones(2)})
        assert p.dtype == np.float32
