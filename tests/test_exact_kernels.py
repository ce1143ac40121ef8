"""Bit-exactness of the fast conv, max-pool and batch-norm kernels.

The training step's speed comes from reorganized kernels (a strided-view
unfold, a conv input gradient built one kernel tap at a time, a
running-maximum pool, in-place batch norm with per-channel sums as one
GEMV, no stem input gradient in training).  Each must produce the very bits
of the plain formulation in ``helpers``, so a checkpoint, an embedding or a
score file never moves when the kernels are tuned.  Where BLAS itself
rounds two formulations apart, the test says why and checks them at a
tolerance instead; batch norm is also checked against a float64
evaluation, so the oracle cannot drift with the kernel.
"""

import numpy as np
import pytest

from helpers import (batchnorm_train_formulas, fold_conv_input_grad,
                     fsum_channel_sums, loop_im2col, window_maxpool)
from tdsv import nn
from tdsv.resnet import Network, NetworkConfig

DTYPES = (np.float32, np.float64)


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestUnfold:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_columns_match_loop(self, kernel, stride, dtype):
        rng = np.random.default_rng(kernel * 10 + stride)
        conv = nn.Conv2D(3, 4, kernel, stride, rng=rng, dtype=dtype)
        x = rng.normal(size=(2, 13, 9, 3)).astype(dtype)
        out = conv.forward(x)
        xpad, _, taps = conv._cache
        _, out_h, out_w, _ = out.shape
        cols = conv._im2col(xpad, taps)
        want = loop_im2col(xpad, (kernel, kernel), (stride, stride), out_h, out_w)
        assert _bits_equal(cols, want)
        wmat = conv.weight.transpose(2, 3, 1, 0).reshape(-1, 4)
        assert _bits_equal(out, (want @ wmat + conv.bias).reshape(out.shape))

    def test_rectangular_kernel_and_stride(self):
        rng = np.random.default_rng(3)
        conv = nn.Conv2D(2, 3, (3, 5), (2, 1), rng=rng)
        out = conv.forward(rng.normal(size=(1, 11, 7, 2)).astype(np.float32))
        xpad, _, taps = conv._cache
        _, out_h, out_w, _ = out.shape
        assert _bits_equal(conv._im2col(xpad, taps),
                           loop_im2col(xpad, (3, 5), (2, 1), out_h, out_w))


def _close(a, b, rtol):
    """Largest deviation within rtol of b's largest magnitude."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and np.abs(a - b).max() <= rtol * np.abs(b).max()


RTOL = {np.float32: 1e-6, np.float64: 1e-14}


class TestConvInputGradient:
    """``Conv2D.backward`` forms one [rows, cin] product per kernel tap; the
    oracle forms one [rows, kh*kw*cin] product and folds its column blocks.
    Each element is the same dot product over the output channels, so the
    two agree byte for byte wherever BLAS rounds both products alike."""

    @staticmethod
    def _grads(kernel, stride, cin, dtype):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + cin)
        conv = nn.Conv2D(cin, 8, kernel, stride, rng=rng, dtype=dtype)
        out = conv.forward(rng.normal(size=(2, 13, 9, cin)).astype(dtype))
        g = rng.normal(size=out.shape).astype(dtype)
        want = fold_conv_input_grad(conv, g)
        return conv.backward(g), want

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cin", [3, 17])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_per_tap_matches_fold(self, kernel, stride, cin, dtype):
        got, want = self._grads(kernel, stride, cin, dtype)
        if (dtype, kernel, cin) == (np.float64, 7, 17):
            # OpenBLAS 0.3.31 (AVX512) rounds the last of the fold's 833
            # float64 columns differently from the same column computed in
            # its own 17-column product; the per-tap bits are the latter
            assert _close(got, want, RTOL[dtype])
        else:
            assert _bits_equal(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_single_input_channel(self, kernel, stride, dtype):
        # a one-column product goes to GEMV rather than GEMM, which sums in
        # another order; the only 1-channel conv is the stem, whose input
        # gradient training never computes
        got, want = self._grads(kernel, stride, 1, dtype)
        assert _close(got, want, RTOL[dtype])


class TestMaxPoolExact:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(2, 9, 7, 3), (1, 10, 12, 2), (3, 5, 5, 1)])
    def test_matches_window_argmax(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape).astype(dtype)
        x[0, :3] = 0.0                      # ties between zeros, as after a ReLU
        x = np.maximum(x, 0)
        pool = nn.MaxPool(3, 2)
        out = pool.forward(x)
        want_out, want_argmax = window_maxpool(x, (3, 3), (2, 2))
        assert _bits_equal(out, want_out)
        assert np.array_equal(pool._cache[0], want_argmax)
        g = rng.normal(size=out.shape).astype(dtype)
        gx = pool.backward(g)
        # the routing rule: each window's gradient lands on its first maximum
        ref = nn.MaxPool(3, 2)
        ref.forward(x)
        ref._cache = (want_argmax, *ref._cache[1:])
        assert _bits_equal(gx, ref.backward(g))

    def test_all_zero_windows_route_to_first_real_cell(self):
        pool = nn.MaxPool(3, 2)
        x = np.zeros((1, 7, 7, 2), dtype=np.float32)  # padded by one cell all round
        pool.forward(x)
        _, want_argmax = window_maxpool(x, (3, 3), (2, 2))
        assert np.array_equal(pool._cache[0], want_argmax)
        # top-left window: its padded row 0 and column 0 never win, so cell 4;
        # the window below it is all real zeros, so cell 0
        assert pool._cache[0][0, 0, 0, 0] == 4
        assert pool._cache[0][0, 1, 1, 0] == 0

    def test_argmax_dtype_is_smallest_that_holds_cells(self):
        pool = nn.MaxPool(3, 2)
        pool.forward(np.zeros((1, 4, 4, 1), dtype=np.float32))
        assert pool._cache[0].dtype == np.uint8


class TestBatchNormExact:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(4, 7, 5, 3), (6, 2)])
    def test_train_forward_and_backward(self, shape, dtype):
        rng = np.random.default_rng(len(shape))
        bn = nn.BatchNorm(shape[-1], dtype=dtype)
        bn.gamma[:] = rng.normal(1.0, 0.3, size=shape[-1])
        bn.beta[:] = rng.normal(size=shape[-1])
        x = rng.normal(2.0, 3.0, size=shape).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        out, mean, var, gx, ggamma, gbeta = batchnorm_train_formulas(
            x, bn.gamma, bn.beta, bn.eps, g)
        assert _bits_equal(bn.forward(x, train=True), out)
        m = bn.momentum  # one update from the initial (0, 1)
        assert _bits_equal(bn.running_mean,
                           (m * np.zeros_like(mean) + (1 - m) * mean).astype(dtype))
        assert _bits_equal(bn.running_var,
                           (m * np.ones_like(var) + (1 - m) * var).astype(dtype))
        assert _bits_equal(bn.backward(g), gx)
        assert _bits_equal(bn.grad_gamma, ggamma)
        assert _bits_equal(bn.grad_beta, gbeta)
        # the same formulas in float64 with correctly rounded sums bound the
        # oracle's and so the layer's rounding
        exact = batchnorm_train_formulas(
            *(np.asarray(a, np.float64) for a in (x, bn.gamma, bn.beta)),
            bn.eps, g.astype(np.float64), sums=fsum_channel_sums)
        got = (out, mean, var, gx, ggamma, gbeta)
        assert all(_close(a, b, RTOL[dtype]) for a, b in zip(got, exact))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_infer_forward_and_backward(self, dtype):
        rng = np.random.default_rng(9)
        bn = nn.BatchNorm(3, dtype=dtype)
        bn.running_mean[:] = rng.normal(size=3)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=3)
        bn.gamma[:] = rng.normal(size=3)
        bn.initialized = True
        x = rng.normal(size=(2, 4, 5, 3)).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
        xhat = (x - bn.running_mean) * inv_std
        assert _bits_equal(bn.forward(x), bn.gamma * xhat + bn.beta)
        assert _bits_equal(bn.backward(g), g * bn.gamma * inv_std)


class TestSkippedInputGradient:
    def test_parameter_gradients_unchanged(self):
        config = NetworkConfig(input_height=17, input_width=13, stem_channels=4,
                               block_channels=(4, 8), block_strides=(1, 2),
                               num_speakers=3)
        x = np.random.default_rng(1).normal(size=(3, 17, 13, 1)).astype(np.float32)
        labels = np.array([0, 2, 1])
        grads = []
        for input_grad in (True, False):
            net = Network(config, seed=4)
            _, g = nn.softmax_cross_entropy(net.forward(x, train=True), labels)
            net.zero_grad()
            gx = net.backward(g, input_grad=input_grad)
            assert (gx is None) == (not input_grad)
            grads.append({k: v.copy() for k, v in net.named_gradients().items()})
        assert grads[0].keys() == grads[1].keys()
        assert all(_bits_equal(grads[0][k], grads[1][k]) for k in grads[0])
