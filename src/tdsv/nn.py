"""Minimal NHWC layer library with hand-written backward passes, plus Adam.

Tensors are plain numpy arrays, images are [batch, height, width, channels].
Convolutions use "same"-style padding: the output spatial extent is
ceil(input / stride), with the extra padding cell (odd totals) going to the
bottom/right edge.  Each layer caches what its backward pass needs during
forward.  The trainable layers (Conv2D, Dense, BatchNorm) share one
parameter protocol: ``params`` and ``grads`` by name, gradients accumulating
until ``zero_grad``.  Layers do not check their outputs for non-finite
values; ``Adam.step`` rejects a non-finite gradient by parameter name.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, NumericalError, UninitializedStatsError


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def same_padding(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """(pad_before, pad_after, output_size) for ceil-division output sizing."""
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2, out


def _colsum(a):
    """Per-channel sums of a [..., C] array as one GEMV, ``ones @ rows``.

    numpy's ``sum`` over the leading axes keeps one running sum per channel
    down all N*H*W rows; BLAS blocks the same sum, which is both faster and,
    in float32, closer to the exact value."""
    rows = a.reshape(-1, a.shape[-1])
    return np.ones(rows.shape[0], a.dtype) @ rows


def _window_slices(kh, kw, sh, sw, out_h, out_w):
    for i in range(kh):
        for j in range(kw):
            yield i, j, (slice(i, i + sh * out_h, sh), slice(j, j + sw * out_w, sw))


class _Trainable:
    """Parameter protocol of the layers with trainable arrays: each name in
    NAMES is an array attribute whose gradient accumulates in ``grad_<name>``."""

    NAMES = ("weight", "bias")

    @property
    def params(self):
        return {k: getattr(self, k) for k in self.NAMES}

    @property
    def grads(self):
        return {k: getattr(self, "grad_" + k) for k in self.NAMES}

    def zero_grad(self):
        for g in self.grads.values():
            g[...] = 0

    def _init_grads(self):
        for k in self.NAMES:
            setattr(self, "grad_" + k, np.zeros_like(getattr(self, k)))

    def _init_affine(self, shape, fan_in, bias_size, rng, dtype):
        """He-normal weights (zeros for a skeleton when ``rng`` is None), zero bias."""
        if rng is None:
            weight = np.zeros(shape, dtype)
        else:
            weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        self.weight = weight.astype(dtype, copy=False)
        self.bias = np.zeros(bias_size, dtype=dtype)
        self._init_grads()


class Conv2D(_Trainable):
    """Strided cross-correlation; weights are [out_ch, in_ch, kh, kw]."""

    def __init__(self, in_channels, out_channels, kernel_size, stride=1, *,
                 rng=None, dtype=np.float32):
        kh, kw = _pair(kernel_size)
        self.stride = _pair(stride)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self._init_affine((out_channels, in_channels, kh, kw),
                          in_channels * kh * kw, out_channels, rng, dtype)
        self._cache = None

    def _im2col(self, xpad, out_h, out_w):
        """[N*out_h*out_w, kh*kw*C] patch rows, columns in (i, j, c) order:
        one copy out of a strided window view."""
        n, _, _, c = xpad.shape
        _, _, kh, kw = self.weight.shape
        sh, sw = self.stride
        windows = sliding_window_view(xpad, (kh, kw), axis=(1, 2))
        windows = windows[:, :sh * out_h:sh, :sw * out_w:sw]
        cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
        return cols.reshape(n * out_h * out_w, kh * kw * c)

    def _weight_matrix(self):
        """The weights as the [kh*kw*in_ch, out_ch] GEMM operand, rows in the
        (i, j, c) order of the im2col columns."""
        _, _, kh, kw = self.weight.shape
        return self.weight.transpose(2, 3, 1, 0).reshape(
            kh * kw * self.in_channels, self.out_channels)

    def forward(self, x):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise DimensionError(
                f"conv expects [N,H,W,{self.in_channels}], got {x.shape}")
        n, h, w, _ = x.shape
        _, _, kh, kw = self.weight.shape
        sh, sw = self.stride
        pt, pb, out_h = same_padding(h, kh, sh)
        pl, pr, out_w = same_padding(w, kw, sw)
        xpad = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        cols = self._im2col(xpad, out_h, out_w)
        out = cols @ self._weight_matrix()
        out += self.bias
        self._cache = (xpad, (n, h, w), (pt, pl), (out_h, out_w))
        return out.reshape(n, out_h, out_w, self.out_channels)

    def _param_backward(self, grad_out):
        """Accumulate the bias and weight gradients; return grad_out as
        [N*out_h*out_w, out_ch] rows.  The columns are rebuilt from the cached
        padded input rather than kept from forward, which would hold every
        conv's columns until its backward pass."""
        xpad, (n, _, _), _, (out_h, out_w) = self._cache
        if grad_out.shape != (n, out_h, out_w, self.out_channels):
            raise DimensionError(
                f"conv backward expects {(n, out_h, out_w, self.out_channels)}, "
                f"got {grad_out.shape}")
        _, _, kh, kw = self.weight.shape
        g2 = grad_out.reshape(n * out_h * out_w, self.out_channels)
        self.grad_bias += _colsum(g2)
        cols = self._im2col(xpad, out_h, out_w)
        gw = cols.T @ g2  # [kh*kw*cin, cout]
        self.grad_weight += gw.reshape(kh, kw, self.in_channels,
                                       self.out_channels).transpose(3, 2, 0, 1)
        return g2

    def backward(self, grad_out):
        """Accumulate the parameter gradients and return the input gradient.

        Each tap (i, j) of the kernel takes one [rows, cin] product of
        grad_out with that tap's block of weight-matrix rows, added into the
        tap's strided window of the padded input gradient in scan order.
        Every tap reuses one buffer, so no [rows, kh*kw*cin] array is held."""
        g2 = self._param_backward(grad_out)
        xpad, (n, h, w), (pt, pl), (out_h, out_w) = self._cache
        _, _, kh, kw = self.weight.shape
        sh, sw = self.stride
        cin = self.in_channels
        wmat = self._weight_matrix()
        tap = np.empty((n, out_h, out_w, cin), dtype=g2.dtype)
        gxpad = np.zeros_like(xpad)
        for i, j, sl in _window_slices(kh, kw, sh, sw, out_h, out_w):
            k = (i * kw + j) * cin  # the tap's rows of wmat, (i, j, c) order
            np.matmul(g2, wmat[k:k + cin].T, out=tap.reshape(-1, cin))
            gxpad[:, sl[0], sl[1], :] += tap
        return gxpad[:, pt:pt + h, pl:pl + w, :]


class BatchNorm(_Trainable):
    """Per-channel normalization over batch and spatial positions.

    Train mode uses batch statistics (biased variance) and updates running
    stats with momentum; infer mode uses the running stats and fails if no
    training update has happened yet.
    """

    NAMES = ("gamma", "beta")
    eps = 1e-5
    momentum = 0.9

    def __init__(self, channels, *, dtype=np.float32):
        self.channels = channels
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.initialized = False
        self._init_grads()
        self._cache = None

    def forward(self, x, train=False):
        if x.shape[-1] != self.channels:
            raise DimensionError(
                f"batchnorm expects last dim {self.channels}, got {x.shape}")
        count = x.size // self.channels
        if train:
            mean = _colsum(x) / count
            xhat = x - mean
            var = _colsum(np.square(xhat)) / count  # biased
            m = self.momentum
            self.running_mean[...] = m * self.running_mean + (1 - m) * mean
            self.running_var[...] = m * self.running_var + (1 - m) * var
            self.initialized = True
        else:
            if not self.initialized:
                raise UninitializedStatsError(
                    "batchnorm inference before any training update")
            xhat = x - self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std
        self._cache = (xhat, inv_std, count, train)
        out = xhat * self.gamma
        out += self.beta
        return out

    def backward(self, grad_out):
        xhat, inv_std, m, train = self._cache
        if grad_out.shape != xhat.shape:
            raise DimensionError(
                f"batchnorm backward expects {xhat.shape}, got {grad_out.shape}")
        tmp = grad_out * xhat
        self.grad_gamma += _colsum(tmp)
        self.grad_beta += _colsum(grad_out)
        dxhat = grad_out * self.gamma
        if not train:
            dxhat *= inv_std
            return dxhat
        # d/dx of ((x - mean)/sqrt(var + eps)) with mean/var functions of x:
        # (inv_std/m) * (m*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)),
        # evaluated in place in that order
        sum_dxhat = _colsum(dxhat)
        sum_dxhat_xhat = _colsum(np.multiply(dxhat, xhat, out=tmp))
        dxhat *= m
        dxhat -= sum_dxhat
        dxhat -= np.multiply(xhat, sum_dxhat_xhat, out=tmp)
        dxhat *= inv_std / m
        return dxhat


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, train=False):
        self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad_out):
        return grad_out * self._mask


class MaxPool:
    """Max pooling with same-style padding; ties route to the first maximal
    cell in row-major window scan order."""

    def __init__(self, kernel_size=3, stride=2):
        self.kernel = _pair(kernel_size)
        self.stride = _pair(stride)

    def forward(self, x, train=False):
        n, h, w, c = x.shape
        kh, kw = self.kernel
        sh, sw = self.stride
        pt, pb, out_h = same_padding(h, kh, sh)
        pl, pr, out_w = same_padding(w, kw, sw)
        xpad = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)),
                      constant_values=-np.inf)
        cells = [xpad[:, sl[0], sl[1], :]
                 for _, _, sl in _window_slices(kh, kw, sh, sw, out_h, out_w)]
        # running maximum over the cells in scan order; argmax (the cell index
        # i*kw + j) moves only on a strict rise, so ties keep the first cell
        out = cells[0].copy()
        argmax = np.zeros(out.shape, dtype=np.min_scalar_type(kh * kw - 1))
        rises = np.empty(out.shape, dtype=bool)
        for k, cell in enumerate(cells[1:], start=1):
            np.greater(cell, out, out=rises)
            np.maximum(out, cell, out=out)
            # indices only grow along the scan, so a max records the rise
            np.maximum(argmax, rises.view(np.uint8) * argmax.dtype.type(k), out=argmax)
        self._cache = (argmax, xpad.shape, (h, w), (pt, pl), (out_h, out_w))
        return out

    def backward(self, grad_out):
        argmax, pad_shape, (h, w), (pt, pl), (out_h, out_w) = self._cache
        kh, kw = self.kernel
        sh, sw = self.stride
        gxpad = np.zeros(pad_shape, dtype=grad_out.dtype)
        for i, j, sl in _window_slices(kh, kw, sh, sw, out_h, out_w):
            gxpad[:, sl[0], sl[1], :] += grad_out * (argmax == i * kw + j)
        return gxpad[:, pt:pt + h, pl:pl + w, :]


class GlobalAvgPool:
    """[N,H,W,C] -> [N,C] by averaging each channel map."""

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad_out):
        n, h, w, c = self._shape
        if grad_out.shape != (n, c):
            raise DimensionError(
                f"avgpool backward expects {(n, c)}, got {grad_out.shape}")
        return np.broadcast_to(grad_out[:, None, None, :] / (h * w),
                               self._shape).astype(grad_out.dtype, copy=True)


class Dense(_Trainable):
    """Affine map on flat features; weights are [in_features, out_features]."""

    def __init__(self, in_features, out_features, *, rng=None, dtype=np.float32):
        self._init_affine((in_features, out_features), in_features,
                          out_features, rng, dtype)
        self._x = None

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise DimensionError(
                f"dense expects [N,{self.weight.shape[0]}], got {x.shape}")
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out):
        self.grad_weight += self._x.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight.T


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    Stabilized with log-sum-exp; gradient is (softmax - onehot) / batch.
    """
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"label outside [0, {k})")
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(loss), grad.astype(logits.dtype)


class Adam:
    """Bias-corrected Adam over a dict of named parameter arrays (updated
    in place)."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr=1e-4):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient for parameter '{name}'")
            m = self.m[name]
            v = self.v[name]
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.dtype)
