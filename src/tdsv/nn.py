"""Minimal NHWC layer library with hand-written backward passes, plus Adam.

Tensors are plain numpy arrays, images are [batch, height, width, channels].
Convolutions and max-pooling use "same"-style padding: the output spatial
extent is ceil(input / stride), with the extra padding cell (odd totals)
going to the bottom/right edge.  Both layers pad, walk their windows and
crop their input gradient through ``_pad_same``, the one home of that
geometry.  The trainable layers (Conv2D, Dense, BatchNorm) share one
parameter protocol: ``params`` and ``grads`` by name, gradients accumulating
until ``zero_grad``.  Layers do not check their outputs for non-finite
values; ``Adam.step`` rejects a non-finite gradient by parameter name.

Each trainable layer states its weight layout once, where its constructor
allocates the weights: a conv's ``weight`` reads as [out, in, kh, kw] but is
one C-contiguous [kh, kw, in, out] buffer, the order its im2col GEMM
consumes; every reader and writer of ``weight`` (Adam, checkpoints) works on
the view, so the checkpoint layout is unchanged.  Gradient buffers and
Adam's moments come from ``_zeros_like``, in their parameter's layout, and
stay unwritten zero pages until training writes them, so a network built or
loaded for inference holds no resident training state.
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


def _zeros_like(a):
    """Zeros shaped, typed and laid out like ``a``: one C-contiguous buffer
    whose axes are ``a``'s in the order of its falling strides.

    The buffer comes from ``np.zeros``, whose pages stay unmapped until
    first written, where ``np.zeros_like`` writes every byte."""
    storage = np.argsort([-abs(s) for s in a.strides], kind="stable")
    return np.zeros([a.shape[i] for i in storage], a.dtype).transpose(np.argsort(storage))


def _pad_same(x, kernel, stride, fill=0):
    """(xpad, crop, taps) of a "same"-padded window walk over NHWC ``x``.

    ``xpad`` is ``x`` padded by ``same_padding`` with ``fill``; ``crop``
    indexes a padded-shape array back to ``x``'s cells; ``taps`` lists each
    kernel cell's index ``i*kw + j`` with its strided window of ``xpad``
    ([N, out_h, out_w, C]), in row-major scan order."""
    (_, h, w, _), (kh, kw), (sh, sw) = x.shape, kernel, stride
    (pt, pb, out_h), (pl, pr, out_w) = map(same_padding, (h, w), kernel, stride)
    xpad = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=fill)
    taps = [(i * kw + j, (slice(None), slice(i, i + sh * out_h, sh),
                          slice(j, j + sw * out_w, sw)))
            for i in range(kh) for j in range(kw)]
    return xpad, (slice(None), slice(pt, pt + h), slice(pl, pl + w)), taps


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
            setattr(self, "grad_" + k, _zeros_like(getattr(self, k)))

    def _init_affine(self, weight, fan_in, bias_size, rng):
        """He-normal weights written into ``weight``, zero bias.

        ``weight`` is the layer's zero array, allocated by its constructor in
        the layout the layer keeps; the draw is made in ``weight``'s shape
        order whatever that layout.  With ``rng`` None the array stays zero,
        on untouched pages, as a skeleton for loaded parameters."""
        if rng is not None:
            weight[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=weight.shape)
        self.weight = weight
        self.bias = np.zeros(bias_size, dtype=weight.dtype)
        self._init_grads()


class Conv2D(_Trainable):
    """Strided cross-correlation; weights are [out_ch, in_ch, kh, kw].

    ``weight`` is a view of one C-contiguous [kh, kw, in_ch, out_ch]
    buffer, which the constructor allocates in the GEMM operand's own order,
    so ``_weight_matrix`` is a free reshape rather than a copy per pass.
    ``grad_weight`` and Adam's moments (``_zeros_like``) share that layout,
    and a checkpoint stores ``weight`` in [out_ch, in_ch, kh, kw] order as
    before."""

    def __init__(self, in_channels, out_channels, kernel_size, stride=1, *,
                 rng=None, dtype=np.float32):
        kh, kw = _pair(kernel_size)
        self.stride = _pair(stride)
        self.in_channels = in_channels
        self.out_channels = out_channels
        weight = np.zeros((kh, kw, in_channels, out_channels), dtype)
        self._init_affine(weight.transpose(3, 2, 0, 1), in_channels * kh * kw,
                          out_channels, rng)
        self._cache = None

    def _im2col(self, xpad, taps):
        """[N*out_h*out_w, kh*kw*C] patch rows, columns in (i, j, c) order:
        one copy out of a strided window view, on the output grid of tap
        (0, 0)'s window."""
        _, _, kh, kw = self.weight.shape
        windows = sliding_window_view(xpad, (kh, kw), axis=(1, 2))[taps[0][1]]
        cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
        return cols.reshape(-1, kh * kw * xpad.shape[3])

    def _weight_matrix(self):
        """The weights as the [kh*kw*in_ch, out_ch] GEMM operand, rows in the
        (i, j, c) order of the im2col columns: a view of the storage, or a
        copy when ``weight`` has been rebound to an array of another layout."""
        _, _, kh, kw = self.weight.shape
        return self.weight.transpose(2, 3, 1, 0).reshape(
            kh * kw * self.in_channels, self.out_channels)

    def forward(self, x):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise DimensionError(
                f"conv expects [N,H,W,{self.in_channels}], got {x.shape}")
        xpad, crop, taps = _pad_same(x, self.weight.shape[2:], self.stride)
        out = self._im2col(xpad, taps) @ self._weight_matrix()
        out += self.bias
        self._cache = (xpad, crop, taps)
        return out.reshape(*xpad[taps[0][1]].shape[:3], self.out_channels)

    def _param_backward(self, grad_out):
        """Accumulate the bias and weight gradients; return grad_out as
        [N*out_h*out_w, out_ch] rows.  The columns are rebuilt from the cached
        padded input rather than kept from forward, which would hold every
        conv's columns until its backward pass."""
        xpad, _, taps = self._cache
        want = xpad[taps[0][1]].shape[:3] + (self.out_channels,)
        if grad_out.shape != want:
            raise DimensionError(f"conv backward expects {want}, got {grad_out.shape}")
        _, _, kh, kw = self.weight.shape
        g2 = grad_out.reshape(-1, self.out_channels)
        self.grad_bias += _colsum(g2)
        gw = self._im2col(xpad, taps).T @ g2  # [kh*kw*cin, cout]
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
        xpad, crop, taps = self._cache
        cin = self.in_channels
        wmat = self._weight_matrix()
        tap = np.empty(grad_out.shape[:3] + (cin,), dtype=g2.dtype)
        gxpad = np.zeros_like(xpad)
        for k, window in taps:  # tap k's rows of wmat, (i, j, c) order
            np.matmul(g2, wmat[k * cin:(k + 1) * cin].T, out=tap.reshape(-1, cin))
            gxpad[window] += tap
        return gxpad[crop]


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
        xpad, crop, taps = _pad_same(x, self.kernel, self.stride, -np.inf)
        # running maximum over the cells in scan order; argmax (the cell index
        # i*kw + j) moves only on a strict rise, so ties keep the first cell
        (_, first), *rest = taps
        out = xpad[first].copy()
        argmax = np.zeros(out.shape, dtype=np.min_scalar_type(len(taps) - 1))
        rises = np.empty(out.shape, dtype=bool)
        for k, window in rest:
            np.greater(xpad[window], out, out=rises)
            np.maximum(out, xpad[window], out=out)
            # indices only grow along the scan, so a max records the rise
            np.maximum(argmax, rises.view(np.uint8) * argmax.dtype.type(k), out=argmax)
        self._cache = (argmax, xpad.shape, crop, taps)
        return out

    def backward(self, grad_out):
        argmax, pad_shape, crop, taps = self._cache
        gxpad = np.zeros(pad_shape, dtype=grad_out.dtype)
        for k, window in taps:
            gxpad[window] += grad_out * (argmax == k)
        return gxpad[crop]


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
        self._init_affine(np.zeros((in_features, out_features), dtype),
                          in_features, out_features, rng)
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
        self.m = {k: _zeros_like(v) for k, v in params.items()}
        self.v = {k: _zeros_like(v) for k, v in params.items()}

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
