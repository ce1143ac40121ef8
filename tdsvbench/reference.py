"""Float64 reference forward pass of the tdsv residual network.

The output checks of train-desk and embed-full compare the program against
this module.  It shares no code with ``tdsv.nn``, ``tdsv.resnet`` or
``tdsv.fileio``: the checkpoint is parsed here, convolutions are einsums over
sliding-window views instead of im2col + GEMM, and pooling and batch norm are
written out directly.  The layer definitions it encodes (same padding with
the extra cell at the bottom/right, BN eps 1e-5 with biased batch variance,
3x3/2 max pool, pre-activation blocks) are the documented ones in
``tdsv/nn.py`` and ``tdsv/resnet.py``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BN_EPS = 1e-5


def read_checkpoint(path):
    """(manifest fields, {tensor name: float64 array}) of an svnet directory."""
    root = Path(path)
    lines = (root / "manifest.txt").read_text().splitlines()
    if lines[0].split() != ["svnet", "1"]:
        raise ValueError(f"{root} is not an svnet 1 checkpoint")
    fields, tensors = {}, {}
    for ln in lines[1:]:
        key, value = ln.split("=", 1)
        if key != "tensor":
            fields[key] = value
            continue
        name, fname = value.split(" file=")
        data = (root / fname).read_bytes()
        rank = struct.unpack_from("<I", data, 4)[0]
        dims = struct.unpack_from(f"<{rank}I", data, 8)
        tensors[name] = np.frombuffer(data, "<f4", offset=8 + 4 * rank).reshape(dims)
    return fields, {k: v.astype(np.float64) for k, v in tensors.items()}


def _pad_same(x, k, s, value=0.0):
    """Pad H and W so a k/s window yields ceil(size / s) outputs, the odd
    cell going to the bottom/right."""
    pads = [(0, 0)]
    for size in x.shape[1:3]:
        total = max((-(-size // s) - 1) * s + k - size, 0)
        pads.append((total // 2, total - total // 2))
    return np.pad(x, pads + [(0, 0)], constant_values=value)


def conv(x, weight, bias, stride):
    """x [N,H,W,C], weight [O,C,k,k] -> [N,ceil(H/s),ceil(W/s),O]."""
    k = weight.shape[2]
    win = sliding_window_view(_pad_same(x, k, stride), (k, k), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # [N,oh,ow,C,k,k]
    return np.einsum("nhwcij,ocij->nhwo", win, weight, optimize=True) + bias


def maxpool(x, k=3, stride=2):
    win = sliding_window_view(_pad_same(x, k, stride, -np.inf), (k, k), axis=(1, 2))
    return win[:, ::stride, ::stride].max(axis=(4, 5))


def batchnorm(x, t, name, train):
    if train:
        mean, var = x.mean(axis=(0, 1, 2)), x.var(axis=(0, 1, 2))
    else:
        mean, var = t[name + ".running_mean"], t[name + ".running_var"]
    return (x - mean) / np.sqrt(var + BN_EPS) * t[name + ".gamma"] + t[name + ".beta"]


def forward(fields, t, x, train=False):
    """(pooled embedding [N,C], logits [N,K]) for input x [N,H,W,1]."""
    strides = [int(v) for v in fields["block_strides"].split(",")]
    h = np.maximum(conv(x, t["stem.conv.weight"], t["stem.conv.bias"], 2), 0.0)
    h = maxpool(h)
    for i, stride in enumerate(strides, start=1):
        b = f"block{i}."
        r = np.maximum(batchnorm(h, t, b + "bn1", train), 0.0)
        r = conv(r, t[b + "conv1.weight"], t[b + "conv1.bias"], stride)
        r = np.maximum(batchnorm(r, t, b + "bn2", train), 0.0)
        r = conv(r, t[b + "conv2.weight"], t[b + "conv2.bias"], 1)
        if b + "proj.weight" in t:
            h = batchnorm(conv(h, t[b + "proj.weight"], t[b + "proj.bias"], stride),
                          t, b + "proj_bn", train)
        h = h + r
    pooled = h.mean(axis=(1, 2))
    return pooled, pooled @ t["head.weight"] + t["head.bias"]


def xent(logits, labels):
    """Mean softmax cross-entropy."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def directional_derivative(fields, t, x, labels, name, direction, eps=1e-6):
    """Central difference of the train-mode loss along ``direction`` in
    tensor ``name``."""
    def loss_at(sign):
        moved = dict(t)
        moved[name] = t[name] + sign * eps * direction
        return xent(forward(fields, moved, x, train=True)[1], labels)

    return (loss_at(1.0) - loss_at(-1.0)) / (2.0 * eps)
