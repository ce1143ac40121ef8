"""Residual CNN speaker embedder.

The network maps a standardized log-spectrogram [H, W, 1] to speaker logits:
a 7x7/2x2 conv stem (ReLU, 3x3/2x2 maxpool), a chain of pre-activation
residual blocks (BN -> ReLU -> conv -> BN -> ReLU -> conv, raw input on the
shortcut, 1x1 conv + BN projection when the shape changes), global average
pooling, and a dense softmax head.  The pooled vector, taken before the head,
is the utterance embedding.

``PRESETS["full"]`` is the published 18-layer plan (11.2M parameters at 97
output classes, 512-d embeddings); ``PRESETS["desk"]`` is a narrow clone that
trains in minutes on one core for end-to-end validation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import fileio
from .errors import DimensionError, TensorFormatError, UnknownIdError
from .nn import BatchNorm, Conv2D, Dense, GlobalAvgPool, MaxPool, ReLU


@dataclass(frozen=True)
class NetworkConfig:
    input_height: int = 257
    input_width: int = 800
    stem_channels: int = 64
    block_channels: tuple[int, ...] = (64, 64, 128, 128, 256, 256, 512, 512)
    block_strides: tuple[int, ...] = (1, 1, 2, 1, 2, 1, 2, 1)
    num_speakers: int = 2

    def __post_init__(self):
        if len(self.block_channels) != len(self.block_strides):
            raise DimensionError("block channel and stride plans differ in length")
        if self.num_speakers < 2:
            raise DimensionError("need at least 2 speakers")
        for f in fields(self):
            value = getattr(self, f.name)
            if min(value if isinstance(value, tuple) else (value,)) < 1:
                raise DimensionError(f"{f.name} must be >= 1, got {value}")

    @property
    def embedding_dim(self) -> int:
        return self.block_channels[-1]


PRESETS = {
    "full": NetworkConfig(),
    "desk": NetworkConfig(input_width=200, stem_channels=16,
                          block_channels=(16, 16, 32, 32, 64, 64, 128, 128)),
}


def _forward(layers, x, train):
    """Run ``x`` through ``layers`` in order; an empty list returns ``x``.

    A ``Conv2D`` is called as ``forward(x)``: it has no train mode, and
    ``tdsvbench/selfcheck.py`` patches ``Conv2D.forward(self, x)`` in that
    form, so it takes no flag.  Every other layer gets ``forward(x, train)``."""
    for layer in layers:
        x = layer.forward(x) if isinstance(layer, Conv2D) else layer.forward(x, train)
    return x


def _backward(layers, g):
    """Run ``g`` back through ``layers`` in reverse; an empty list returns ``g``."""
    for layer in reversed(layers):
        g = layer.backward(g)
    return g


class ResidualBlock:
    """Pre-activation unit: out = shortcut(x) + conv2(relu(bn2(conv1(relu(bn1(x)))))).

    ``branch`` and ``shortcut`` are the two paths as ordered layer lists,
    which forward walks in order and backward in reverse.  The shortcut is
    empty (the raw input) when shapes match, else 1x1 strided conv + BN.
    """

    def __init__(self, in_channels, out_channels, stride, *, rng=None,
                 dtype=np.float32):
        self.bn1 = BatchNorm(in_channels, dtype=dtype)
        self.conv1 = Conv2D(in_channels, out_channels, 3, stride, rng=rng, dtype=dtype)
        self.bn2 = BatchNorm(out_channels, dtype=dtype)
        self.conv2 = Conv2D(out_channels, out_channels, 3, 1, rng=rng, dtype=dtype)
        self.branch = [self.bn1, ReLU(), self.conv1, self.bn2, ReLU(), self.conv2]
        self.proj = self.proj_bn = None
        if stride != 1 or in_channels != out_channels:
            self.proj = Conv2D(in_channels, out_channels, 1, stride, rng=rng, dtype=dtype)
            self.proj_bn = BatchNorm(out_channels, dtype=dtype)
        self.shortcut = [] if self.proj is None else [self.proj, self.proj_bn]

    def layers(self):
        """Named trainable layers; the ReLUs hold no arrays and live only in
        ``branch``."""
        for name in ("bn1", "conv1", "bn2", "conv2", "proj", "proj_bn"):
            layer = getattr(self, name)
            if layer is not None:
                yield name, layer

    def forward(self, x, train=False):
        return _forward(self.branch, x, train) + _forward(self.shortcut, x, train)

    def backward(self, grad_out):
        return _backward(self.branch, grad_out) + _backward(self.shortcut, grad_out)


class Network:
    """Stem conv, trunk, dense head.

    ``trunk`` is every layer between the stem conv and the head, in order:
    ReLU, 3x3/2x2 max-pool, the residual blocks, global average pool.
    ``features``, ``backward`` and the architecture script all walk it.

    ``seed=None`` draws no random numbers: conv and dense weights start at
    zero, a skeleton for ``load_network`` to fill.
    """

    def __init__(self, config: NetworkConfig, seed: int | None = 0,
                 dtype=np.float32):
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
        self.stem_conv = Conv2D(1, config.stem_channels, 7, 2, rng=rng, dtype=dtype)
        self.blocks = []
        in_ch = config.stem_channels
        for ch, st in zip(config.block_channels, config.block_strides):
            self.blocks.append(ResidualBlock(in_ch, ch, st, rng=rng, dtype=dtype))
            in_ch = ch
        self.trunk = [ReLU(), MaxPool(3, 2), *self.blocks, GlobalAvgPool()]
        self.head = Dense(in_ch, config.num_speakers, rng=rng, dtype=dtype)

    def layers(self):
        yield "stem.conv", self.stem_conv
        for i, block in enumerate(self.blocks, start=1):
            for name, layer in block.layers():
                yield f"block{i}.{name}", layer
        yield "head", self.head

    def named_parameters(self) -> dict[str, np.ndarray]:
        return {f"{prefix}.{k}": v for prefix, layer in self.layers()
                for k, v in layer.params.items()}

    def named_gradients(self) -> dict[str, np.ndarray]:
        return {f"{prefix}.{k}": v for prefix, layer in self.layers()
                for k, v in layer.grads.items()}

    def zero_grad(self):
        for _, layer in self.layers():
            layer.zero_grad()

    def batchnorms(self):
        return [layer for _, layer in self.layers() if isinstance(layer, BatchNorm)]

    def _check_input(self, x):
        c = self.config
        if x.ndim != 4 or x.shape[1:] != (c.input_height, c.input_width, 1):
            raise DimensionError(
                f"expected input [N,{c.input_height},{c.input_width},1], "
                f"got {x.shape}")

    def features(self, x, train=False):
        self._check_input(x)
        return _forward([self.stem_conv, *self.trunk], x, train)

    def forward(self, x, train=False):
        return self.head.forward(self.features(x, train))

    def backward(self, grad_logits, input_grad=True):
        """Accumulate every parameter gradient; return the gradient w.r.t.
        the input, or None when ``input_grad`` is false (training never uses
        it, and it costs the stem conv's per-tap input-gradient products)."""
        g = _backward(self.trunk, self.head.backward(grad_logits))
        if not input_grad:
            self.stem_conv._param_backward(g)
            return None
        return self.stem_conv.backward(g)


def build_network(num_speakers: int, seed: int, preset: str) -> Network:
    if preset not in PRESETS:
        raise UnknownIdError(f"unknown preset '{preset}' (have {sorted(PRESETS)})")
    return Network(replace(PRESETS[preset], num_speakers=num_speakers), seed)


def count_parameters(net: Network) -> tuple[list[tuple[str, int]], int]:
    """Per-row counts (stem, each block, head) and the grand total.

    Counts cover conv weights and biases, BN gains and shifts, and the dense
    head; running BN statistics are not trainable and are excluded.
    """
    rows: dict[str, int] = {}
    for prefix, layer in net.layers():
        row = prefix.split(".")[0]
        rows[row] = rows.get(row, 0) + sum(int(p.size) for p in layer.params.values())
    items = list(rows.items())
    return items, sum(rows.values())


def extract_embedding(net: Network, x: np.ndarray) -> np.ndarray:
    """Pooled feature vector for one [H, W] spectrogram, inference-mode BN.

    The input is cast to the network's parameter dtype, so a float32 net
    runs its forward pass in float32 whatever the input's dtype.
    """
    x = x.astype(net.stem_conv.weight.dtype, copy=False)
    return net.features(x[None, :, :, None], train=False)[0]


def _checkpoint_tensors(net: Network) -> dict[str, np.ndarray]:
    """The network's own arrays that a checkpoint holds: every parameter and
    BN running statistic, by name."""
    tensors = net.named_parameters()
    for prefix, layer in net.layers():
        if isinstance(layer, BatchNorm):
            tensors[f"{prefix}.running_mean"] = layer.running_mean
            tensors[f"{prefix}.running_var"] = layer.running_var
    return tensors


def save_network(net: Network, path) -> None:
    """Checkpoint directory: manifest (NetworkConfig fields, bn_initialized)
    + one tensor file per parameter and BN running statistic."""
    entries = {}
    for f in fields(NetworkConfig):
        value = getattr(net.config, f.name)
        entries[f.name] = (",".join(map(str, value)) if isinstance(value, tuple)
                           else str(value))
    entries["bn_initialized"] = "1" if all(b.initialized for b in net.batchnorms()) else "0"
    fileio.write_tensor_dir(path, "svnet", 1, entries, _checkpoint_tensors(net))


def load_network(path) -> Network:
    """Rebuild a saved network.  The skeleton draws no random numbers; every
    tensor it holds must be in the checkpoint with its exact shape."""
    entries, tensors = fileio.read_tensor_dir(path, "svnet", 1)
    try:
        config = NetworkConfig(**{
            f.name: (tuple(int(v) for v in entries[f.name].split(","))
                     if isinstance(f.default, tuple) else int(entries[f.name]))
            for f in fields(NetworkConfig)})
    except (KeyError, ValueError, DimensionError) as exc:
        raise TensorFormatError(
            f"checkpoint {path} has a missing or bad field: {exc}") from None
    net = Network(config, seed=None)
    initialized = entries.get("bn_initialized") == "1"
    for bn in net.batchnorms():
        bn.initialized = initialized
    for name, arr in _checkpoint_tensors(net).items():
        if name not in tensors:
            raise TensorFormatError(
                f"checkpoint {path} has no tensor '{name}' (expected shape "
                f"{arr.shape})")
        if tensors[name].shape != arr.shape:
            raise TensorFormatError(
                f"checkpoint tensor '{name}' has shape {tensors[name].shape}, "
                f"expected {arr.shape}")
        if name.endswith(".running_var") and (tensors[name] < 0).any():
            raise TensorFormatError(
                f"checkpoint {path} tensor '{name}' holds a negative variance")
        arr[...] = tensors[name]
    return net
