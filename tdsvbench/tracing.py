"""Span tracing of the tdsv modules from outside the program.

``Tracer.install`` wraps every public function, and every public method (plus
``__init__`` of non-dataclass classes), defined in the traced modules, and
rebinds every name in the loaded ``tdsv`` modules that refers to a wrapped
function, so ``from .nn import Adam``-style imports are traced as well.
Generator functions, properties and dunder methods other than ``__init__``
stay untraced.  ``uninstall`` restores the originals.

Each call becomes a span (id, parent id, name, start, end).  Self time, the
span's duration minus the durations of its direct children, is accumulated
per (stage, name) as calls finish, so aggregates stay exact even after the
in-memory span list reaches its cap.

nn layer methods get layer-type names so that one metric covers every
instance: ``nn.conv3x3.fwd``, ``nn.batchnorm.bwd``, ``nn.adam.step`` and so on.
Conv calls also add the GEMM flops and im2col column bytes implied by their
shapes to the ``nn.conv.flop`` and ``nn.conv.unfold_bytes`` counters; these are
computed from shapes, not measured.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("nn", "resnet", "train", "features", "backend", "metrics",
           "trials", "fileio", "cli")
_LAYER_KIND = {"BatchNorm": "batchnorm", "ReLU": "relu", "MaxPool": "maxpool",
               "GlobalAvgPool": "avgpool", "Dense": "dense"}
_DIRECTION = {"forward": "fwd", "backward": "bwd"}


def self_times(spans):
    """{name: (calls, self seconds, total seconds)} from (id, parent, name,
    start, end) spans; the reference for the tracer's running aggregates."""
    child = defaultdict(float)
    for _, parent, _, start, end in spans:
        child[parent] += end - start
    out = {}
    for sid, _, name, start, end in spans:
        calls, self_s, total_s = out.get(name, (0, 0.0, 0.0))
        dur = end - start
        out[name] = (calls + 1, self_s + dur - child[sid], total_s + dur)
    return out


def _conv_name(layer, *_):
    _, _, kh, kw = layer.weight.shape
    return f"nn.conv{kh}x{kw}"


def _conv_work(layer, tensor, backward):
    """(GEMM flops, im2col column bytes) of one Conv2D call.

    ``tensor`` is the input on forward and grad_out on backward.  Backward
    runs two GEMMs of the forward's size and rebuilds the columns once.
    """
    cout, cin, kh, kw = layer.weight.shape
    if backward:
        n, out_h, out_w, _ = tensor.shape
    else:
        n, h, w, _ = tensor.shape
        sh, sw = layer.stride
        out_h, out_w = -(-h // sh), -(-w // sw)
    rows, depth = n * out_h * out_w, kh * kw * cin
    flop = 2.0 * rows * depth * cout * (2 if backward else 1)
    return flop, float(rows * depth * tensor.dtype.itemsize)


class Tracer:
    def __init__(self, max_spans: int = 50_000, keep=()):
        self.max_spans = max_spans
        self.keep = frozenset(keep)   # names whose (start, end) are all kept
        self.spans = []               # (id, parent, name, start, end)
        self.dropped = 0
        self.stats = {}               # (stage, name) -> [calls, self_s, total_s]
        self.intervals = defaultdict(list)   # (stage, name) -> [(start, end)]
        self.counters = defaultdict(float)   # (stage, counter) -> value
        self.stage = None
        self._stack = []              # frames: [id, parent, child_s, start]
        self._next_id = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, parent, 0.0, perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name):
        end = perf_counter()
        self._stack.pop()
        sid, parent, child_s, start = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        key = (self.stage, name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur - child_s
        st[2] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, parent, name, start, end))
        else:
            self.dropped += 1
        if name in self.keep:
            self.intervals[key].append((start, end))

    def _wrap(self, fn, name, namer=None, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                flop, nbytes = work(*args)
                tracer.counters[(tracer.stage, "nn.conv.flop")] += flop
                tracer.counters[(tracer.stage, "nn.conv.unfold_bytes")] += nbytes
            label = name if namer is None else namer(*args)
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, label)

        return traced

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, key, new):
        """Replace owner[key] (a namespace dict) or owner.key (a class),
        remembering the original for uninstall."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def _method_wrapper(self, short, cls, attr, fn):
        direction = _DIRECTION.get(attr)
        if short == "nn" and cls.__name__ == "Conv2D" and direction:
            suffix = "." + direction
            backward = direction == "bwd"
            return self._wrap(
                fn, None, namer=lambda layer, *a, **k: _conv_name(layer) + suffix,
                work=lambda layer, t, *a, **k: _conv_work(layer, t, backward))
        if short == "nn" and cls.__name__ in _LAYER_KIND and direction:
            return self._wrap(fn, f"nn.{_LAYER_KIND[cls.__name__]}.{direction}")
        if short == "nn" and cls.__name__ == "Adam" and attr == "step":
            return self._wrap(fn, "nn.adam.step")
        return self._wrap(fn, f"{short}.{cls.__name__}.{attr}")

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for short in MODULES:
            mod = importlib.import_module(f"tdsv.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[obj] = self._wrap(
                        obj, "nn.softmax_xent" if obj.__name__ == "softmax_cross_entropy"
                        else f"{short}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for name, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                            continue
                        if name.startswith("_") and (name != "__init__"
                                                     or dataclasses.is_dataclass(obj)):
                            continue
                        self._patch(obj, name, self._method_wrapper(short, obj, name, fn))
        # Rebind every reference a tdsv module holds, including the values of
        # module-level dicts such as cli's command table.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "tdsv" or modname.startswith("tdsv.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patch(vars(mod), attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replaced:
                            self._patch(obj, key, replaced[value])

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
