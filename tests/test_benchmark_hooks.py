"""Internals the benchmark harness in ``tdsvbench/`` reaches by name.

Its self-check patches broken kernels in to prove its output checks catch
them, and its tracer times layers through their public methods.  Those
patches and counts rely on shapes that nothing else in the program pins:

- ``Conv2D.backward`` is called as ``backward(self, grad_out)``;
- ``MaxPool._cache[0]`` holds each window's winning cell index ``i*kw + j``;
- ``BatchNorm._cache`` is a 4-tuple whose last entry is the train flag;
- ``score_trials`` calls the module-level ``backend.cosine_score`` once per
  trial and ``backend.cohort_stats`` at most twice per phrase.
"""

import inspect

import numpy as np

from tdsv import backend, nn
from tdsv.resnet import Network, NetworkConfig
from tdsv.trials import EmbeddingRecord, TrialTable

CONFIG = NetworkConfig(input_height=9, input_width=11, stem_channels=2,
                       block_channels=(2, 4), block_strides=(1, 2), num_speakers=2)


def _train_step(net, input_grad=True):
    x = np.random.default_rng(0).normal(size=(2, 9, 11, 1)).astype(np.float32)
    _, g = nn.softmax_cross_entropy(net.forward(x, train=True), np.array([0, 1]))
    net.zero_grad()
    return net.backward(g, input_grad=input_grad)


def test_conv_backward_takes_only_grad_out(monkeypatch):
    assert list(inspect.signature(nn.Conv2D.backward).parameters) == ["self", "grad_out"]
    orig = nn.Conv2D.backward
    calls = []

    def backward(self, grad_out):  # the signature the self-check patches in
        calls.append(self)
        return orig(self, grad_out)

    monkeypatch.setattr(nn.Conv2D, "backward", backward)
    net = Network(CONFIG, seed=1)
    _train_step(net)
    convs = [layer for _, layer in net.layers() if isinstance(layer, nn.Conv2D)]
    assert sorted(map(id, calls)) == sorted(map(id, convs))
    calls.clear()
    _train_step(net, input_grad=False)
    assert net.stem_conv not in calls and len(calls) == len(convs) - 1


def test_maxpool_cache_holds_cell_indices():
    pool = nn.MaxPool(3, 2)
    x = np.zeros((1, 5, 5, 9), dtype=np.float32)
    for k in range(9):  # channel k peaks at cell k of the centre window
        i, j = divmod(k, 3)
        x[0, 1 + i, 1 + j, k] = 1.0
    pool.forward(x)
    assert list(pool._cache[0][0, 1, 1]) == list(range(9))
    # forcing every index to 0 routes each window's gradient to its cell 0,
    # which sits on an odd row and column of the unpadded input
    pool._cache = (np.zeros_like(pool._cache[0]), *pool._cache[1:])
    gx = pool.backward(np.ones((1, 3, 3, 9), dtype=np.float32))
    assert gx[0, 1, 1].sum() == 9.0
    assert gx[0, 0::2].sum() == 0.0 and gx[0, :, 0::2].sum() == 0.0


def test_batchnorm_cache_ends_in_train_flag():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3, 3, 2)).astype(np.float32)
    g = rng.normal(size=x.shape).astype(np.float32)
    bn = nn.BatchNorm(2)
    for train in (True, False):
        bn.forward(x, train=train)
        assert len(bn._cache) == 4 and bn._cache[-1] is train
    bn.forward(x, train=True)
    train_grad = bn.backward(g)
    bn._cache = bn._cache[:3] + (False,)
    assert not np.allclose(bn.backward(g), train_grad)


def test_score_trials_call_counts(monkeypatch):
    rng = np.random.default_rng(3)
    records = {}
    for phrase in ("p0", "p1"):
        for spk in range(4):
            for take in range(4):
                utt = f"s{spk}_{phrase}_{take}"
                records[utt] = EmbeddingRecord(utt, f"s{spk}", phrase,
                                               rng.normal(size=6))
    background = {p: [u for u, r in records.items() if r.phrase_id == p
                      and r.speaker_id in ("s0", "s1")] for p in ("p0", "p1")}
    backends = backend.fit_backends(records, background)
    enroll = {f"s{spk}-{p}": [f"s{spk}_{p}_0", f"s{spk}_{p}_1"]
              for spk in (2, 3) for p in ("p0", "p1")}
    trials = TrialTable(*map(list, zip(*[
        (f"s{spk}-{p}", f"s{other}_{p}_{take}", p, "unk")
        for p in ("p0", "p1") for spk in (2, 3) for other in (2, 3)
        for take in (2, 3)])))
    calls = {"cosine_score": 0, "cohort_stats": 0}

    def counted(name):
        orig = getattr(backend, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(backend, name, counted(name))
    scores = backend.score_trials(trials, records, enroll, backends)
    assert len(scores) == len(trials) == 16
    assert calls["cosine_score"] == 16
    assert 1 <= calls["cohort_stats"] <= 2 * 2
