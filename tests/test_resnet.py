"""Residual embedding network: construction, shapes, gradients, IO."""

import hashlib
import json
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import golden_environment, numeric_gradient, relative_error
from tdsv import fileio, nn
from tdsv.backend import length_normalize
from tdsv.errors import (DegenerateError, DimensionError, TensorFormatError,
                         UninitializedStatsError, UnknownIdError)
from tdsv.features import compute_spectrogram, fit_length
from tdsv.resnet import (NetworkConfig, Network, PRESETS, ResidualBlock,
                         build_network, count_parameters, extract_embedding,
                         load_network, save_network)
from tdsv.synth import (SynthSpec, _utterance_plan, make_phrase, make_voice,
                        speaker_id, split_speakers, synthesize_utterance)

TINY = NetworkConfig(input_height=17, input_width=20, stem_channels=2,
                     block_channels=(2, 2, 4, 4), block_strides=(1, 1, 2, 1),
                     num_speakers=3)


def _tiny_net(seed=0, dtype=np.float64):
    return Network(TINY, seed=seed, dtype=dtype)


def _recast(net, dtype):
    """The same network with every parameter and BN statistic cast to dtype."""
    twin = Network(net.config, seed=None, dtype=dtype)
    params = twin.named_parameters()
    for name, p in net.named_parameters().items():
        params[name][...] = p
    for src, dst in zip(net.batchnorms(), twin.batchnorms()):
        dst.running_mean[...] = src.running_mean
        dst.running_var[...] = src.running_var
        dst.initialized = src.initialized
    return twin


def _tiny_batch(seed=0, n=2):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, TINY.input_height, TINY.input_width, 1)),
            rng.integers(0, TINY.num_speakers, size=n))


class TestConfig:
    def test_plan_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            NetworkConfig(block_channels=(8, 8), block_strides=(1, 1, 2))

    def test_too_few_speakers_rejected(self):
        with pytest.raises(DimensionError):
            NetworkConfig(num_speakers=1)

    def test_embedding_dim_is_last_width(self):
        assert PRESETS["full"].embedding_dim == 512
        assert PRESETS["desk"].embedding_dim == 128

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            build_network(5, seed=0, preset="huge")

    def test_unknown_preset_is_typed(self):
        with pytest.raises(UnknownIdError, match="'huge'.*'desk', 'full'"):
            build_network(5, seed=0, preset="huge")


class TestConstruction:
    def test_same_seed_same_weights(self):
        a = build_network(5, seed=11, preset="desk")
        b = build_network(5, seed=11, preset="desk")
        for (na, pa), (nb, pb) in zip(sorted(a.named_parameters().items()),
                                      sorted(b.named_parameters().items())):
            assert na == nb
            assert np.array_equal(pa, pb)

    def test_different_seed_different_weights(self):
        a = build_network(5, seed=1, preset="desk")
        b = build_network(5, seed=2, preset="desk")
        assert not np.array_equal(a.named_parameters()["stem.conv.weight"],
                                  b.named_parameters()["stem.conv.weight"])

    def test_row_names(self):
        rows, total = count_parameters(build_network(5, seed=0, preset="desk"))
        assert [name for name, _ in rows] == (
            ["stem"] + [f"block{i}" for i in range(1, 9)] + ["head"])
        assert total == sum(count for _, count in rows)

    def test_desk_counts_by_hand(self):
        rows, _ = count_parameters(build_network(5, seed=0, preset="desk"))
        counts = dict(rows)
        # stem: 7*7*1*16 weights + 16 biases, no normalization
        assert counts["stem"] == 7 * 7 * 16 + 16
        # identity block at width 16: two 3x3 convs + two BNs
        assert counts["block1"] == 2 * (3 * 3 * 16 * 16 + 16) + 2 * (2 * 16)
        # head: 128 -> 5 dense
        assert counts["head"] == 128 * 5 + 5

    def test_projection_only_on_shape_change(self):
        net = build_network(5, seed=0, preset="desk")
        has_proj = [net.blocks[i].proj is not None for i in range(8)]
        assert has_proj == [False, False, True, False, True, False, True, False]


class TestForward:
    def test_desk_shapes(self):
        net = build_network(4, seed=0, preset="desk")
        x = np.random.default_rng(0).normal(size=(2, 257, 200, 1)).astype(np.float32)
        feats = net.features(x, train=True)
        assert feats.shape == (2, 128)
        logits = net.forward(x, train=True)
        assert logits.shape == (2, 4)

    def test_rejects_wrong_height(self):
        net = _tiny_net()
        with pytest.raises(DimensionError):
            net.forward(np.zeros((1, 16, 20, 1)), train=True)

    def test_identity_block_passthrough(self):
        # zeroing the residual branch output conv makes a stride-1 equal-width
        # block an exact identity
        net = _tiny_net(seed=3)
        block = net.blocks[1]
        assert block.proj is None
        block.conv2.weight[...] = 0.0
        block.conv2.bias[...] = 0.0
        x = np.random.default_rng(4).normal(size=(2, 5, 6, 2))
        assert np.array_equal(block.forward(x, train=True), x)

    def test_infer_before_training_rejected(self):
        net = _tiny_net()
        x = np.zeros((1, TINY.input_height, TINY.input_width, 1))
        with pytest.raises(UninitializedStatsError):
            net.forward(x, train=False)


class TestGradients:
    def test_end_to_end_matches_finite_differences(self):
        net = _tiny_net(seed=7)
        x, labels = _tiny_batch(seed=8)

        def loss():
            logits = net.forward(x, train=True)
            return nn.softmax_cross_entropy(logits, labels)[0]

        net.zero_grad()
        logits = net.forward(x, train=True)
        _, grad_logits = nn.softmax_cross_entropy(logits, labels)
        net.backward(grad_logits)
        grads = net.named_gradients()

        for name in ["stem.conv.weight", "stem.conv.bias",
                     "block1.bn1.gamma", "block1.conv1.weight",
                     "block3.proj.weight", "block3.proj_bn.beta",
                     "block4.conv2.weight", "head.weight", "head.bias"]:
            arr = net.named_parameters()[name]
            num = numeric_gradient(loss, arr, step=1e-5)
            assert relative_error(grads[name], num, floor=1e-8) < 1e-3, name

    def test_input_gradient(self):
        net = _tiny_net(seed=9)
        x, labels = _tiny_batch(seed=10, n=1)

        def loss():
            logits = net.forward(x, train=True)
            return nn.softmax_cross_entropy(logits, labels)[0]

        net.zero_grad()
        logits = net.forward(x, train=True)
        _, grad_logits = nn.softmax_cross_entropy(logits, labels)
        gx = net.backward(grad_logits)
        num = numeric_gradient(loss, x, step=1e-5)
        assert relative_error(gx, num, floor=1e-8) < 1e-3

    def test_every_layer_walked_once_each_way(self, monkeypatch):
        """One step with the input gradient runs every layer's (and block's)
        forward and backward exactly once, and each backward runs before the
        backward of whatever produced that layer's forward input."""
        fwd, bwd, edges, producer, outputs = [], [], [], {}, []

        def spy(cls):
            forward, backward = cls.forward, cls.backward

            def spied_forward(self, x, *train):
                fwd.append(self)
                edges.append((producer.get(id(x)), self))
                out = forward(self, x, *train)
                producer[id(out)] = self
                outputs.append(out)  # keeps every id unique
                return out

            def spied_backward(self, grad_out):
                bwd.append(self)
                return backward(self, grad_out)

            monkeypatch.setattr(cls, "forward", spied_forward)
            monkeypatch.setattr(cls, "backward", spied_backward)

        for cls in (nn.Conv2D, nn.BatchNorm, nn.ReLU, nn.MaxPool,
                    nn.GlobalAvgPool, nn.Dense, ResidualBlock):
            spy(cls)
        net = _tiny_net()
        x, labels = _tiny_batch()
        _, g = nn.softmax_cross_entropy(net.forward(x, train=True), labels)
        assert net.backward(g, input_grad=True).shape == x.shape

        # TINY: stem conv, 4 blocks of 2 convs, 2 BNs and 2 ReLUs, one
        # projection (block3), stem ReLU, max-pool, average pool, head
        assert Counter(type(layer).__name__ for layer in fwd) == {
            "Conv2D": 10, "BatchNorm": 9, "ReLU": 9, "MaxPool": 1,
            "GlobalAvgPool": 1, "Dense": 1, "ResidualBlock": 4}
        assert len(set(map(id, fwd))) == len(fwd)
        assert sorted(map(id, bwd)) == sorted(map(id, fwd))
        assert {id(layer) for _, layer in net.layers()} <= set(map(id, fwd))
        assert [dst for src, dst in edges if src is None] == [net.stem_conv]
        when = {id(layer): i for i, layer in enumerate(bwd)}
        for src, dst in edges[1:]:
            assert when[id(dst)] < when[id(src)], (src, dst)

    def test_float32_desk_step_tracks_float64(self):
        """The desk run's first training step (corpus seed 7, train seed 0,
        batch 16) in float32 against a float64 net holding the same float32
        weights.  Per-channel sums taken as one running sum per channel put
        the float32 gradients 5.9e-3 away; blocked sums bring them to 1.3e-3."""
        spec = SynthSpec()
        splits = split_speakers(spec)
        plan = [u for u in _utterance_plan(spec) if splits[speaker_id(u[0])] == "bg"]
        speakers = sorted({i for i, _, _ in plan})
        batch = [plan[u] for u in np.random.default_rng(0).permutation(len(plan))[:16]]
        x = np.stack([fit_length(compute_spectrogram(synthesize_utterance(
            make_voice(spec, i), make_phrase(spec, j), spec,
            np.random.default_rng([spec.seed, 3, i, j, k]))).bins, 200)
            for i, j, k in batch]).astype(np.float32)[..., None]
        labels = np.array([speakers.index(i) for i, _, _ in batch])
        net = build_network(len(speakers), 0, "desk")
        grads = []
        for model in (net, _recast(net, np.float64)):
            _, g = nn.softmax_cross_entropy(
                model.forward(x.astype(model.head.weight.dtype), train=True), labels)
            model.backward(g, input_grad=False)
            grads.append(model.named_gradients())
        g32, g64 = grads
        err = sum(float(np.sum((g32[k] - g64[k]) ** 2)) for k in g64)
        assert np.sqrt(err / sum(float(np.sum(g ** 2)) for g in g64.values())) < 2.5e-3

    def test_adam_steps_reduce_loss(self):
        net = _tiny_net(seed=12)
        x, labels = _tiny_batch(seed=13, n=4)
        opt = nn.Adam(net.named_parameters(), lr=1e-5)
        losses = []
        for _ in range(5):
            net.zero_grad()
            logits = net.forward(x, train=True)
            loss, grad = nn.softmax_cross_entropy(logits, labels)
            losses.append(loss)
            net.backward(grad)
            opt.step(net.named_gradients())
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestEmbedding:
    @pytest.fixture()
    def trained_tiny(self):
        net = _tiny_net(seed=5)
        x, _ = _tiny_batch(seed=6, n=4)
        net.forward(x, train=True)  # populate BN running stats
        return net

    def test_deterministic(self, trained_tiny):
        x = np.random.default_rng(1).normal(size=(TINY.input_height,
                                                  TINY.input_width))
        a = extract_embedding(trained_tiny, x)
        b = extract_embedding(trained_tiny, x)
        assert np.array_equal(a, b)
        assert a.shape == (TINY.embedding_dim,)

    def test_only_one_spectrogram_accepted(self, trained_tiny):
        x = np.random.default_rng(2).normal(size=(TINY.input_height,
                                                  TINY.input_width))
        with pytest.raises(DimensionError):
            extract_embedding(trained_tiny, x[:, :, None])

    def test_zero_input_is_finite(self, trained_tiny):
        emb = extract_embedding(trained_tiny,
                                np.zeros((TINY.input_height, TINY.input_width)))
        assert np.all(np.isfinite(emb))

    def test_float32_net_runs_float64_input_at_float32(self, trained_tiny):
        net = _recast(trained_tiny, np.float32)
        x = np.random.default_rng(3).normal(size=(TINY.input_height,
                                                  TINY.input_width))
        emb = extract_embedding(net, x)
        assert emb.dtype == np.float32
        assert emb.tobytes() == extract_embedding(
            net, x.astype(np.float32)).tobytes()

    def test_float64_net_unchanged(self, trained_tiny):
        x = np.random.default_rng(4).normal(size=(TINY.input_height,
                                                  TINY.input_width))
        emb = extract_embedding(trained_tiny, x)
        assert emb.dtype == np.float64
        want = trained_tiny.features(x[None, :, :, None], train=False)[0]
        assert emb.tobytes() == want.tobytes()

    def test_float32_agrees_with_float64(self, trained_tiny):
        net32 = _recast(trained_tiny, np.float32)
        net64 = _recast(net32, np.float64)  # the same float32-rounded weights
        for seed in range(5):
            x = np.random.default_rng(seed).normal(
                size=(TINY.input_height, TINY.input_width))
            want = extract_embedding(net64, x)
            diff = extract_embedding(net32, x).astype(np.float64) - want
            assert np.linalg.norm(diff) < 1e-5 * np.linalg.norm(want)


class TestLengthNormalize:
    def test_three_four_five(self):
        out = length_normalize(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])

    def test_idempotent(self):
        v = np.random.default_rng(0).normal(size=16)
        once = length_normalize(v)
        assert np.allclose(length_normalize(once), once)

    def test_unit_norm_for_many_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.normal(size=rng.integers(2, 40)) * 10.0 ** rng.integers(-3, 4)
            assert abs(np.linalg.norm(length_normalize(v)) - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateError):
            length_normalize(np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(DegenerateError):
            length_normalize(np.array([1.0, np.inf]))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = _tiny_net(seed=21, dtype=np.float32)
        x, labels = _tiny_batch(seed=22, n=4)
        net.forward(x.astype(np.float32), train=True)
        save_network(net, tmp_path / "model")
        back = load_network(tmp_path / "model")

        assert back.config == net.config
        for name, p in net.named_parameters().items():
            assert np.array_equal(back.named_parameters()[name], p), name
        probe = np.random.default_rng(23).normal(
            size=(1, TINY.input_height, TINY.input_width, 1)).astype(np.float32)
        assert np.array_equal(back.forward(probe, train=False),
                              net.forward(probe, train=False))

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        net = _tiny_net(seed=25, dtype=np.float32)
        x, _ = _tiny_batch(seed=26, n=4)
        net.forward(x.astype(np.float32), train=True)
        save_network(net, tmp_path / "model")

        def refuse(*args, **kwargs):
            raise AssertionError("load_network drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        back = load_network(tmp_path / "model")
        monkeypatch.undo()

        for name, p in net.named_parameters().items():
            got = back.named_parameters()[name]
            assert got.dtype == p.dtype and got.tobytes() == p.tobytes(), name
        for src, dst in zip(net.batchnorms(), back.batchnorms()):
            assert dst.running_mean.tobytes() == src.running_mean.tobytes()
            assert dst.running_var.tobytes() == src.running_var.tobytes()
            assert dst.initialized
        probe = np.random.default_rng(27).normal(
            size=(1, TINY.input_height, TINY.input_width, 1)).astype(np.float32)
        assert (back.forward(probe, train=False).tobytes()
                == net.forward(probe, train=False).tobytes())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_seedless_network_is_zero(self, dtype):
        net = Network(TINY, seed=None, dtype=dtype)
        for name, p in net.named_parameters().items():
            assert p.dtype == dtype, name
            # batch-norm gains start at one, everything else at zero
            assert np.all(p == (1.0 if name.endswith(".gamma") else 0.0)), name

    def test_untrained_flag_survives(self, tmp_path):
        net = _tiny_net(seed=24)
        save_network(net, tmp_path / "model")
        back = load_network(tmp_path / "model")
        with pytest.raises(UninitializedStatsError):
            back.forward(np.zeros((1, TINY.input_height, TINY.input_width, 1)),
                         train=False)


class TestCheckpointErrors:
    """A checkpoint that lacks a tensor, or holds one of the wrong shape,
    fails with a TensorFormatError naming the tensor and both shapes."""

    @pytest.fixture()
    def saved(self, tmp_path):
        net = _tiny_net(seed=28, dtype=np.float32)
        net.forward(_tiny_batch(seed=29, n=4)[0].astype(np.float32), train=True)
        save_network(net, tmp_path / "model")
        return tmp_path / "model"

    @staticmethod
    def _rewrite(model, drop=None, replace_with=None):
        fields, tensors = fileio.read_tensor_dir(model, "svnet", 1)
        if drop is not None:
            del tensors[drop]
        tensors.update(replace_with or {})
        for f in model.iterdir():
            f.unlink()
        fileio.write_tensor_dir(model, "svnet", 1, fields, tensors)

    @pytest.mark.parametrize("name", ["stem.conv.weight",
                                      "block1.bn1.running_mean",
                                      "block3.proj_bn.running_var"])
    def test_missing_tensor(self, saved, name):
        self._rewrite(saved, drop=name)
        with pytest.raises(TensorFormatError, match=f"no tensor '{name}'"):
            load_network(saved)

    @pytest.mark.parametrize("name,shape,want", [
        ("head.weight", (4, 2), (4, 3)),
        ("block2.bn2.running_mean", (3,), (2,)),
        ("block1.bn1.running_var", (1,), (2,)),  # would broadcast silently
    ])
    def test_misshaped_tensor(self, saved, name, shape, want):
        self._rewrite(saved, replace_with={name: np.ones(shape)})
        with pytest.raises(TensorFormatError) as exc:
            load_network(saved)
        assert f"'{name}' has shape {shape}, expected {want}" in str(exc.value)

    @pytest.mark.parametrize("name", ["block5.conv1.weight", "block1.proj.weight"])
    def test_undefined_tensor(self, saved, name):
        self._rewrite(saved, replace_with={name: np.ones((2, 2, 3, 3))})
        with pytest.raises(TensorFormatError) as exc:
            load_network(saved)
        assert str(exc.value) == (f"checkpoint {saved} holds tensor '{name}', "
                                  "which its config does not define")

    def test_negative_running_variance(self, saved):
        name = "block2.bn1.running_var"
        var = np.ones(2, dtype=np.float32)
        var[1] = -1e-3
        self._rewrite(saved, replace_with={name: var})
        with pytest.raises(TensorFormatError) as exc:
            load_network(saved)
        assert str(exc.value) == (f"checkpoint {saved} tensor '{name}' holds "
                                  "a negative variance")

    def test_non_finite_parameter_names_its_file(self, saved):
        weight = fileio.read_tensor(saved / "stem.conv.weight.svt")
        weight[0, 0, 3, 3] = np.nan
        fileio.write_tensor(saved / "stem.conv.weight.svt", weight)
        with pytest.raises(TensorFormatError) as exc:
            load_network(saved)
        assert str(exc.value) == (f"{saved / 'stem.conv.weight.svt'}: "
                                  "non-finite value")

    def test_missing_field(self, saved):
        manifest = saved / "manifest.txt"
        manifest.write_text("".join(
            ln for ln in manifest.read_text().splitlines(keepends=True)
            if not ln.startswith("stem_channels=")))
        with pytest.raises(TensorFormatError, match="stem_channels"):
            load_network(saved)

    @pytest.mark.parametrize("field, value, bad", [
        ("stem_channels", "two", "'two'"),
        ("block_strides", "1,x", "'x'"),
    ])
    def test_non_integer_field_is_named(self, saved, field, value, bad):
        manifest = saved / "manifest.txt"
        manifest.write_text("".join(
            f"{field}={value}\n" if ln.startswith(f"{field}=") else ln
            for ln in manifest.read_text().splitlines(keepends=True)))
        with pytest.raises(TensorFormatError) as exc:
            load_network(saved)
        assert str(exc.value) == (
            f"checkpoint {saved} has a missing or bad field: {field}={value}: "
            f"invalid literal for int() with base 10: {bad}")

    @pytest.mark.parametrize("line", ["bn_initialized=yes\n", "bn_initialized=\n", ""])
    def test_bn_initialized_is_0_or_1(self, saved, line):
        # a garbled or missing flag must not load as "never trained"
        manifest = saved / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("bn_initialized=1\n", line))
        with pytest.raises(TensorFormatError) as exc:
            load_network(saved)
        assert str(exc.value).startswith(
            f"checkpoint {saved} has a missing or bad field: ")
        assert "bn_initialized" in str(exc.value)

    @pytest.mark.parametrize("field, value", [
        ("stem_channels", "-16"),
        ("input_width", "0"),
        ("block_strides", "1,1,0,1"),
    ])
    def test_non_positive_field(self, saved, field, value):
        manifest = saved / "manifest.txt"
        manifest.write_text("".join(
            f"{field}={value}\n" if ln.startswith(f"{field}=") else ln
            for ln in manifest.read_text().splitlines(keepends=True)))
        with pytest.raises(TensorFormatError) as exc:
            load_network(saved)
        message = str(exc.value)
        assert "\n" not in message
        assert str(saved) in message and f"{field} must be >= 1" in message


def _resident_mb():
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("no /proc/self/statm to read resident memory from")
    return int(statm.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class TestResidency:
    def test_skeleton_holds_no_resident_training_state(self):
        """A seedless `full` net (what load_network fills) and an optimizer
        over it leave the 11.2 M zero weights, gradients and Adam moments
        on unwritten pages: under 4 MB of growth, where writing the
        gradients alone costs about 44 MB."""
        before = _resident_mb()
        net = Network(replace(PRESETS["full"], num_speakers=97), seed=None)
        adam = nn.Adam(net.named_parameters())
        grown = _resident_mb() - before
        assert grown < 8.0, f"building the skeleton grew RSS by {grown:.1f} MB"
        assert not net.stem_conv.grad_weight.any()
        assert not adam.m["stem.conv.weight"].any()


class TestConvStorage:
    """Each conv keeps its weights in the GEMM's [kh, kw, in, out] order, on
    every way a network is made: the GEMM operand is that storage itself,
    the gradient and Adam's moments share its layout, the checkpoint keeps
    the [out, in, kh, kw] order, and forward reads the weights through
    ``self.weight`` (the benchmark's self-check rebinds it)."""

    DESK = replace(PRESETS["desk"], num_speakers=4)

    @staticmethod
    def convs(net):
        return [(name, layer) for name, layer in net.layers()
                if isinstance(layer, nn.Conv2D)]

    @staticmethod
    def in_storage_order(a):
        """True if ``a`` [out, in, kh, kw] lies C-contiguous in [kh, kw, in,
        out] order (compared by flag, not strides: the stem's in-channel
        axis has extent 1, and numpy gives such an axis any stride)."""
        return a.transpose(2, 3, 1, 0).flags.c_contiguous

    @pytest.fixture(params=["seeded", "skeleton", "loaded"])
    def net(self, request, tmp_path):
        if request.param == "seeded":
            return Network(self.DESK, seed=0)
        if request.param == "skeleton":
            net = Network(self.DESK, seed=None)
            fill = np.random.default_rng(0)
            for _, conv in self.convs(net):  # as load_network fills it
                conv.weight[...] = fill.normal(size=conv.weight.shape)
            return net
        save_network(Network(self.DESK, seed=1), tmp_path / "saved")
        return load_network(tmp_path / "saved")

    def test_operand_is_the_storage(self, net):
        for name, conv in self.convs(net):
            wmat = conv._weight_matrix()
            assert wmat.flags.c_contiguous, name
            assert np.shares_memory(wmat, conv.weight), name
            assert self.in_storage_order(conv.weight), name
            assert self.in_storage_order(conv.grad_weight), name

    def test_adam_step_moves_the_operand(self, net):
        for name, conv in self.convs(net):
            wmat = conv._weight_matrix()
            before = wmat.copy()
            conv.grad_weight[...] = 1.0
            opt = nn.Adam(conv.params, lr=1e-3)
            assert self.in_storage_order(opt.m["weight"]), name
            assert self.in_storage_order(opt.v["weight"]), name
            opt.step(conv.grads)
            assert not np.array_equal(wmat, before), name

    def test_checkpoint_layout_unchanged(self, net, tmp_path):
        save_network(net, tmp_path / "m")
        for name, conv in self.convs(net):
            got = (tmp_path / "m" / f"{name}.weight.svt").read_bytes()
            assert got == fileio.tensor_to_bytes(
                np.ascontiguousarray(conv.weight)), name

    def test_forward_reads_self_weight(self, net):
        rng = np.random.default_rng(3)
        for name, conv in self.convs(net):
            if conv.weight.shape[2:] == (1, 1):
                continue  # a 1x1 kernel is its own flip
            x = rng.normal(size=(1, 9, 11, conv.in_channels)).astype(np.float32)
            out = conv.forward(x)
            w = conv.weight
            conv.weight = w[:, :, ::-1, ::-1]
            flipped = conv.forward(x)
            conv.weight = w
            assert not np.array_equal(flipped, out), name
            assert np.array_equal(conv.forward(x), out), name


class TestGoldenBytes:
    """Digests of a seeded desk network: a change to the He-normal draws, the
    order in which the layers draw them, or the checkpoint manifest layout
    (which the benchmark's reference parser reads) fails here."""

    DESK = replace(PRESETS["desk"], num_speakers=4)

    def test_seeded_parameters(self):
        digest = hashlib.sha256()
        for name, arr in Network(self.DESK, seed=0).named_parameters().items():
            digest.update(f"{name} {arr.dtype} {arr.shape}".encode())
            digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "78cd0c055f479103b74e25e862fdbaa476fec403940c998e0e06fda957910ac3")

    def test_manifest_text(self, tmp_path):
        save_network(Network(self.DESK, seed=0), tmp_path / "m")
        text = (tmp_path / "m" / "manifest.txt").read_text()
        lines = text.splitlines()
        assert lines[:8] == [
            "svnet 1",
            "input_height=257",
            "input_width=200",
            "stem_channels=16",
            "block_channels=16,16,32,32,64,64,128,128",
            "block_strides=1,1,2,1,2,1,2,1",
            "num_speakers=4",
            "bn_initialized=0",
        ]
        names = sorted(p.stem for p in (tmp_path / "m").glob("*.svt"))
        assert lines[8:] == [f"tensor={n} file={n}.svt" for n in names]
        assert len(names) == 118
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f6d4eb912cf4b74b82955346c4adba3279cfea048173eefbc4e594044246a55e")


class TestGoldenFull:
    """Bytes of the published network's inference path: a seeded ``full``
    net with seeded BN statistics, saved and reloaded as ``tdsv embed``
    loads it, embeds two seeded spectrograms.  A change to the conv or
    batch-norm forward at 64-512 channels, to the checkpoint round trip or
    to the weight layout that moves one embedding bit fails here.  The
    bytes hold only where numpy and the BLAS accumulate alike, so the test
    is gated on the environment recorded with them."""

    GOLDEN = Path(__file__).parent / "golden_full.json"

    @staticmethod
    def embeddings(tmp_path):
        net = Network(replace(PRESETS["full"], num_speakers=97), seed=0)
        stats = np.random.default_rng(1)
        for bn in net.batchnorms():
            bn.running_mean[...] = stats.normal(scale=0.5, size=bn.channels)
            bn.running_var[...] = stats.uniform(0.5, 2.0, size=bn.channels)
            bn.initialized = True
        save_network(net, tmp_path / "model")
        net = load_network(tmp_path / "model")
        inputs = np.random.default_rng(2).normal(
            size=(2, PRESETS["full"].input_height, PRESETS["full"].input_width))
        return np.stack([extract_embedding(net, x) for x in inputs])

    def test_embedding_bytes(self, tmp_path):
        golden = json.loads(self.GOLDEN.read_text())
        env = golden_environment()
        differs = [k for k, v in golden["environment"].items() if env.get(k) != v]
        if differs:
            pytest.skip(f"golden not checked: {differs[0]} differs")
        emb = self.embeddings(tmp_path)
        assert emb.dtype == np.float32 and emb.shape == (2, 512)
        assert np.all(np.isfinite(emb))
        assert (hashlib.sha256(emb.tobytes()).hexdigest()
                == golden["digests"]["embeddings"])
