"""Training loop behavior on a narrow network clone."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import write_training_log
from tdsv import nn
from tdsv.config import PipelineConfig
from tdsv.errors import DimensionError, NumericalError
from tdsv.resnet import Network, NetworkConfig, load_network
from tdsv.train import train

TINY = NetworkConfig(input_height=17, input_width=20, stem_channels=2,
                     block_channels=(2, 2, 4, 4), block_strides=(1, 1, 2, 1),
                     num_speakers=3)


def _data(n=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 17, 20, 1)).astype(np.float64)
    y = rng.integers(0, 3, size=n)
    return x, y


def _outputs(root):
    """train's checkpoint directory and log path, both under ``root``."""
    root.mkdir(exist_ok=True)
    return dict(checkpoint_dir=root / "ckpt", log_path=root / "log.csv")


class TestTrain:
    def test_zero_learning_rate_freezes_params(self, tmp_path):
        net = Network(TINY, seed=1, dtype=np.float64)
        before = {k: v.copy() for k, v in net.named_parameters().items()}
        x, y = _data()
        # PipelineConfig rejects a zero rate when a config loads; train reads
        # only these three fields
        history = train(net, x, y, SimpleNamespace(epochs=3, batch_size=4,
                                                   learning_rate=0.0), 0,
                        **_outputs(tmp_path))
        assert len(history) == 3
        for k, v in net.named_parameters().items():
            assert np.array_equal(v, before[k]), k

    def test_first_epoch_loss_near_log_k(self, tmp_path):
        net = Network(TINY, seed=2, dtype=np.float64)
        x, y = _data(n=12, seed=3)
        history = train(net, x, y, PipelineConfig(epochs=1, batch_size=4,
                                                  learning_rate=1e-5), 0,
                        **_outputs(tmp_path))
        assert abs(history[0].loss - np.log(3.0)) < 0.5

    def test_deterministic_given_seeds(self, tmp_path):
        runs = []
        for i in range(2):
            net = Network(TINY, seed=4, dtype=np.float64)
            x, y = _data(n=8, seed=5)
            history = train(net, x, y, PipelineConfig(epochs=2, batch_size=4,
                                                      learning_rate=1e-3), 6,
                            **_outputs(tmp_path / str(i)))
            runs.append((history, {k: v.copy()
                                   for k, v in net.named_parameters().items()}))
        assert runs[0][0] == runs[1][0]
        for k in runs[0][1]:
            assert np.array_equal(runs[0][1][k], runs[1][1][k])

    def test_loss_falls_on_learnable_data(self, tmp_path):
        net = Network(TINY, seed=7, dtype=np.float64)
        rng = np.random.default_rng(8)
        # class-dependent mean shift makes the task easy
        y = np.array([0, 1, 2] * 4)
        x = rng.normal(size=(12, 17, 20, 1)) + y[:, None, None, None] * 2.0
        history = train(net, x, y, PipelineConfig(epochs=10, batch_size=4,
                                                  learning_rate=1e-3), 9,
                        **_outputs(tmp_path))
        assert history[-1].loss < history[0].loss

    def test_checkpoints_written_per_epoch(self, tmp_path):
        net = Network(TINY, seed=10, dtype=np.float64)
        x, y = _data()
        train(net, x, y, PipelineConfig(epochs=2, batch_size=4,
                                        learning_rate=1e-4), 0,
              checkpoint_dir=tmp_path, log_path=tmp_path / "log.csv")
        assert (tmp_path / "epoch_001" / "manifest.txt").exists()
        assert (tmp_path / "epoch_002" / "manifest.txt").exists()
        restored = load_network(tmp_path / "epoch_002")
        for k, v in net.named_parameters().items():
            assert np.allclose(restored.named_parameters()[k], v, atol=1e-7), k

    # the inf head weights meet zeros in the logits' matmul on purpose
    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning")
    def test_nonfinite_loss_aborts_with_pointer(self, tmp_path):
        net = Network(TINY, seed=11, dtype=np.float64)
        net.named_parameters()["head.weight"][...] = np.inf
        x, y = _data()
        with pytest.raises(NumericalError,
                           match="epoch 1; last good checkpoint: none"):
            train(net, x, y, PipelineConfig(epochs=1, batch_size=4,
                                            learning_rate=1e-4), 0,
                  checkpoint_dir=tmp_path, log_path=tmp_path / "log.csv")

    def test_shape_validation(self, tmp_path):
        net = Network(TINY, seed=0)
        with pytest.raises(DimensionError):
            train(net, np.zeros((4, 17, 20)), np.zeros(4, dtype=int),
                  PipelineConfig(epochs=1), 0, **_outputs(tmp_path))
        with pytest.raises(DimensionError):
            train(net, np.zeros((0, 17, 20, 1)), np.zeros(0, dtype=int),
                  PipelineConfig(epochs=1), 0, **_outputs(tmp_path))
        with pytest.raises(DimensionError):
            train(net, np.zeros((2, 17, 20, 1)), np.array([0, 3]),
                  PipelineConfig(epochs=1), 0, **_outputs(tmp_path))


class TestTrainingLog:
    def test_csv_format(self, tmp_path):
        net = Network(TINY, seed=14, dtype=np.float64)
        x, y = _data()
        history = train(net, x, y, PipelineConfig(epochs=2, batch_size=4,
                                                  learning_rate=1e-4), 0,
                        **_outputs(tmp_path))
        lines = (tmp_path / "log.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"epoch,loss,accuracy" and lines[-1] == b""
        assert len(lines) == 2 + len(history) == 4
        for line, stats in zip(lines[1:], history):
            assert re.fullmatch(rb"\d+,\d+\.\d{6},[01]\.\d{6}", line)
            assert line.decode() == (f"{stats.epoch},{stats.loss:.6f},"
                                     f"{stats.accuracy:.6f}")

    def test_log_written_as_epochs_finish(self, tmp_path, capsys):
        net = Network(TINY, seed=12, dtype=np.float64)
        x, y = _data()
        log = tmp_path / "log.csv"
        history = train(net, x, y, PipelineConfig(epochs=2, batch_size=4,
                                                  learning_rate=1e-4), 0,
                        checkpoint_dir=tmp_path / "ckpt", log_path=log)
        write_training_log(tmp_path / "whole.csv", history)
        assert log.read_bytes() == (tmp_path / "whole.csv").read_bytes()
        progress = capsys.readouterr().err.splitlines()
        assert [ln.split(":")[0] for ln in progress] == ["epoch 1/2", "epoch 2/2"]
        assert all(ln.endswith(" examples/s") for ln in progress)

    def test_failure_in_epoch_two_leaves_one_row(self, tmp_path, monkeypatch):
        import tdsv.train

        calls = []

        def nan_from_third_batch(logits, labels):
            calls.append(1)
            loss, grad = nn.softmax_cross_entropy(logits, labels)
            return (float("nan") if len(calls) > 2 else loss), grad

        monkeypatch.setattr(tdsv.train, "softmax_cross_entropy", nan_from_third_batch)
        net = Network(TINY, seed=13, dtype=np.float64)
        x, y = _data()  # 8 examples at batch 4: two batches per epoch
        log = tmp_path / "log.csv"
        with pytest.raises(NumericalError, match="epoch 2; last good checkpoint: .*epoch_001"):
            train(net, x, y, PipelineConfig(epochs=3, batch_size=4,
                                            learning_rate=1e-4), 0,
                  checkpoint_dir=tmp_path / "ckpt", log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 2 and lines[1].startswith("1,")
