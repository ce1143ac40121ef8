"""Minibatch Adam training of the speaker classifier.

Examples are fixed-size spectrogram tensors [N, H, W, 1] with integer speaker
labels.  Epochs, batch size and learning rate come from the pipeline config.
Shuffling is driven by a dedicated seeded generator, so a (net seed, train
seed) pair fully determines the run.  A checkpoint directory is written
after every epoch; a non-finite loss aborts with a pointer to the last good
one.  Each finished epoch prints one progress line to stderr and appends its
row to the training log.
"""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .errors import DimensionError, NumericalError
from .nn import Adam, softmax_cross_entropy
from .resnet import Network, save_network


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def train(net: Network, inputs: np.ndarray, labels: np.ndarray,
          config: PipelineConfig, seed: int, checkpoint_dir,
          log_path) -> list[EpochStats]:
    """Run the full loop and return per-epoch mean loss and accuracy.

    Each epoch's checkpoint goes to ``checkpoint_dir/epoch_<NNN>``.  The
    training log at ``log_path`` is started before the first epoch and gains
    each epoch's row once that epoch's checkpoint is written, so a crash
    leaves the rows of the finished epochs.
    """
    labels = np.asarray(labels)
    if inputs.ndim != 4 or inputs.shape[0] != labels.shape[0]:
        raise DimensionError(
            f"inputs {inputs.shape} do not pair with labels {labels.shape}")
    n = inputs.shape[0]
    if n == 0:
        raise DimensionError("empty training set")
    if labels.min() < 0 or labels.max() >= net.config.num_speakers:
        raise DimensionError(
            f"labels outside [0, {net.config.num_speakers})")
    rng = np.random.default_rng(seed)
    adam = Adam(net.named_parameters(), lr=config.learning_rate)
    history: list[EpochStats] = []
    last_good: Path | None = None
    with open(log_path, "w", newline="") as fh:
        csv.writer(fh).writerow(["epoch", "loss", "accuracy"])
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            logits = net.forward(inputs[idx], train=True)
            loss, grad = softmax_cross_entropy(logits, labels[idx])
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}; last good checkpoint: "
                    f"{last_good if last_good is not None else 'none'}")
            net.zero_grad()
            net.backward(grad, input_grad=False)
            adam.step(net.named_gradients())
            total_loss += loss * len(idx)
            correct += int((logits.argmax(axis=1) == labels[idx]).sum())
        stats = EpochStats(epoch, total_loss / n, correct / n)
        history.append(stats)
        last_good = Path(checkpoint_dir) / f"epoch_{epoch:03d}"
        save_network(net, last_good)
        with open(log_path, "a", newline="") as fh:
            csv.writer(fh).writerow(
                [epoch, f"{stats.loss:.6f}", f"{stats.accuracy:.6f}"])
        seconds = time.perf_counter() - started
        print(f"epoch {epoch}/{config.epochs}: loss={stats.loss:.4f} "
              f"accuracy={stats.accuracy:.4f} {seconds:.1f}s "
              f"{n / seconds:.1f} examples/s", file=sys.stderr, flush=True)
    return history
