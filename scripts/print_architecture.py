#!/usr/bin/env python3
"""Print the embedder's stage shapes and parameter budget for a preset.

Feeds one zero input through the network stage by stage and tabulates the
output shape next to each named parameter row, so a preset's layout can be
eyeballed without reading the construction code.  Acceptance criterion 1
checks the same walk (``stage_shapes``) against the reference shapes.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tdsv.resnet import PRESETS, build_network, count_parameters


def stage_shapes(net) -> list[tuple[str, tuple[int, ...]]]:
    """``(stage, output shape without the batch axis)`` for ``stem``,
    ``maxpool``, ``block1`` ... ``blockN``, ``avgpool`` and ``head``, from
    one zero input of the network's configured size.  Runs the stem conv,
    walks ``net.trunk`` (its leading ReLU closes the stem), then the head."""
    cfg = net.config
    h = np.zeros((1, cfg.input_height, cfg.input_width, 1), dtype=np.float32)
    h = net.stem_conv.forward(h)
    names = ["stem", "maxpool",
             *(f"block{i}" for i in range(1, len(net.blocks) + 1)), "avgpool"]
    stages = []
    for name, layer in zip(names, net.trunk, strict=True):
        h = layer.forward(h, train=True)
        stages.append((name, h.shape[1:]))
    stages.append(("head", net.head.forward(h).shape[1:]))
    return stages


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="full", choices=sorted(PRESETS))
    ap.add_argument("--speakers", type=int, default=97)
    args = ap.parse_args()

    net = build_network(args.speakers, seed=0, preset=args.preset)
    cfg = net.config
    print(f"preset '{args.preset}': input "
          f"{cfg.input_height} x {cfg.input_width} x 1, "
          f"embedding dim {cfg.embedding_dim}, {args.speakers} speakers\n")
    print(f"{'stage':<10} {'output shape':<18} {'params':>10}")

    rows, total = count_parameters(net)
    rows = dict(rows)
    for stage, shape in stage_shapes(net):
        shape = "x".join(map(str, shape))
        print(f"{stage:<10} {shape:<18} {rows.get(stage, ''):>10}")
    print(f"\ntotal parameters: {total} ({total / 1e6:.3f}M)")


if __name__ == "__main__":
    main()
