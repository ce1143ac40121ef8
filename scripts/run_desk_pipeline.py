#!/usr/bin/env python3
"""Run the full desk-scale experiment in one go.

Synthesizes a corpus, trains the desk embedder on the background split,
extracts embeddings, scores the dev trial list with a freshly fitted
WCCN/cosine/s-norm backend and the eval trial list with that same backend,
and prints both operating summaries.  Every stage goes through the
command-line entry points, so the artifacts under --workdir are exactly what
the CLI documents, and each flag is checked by the rule of the stage that
reads it before anything is written.  It ends with the full sha256 of each
output that tests/golden_desk.json pins, so two runs can be compared at a
glance.
Acceptance criterion 4 runs the same sequence through ``run_desk`` and
checks ``digests`` against that file; criterion 8 runs it twice on a smaller
corpus and compares the two ``digests`` maps; the command-line tests build
their shared run with it.
"""

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tdsv.cli import (BLAS_THREAD_VARS, _int_at_least,  # loads no numpy
                      main as tdsv)

# The stages run in this process with the default --threads 1, and numpy
# reads the BLAS thread cap only when it loads, so set it before it does.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

from tdsv.config import PipelineConfig, save_config
from tdsv.errors import ConfigError
from tdsv.synth import SynthSpec

# the run directory's files that digests() covers, besides the model/ tree
DIGESTED_FILES = ("training_log.csv", "embeddings.tsv", "dev/scores.tsv",
                  "eval/scores.tsv", "dev/summary.txt", "eval/summary.txt",
                  "dev/det.csv", "eval/det.csv", "dev/det_probit.csv",
                  "eval/det_probit.csv")


def run_desk(workdir, *, corpus_seed=7, train_seed=0, speakers=10,
             utterances=20, config=PipelineConfig()) -> dict[str, float]:
    """Write the corpus to ``workdir/corpus`` and every other artifact to
    ``workdir/run``, training and scoring under ``config``; return the wall
    seconds of each stage by its label.  Only the dev score fits a backend
    (``run/dev/backend``); eval is scored with it via ``--backend``."""
    work = Path(workdir)
    corpus = work / "corpus"
    run_dir = work / "run"
    work.mkdir(parents=True, exist_ok=True)

    cfg = work / "pipeline.cfg"
    save_config(cfg, config)
    seconds = {}

    def run(argv, label):
        t0 = time.monotonic()
        rc = tdsv(argv)
        if rc != 0:
            raise SystemExit(f"stage '{label}' failed with exit code {rc}")
        seconds[label] = time.monotonic() - t0
        print(f"  [{label}: {seconds[label]:.1f}s]")

    run(["--seed", str(corpus_seed), "--output-dir", str(corpus),
         "synth", "--speakers", str(speakers),
         "--utterances", str(utterances)], "synth")
    run(["--config", str(cfg), "--seed", str(train_seed),
         "--output-dir", str(run_dir), "train", "--corpus", str(corpus)],
        "train")
    run(["--output-dir", str(run_dir), "embed", "--corpus", str(corpus),
         "--model", str(run_dir / "model")], "embed")

    # The backend depends only on the bg split, the embeddings and the
    # config, so eval reuses dev's fit: refitting it would give the same bytes.
    reuse = {"dev": [], "eval": ["--backend", str(run_dir / "dev" / "backend")]}
    for split in ("dev", "eval"):
        out = run_dir / split
        run(["--config", str(cfg), "--output-dir", str(out), "score",
             "--corpus", str(corpus),
             "--embeddings", str(run_dir / "embeddings.tsv"),
             "--trials", str(corpus / f"trials_{split}.tsv")] + reuse[split],
            f"score {split}")
        run(["--output-dir", str(out), "eval",
             "--scores", str(out / "scores.tsv")], f"eval {split}")
    return seconds


def digests(run_dir) -> dict[str, str]:
    """Full sha256 of each of DIGESTED_FILES under ``run_dir``, and of its
    model/ tree: each relative path in sorted order, its byte count, then
    its bytes."""
    run_dir = Path(run_dir)
    out = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
           for name in DIGESTED_FILES}
    model = run_dir / "model"
    tree = hashlib.sha256()
    for rel in sorted(p.relative_to(model).as_posix()
                      for p in model.rglob("*") if p.is_file()):
        data = (model / rel).read_bytes()
        tree.update(f"{rel}\n{len(data)}\n".encode())
        tree.update(data)
    out["model/"] = tree.hexdigest()
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", default="desk_run",
                    help="directory for corpus, model, and score artifacts")
    ap.add_argument("--corpus-seed", type=int, default=7,
                    help="voice draw for the synthetic corpus")
    ap.add_argument("--train-seed", type=int, default=0)
    ap.add_argument("--speakers", type=int, default=10)
    ap.add_argument("--utterances", type=int, default=20,
                    help="utterances per speaker, split across phrases")
    ap.add_argument("--epochs", type=int, default=30)
    args = ap.parse_args()
    try:
        for flag, seed in (("--corpus-seed", args.corpus_seed),
                           ("--train-seed", args.train_seed)):
            try:
                _int_at_least(0)(str(seed))  # the rule of tdsv's --seed
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"{flag} {exc}") from None
        SynthSpec(num_speakers=args.speakers,
                  utterances_per_speaker=args.utterances)
        config = PipelineConfig(epochs=args.epochs)
    except ConfigError as exc:
        ap.exit(2, f"{ap.prog}: error: {exc}\n")

    run_desk(args.workdir, corpus_seed=args.corpus_seed,
             train_seed=args.train_seed, speakers=args.speakers,
             utterances=args.utterances, config=config)
    run_dir = Path(args.workdir) / "run"
    for split in ("dev", "eval"):
        print(f"\n{split} summary ({run_dir / split / 'summary.txt'}):")
        print((run_dir / split / "summary.txt").read_text(), end="")

    print("\ndigests (sha256):")
    for name, digest in digests(run_dir).items():
        print(f"  {digest}  {name}")


if __name__ == "__main__":
    main()
