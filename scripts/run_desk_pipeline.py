#!/usr/bin/env python3
"""Run the full desk-scale experiment in one go.

Synthesizes a corpus, trains the desk embedder on the background split,
extracts embeddings, scores the dev and eval trial lists with the
WCCN/cosine/s-norm backend, and prints both operating summaries.  Every
stage goes through the command-line entry points, so the artifacts under
--workdir are exactly what the CLI documents.  It ends with the sha256 (first
12 hex digits) of each golden file and of the DET tables, so two runs can be
compared at a glance.
"""

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tdsv.cli import BLAS_THREAD_VARS, main as tdsv  # loads no numpy

# The stages run in this process with the default --threads 1, and numpy
# reads the BLAS thread cap only when it loads, so set it before it does.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

from tdsv.config import PipelineConfig, save_config


def run(argv, label):
    t0 = time.monotonic()
    rc = tdsv(argv)
    if rc != 0:
        raise SystemExit(f"stage '{label}' failed with exit code {rc}")
    print(f"  [{label}: {time.monotonic() - t0:.1f}s]")


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

    work = Path(args.workdir)
    corpus = work / "corpus"
    run_dir = work / "run"
    work.mkdir(parents=True, exist_ok=True)

    cfg = work / "pipeline.cfg"
    save_config(cfg, PipelineConfig(epochs=args.epochs))

    run(["--seed", str(args.corpus_seed), "--output-dir", str(corpus),
         "synth", "--speakers", str(args.speakers),
         "--utterances", str(args.utterances)], "synth")
    run(["--config", str(cfg), "--seed", str(args.train_seed),
         "--output-dir", str(run_dir), "train", "--corpus", str(corpus)],
        "train")
    run(["--output-dir", str(run_dir), "embed", "--corpus", str(corpus),
         "--model", str(run_dir / "model")], "embed")

    for split in ("dev", "eval"):
        out = run_dir / split
        run(["--config", str(cfg), "--output-dir", str(out), "score",
             "--corpus", str(corpus),
             "--embeddings", str(run_dir / "embeddings.tsv"),
             "--trials", str(corpus / f"trials_{split}.tsv")],
            f"score {split}")
        run(["--output-dir", str(out), "eval",
             "--scores", str(out / "scores.tsv")], f"eval {split}")

    for split in ("dev", "eval"):
        print(f"\n{split} summary ({run_dir / split / 'summary.txt'}):")
        print((run_dir / split / "summary.txt").read_text(), end="")

    print("\ndigests (sha256, first 12 hex digits):")
    for name in ("training_log.csv", "embeddings.tsv", "dev/scores.tsv",
                 "eval/scores.tsv", "dev/summary.txt", "eval/summary.txt",
                 "dev/det.csv", "eval/det.csv", "dev/det_probit.csv",
                 "eval/det_probit.csv"):
        digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        print(f"  {digest[:12]}  {name}")


if __name__ == "__main__":
    main()
