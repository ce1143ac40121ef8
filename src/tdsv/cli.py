"""Command-line pipeline driver.

    tdsv [--config FILE] [--seed N] [--threads N] [--output-dir DIR] <command> ...

Commands: synth, train, embed, score, eval, fuse, project.  Each command
reads only documented artifacts, writes only into --output-dir (atomically:
temp file + rename), and on bad input or a failed file operation (a
``TdsvError`` or ``OSError``) exits 2 with a one-line ``error: ...`` message.
With ``TDSV_TRACEBACK=1`` in the environment the full traceback follows that
line on stderr.  Any other exception is a bug and propagates unchanged.

Heavy imports happen after argument parsing so --threads can pin the BLAS
thread pools via environment variables before numpy loads.  An in-process
caller that has already loaded numpy must set those variables itself; main
warns when it finds them different from --threads.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from .errors import (ConfigError, DegenerateError, InsufficientDataError,
                     NumericalError, TdsvError, TooShortError,
                     TrialFormatError)


def _int_at_least(minimum: int):
    """An argparse type for ints >= ``minimum``: numpy's generators reject a
    negative seed, and OpenBLAS reads 0 or fewer threads as "every core"."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: '{text}'") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {n}")
        return n
    return parse


_GLOBAL_FLAGS = (
    ("--config", dict(metavar="FILE", help="pipeline config file (svconfig 1)")),
    ("--seed", dict(type=_int_at_least(0), metavar="N",
                    help="master RNG seed, >= 0 (default 0)")),
    ("--threads", dict(type=_int_at_least(1), metavar="N",
                       help="BLAS/OpenMP thread cap, >= 1 (default 1)")),
    ("--output-dir", dict(metavar="DIR", help="artifact directory (default .)")),
)

_GLOBAL_DEFAULTS = {"config": None, "seed": 0, "threads": 1, "output_dir": "."}

# the environment variables that cap the BLAS/OpenMP thread pools; numpy
# reads them only when it loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _GLOBAL_FLAGS:
        common.add_argument(flag, default=argparse.SUPPRESS, **kwargs)

    parser = argparse.ArgumentParser(
        prog="tdsv",
        description="Text-dependent speaker verification pipeline.")
    for flag, kwargs in _GLOBAL_FLAGS:
        parser.add_argument(flag, default=_GLOBAL_DEFAULTS[
            flag.lstrip("-").replace("-", "_")], **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic corpus into --output-dir")
    p.add_argument("--speakers", type=int, default=10)
    p.add_argument("--phrases", type=int, default=2)
    p.add_argument("--utterances", type=int, default=20,
                   help="per speaker, split across phrases")
    p.add_argument("--noise", type=float, default=0.03)

    p = sub.add_parser("train", parents=[common],
                       help="train the speaker classifier on the bg split")
    p.add_argument("--corpus", required=True, metavar="DIR")

    p = sub.add_parser("embed", parents=[common],
                       help="extract embeddings for every corpus utterance")
    p.add_argument("--corpus", required=True, metavar="DIR")
    p.add_argument("--model", required=True, metavar="DIR")

    p = sub.add_parser("score", parents=[common],
                       help="fit the backend on the bg split and score trials")
    p.add_argument("--corpus", required=True, metavar="DIR")
    p.add_argument("--embeddings", required=True, metavar="FILE")
    p.add_argument("--trials", required=True, metavar="FILE")
    p.add_argument("--backend", metavar="DIR",
                   help="reuse previously fitted backend artifacts")

    p = sub.add_parser("eval", parents=[common],
                       help="EER / minDCF / DET points from a score file")
    p.add_argument("--scores", required=True, metavar="FILE")
    p.add_argument("--p-tar", type=float, default=1e-3)

    p = sub.add_parser("fuse", parents=[common],
                       help="fit logistic fusion on dev scores, apply to inputs")
    p.add_argument("--dev", required=True, nargs="+", metavar="FILE",
                   help="one labeled dev score file per system")
    p.add_argument("--inputs", required=True, nargs="+", metavar="FILE",
                   help="score files to fuse, same system order as --dev")

    p = sub.add_parser("project", parents=[common],
                       help="PCA projection of embeddings to CSV")
    p.add_argument("--embeddings", required=True, metavar="FILE")
    p.add_argument("--components", type=int, default=2)
    return parser


def _out(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_pipeline_config(args):
    from .config import PipelineConfig, load_config

    if args.config is None:
        return PipelineConfig()
    return load_config(args.config)


def _fixed_spectrogram(path, width):
    from .features import compute_spectrogram, fit_length, read_wav

    try:
        spec = compute_spectrogram(read_wav(path))
    except TooShortError as exc:
        raise TooShortError(f"{path}: {exc}") from None
    return fit_length(spec.bins, width)


def cmd_synth(args) -> int:
    from .synth import SynthSpec, generate_corpus

    spec = SynthSpec(num_speakers=args.speakers, num_phrases=args.phrases,
                     utterances_per_speaker=args.utterances,
                     noise_level=args.noise, seed=args.seed)
    entries = generate_corpus(spec, _out(args))
    print(f"wrote {len(entries)} utterances to {args.output_dir}")
    return 0


def cmd_train(args) -> int:
    import numpy as np

    from .resnet import build_network, save_network
    from .train import train
    from .trials import read_corpus

    cfg = _load_pipeline_config(args)
    corpus_dir = Path(args.corpus)
    entries = [e for e in read_corpus(corpus_dir / "corpus.tsv")
               if e.split == "bg"]
    if not entries:
        raise InsufficientDataError("corpus has no background utterances")
    speakers = sorted({e.speaker_id for e in entries})
    label_of = {s: i for i, s in enumerate(speakers)}
    net = build_network(len(speakers), args.seed, cfg.preset)
    inputs = np.stack([
        _fixed_spectrogram(corpus_dir / e.wav_path, net.config.input_width)
        for e in entries]).astype(np.float32)[:, :, :, None]
    labels = np.array([label_of[e.speaker_id] for e in entries])

    out = _out(args)
    history = train(net, inputs, labels, cfg, args.seed,
                    checkpoint_dir=out / "checkpoints",
                    log_path=out / "training_log.csv")
    save_network(net, out / "model")
    last = history[-1]
    print(f"trained {cfg.epochs} epochs on {len(entries)} utterances; "
          f"final loss={last.loss:.4f} accuracy={last.accuracy:.4f}")
    return 0


def cmd_embed(args) -> int:
    from .resnet import extract_embedding, load_network
    from .trials import EmbeddingRecord, read_corpus, write_embeddings

    corpus_dir = Path(args.corpus)
    entries = sorted(read_corpus(corpus_dir / "corpus.tsv"),
                     key=lambda e: e.utterance_id)
    net = load_network(Path(args.model))
    records = []
    for e in entries:
        spec = _fixed_spectrogram(corpus_dir / e.wav_path,
                                  net.config.input_width)
        vec = extract_embedding(net, spec)
        records.append(EmbeddingRecord(e.utterance_id, e.speaker_id,
                                       e.phrase_id, vec))
    out = _out(args)
    write_embeddings(out / "embeddings.tsv", records)
    print(f"wrote {len(records)} embeddings to {out / 'embeddings.tsv'}")
    return 0


def cmd_score(args) -> int:
    from .backend import (fit_backends, load_backends, save_backends,
                          score_trials)
    from .trials import (read_corpus, read_embeddings, read_enroll_map,
                         read_trials, write_scores)

    cfg = _load_pipeline_config(args)
    corpus_dir = Path(args.corpus)
    records = read_embeddings(args.embeddings)
    enroll = read_enroll_map(corpus_dir / "enroll.tsv")
    table = read_trials(args.trials)
    out = _out(args)

    if args.backend:
        backends = load_backends(Path(args.backend))
    else:
        background: dict[str, list[str]] = {}
        for e in read_corpus(corpus_dir / "corpus.tsv"):
            if e.split == "bg":
                background.setdefault(e.phrase_id, []).append(e.utterance_id)
        backends = fit_backends(records, background, cfg.cohort_size)
        save_backends(out / "backend", backends)

    scores = score_trials(table, records, enroll, backends, snorm=cfg.snorm)
    write_scores(out / "scores.tsv", table, scores)
    print(f"scored {len(scores)} trials to {out / 'scores.tsv'}")
    return 0


def cmd_eval(args) -> int:
    from .fileio import atomic_write_text
    from .metrics import (ScoredTrials, compute_det, det_csv_lines,
                          det_probit_csv_lines, summary_lines)
    from .trials import labeled_targets, read_scores

    table, scores = read_scores(args.scores)
    keep, is_target = labeled_targets(table.labels)
    if not keep.any():
        raise DegenerateError(f"no labeled trials in {args.scores}")
    trials = ScoredTrials(scores[keep], is_target)
    det = compute_det(trials)
    summary = summary_lines(trials, det, p_tar=args.p_tar)
    out = _out(args)
    atomic_write_text(out / "summary.txt", "\n".join(summary) + "\n")
    atomic_write_text(out / "det.csv", "\n".join(det_csv_lines(det)) + "\n")
    atomic_write_text(out / "det_probit.csv",
                      "\n".join(det_probit_csv_lines(det)) + "\n")
    print(f"{summary[0]} {summary[1]}")
    return 0


def _aligned_scores(paths):
    """Read several per-system score files and align them on trial keys:
    the first file's table and a [trials, systems] score matrix.  A
    non-finite score is a NumericalError naming its file and trial."""
    import numpy as np

    from .trials import read_scores

    baseline, scores = read_scores(paths[0])
    keys = list(zip(*baseline[:3]))
    columns = [scores]
    for path in paths[1:]:
        table, scores = read_scores(path)
        row_of = {key: i for i, key in enumerate(zip(*table[:3]))}
        if row_of.keys() != set(keys):
            raise TrialFormatError(
                f"{path} covers different trials than {paths[0]}")
        columns.append(scores[[row_of[k] for k in keys]])
    matrix = np.stack(columns, axis=1)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        row, system = bad[0]
        raise NumericalError(f"{paths[system]}: non-finite score "
                             f"{matrix[row, system]} for trial {keys[row]}")
    return baseline, matrix


def cmd_fuse(args) -> int:
    from .backend import apply_fusion, fit_fusion, save_fusion
    from .trials import labeled_targets, write_scores

    cfg = _load_pipeline_config(args)
    if len(args.dev) != len(args.inputs):
        raise ConfigError("--dev and --inputs need one file per system")
    dev_table, dev_scores = _aligned_scores(args.dev)
    in_table, in_scores = _aligned_scores(args.inputs)
    keep, labels = labeled_targets(dev_table.labels)
    model = fit_fusion(dev_scores[keep], labels, l2=cfg.fusion_l2)
    dev_fused = apply_fusion(model, dev_scores[keep])
    if cfg.fusion_l2 == 0.0 and dev_fused[labels].min() > dev_fused[~labels].max():
        print("warning: the dev trials are separable, so the fused score scale "
              "is arbitrary; set fusion_l2 > 0 for a finite fit", file=sys.stderr)

    fused = apply_fusion(model, in_scores)
    out = _out(args)
    write_scores(out / "fused_scores.tsv", in_table, fused)
    save_fusion(out / "fusion", model)
    weights = " ".join(f"{w:+.4f}" for w in model.weights)
    print(f"fused {len(fused)} trials; weights [{weights}] "
          f"bias {model.bias:+.4f}")
    return 0


def cmd_project(args) -> int:
    import numpy as np

    from .backend import pca_project
    from .fileio import atomic_write_text
    from .trials import read_embeddings

    records = sorted(read_embeddings(args.embeddings).values(),
                     key=lambda r: r.utterance_id)
    matrix = np.stack([r.vector for r in records])
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise NumericalError(f"{args.embeddings}: utterance "
                             f"'{records[bad[0]].utterance_id}' has a "
                             f"non-finite embedding")
    coords = pca_project(matrix, k=args.components)
    header = "utterance_id,speaker_id,phrase_id," + ",".join(
        f"pc{i + 1}" for i in range(args.components))
    lines = [header]
    for r, row in zip(records, coords):
        packed = ",".join(f"{v:.8e}" for v in row)
        lines.append(f"{r.utterance_id},{r.speaker_id},{r.phrase_id},{packed}")
    out = _out(args)
    atomic_write_text(out / "projection.csv", "\n".join(lines) + "\n")
    print(f"wrote {len(records)} projected points to {out / 'projection.csv'}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "embed": cmd_embed,
    "score": cmd_score,
    "eval": cmd_eval,
    "fuse": cmd_fuse,
    "project": cmd_project,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    threads = str(args.threads)
    differ = [v for v in BLAS_THREAD_VARS if os.environ.get(v) != threads]
    if differ and "numpy" in sys.modules:
        print(f"warning: numpy was loaded before --threads {threads} could set "
              f"{', '.join(differ)}; the BLAS thread cap may not apply",
              file=sys.stderr)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads

    try:
        return _COMMANDS[args.command](args)
    except (TdsvError, OSError) as exc:
        message = str(exc).strip().replace("\n", " ") or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        if os.environ.get("TDSV_TRACEBACK") == "1":
            traceback.print_exc(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
