"""Benchmark workloads: seeded inputs, the CLI stages they run, output checks.

Each workload is a closed-loop batch job with one client.  ``setup`` writes
every input the program will see into a fresh directory, as a pure function
of the workload seed; ``stages`` lists the ``tdsv`` command lines of one
iteration; ``check`` validates the outputs of one iteration, with
``reference=True`` also against an implementation that shares no code with
the kernels under test, and returns the digests that later changes compare
against.

Run as a script, this module performs one set-up (the harness times it in a
child process, so imports are part of ``setup_s``):

    python3 tdsvbench/workloads.py setup <workload> <seed> <dir> <scale>
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCALES = ("bench", "tiny")


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    root = Path(root)
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode())
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


@dataclass
class CheckResult:
    problems: list
    digests: dict
    values: dict  # numbers read from the outputs, e.g. eer


def _floats(text: str):
    return [float(v) for v in text.split()]


# --------------------------------------------------------------------------
# train-desk: `tdsv train` on the desk corpus that `tdsv synth` generates.

class TrainDesk:
    """Desk preset at batch 16 on the 80 bg takes of a 10-speaker corpus.

    Every nn forward and backward kernel, Adam and the per-epoch checkpoint
    write run here; backend and metrics do nothing.
    """

    name = "train-desk"
    # the gradient check follows these tensors of the trained model: the stem
    # weight's gradient passes back through every layer, the others cover
    # each kind of parameter gradient (conv, projection, BN, dense)
    GRAD_TENSORS = ("stem.conv.weight", "stem.conv.bias", "block3.bn1.gamma",
                    "block3.bn2.beta", "block3.proj.weight", "block3.proj_bn.gamma",
                    "block8.conv2.weight", "head.weight", "head.bias")
    GRAD_RTOL = 0.02

    def __init__(self, scale: str):
        self.epochs = 1
        if scale == "tiny":
            self.speakers, self.utterances = 6, 8  # 16 bg takes, one step
        else:
            self.speakers, self.utterances = 10, 20  # 80 bg takes
        n_bg = max(2, (4 * self.speakers) // 10)
        self.examples = n_bg * self.utterances

    def setup(self, seed: int, root: Path) -> None:
        from tdsv.synth import SynthSpec, generate_corpus

        # what `tdsv synth --speakers 10 --utterances 20 --seed <seed>` writes
        generate_corpus(SynthSpec(num_speakers=self.speakers,
                                  utterances_per_speaker=self.utterances,
                                  seed=seed), root / "corpus")
        (root / "train.cfg").write_text(
            f"svconfig 1\npreset=desk\nepochs={self.epochs}\nbatch_size=16\n")

    def stages(self, seed: int, root: Path, out: Path):
        yield "train", ["--config", str(root / "train.cfg"), "--seed", str(seed),
                        "--threads", "1", "--output-dir", str(out),
                        "train", "--corpus", str(root / "corpus")]

    def items(self) -> int:
        return self.examples * self.epochs

    def check(self, root: Path, out: Path, reference: bool) -> CheckResult:
        problems = []
        log = out / "training_log.csv"
        if not (out / "model" / "manifest.txt").is_file():
            return CheckResult(["train wrote no model/manifest.txt"], {}, {})
        if not log.is_file():
            return CheckResult(["train wrote no training_log.csv"], {}, {})
        lines = log.read_text().splitlines()
        header = lines[0].split(",") if lines else []
        rows = [ln.split(",") for ln in lines[1:] if ln.strip()]
        values = {}
        if not {"epoch", "loss", "accuracy"} <= set(header):
            problems.append(f"training log header {header} lacks epoch/loss/accuracy")
        elif len(rows) != self.epochs:
            problems.append(f"training log has {len(rows)} rows, expected {self.epochs}")
        else:
            col = {k: header.index(k) for k in ("epoch", "loss", "accuracy")}
            for i, r in enumerate(rows, start=1):
                loss, acc = float(r[col["loss"]]), float(r[col["accuracy"]])
                if int(r[col["epoch"]]) != i or not (math.isfinite(loss)
                                                     and 0.0 <= acc <= 1.0):
                    problems.append(f"bad training log row {r}")
            values["curve"] = [(r[col["loss"]], r[col["accuracy"]]) for r in rows]
        if reference:
            problems += self.gradient_check(root, out / "model")
            problems += adam_check()
        return CheckResult(problems, {"training_log.csv": file_digest(log),
                                      "model": tree_digest(out / "model")}, values)

    def gradient_check(self, root: Path, model: Path) -> list:
        """The program's train-mode loss and parameter gradients on a batch
        of the first take of each bg speaker, at the trained weights, against
        the float64 reference: loss to 1e-4, and for each GRAD_TENSORS entry
        the derivative along the program's gradient, ||g||, against a central
        difference of the reference loss along it (GRAD_RTOL).  A gradient off
        by a relative L2 error e reads about e^2/2 low, or lower still when
        the error has a component along the true gradient.
        """
        import reference as ref
        from tdsv.nn import softmax_cross_entropy
        from tdsv.resnet import load_network
        from tdsv.trials import read_corpus

        fields, tensors = ref.read_checkpoint(model)
        width = int(fields["input_width"])
        firsts = {}
        for e in read_corpus(root / "corpus" / "corpus.tsv"):
            if e.split == "bg":
                firsts.setdefault(e.speaker_id, e)
        batch = [firsts[s] for s in sorted(firsts)]
        x = np.stack([_spectrogram(root / "corpus" / e.wav_path, width)
                      for e in batch])[:, :, :, None].astype(np.float32)
        labels = np.arange(len(batch))  # speakers sorted, as `tdsv train` labels them

        net = load_network(model)
        loss, grad = softmax_cross_entropy(net.forward(x, train=True), labels)
        net.zero_grad()
        net.backward(grad)
        grads = net.named_gradients()
        x64 = x.astype(np.float64)
        problems = []
        want = ref.xent(ref.forward(fields, tensors, x64, train=True)[1], labels)
        if not abs(loss - want) <= 1e-4 * abs(want):
            problems.append(f"train-mode loss {loss} differs from the reference {want}")
        for name in self.GRAD_TENSORS:
            g = grads[name].astype(np.float64)
            norm = float(np.linalg.norm(g))
            along = ref.directional_derivative(fields, tensors, x64, labels, name,
                                               g / norm if norm else g)
            if not abs(along - norm) <= self.GRAD_RTOL * norm:
                problems.append(f"gradient of {name}: |g| = {norm:.6g} but the "
                                f"reference slope along g is {along:.6g}")
        return problems


def adam_check() -> list:
    """Three steps of the program's Adam against the textbook update."""
    from tdsv.nn import Adam

    rng = np.random.default_rng(0)
    p = {"w": rng.normal(size=(4, 3)).astype(np.float32)}
    want = p["w"].astype(np.float64)
    m = v = 0.0
    adam = Adam(p, lr=1e-2)
    for t in range(1, 4):
        g = rng.normal(size=(4, 3)).astype(np.float32)
        adam.step({"w": g})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g.astype(np.float64) ** 2
        want -= 1e-2 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    err = float(np.abs(p["w"] - want).max())
    return [] if err <= 1e-5 else [f"Adam steps differ from the reference by {err:.3g}"]


def _spectrogram(path, width):
    """The network input `tdsv train` and `tdsv embed` compute for a take."""
    from tdsv.features import compute_spectrogram, fit_length, read_wav

    return fit_length(compute_spectrogram(read_wav(path)).bins, width)


# --------------------------------------------------------------------------
# embed-full: `tdsv embed` with the published 11.2M-parameter network.

class EmbedFull:
    """Inference only at batch 1 through the `full` preset (257x800 input).

    The corpus is what `tdsv synth` writes for 6 voices, 1 phrase and 4 takes
    of ~3.4 s, so 800 frames fill without tiling; its corpus.tsv lists only
    the first take of each voice.  The checkpoint is built in setup from
    resnet.Network and save_network; one train-mode forward pass sets its BN
    running statistics.
    """

    name = "embed-full"

    def __init__(self, scale: str):
        # tiny swaps in the desk preset so the self-check stays fast
        self.preset = "desk" if scale == "tiny" else "full"
        self.duration = 1.0 if scale == "tiny" else 3.4
        # one take per voice: ~5.5 s per iteration, so a run takes the
        # median of three
        self.speakers = 6

    def setup(self, seed: int, root: Path) -> None:
        from dataclasses import replace

        from tdsv.resnet import PRESETS, Network, save_network
        from tdsv.synth import SynthSpec, generate_corpus
        from tdsv.trials import write_corpus

        entries = generate_corpus(
            SynthSpec(num_speakers=self.speakers, num_phrases=1,
                      utterances_per_speaker=4, base_duration=self.duration,
                      seed=seed), root / "corpus")
        firsts = [e for e in entries if e.utterance_id.endswith("_u00")]
        write_corpus(root / "corpus" / "corpus.tsv", firsts)
        cfg = replace(PRESETS[self.preset], num_speakers=97)
        net = Network(cfg, seed=seed)
        x = _spectrogram(root / "corpus" / firsts[0].wav_path, cfg.input_width)
        net.forward(x[None, :, :, None].astype(np.float32), train=True)
        save_network(net, root / "model")

    def stages(self, seed: int, root: Path, out: Path):
        yield "embed", ["--threads", "1", "--output-dir", str(out), "embed",
                        "--corpus", str(root / "corpus"),
                        "--model", str(root / "model")]

    def items(self) -> int:
        return self.speakers

    def check(self, root: Path, out: Path, reference: bool) -> CheckResult:
        dim = 512 if self.preset == "full" else 128
        path = out / "embeddings.tsv"
        if not path.is_file():
            return CheckResult(["embed wrote no embeddings.tsv"], {}, {})
        expected = sorted(ln.split("\t")[0] for ln in
                          (root / "corpus" / "corpus.tsv").read_text().splitlines()
                          if ln.strip())
        problems = []
        got = {}
        for ln in path.read_text().splitlines():
            fields = ln.split("\t")
            vec = np.array(_floats(fields[3])) if len(fields) == 4 else None
            got[fields[0]] = vec
            if vec is None or vec.size != dim or not np.all(np.isfinite(vec)):
                problems.append(f"embedding for {fields[0]} is not {dim} finite values")
        if list(got) != expected:
            problems.append(f"embedded {len(got)} utterances, corpus has {len(expected)}")
        elif reference and not problems:
            problems += self.reference_check(root, expected[0], got[expected[0]])
        return CheckResult(problems, {"embeddings.tsv": file_digest(path)}, {})

    @staticmethod
    def wav(root: Path, utt: str) -> Path:
        from tdsv.trials import read_corpus

        entry = next(e for e in read_corpus(root / "corpus" / "corpus.tsv")
                     if e.utterance_id == utt)
        return root / "corpus" / entry.wav_path

    def reference_check(self, root: Path, utt: str, vec) -> list:
        """Recompute one embedding with the float64 reference network from
        the checkpoint; agree to a relative L2 error of 1e-4 (a float32
        forward pass lands near 1e-6)."""
        import reference as ref

        fields, tensors = ref.read_checkpoint(root / "model")
        x = _spectrogram(self.wav(root, utt), int(fields["input_width"]))[None, :, :, None]
        want = ref.forward(fields, tensors, x)[0][0]
        err = float(np.linalg.norm(vec - want) / np.linalg.norm(want))
        return [] if err <= 1e-4 else [
            f"embedding of {utt} is {err:.3g} (relative L2) off the reference"]


# --------------------------------------------------------------------------
# score-snorm: `tdsv score` then `tdsv eval` on a generated embedding table.

@dataclass(frozen=True)
class TableShape:
    dim: int
    phrases: int
    bg_speakers: int
    bg_takes: int          # per speaker and phrase
    eval_speakers: int     # one model per speaker and phrase
    enroll_takes: int
    test_takes: int
    eer_band: tuple

    @property
    def trials(self) -> int:
        per_phrase = self.eval_speakers * self.eval_speakers * self.test_takes
        return self.phrases * per_phrase


class ScoreSnorm:
    """WCCN + cosine + s-norm scoring of ~70k within-phrase trials against a
    2000-utterance bg cohort, then EER/minDCF/DET evaluation.

    Per phrase, every model is tried against every test take, so each of the
    108 models and 324 test takes needs its cohort statistics once: this fixed
    models x tests shape sets how much the stats cache saves.
    """

    name = "score-snorm"
    # Generator: a take is phrase + speaker + speaker-phrase offsets plus a
    # strong within-class nuisance subspace (which WCCN suppresses) and
    # isotropic noise.  Scales give an EER of a few percent.
    SPEAKER, PHRASE, PAIR, NUISANCE, NOISE, RANK = 1.0, 1.0, 0.5, 1.2, 0.55, 12
    # per phrase, the output check rescores every pairing of this many
    # sampled models and test takes: few cohort statistics, many trials
    SAMPLE_MODELS, SAMPLE_TESTS = 6, 20

    def __init__(self, scale: str):
        if scale == "tiny":
            self.shape = TableShape(128, 2, 10, 4, 8, 3, 3, (0.0, 0.5))
        else:
            self.shape = TableShape(128, 2, 100, 10, 108, 3, 3, (0.01, 0.08))

    def _table(self, seed: int):
        """(utt, speaker, phrase, split, vector) rows in file order."""
        s = self.shape
        rng = np.random.default_rng([seed, 20170529])
        phrase_vec = rng.normal(size=(s.phrases, s.dim))
        basis = rng.normal(size=(s.dim, self.RANK)) / math.sqrt(self.RANK)
        rows = []
        groups = (("bg", "b", s.bg_speakers, s.bg_takes),
                  ("eval", "e", s.eval_speakers, s.enroll_takes + s.test_takes))
        for split, prefix, n_spk, takes in groups:
            for i in range(n_spk):
                spk = f"{prefix}{i:03d}"
                spk_vec = rng.normal(size=s.dim)
                for p in range(s.phrases):
                    mean = (self.SPEAKER * spk_vec + self.PHRASE * phrase_vec[p]
                            + self.PAIR * rng.normal(size=s.dim))
                    nuis = rng.normal(size=(takes, self.RANK)) @ basis.T
                    noise = rng.normal(size=(takes, s.dim))
                    vecs = mean + self.NUISANCE * nuis + self.NOISE * noise
                    for k in range(takes):
                        rows.append((f"{spk}_p{p}_t{k:02d}", spk, f"p{p}", split,
                                     vecs[k]))
        return rows

    def setup(self, seed: int, root: Path) -> None:
        s = self.shape
        rows = self._table(seed)
        root.mkdir(parents=True, exist_ok=True)
        with open(root / "embeddings.tsv", "w") as fh:
            for utt, spk, phr, _, vec in rows:
                fh.write(f"{utt}\t{spk}\t{phr}\t"
                         + " ".join(f"{float(v):.8e}" for v in vec) + "\n")
        with open(root / "corpus.tsv", "w") as fh:
            for utt, spk, phr, split, _ in rows:
                fh.write(f"{utt}\t{spk}\t{phr}\t{split}\t-\n")
        enroll, tests = [], {}
        for utt, spk, phr, split, _ in rows:
            if split != "eval":
                continue
            take = int(utt.rsplit("_t", 1)[1])
            if take < s.enroll_takes:
                enroll.append((f"{spk}-{phr}", utt))
            else:
                tests.setdefault(phr, []).append((spk, utt))
        with open(root / "enroll.tsv", "w") as fh:
            for model, utt in enroll:
                fh.write(f"{model}\t{utt}\n")
        models = sorted({m for m, _ in enroll})
        with open(root / "trials.tsv", "w") as fh:
            for model in models:
                spk, phr = model.split("-")
                for test_spk, utt in tests[phr]:
                    label = "tgt" if test_spk == spk else "non"
                    fh.write(f"{model}\t{utt}\t{phr}\t{label}\n")
        (root / "score.cfg").write_text("svconfig 1\nsnorm=true\ncohort_size=0\n")

    def stages(self, seed: int, root: Path, out: Path):
        yield "score", ["--config", str(root / "score.cfg"), "--threads", "1",
                        "--output-dir", str(out), "score",
                        "--corpus", str(root),
                        "--embeddings", str(root / "embeddings.tsv"),
                        "--trials", str(root / "trials.tsv")]
        yield "eval", ["--threads", "1", "--output-dir", str(out), "eval",
                       "--scores", str(out / "scores.tsv")]

    def items(self) -> int:
        return self.shape.trials

    def check(self, root: Path, out: Path, reference: bool) -> CheckResult:
        # the rescoring sample is cheap, so it runs on every iteration
        problems = []
        scores_path = out / "scores.tsv"
        summary_path = out / "summary.txt"
        if not scores_path.is_file() or not summary_path.is_file():
            return CheckResult(["score/eval wrote no scores.tsv or summary.txt"],
                               {}, {})
        trials = [ln.split("\t") for ln in
                  (root / "trials.tsv").read_text().splitlines() if ln.strip()]
        scored = [ln.split("\t") for ln in
                  scores_path.read_text().splitlines() if ln.strip()]
        written = {}
        if [r[:4] for r in scored] != trials:
            problems.append(f"scores.tsv has {len(scored)} rows that do not "
                            f"match the {len(trials)} trials")
        else:
            written = {(r[0], r[1]): float(r[4]) for r in scored}
            if not all(math.isfinite(v) for v in written.values()):
                problems.append("non-finite score in scores.tsv")
        summary = dict(ln.split("=", 1) for ln in
                       summary_path.read_text().splitlines() if "=" in ln)
        eer = float(summary.get("eer", "nan"))
        lo, hi = self.shape.eer_band
        if not lo <= eer <= hi:
            problems.append(f"eer={eer} outside the generator's band [{lo}, {hi}]")
        if written:
            problems += self._rescore_sample(root, trials, written)
        return CheckResult(problems, {"scores.tsv": file_digest(scores_path),
                                      "summary.txt": file_digest(summary_path)},
                           {"eer": eer})

    def _rescore_sample(self, root, trials, written):
        """Rescore a seeded sample of trials through the scalar reference
        path (fit_wccn, cosine_score, apply_snorm) and compare at the %.6f
        precision scores.tsv is written with."""
        from tdsv.backend import apply_snorm, cosine_score, fit_wccn

        table = {}
        for ln in (root / "embeddings.tsv").read_text().splitlines():
            utt, spk, phr, packed = ln.split("\t")
            table[utt] = (spk, phr, np.array(_floats(packed)))
        split = {ln.split("\t")[0]: ln.split("\t")[3] for ln in
                 (root / "corpus.tsv").read_text().splitlines() if ln.strip()}
        enroll = {}
        for ln in (root / "enroll.tsv").read_text().splitlines():
            model, utt = ln.split("\t")
            enroll.setdefault(model, []).append(utt)

        rng = np.random.default_rng(len(trials))
        problems = []
        for phr in sorted({t[2] for t in trials}):
            bg = sorted(u for u, (_, p, _) in table.items()
                        if p == phr and split[u] == "bg")
            by_spk = {}
            for u in bg:
                by_spk.setdefault(table[u][0], []).append(table[u][2])
            wccn = fit_wccn({k: np.stack(v) for k, v in by_spk.items()}, phr)
            cohort = [table[u][2] for u in bg]

            def stats(vec):
                s = np.array([cosine_score(vec, row, wccn) for row in cohort])
                return float(s.mean()), float(s.std())

            in_phrase = [t for t in trials if t[2] == phr]
            models = sorted({t[0] for t in in_phrase})
            tests = sorted({t[1] for t in in_phrase})
            pick_m = [models[i] for i in rng.choice(
                len(models), min(self.SAMPLE_MODELS, len(models)), replace=False)]
            pick_t = [tests[i] for i in rng.choice(
                len(tests), min(self.SAMPLE_TESTS, len(tests)), replace=False)]
            model_vec = {}
            for m in pick_m:
                normed = [table[u][2] / np.linalg.norm(table[u][2]) for u in enroll[m]]
                model_vec[m] = np.stack(normed).mean(axis=0)
            m_stats = {m: stats(v) for m, v in model_vec.items()}
            t_stats = {t: stats(table[t][2]) for t in pick_t}
            for m in pick_m:
                for t in pick_t:
                    raw = cosine_score(model_vec[m], table[t][2], wccn)
                    ref = apply_snorm(raw, m_stats[m], t_stats[t])
                    if abs(ref - written[(m, t)]) > 5e-7 + 1e-12 * abs(ref):
                        problems.append(f"trial {m} {t}: scores.tsv has "
                                        f"{written[(m, t)]}, reference {ref:.9f}")
        return problems[:5] + ([f"... {len(problems) - 5} more mismatches"]
                               if len(problems) > 5 else [])


WORKLOADS = {cls.name: cls for cls in (TrainDesk, EmbedFull, ScoreSnorm)}


def main(argv) -> int:
    if len(argv) != 5 or argv[0] != "setup" or argv[1] not in WORKLOADS \
            or argv[4] not in SCALES:
        print(__doc__, file=sys.stderr)
        return 2
    _, name, seed, dest, scale = argv
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=False)
    WORKLOADS[name](scale).setup(int(seed), dest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
