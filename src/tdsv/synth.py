"""Deterministic synthetic speech corpus for desk-scale pipeline runs.

Each speaker is a harmonic voice: a fundamental frequency log-spaced across
speakers plus three formant resonances drawn from wide ranges.  Each phrase
is a fixed sequence of segments that rescale the formant centers and split
the utterance duration, giving every (speaker, phrase) pair a distinct
spectro-temporal energy pattern that a small CNN can learn in minutes.
The harmonic sum is factored over blocks of BLOCK samples: writing sample n
as b*BLOCK + o turns each segment into two small products of per-block and
per-offset sin/cos tables, so sin and cos are taken on [blocks + BLOCK,
harmonics] entries instead of [samples, harmonics].

The generator writes a self-contained directory:

  wav/<speaker>/<utterance>.wav   mono PCM16 at features.SAMPLE_RATE (16 kHz),
                                  from synthesize_utterance's sample array
  corpus.tsv                      utterance table with bg/dev/eval splits
  enroll.tsv                      per (speaker, phrase) enrollment models
  trials_dev.tsv, trials_eval.tsv within-phrase target/nontarget trials

Speakers split three ways: background (classifier training, WCCN, cohorts),
development (fusion/calibration), evaluation (final metrics).  Everything is
a pure function of the SynthSpec, so equal specs give byte-identical trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .features import SAMPLE_RATE, WINDOW_LEN, write_wav
from .trials import (CorpusEntry, TrialTable, write_corpus, write_enroll_map,
                     write_trials)

F0_RANGE = (95.0, 270.0)
FORMANT_RANGES = ((300.0, 900.0), (1000.0, 2400.0), (2600.0, 3400.0))
ENROLL_PER_MODEL = 3
STRETCH = (0.95, 1.1)  # range of a take's duration over base_duration
BLOCK = 128  # samples per block of the factored harmonic sum


@dataclass(frozen=True)
class SynthSpec:
    num_speakers: int = 10
    num_phrases: int = 2
    utterances_per_speaker: int = 20  # total, split across phrases
    base_duration: float = 1.0
    noise_level: float = 0.03
    seed: int = 7

    def __post_init__(self):
        if self.num_speakers < 6:
            raise ConfigError("need at least 6 speakers for bg/dev/eval splits")
        if self.num_phrases < 1:
            raise ConfigError("need at least one phrase")
        per_phrase = self.utterances_per_speaker // self.num_phrases
        if per_phrase < ENROLL_PER_MODEL + 1:
            raise ConfigError(
                f"{self.utterances_per_speaker} utterances over "
                f"{self.num_phrases} phrases leaves fewer than "
                f"{ENROLL_PER_MODEL + 1} per phrase")
        if not 0.0 <= self.noise_level < 1.0:
            raise ConfigError("noise_level must lie in [0, 1)")
        if not (math.isfinite(self.base_duration) and round(
                self.base_duration * STRETCH[0] * SAMPLE_RATE) >= WINDOW_LEN):
            raise ConfigError(
                f"base_duration {self.base_duration} s must be finite and "
                f"give its shortest take ({STRETCH[0]}x) at least "
                f"{WINDOW_LEN} samples")


@dataclass(frozen=True)
class Voice:
    f0: float
    formants: tuple[float, ...]
    bandwidths: tuple[float, ...]
    amplitudes: tuple[float, ...]


@dataclass(frozen=True)
class PhraseTemplate:
    duration_weights: tuple[float, ...]
    formant_scales: tuple[tuple[float, ...], ...]  # per segment, per formant


def make_voice(spec: SynthSpec, index: int) -> Voice:
    rng = np.random.default_rng([spec.seed, 1, index])
    lo, hi = F0_RANGE
    base = lo * (hi / lo) ** (index / (spec.num_speakers - 1))
    f0 = base * rng.uniform(0.98, 1.02)
    formants = tuple(rng.uniform(a, b) for a, b in FORMANT_RANGES)
    bandwidths = tuple(rng.uniform(80.0, 200.0) for _ in FORMANT_RANGES)
    amplitudes = tuple(rng.uniform(0.5, 1.0) for _ in FORMANT_RANGES)
    return Voice(f0, formants, bandwidths, amplitudes)


def make_phrase(spec: SynthSpec, index: int) -> PhraseTemplate:
    rng = np.random.default_rng([spec.seed, 2, index])
    num_segments = 4
    weights = tuple(rng.uniform(0.6, 1.4) for _ in range(num_segments))
    scales = tuple(
        tuple(rng.uniform(0.7, 1.4) for _ in FORMANT_RANGES)
        for _ in range(num_segments))
    return PhraseTemplate(weights, scales)


def synthesize_utterance(voice: Voice, phrase: PhraseTemplate,
                         spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Additive harmonic synthesis with per-segment formant envelopes."""
    duration = spec.base_duration * rng.uniform(*STRETCH)
    total = int(round(duration * SAMPLE_RATE))
    f0 = voice.f0 * rng.uniform(0.97, 1.03)
    formant_jitter = rng.uniform(0.98, 1.02, size=len(voice.formants))

    num_harmonics = int((SAMPLE_RATE / 2 - 200.0) // f0)
    freqs = f0 * np.arange(1, num_harmonics + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, num_harmonics)

    # per-segment harmonic gains from Gaussian formant resonances
    gains = np.empty((len(phrase.duration_weights), num_harmonics))
    for si, scales in enumerate(phrase.formant_scales):
        g = np.full(num_harmonics, 0.01)
        for (center, bw, amp, scale, jit) in zip(
                voice.formants, voice.bandwidths, voice.amplitudes,
                scales, formant_jitter):
            g += amp * np.exp(-0.5 * ((freqs - center * scale * jit) / bw) ** 2)
        gains[si] = g

    weights = np.asarray(phrase.duration_weights)
    ends = np.floor(np.cumsum(weights) / weights.sum() * total).astype(int)
    ends[-1] = total

    # sample n = b*BLOCK + o: sin(w n + phi) = sin(w bB + phi) cos(w o)
    # + cos(w bB + phi) sin(w o), so a segment is two [blocks, K] @ [K, BLOCK]
    omega = 2.0 * np.pi * freqs / SAMPLE_RATE
    heads = omega * (BLOCK * np.arange(-(-total // BLOCK)))[:, None] + phases
    sin_head, cos_head = np.sin(heads), np.cos(heads)
    offsets = omega * np.arange(BLOCK)[:, None]
    cos_off, sin_off = np.cos(offsets).T, np.sin(offsets).T
    wave = np.empty(total)
    start = 0
    for g, end in zip(gains, ends):
        b0, b1 = start // BLOCK, -(-end // BLOCK)
        blocks = (sin_head[b0:b1] * g) @ cos_off + (cos_head[b0:b1] * g) @ sin_off
        wave[start:end] = blocks.ravel()[start - b0 * BLOCK:end - b0 * BLOCK]
        start = end
    peak = np.abs(wave).max()
    if peak > 0:
        wave = 0.7 * wave / peak
    return wave + rng.normal(0.0, spec.noise_level, total)


def split_speakers(spec: SynthSpec) -> dict[str, str]:
    """Deterministic bg/dev/eval assignment by speaker index."""
    n = spec.num_speakers
    n_bg = max(2, (4 * n) // 10)
    n_dev = max(2, (3 * n) // 10)
    if n - n_bg - n_dev < 2:
        raise ConfigError(f"{n} speakers leave fewer than 2 for evaluation")
    assignment = {}
    for i in range(n):
        split = "bg" if i < n_bg else "dev" if i < n_bg + n_dev else "eval"
        assignment[speaker_id(i)] = split
    return assignment


def speaker_id(i: int) -> str:
    return f"spk{i:02d}"


def phrase_id(j: int) -> str:
    return f"p{j}"


def _utterance_plan(spec: SynthSpec) -> list[tuple[int, int, int]]:
    """(speaker index, phrase index, take index) for every utterance."""
    per_phrase = [spec.utterances_per_speaker // spec.num_phrases] * spec.num_phrases
    for j in range(spec.utterances_per_speaker % spec.num_phrases):
        per_phrase[j] += 1
    return [(i, j, k)
            for i in range(spec.num_speakers)
            for j in range(spec.num_phrases)
            for k in range(per_phrase[j])]


def generate_corpus(spec: SynthSpec, out_dir) -> list[CorpusEntry]:
    """Write the corpus tree and return its utterance table."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    voices = [make_voice(spec, i) for i in range(spec.num_speakers)]
    phrases = [make_phrase(spec, j) for j in range(spec.num_phrases)]
    splits = split_speakers(spec)

    entries: list[CorpusEntry] = []
    for i, j, k in _utterance_plan(spec):
        spk = speaker_id(i)
        phr = phrase_id(j)
        utt = f"{spk}_{phr}_u{k:02d}"
        rel = f"wav/{spk}/{utt}.wav"
        rng = np.random.default_rng([spec.seed, 3, i, j, k])
        wave = synthesize_utterance(voices[i], phrases[j], spec, rng)
        (root / "wav" / spk).mkdir(parents=True, exist_ok=True)
        write_wav(root / rel, wave)
        entries.append(CorpusEntry(utt, spk, phr, splits[spk], rel))
    write_corpus(root / "corpus.tsv", entries)

    enroll, trial_files = build_protocol(entries)
    write_enroll_map(root / "enroll.tsv", enroll)
    for split, table in trial_files.items():
        write_trials(root / f"trials_{split}.tsv", table)
    return entries


def build_protocol(entries: list[CorpusEntry]
                   ) -> tuple[dict[str, list[str]], dict[str, TrialTable]]:
    """Enrollment models and within-phrase trial lists for dev and eval.

    For each non-background (speaker, phrase) pair the first
    ENROLL_PER_MODEL takes enroll a model; the remaining takes are test
    utterances.  Every model is tried against every same-split, same-phrase
    test utterance.
    """
    by_model: dict[str, list[str]] = {}
    first: dict[str, CorpusEntry] = {}  # each model's first take
    tests: dict[str, list[CorpusEntry]] = {"dev": [], "eval": []}
    for e in entries:
        if e.split == "bg":
            continue
        model = f"{e.speaker_id}-{e.phrase_id}"
        takes = by_model.setdefault(model, [])
        first.setdefault(model, e)
        if len(takes) < ENROLL_PER_MODEL:
            takes.append(e.utterance_id)
        else:
            tests[e.split].append(e)

    trial_files: dict[str, TrialTable] = {}
    for split in ("dev", "eval"):
        pairs = [(model, e) for model, m in sorted(first.items())
                 if m.split == split
                 for e in tests[split] if e.phrase_id == m.phrase_id]
        trial_files[split] = TrialTable(
            [model for model, _ in pairs], [e.utterance_id for _, e in pairs],
            [e.phrase_id for _, e in pairs],
            ["tgt" if e.speaker_id == first[model].speaker_id else "non"
             for model, e in pairs])
    return by_model, trial_files
