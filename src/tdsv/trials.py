"""Text formats tying the pipeline together.

Everything is UTF-8, tab-separated, one record per line, no timestamps:

  corpus.tsv      utterance_id  speaker_id  phrase_id  split  wav_path
  enroll.tsv      model_id      utterance_id
  trials .tsv     enroll_model  test_utterance  phrase_id  tgt|non|unk
  scores .tsv     trial line + score formatted "%.6f"
  embeddings.tsv  utterance_id  speaker_id  phrase_id  space-joined "%.8e"

Readers validate structure eagerly (duplicate ids, unknown labels, field
counts) so downstream code can assume clean tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import TableNumberError, TrialFormatError
from .fileio import atomic_write_text, read_utf8

LABELS = ("tgt", "non", "unk")


class _TrialFields(NamedTuple):
    enroll_id: str
    test_id: str
    phrase_id: str
    label: str  # tgt | non | unk


class Trial(_TrialFields):
    """One trial line: an immutable, hashable 4-tuple whose label is checked
    on construction."""

    __slots__ = ()

    def __new__(cls, enroll_id: str, test_id: str, phrase_id: str, label: str):
        if label not in LABELS:
            raise TrialFormatError(f"unknown trial label '{label}'")
        # tuple.__new__ directly: the generated NamedTuple __new__ would add
        # a second Python-level call to every row a reader builds
        return tuple.__new__(cls, (enroll_id, test_id, phrase_id, label))

    @property
    def key(self) -> tuple[str, str, str]:
        return self[:3]


@dataclass(frozen=True)
class CorpusEntry:
    utterance_id: str
    speaker_id: str
    phrase_id: str
    split: str  # bg | dev | eval
    wav_path: str


@dataclass(frozen=True)
class EmbeddingRecord:
    utterance_id: str
    speaker_id: str
    phrase_id: str
    vector: np.ndarray


def _read_rows(path, expected_fields: int) -> Iterator[list[str]]:
    """Yield the tab-separated fields of each nonblank line, one line at a
    time, so a reader holds no table of rows besides what it builds."""
    text = read_utf8(path, TrialFormatError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != expected_fields:
            raise TrialFormatError(
                f"{path}:{lineno}: expected {expected_fields} fields, "
                f"got {len(fields)}")
        yield fields


def read_trials(path) -> list[Trial]:
    trials = []
    seen = set()
    for fields in _read_rows(path, 4):
        trial = Trial(*fields)
        key = trial[:3]
        if key in seen:
            raise TrialFormatError(f"duplicate trial {key} in {path}")
        seen.add(key)
        trials.append(trial)
    return trials


def write_trials(path, trials: list[Trial]) -> None:
    lines = [f"{t.enroll_id}\t{t.test_id}\t{t.phrase_id}\t{t.label}"
             for t in trials]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_scores(path) -> list[tuple[Trial, float]]:
    out = []
    seen = set()
    for fields in _read_rows(path, 5):
        trial = Trial(*fields[:4])
        key = trial[:3]
        if key in seen:
            raise TrialFormatError(f"duplicate trial {key} in {path}")
        seen.add(key)
        try:
            out.append((trial, float(fields[4])))
        except ValueError:
            raise TableNumberError(
                f"{path}: bad score '{fields[4]}' for trial {key}") from None
    return out


def write_scores(path, scored: list[tuple[Trial, float]]) -> None:
    lines = [f"{t.enroll_id}\t{t.test_id}\t{t.phrase_id}\t{t.label}\t{s:.6f}"
             for t, s in scored]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_corpus(path) -> list[CorpusEntry]:
    entries = []
    seen = set()
    for fields in _read_rows(path, 5):
        entry = CorpusEntry(*fields)
        if entry.utterance_id in seen:
            raise TrialFormatError(
                f"duplicate utterance '{entry.utterance_id}' in {path}")
        seen.add(entry.utterance_id)
        entries.append(entry)
    return entries


def write_corpus(path, entries: list[CorpusEntry]) -> None:
    lines = [f"{e.utterance_id}\t{e.speaker_id}\t{e.phrase_id}\t{e.split}"
             f"\t{e.wav_path}" for e in entries]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_enroll_map(path) -> dict[str, list[str]]:
    mapping: dict[str, list[str]] = {}
    for model_id, utt_id in _read_rows(path, 2):
        utts = mapping.setdefault(model_id, [])
        if utt_id in utts:
            raise TrialFormatError(
                f"duplicate enrollment ({model_id}, {utt_id}) in {path}")
        utts.append(utt_id)
    return mapping


def write_enroll_map(path, mapping: dict[str, list[str]]) -> None:
    lines = [f"{model}\t{utt}" for model in sorted(mapping)
             for utt in mapping[model]]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_embeddings(path) -> dict[str, EmbeddingRecord]:
    records: dict[str, EmbeddingRecord] = {}
    dim = None
    for fields in _read_rows(path, 4):
        utt, speaker, phrase, packed = fields
        if utt in records:
            raise TrialFormatError(f"duplicate embedding for '{utt}' in {path}")
        try:
            vector = np.array(packed.split(), dtype=np.float64)
        except ValueError as exc:
            raise TableNumberError(
                f"{path}: embedding for '{utt}' has a bad value ({exc})") from None
        if dim is None:
            dim = vector.size
        elif vector.size != dim:
            raise TrialFormatError(
                f"embedding for '{utt}' has {vector.size} values, "
                f"others have {dim}")
        records[utt] = EmbeddingRecord(utt, speaker, phrase, vector)
    return records


def write_embeddings(path, records: list[EmbeddingRecord]) -> None:
    lines = []
    for r in records:
        packed = " ".join(f"{float(v):.8e}" for v in r.vector)
        lines.append(f"{r.utterance_id}\t{r.speaker_id}\t{r.phrase_id}\t{packed}")
    atomic_write_text(path, "\n".join(lines) + "\n")
