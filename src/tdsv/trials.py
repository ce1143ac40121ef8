"""Text formats tying the pipeline together.

Everything is UTF-8, tab-separated, one record per line, no timestamps:

  corpus.tsv      utterance_id  speaker_id  phrase_id  split  wav_path
  enroll.tsv      model_id      utterance_id
  trials .tsv     enroll_model  test_utterance  phrase_id  tgt|non|unk
  scores .tsv     trial line + score formatted "%.6f"
  embeddings.tsv  utterance_id  speaker_id  phrase_id  space-joined "%.8e"

Readers validate structure eagerly (duplicate ids, unknown labels, field
counts) so downstream code can assume clean tables.  Every reader parses
through ``_read_columns``: one split of the whole text into columns, checked
column by column.  So a file with several faults reports the first kind in
this order, and within a kind its first offending line: field count,
unknown label, duplicate key, then a bad number or an embedding of the wrong
size, whichever comes first.  Trial and score files are held as one
``TrialTable`` of columns, with the scores beside it as one float64 array;
the other readers build one object per row only where their return type
holds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import TableNumberError, TrialFormatError
from .fileio import atomic_write_text, read_utf8

LABELS = ("tgt", "non", "unk")


class TrialTable(NamedTuple):
    """A trial list as columns, in file order.  ``len()`` counts trials."""

    enroll_ids: list[str]
    test_ids: list[str]
    phrase_ids: list[str]
    labels: list[str]  # tgt | non | unk

    def __len__(self) -> int:
        return len(self.labels)


def labeled_targets(labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Which trials carry a label (not ``unk``), and which of those are
    targets (``tgt``)."""
    labels = np.array(labels)
    keep = labels != "unk"
    return keep, labels[keep] == "tgt"


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


def _read_columns(path, n: int) -> list[list[str]]:
    """The ``n`` tab-separated columns of a table's nonblank lines.

    One split of the whole text, then one slice per column; the lines are
    only walked one by one to name the first with the wrong field count."""
    text = read_utf8(path, TrialFormatError)
    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        return [[] for _ in range(n)]
    if set(map(str.count, lines, repeat("\t", len(lines)))) != {n - 1}:
        for lineno, line in enumerate(text.splitlines(), start=1):
            got = line.count("\t") + 1
            if line.strip() and got != n:
                raise TrialFormatError(
                    f"{path}:{lineno}: expected {n} fields, got {got}")
    flat = "\t".join(lines).split("\t")
    return [flat[i::n] for i in range(n)]


def _first_repeat(keys) -> int | None:
    """Index of the first key equal to an earlier one, or None."""
    keys = list(keys)
    if len(set(keys)) == len(keys):
        return None
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)


def _check_trial_columns(path, enroll, test, phrase, labels) -> None:
    if not set(labels) <= set(LABELS):
        bad = next(label for label in labels if label not in LABELS)
        raise TrialFormatError(f"unknown trial label '{bad}'")
    # the fields hold no tab, so the tab-joined key is unique iff the triple is
    i = _first_repeat(map("\t".join, zip(enroll, test, phrase)))
    if i is not None:
        key = (enroll[i], test[i], phrase[i])
        raise TrialFormatError(f"duplicate trial {key} in {path}")


def read_trials(path) -> TrialTable:
    table = TrialTable(*_read_columns(path, 4))
    _check_trial_columns(path, *table)
    return table


def write_trials(path, table: TrialTable) -> None:
    atomic_write_text(path, "\n".join(map("\t".join, zip(*table))) + "\n")


def read_scores(path) -> tuple[TrialTable, np.ndarray]:
    """A score file's trials and its scores as float64, parsed like float()."""
    *fields, numbers = _read_columns(path, 5)
    _check_trial_columns(path, *fields)
    try:
        scores = np.array(numbers, dtype=np.float64)
    except ValueError:
        for i, number in enumerate(numbers):
            try:
                float(number)
            except ValueError:
                key = (fields[0][i], fields[1][i], fields[2][i])
                raise TableNumberError(
                    f"{path}: bad score '{number}' for trial {key}") from None
        raise
    return TrialTable(*fields), scores


def write_scores(path, table: TrialTable, scores) -> None:
    text = "".join(f"{e}\t{t}\t{p}\t{label}\t{s:.6f}\n"
                   for (e, t, p, label), s in zip(zip(*table), scores))
    atomic_write_text(path, text or "\n")


def read_corpus(path) -> list[CorpusEntry]:
    columns = _read_columns(path, 5)
    i = _first_repeat(columns[0])
    if i is not None:
        raise TrialFormatError(
            f"duplicate utterance '{columns[0][i]}' in {path}")
    return list(map(CorpusEntry, *columns))


def write_corpus(path, entries: list[CorpusEntry]) -> None:
    lines = [f"{e.utterance_id}\t{e.speaker_id}\t{e.phrase_id}\t{e.split}"
             f"\t{e.wav_path}" for e in entries]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_enroll_map(path) -> dict[str, list[str]]:
    models, utts = _read_columns(path, 2)
    i = _first_repeat(zip(models, utts))
    if i is not None:
        raise TrialFormatError(
            f"duplicate enrollment ({models[i]}, {utts[i]}) in {path}")
    mapping: dict[str, list[str]] = {}
    for model_id, utt_id in zip(models, utts):
        mapping.setdefault(model_id, []).append(utt_id)
    return mapping


def write_enroll_map(path, mapping: dict[str, list[str]]) -> None:
    lines = [f"{model}\t{utt}" for model in sorted(mapping)
             for utt in mapping[model]]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_embeddings(path) -> dict[str, EmbeddingRecord]:
    columns = _read_columns(path, 4)
    i = _first_repeat(columns[0])
    if i is not None:
        raise TrialFormatError(
            f"duplicate embedding for '{columns[0][i]}' in {path}")
    records: dict[str, EmbeddingRecord] = {}
    dim = None
    for utt, speaker, phrase, packed in zip(*columns):
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
