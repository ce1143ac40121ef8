"""Tab-separated table IO: trials, scores, corpus, enrollment, embeddings."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (read_corpus_by_row, read_embeddings_by_row,
                     read_enroll_map_by_row, read_scores_by_row,
                     read_trials_by_row, trial_table)
from tdsv.errors import TableNumberError, TrialFormatError
from tdsv.trials import (LABELS, CorpusEntry, EmbeddingRecord, TrialTable,
                         labeled_targets, read_corpus, read_embeddings,
                         read_enroll_map, read_scores, read_trials,
                         write_corpus, write_embeddings, write_enroll_map,
                         write_scores, write_trials)

ROWS = [("s0-p0", "u1", "p0", "tgt"),
        ("s0-p0", "u2", "p0", "non"),
        ("s1-p0", "u3", "p0", "unk")]
TRIALS = trial_table(ROWS)


class TestTrials:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trials.tsv"
        write_trials(path, TRIALS)
        assert read_trials(path) == TRIALS

    def test_len_counts_trials(self):
        assert len(TRIALS) == 3
        assert len(trial_table([])) == 0 and not trial_table([])

    def test_labeled_targets(self):
        keep, is_target = labeled_targets(TRIALS.labels)
        assert keep.tolist() == [True, True, False]
        assert is_target.tolist() == [True, False]

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("m\tu\tp\ttgt\nm\tu\tp\tnon\n")
        with pytest.raises(TrialFormatError, match="duplicate"):
            read_trials(path)

    def test_wrong_field_count_points_at_line(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("m\tu\tp\ttgt\nm\tu\tp\n")
        with pytest.raises(TrialFormatError, match=":2"):
            read_trials(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("\nm\tu\tp\ttgt\n\n")
        assert len(read_trials(path)) == 1

    def test_binary_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "trials.bin"
        path.write_bytes(b"m\tu\tp\ttgt\n\xff\xd8\xff\xe0")
        with pytest.raises(TrialFormatError,
                           match="trials.bin: not UTF-8 text .* at byte 10"):
            read_trials(path)


# one good row per reader; a bad row after three of them must still be
# reported with its file and line number
GOOD_ROWS = [(read_trials, "m\tu{}\tp\ttgt"),
             (read_scores, "m\tu{}\tp\tnon\t0.5"),
             (read_corpus, "u{}\ts0\tp0\tbg\ta.wav"),
             (read_enroll_map, "m\tu{}"),
             (read_embeddings, "u{}\ts0\tp0\t1.0 2.0")]


@pytest.mark.parametrize("reader, row", GOOD_ROWS,
                         ids=[r.__name__ for r, _ in GOOD_ROWS])
def test_bad_row_after_good_ones_names_its_line(tmp_path, reader, row):
    path = tmp_path / "table.tsv"
    path.write_text("\n".join(row.format(i) for i in range(3))
                    + "\n\nx\ty\tz\n")
    with pytest.raises(TrialFormatError,
                       match=re.escape(f"{path}:5: expected") + r" \d fields, got 3"):
        reader(path)


class TestScores:
    def test_round_trip_with_fixed_precision(self, tmp_path):
        path = tmp_path / "scores.tsv"
        write_scores(path, trial_table(ROWS[:2]), [0.123456789, -1.5])
        table, scores = read_scores_by_row(path)
        assert table == trial_table(ROWS[:2])
        assert scores[0] == pytest.approx(0.123457, abs=1e-9)
        assert scores[1] == -1.5
        assert path.read_text().splitlines()[1].endswith("\t-1.500000")

    def test_unparsable_score(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("m\tu\tp\ttgt\tnotanumber\n")
        with pytest.raises(ValueError):
            read_scores(path)


class TestCorpus:
    def test_round_trip(self, tmp_path):
        entries = [CorpusEntry("u0", "s0", "p0", "bg", "wav/u0.wav"),
                   CorpusEntry("u1", "s1", "p1", "eval", "wav/u1.wav")]
        path = tmp_path / "corpus.tsv"
        write_corpus(path, entries)
        assert read_corpus(path) == entries

    def test_duplicate_utterance_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("u0\ts0\tp0\tbg\ta.wav\nu0\ts1\tp0\tdev\tb.wav\n")
        with pytest.raises(TrialFormatError, match="duplicate"):
            read_corpus(path)


class TestEnrollMap:
    def test_round_trip_sorted(self, tmp_path):
        path = tmp_path / "enroll.tsv"
        write_enroll_map(path, {"b": ["u3"], "a": ["u1", "u2"]})
        assert path.read_text() == "a\tu1\na\tu2\nb\tu3\n"
        assert read_enroll_map(path) == {"a": ["u1", "u2"], "b": ["u3"]}

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "enroll.tsv"
        path.write_text("a\tu1\na\tu1\n")
        with pytest.raises(TrialFormatError, match="duplicate"):
            read_enroll_map(path)


class TestEmbeddings:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [EmbeddingRecord(f"u{i}", f"s{i % 2}", "p0",
                                   rng.normal(size=6)) for i in range(4)]
        path = tmp_path / "embeddings.tsv"
        write_embeddings(path, records)
        back = read_embeddings(path)
        assert sorted(back) == [r.utterance_id for r in records]
        for r in records:
            got = back[r.utterance_id]
            assert got.speaker_id == r.speaker_id
            assert np.allclose(got.vector, r.vector, atol=1e-7)

    def test_writes_scientific_notation(self, tmp_path):
        path = tmp_path / "embeddings.tsv"
        write_embeddings(path, [EmbeddingRecord("u0", "s0", "p0",
                                                np.array([1.0, -0.5]))])
        packed = path.read_text().split("\t")[3].strip()
        assert packed == "1.00000000e+00 -5.00000000e-01"

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "embeddings.tsv"
        path.write_text("u0\ts0\tp0\t1.0 2.0\nu1\ts0\tp0\t1.0\n")
        with pytest.raises(TrialFormatError, match="values"):
            read_embeddings(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "embeddings.tsv"
        path.write_text("u0\ts0\tp0\t1.0\nu0\ts0\tp0\t2.0\n")
        with pytest.raises(TrialFormatError, match="duplicate"):
            read_embeddings(path)


# how a component may be written: the writer's "%.8e", a repr, a "%.6f"
_FORMATS = (lambda v: f"{v:.8e}", repr, lambda v: f"{v:.6f}")
_ODD_TOKENS = ("1_000", "nan", "-nan", "inf", "-inf", "1e5000", "-0.0",
               "Infinity", "1e-400")


class TestNumberParsing:
    @given(st.lists(st.one_of(
        st.tuples(st.floats(width=64), st.sampled_from(range(len(_FORMATS)))),
        st.sampled_from(_ODD_TOKENS)), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_embedding_components_parse_like_float(self, parts):
        tokens = [p if isinstance(p, str) else _FORMATS[p[1]](p[0])
                  for p in parts]
        want = np.array([float(t) for t in tokens])  # per-component oracle
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "embeddings.tsv"
            path.write_text(f"u0\ts0\tp0\t{' '.join(tokens)}\n")
            got = read_embeddings(path)["u0"].vector
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_bad_embedding_component_names_file_and_value(self, tmp_path):
        path = tmp_path / "embeddings.tsv"
        path.write_text("u0\ts0\tp0\t1.0 2.0\nu1\ts0\tp0\t1.0 abc\n")
        with pytest.raises(TableNumberError) as exc:
            read_embeddings(path)
        assert isinstance(exc.value, TrialFormatError)
        assert isinstance(exc.value, ValueError)
        assert str(path) in str(exc.value) and "'abc'" in str(exc.value)
        assert "'u1'" in str(exc.value)

    def test_bad_score_names_file_and_value(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("m\tu\tp\ttgt\t0.5\nm\tv\tp\tnon\t1,5\n")
        with pytest.raises(TableNumberError) as exc:
            read_scores(path)
        assert isinstance(exc.value, TrialFormatError)
        assert isinstance(exc.value, ValueError)
        assert str(path) in str(exc.value) and "'1,5'" in str(exc.value)


# Column readers against the row-by-row oracles in helpers: the same result
# on every well-formed table and the same error on every single-fault one.

def _ids(alphabet):
    # few letters and short ids, so keys that share a concatenation, such as
    # ("a", "aé") and ("aa", "é"), turn up often
    return st.text(alphabet=alphabet, min_size=1, max_size=2)


_NUMBER = st.one_of(
    st.tuples(st.floats(width=64), st.sampled_from(_FORMATS)).map(
        lambda p: p[1](p[0])),
    st.sampled_from(_ODD_TOKENS))


def _table_rows(kind, ident, min_size=0):
    """Rows of fields with unique keys; ``ident`` draws one id field."""
    size = dict(min_size=min_size, max_size=12)
    if kind == "trials":
        return st.lists(st.tuples(ident, ident, ident, st.sampled_from(LABELS)),
                        unique_by=lambda r: r[:3], **size)
    if kind == "scores":
        return st.lists(st.tuples(ident, ident, ident, st.sampled_from(LABELS),
                                  _NUMBER), unique_by=lambda r: r[:3], **size)
    if kind == "corpus":
        return st.lists(st.tuples(ident, ident, ident,
                                  st.sampled_from(("bg", "dev", "eval")), ident),
                        unique_by=lambda r: r[0], **size)
    if kind == "enroll":
        return st.lists(st.tuples(ident, ident), unique=True, **size)
    return st.integers(1, 4).flatmap(lambda dim: st.lists(st.tuples(
        ident, ident, ident,
        st.lists(_NUMBER, min_size=dim, max_size=dim).map(" ".join)),
        unique_by=lambda r: r[0], **size))


READERS = {"trials": (read_trials, read_trials_by_row),
           "scores": (read_scores, read_scores_by_row),
           "corpus": (read_corpus, read_corpus_by_row),
           "enroll": (read_enroll_map, read_enroll_map_by_row),
           "embeddings": (read_embeddings, read_embeddings_by_row)}
KEY_FIELDS = {"trials": 3, "scores": 3, "corpus": 1, "enroll": 2,
              "embeddings": 1}


def _read_both(data, kind, rows):
    """Write rows with blank lines drawn in between; run reader and oracle."""
    lines = ["\t".join(r) for r in rows]
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(("", "  ", " \t "))))
    end = data.draw(st.sampled_from(("", "\n")))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.tsv"
        path.write_text("\n".join(lines) + end, encoding="utf-8")
        for read in READERS[kind]:
            try:
                results.append(read(path))
            except TrialFormatError as exc:
                results.append(exc)
    return results


def _assert_same_table(kind, got, want):
    if kind == "scores":
        (table, scores), (want_table, want_scores) = got, want
        assert type(table) is TrialTable
        assert all(type(column) is list for column in table)
        assert table == want_table
        expected = np.array(want_scores, dtype=np.float64)
        assert scores.dtype == np.float64
        assert scores.tobytes() == expected.tobytes()
    elif kind == "embeddings":
        assert list(got) == list(want)
        for utt, rec in want.items():
            assert got[utt].vector.dtype == np.float64
            assert got[utt].vector.tobytes() == rec.vector.tobytes()
            assert (got[utt].utterance_id, got[utt].speaker_id,
                    got[utt].phrase_id) == (rec.utterance_id, rec.speaker_id,
                                            rec.phrase_id)
    else:
        assert got == want
        if kind == "trials":
            assert type(got) is TrialTable
            assert all(type(column) is list for column in got)


@pytest.mark.parametrize("kind", list(READERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_columns_match_row_oracle(kind, data):
    # ids may hold spaces, so a row of blank fields is a blank line to both
    rows = data.draw(_table_rows(kind, _ids("aé ")))
    got, want = _read_both(data, kind, rows)
    assert not isinstance(want, Exception)
    _assert_same_table(kind, got, want)


FAULTS = [(kind, fault) for kind in READERS
          for fault in ("fields", "label", "duplicate", "number")
          if (fault != "label" or kind in ("trials", "scores"))
          and (fault != "number" or kind in ("scores", "embeddings"))]


@pytest.mark.parametrize("kind, fault", FAULTS,
                         ids=[f"{k}-{f}" for k, f in FAULTS])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_single_fault_raises_like_row_oracle(kind, fault, data):
    rows = [list(r) for r in data.draw(_table_rows(kind, _ids("aé"), 2))]
    k = data.draw(st.integers(1, len(rows) - 1))
    if fault == "fields":
        rows[k] = rows[k] + ["x"] if data.draw(st.booleans()) else rows[k][:-1]
    elif fault == "label":
        rows[k][3] = "target"
    elif fault == "duplicate":
        j = data.draw(st.integers(0, k - 1))
        rows[k][:KEY_FIELDS[kind]] = rows[j][:KEY_FIELDS[kind]]
    elif kind == "scores":
        rows[k][4] = "1,5"
    else:
        tokens = rows[k][3].split(" ")
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = "abc"
        rows[k][3] = " ".join(tokens)
    got, want = _read_both(data, kind, rows)
    assert isinstance(want, TrialFormatError)
    assert type(got) is type(want) and str(got) == str(want)
