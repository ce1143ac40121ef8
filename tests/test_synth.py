"""Synthetic corpus generator: determinism, protocol structure, audio sanity."""

import numpy as np
import pytest

from tdsv.errors import ConfigError
from tdsv.features import read_wav
from tdsv.synth import (ENROLL_PER_MODEL, SynthSpec, build_protocol,
                        generate_corpus, make_phrase, make_voice, phrase_id,
                        speaker_id, split_speakers, synthesize_utterance)
from tdsv.trials import read_corpus, read_enroll_map, read_trials

SMALL = SynthSpec(num_speakers=6, num_phrases=2, utterances_per_speaker=8,
                  base_duration=0.3, seed=5)


class TestSpecValidation:
    def test_too_few_speakers(self):
        with pytest.raises(ConfigError, match="speakers"):
            SynthSpec(num_speakers=5)

    def test_too_few_takes_per_phrase(self):
        with pytest.raises(ConfigError):
            SynthSpec(utterances_per_speaker=6, num_phrases=2)

    def test_noise_bounds(self):
        with pytest.raises(ConfigError, match="noise"):
            SynthSpec(noise_level=1.0)


class TestVoicesAndPhrases:
    def test_voices_are_distinct_and_deterministic(self):
        voices = [make_voice(SMALL, i) for i in range(SMALL.num_speakers)]
        again = [make_voice(SMALL, i) for i in range(SMALL.num_speakers)]
        assert voices == again
        assert len({v.f0 for v in voices}) == len(voices)
        for v in voices:
            assert 90.0 < v.f0 < 280.0
            assert all(a < b for a, b in zip(v.formants, v.formants[1:]))

    def test_phrases_are_distinct(self):
        a, b = make_phrase(SMALL, 0), make_phrase(SMALL, 1)
        assert a != b
        assert make_phrase(SMALL, 0) == a

    def test_waveform_is_bounded_and_sized(self):
        wave = synthesize_utterance(make_voice(SMALL, 0), make_phrase(SMALL, 0),
                                    SMALL, np.random.default_rng(0))
        # 0.3 s nominal, up to x1.1 stretch, plus bounded additive noise
        assert 0.28 * 16000 <= wave.size <= 0.34 * 16000
        assert np.abs(wave).max() < 1.0

    def test_different_speakers_sound_different(self):
        phrase = make_phrase(SMALL, 0)
        a = synthesize_utterance(make_voice(SMALL, 0), phrase, SMALL,
                                 np.random.default_rng(1))
        b = synthesize_utterance(make_voice(SMALL, 5), phrase, SMALL,
                                 np.random.default_rng(1))
        n = min(a.size, b.size)
        assert not np.allclose(a[:n], b[:n], atol=0.05)


class TestSplits:
    def test_six_speakers_split_2_2_2(self):
        splits = split_speakers(SMALL)
        assert [splits[speaker_id(i)] for i in range(6)] == (
            ["bg", "bg", "dev", "dev", "eval", "eval"])

    def test_ten_speakers_split_4_3_3(self):
        splits = split_speakers(SynthSpec(num_speakers=10))
        counts = {s: list(splits.values()).count(s)
                  for s in ("bg", "dev", "eval")}
        assert counts == {"bg": 4, "dev": 3, "eval": 3}

    def test_id_formatting(self):
        assert speaker_id(3) == "spk03"
        assert phrase_id(1) == "p1"


class TestProtocol:
    def _entries(self):
        from tdsv.trials import CorpusEntry
        splits = split_speakers(SMALL)
        entries = []
        for i in range(SMALL.num_speakers):
            spk = speaker_id(i)
            for j in range(SMALL.num_phrases):
                for k in range(4):
                    utt = f"{spk}_{phrase_id(j)}_u{k:02d}"
                    entries.append(CorpusEntry(utt, spk, phrase_id(j),
                                               splits[spk], f"wav/{utt}.wav"))
        return entries

    def test_enrollment_uses_first_takes(self):
        enroll, _ = build_protocol(self._entries())
        assert enroll["spk02-p0"] == ["spk02_p0_u00", "spk02_p0_u01",
                                      "spk02_p0_u02"]
        assert "spk00-p0" not in enroll  # background speakers do not enroll

    def test_trials_within_phrase_and_split(self):
        _, trial_files = build_protocol(self._entries())
        for split, table in trial_files.items():
            assert table, split
            for model, test, phrase, _ in zip(*table):
                assert model.endswith(phrase)
                assert test.split("_")[1] == phrase

    def test_both_labels_present_per_phrase(self):
        _, trial_files = build_protocol(self._entries())
        for split in ("dev", "eval"):
            for phr in ("p0", "p1"):
                table = trial_files[split]
                labels = {label for phrase, label
                          in zip(table.phrase_ids, table.labels) if phrase == phr}
                assert labels == {"tgt", "non"}

    def test_enrollment_never_tested(self):
        enroll, trial_files = build_protocol(self._entries())
        enrolled = {u for utts in enroll.values() for u in utts}
        for table in trial_files.values():
            assert not enrolled & set(table.test_ids)


class TestGenerateCorpus:
    def test_tree_and_determinism(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        entries = generate_corpus(SMALL, a_dir)
        generate_corpus(SMALL, b_dir)

        assert len(entries) == SMALL.num_speakers * SMALL.utterances_per_speaker
        assert read_corpus(a_dir / "corpus.tsv") == entries
        enroll = read_enroll_map(a_dir / "enroll.tsv")
        assert all(len(u) == ENROLL_PER_MODEL for u in enroll.values())
        assert read_trials(a_dir / "trials_dev.tsv")
        assert read_trials(a_dir / "trials_eval.tsv")

        for entry in entries[:8]:
            wav_a = (a_dir / entry.wav_path).read_bytes()
            wav_b = (b_dir / entry.wav_path).read_bytes()
            assert wav_a == wav_b
        assert ((a_dir / "corpus.tsv").read_bytes()
                == (b_dir / "corpus.tsv").read_bytes())

    def test_audio_is_readable_and_nontrivial(self, tmp_path):
        entries = generate_corpus(SMALL, tmp_path)
        wave = read_wav(tmp_path / entries[0].wav_path)
        assert wave.std() > 0.01
