"""Synthetic corpus generator: determinism, protocol structure, audio sanity."""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import direct_synthesize_utterance
from tdsv.errors import ConfigError
from tdsv.features import (SAMPLE_RATE, WINDOW_LEN, compute_spectrogram,
                           read_wav, write_wav)
from tdsv.synth import (BLOCK, ENROLL_PER_MODEL, PhraseTemplate, SynthSpec,
                        build_protocol, generate_corpus, make_phrase,
                        make_voice, phrase_id, speaker_id, split_speakers,
                        synthesize_utterance)
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

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"),
                                          float("inf"), 0.001])
    def test_base_duration_rejected(self, duration):
        with pytest.raises(ConfigError, match="^base_duration [^\n]*$"):
            SynthSpec(base_duration=duration)

    def test_shortest_take_fills_one_analysis_window(self):
        # the 0.95 stretch of the shortest accepted duration is one window
        shortest = WINDOW_LEN / (0.95 * SAMPLE_RATE)
        with pytest.raises(ConfigError, match="base_duration"):
            SynthSpec(base_duration=(WINDOW_LEN - 1) / (0.95 * SAMPLE_RATE))
        spec = SynthSpec(base_duration=shortest)
        wave = synthesize_utterance(make_voice(spec, 0), make_phrase(spec, 0),
                                    spec, np.random.default_rng(0))
        assert wave.size >= WINDOW_LEN
        assert compute_spectrogram(wave).bins.shape[1] >= 1


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


_LONG = SynthSpec(num_speakers=6, num_phrases=1, utterances_per_speaker=4,
                  base_duration=3.4, seed=3)
# synthesize_utterance reads only these two fields, so a namespace can carry
# a take shorter than one block, which SynthSpec rejects
_TINY = SimpleNamespace(base_duration=0.005, noise_level=0.03)
ORACLE_CASES = {  # (voice, phrase, spec, rng seed)
    "small": (make_voice(SMALL, 0), make_phrase(SMALL, 0), SMALL, 0),
    "embed-full-shaped": (make_voice(_LONG, 4), make_phrase(_LONG, 0), _LONG, 3),
    "shorter-than-a-block": (make_voice(SMALL, 1), make_phrase(SMALL, 0),
                             _TINY, 1),
    # seed 420 draws a 5120-sample take of SMALL, so equal segment weights
    # put every boundary on a block edge
    "boundaries-on-block-edges": (
        make_voice(SMALL, 2),
        PhraseTemplate((1.0,) * 4, make_phrase(SMALL, 0).formant_scales),
        SMALL, 420),
}


def _segment_ends(phrase, spec, seed):
    duration = spec.base_duration * np.random.default_rng(seed).uniform(0.95, 1.1)
    total = int(round(duration * SAMPLE_RATE))
    weights = np.asarray(phrase.duration_weights)
    ends = np.floor(np.cumsum(weights) / weights.sum() * total).astype(int)
    ends[-1] = total
    return ends


class TestFactoredSum:
    """synthesize_utterance against the direct [samples, harmonics] sum."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_direct_sum(self, case, tmp_path):
        voice, phrase, spec, seed = ORACLE_CASES[case]
        fast = synthesize_utterance(voice, phrase, spec,
                                    np.random.default_rng(seed))
        slow = direct_synthesize_utterance(voice, phrase, spec,
                                           np.random.default_rng(seed))
        assert fast.shape == slow.shape
        assert np.abs(fast - slow).max() <= 1e-10
        write_wav(tmp_path / "fast.wav", fast)
        write_wav(tmp_path / "slow.wav", slow)
        assert ((tmp_path / "fast.wav").read_bytes()
                == (tmp_path / "slow.wav").read_bytes())

    def test_cases_cover_the_block_layouts(self):
        ends = {name: _segment_ends(phrase, spec, seed)
                for name, (_, phrase, spec, seed) in ORACLE_CASES.items()}
        assert ends["shorter-than-a-block"][-1] < BLOCK
        assert ends["embed-full-shaped"][-1] > 3 * SAMPLE_RATE
        assert any(e % BLOCK for e in ends["small"][:-1])
        assert all(e % BLOCK == 0 for e in ends["boundaries-on-block-edges"])


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
