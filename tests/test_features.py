"""Audio frontend: WAV IO, spectrograms, length fitting."""

import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_dft_magnitudes, relative_error
from tdsv.errors import AudioFormatError, TooShortError, UnsupportedAudioError
from tdsv.features import (compute_spectrogram, fit_length, frame_count,
                           read_wav, write_wav)


def _write_pcm(path, pcm16, rate=16000, channels=1, sampwidth=2):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(sampwidth)
        fh.setframerate(rate)
        fh.writeframes(pcm16.tobytes())


class TestReadWav:
    def test_silence(self, tmp_path):
        path = tmp_path / "z.wav"
        _write_pcm(path, np.zeros(16000, dtype="<i2"))
        w = read_wav(path)
        assert w.shape == (16000,)
        assert np.all(w == 0.0)

    def test_extreme_sample_scaling(self, tmp_path):
        path = tmp_path / "x.wav"
        _write_pcm(path, np.array([32767, -32768], dtype="<i2"))
        w = read_wav(path)
        assert w[0] == pytest.approx(32767 / 32768)
        assert w[1] == -1.0

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.wav"
        rng = np.random.default_rng(0)
        original = rng.uniform(-0.9, 0.9, 400)
        write_wav(path, original)
        back = read_wav(path)
        assert np.abs(back - original).max() < 1.0 / 32768

    def test_write_wav_header_is_16khz_mono_pcm16(self, tmp_path):
        path = tmp_path / "h.wav"
        write_wav(path, np.zeros(10))
        raw = path.read_bytes()
        # fmt chunk: format tag, channels, rate, byte rate, block align, bits
        assert raw[12:16] == b"fmt "
        assert struct.unpack_from("<HHIIHH", raw, 20) == (1, 1, 16000, 32000, 2, 16)
        assert len(read_wav(path)) == 10

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "s.wav"
        _write_pcm(path, np.zeros(200, dtype="<i2"), channels=2)
        with pytest.raises(UnsupportedAudioError, match="channels"):
            read_wav(path)

    def test_rejects_8bit(self, tmp_path):
        path = tmp_path / "b.wav"
        _write_pcm(path, np.zeros(100, dtype=np.uint8), sampwidth=1)
        with pytest.raises(UnsupportedAudioError, match="16-bit"):
            read_wav(path)

    def test_rejects_8khz(self, tmp_path):
        path = tmp_path / "n.wav"
        _write_pcm(path, np.zeros(8000, dtype="<i2"), rate=8000)
        with pytest.raises(UnsupportedAudioError) as exc:
            read_wav(path)
        message = str(exc.value)
        assert str(path) in message and "8000 Hz" in message
        assert "\n" not in message

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "g.wav"
        path.write_bytes(b"this is not a RIFF file at all.....")
        with pytest.raises(AudioFormatError):
            read_wav(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "e.wav"
        _write_pcm(path, np.zeros(0, dtype="<i2"))
        with pytest.raises(AudioFormatError, match="empty"):
            read_wav(path)

    @pytest.mark.parametrize("cut", ["no_data", "short_data"])
    def test_rejects_truncated_data(self, tmp_path, cut):
        path = tmp_path / "t.wav"
        _write_pcm(path, np.ones(100, dtype="<i2"))
        raw = path.read_bytes()
        assert raw[36:40] == b"data" and len(raw) == 44 + 200
        if cut == "no_data":  # the header promises 100 frames, none follow
            raw = raw[:44]
        else:  # the data chunk claims 10**6 bytes and holds 200
            raw = raw[:40] + struct.pack("<I", 10**6) + raw[44:]
        path.write_bytes(raw)
        with pytest.raises(AudioFormatError) as exc:
            read_wav(path)
        message = str(exc.value)
        assert str(path) in message and "truncated" in message
        assert "\n" not in message


class TestSpectrogram:
    def test_single_frame(self):
        w = np.random.default_rng(0).normal(size=256)
        s = compute_spectrogram(w)
        assert s.bins.shape == (257, 1)

    def test_800_frame_length(self):
        w = np.zeros(256 + 799 * 64)
        assert compute_spectrogram(w).bins.shape == (257, 800)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            compute_spectrogram(np.zeros(255))

    def test_global_standardization(self):
        rng = np.random.default_rng(3)
        s = compute_spectrogram(rng.normal(size=8000))
        assert abs(s.bins.mean()) < 1e-6
        assert abs(s.bins.var() - 1.0) < 1e-6

    def test_sinusoid_peaks_at_bin_32(self):
        # tone at bin k of the 512-point transform: f = 16000 * k / 512
        k = 32
        t = np.arange(4096) / 16000.0
        w = 0.5 * np.sin(2 * np.pi * (16000.0 * k / 512) * t)
        s = compute_spectrogram(w)
        assert int(s.bins[:, 0].argmax()) == k

    @given(st.integers(256, 100_000))
    @settings(max_examples=60)
    def test_frame_count_formula(self, length):
        assert frame_count(length) == (length - 256) // 64 + 1
        s = compute_spectrogram(np.zeros(length))
        assert s.bins.shape[1] == (length - 256) // 64 + 1

    def test_dft_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        frame = rng.normal(size=256)
        windowed = frame * np.blackman(256)
        fast = np.abs(np.fft.rfft(windowed, n=512))
        slow = naive_dft_magnitudes(windowed, 512)
        assert relative_error(fast, slow, floor=1e-9) < 1e-6


class TestFitLength:
    def _spec(self, t, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(257, t))

    def test_exact_width_is_identity(self):
        bins = self._spec(800)
        assert np.array_equal(fit_length(bins, 800), bins)

    def test_crop_keeps_left_edge(self):
        bins = self._spec(900)
        assert np.array_equal(fit_length(bins, 800), bins[:, :800])

    def test_tile_repeats_from_start(self):
        bins = self._spec(500)
        out = fit_length(bins, 800)
        assert np.array_equal(out[:, :500], bins)
        assert np.array_equal(out[:, 500:], bins[:, :300])

    @given(st.integers(1, 1200), st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_column_identity_and_idempotence(self, t, seed):
        bins = np.random.default_rng(seed).normal(size=(5, t))
        out = fit_length(bins, 800)
        assert out.shape == (5, 800)
        for j in [0, 1, t - 1, t, 799, 400]:
            if 0 <= j < 800:
                assert np.array_equal(out[:, j], bins[:, j % t])
        assert np.array_equal(fit_length(out, 800), out)
