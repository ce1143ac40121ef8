"""Audio frontend: WAV ingestion and log-power spectrograms.

Everything here is a pure function of its inputs, so concurrent use is
safe.  The pipeline rate is 16 kHz PCM-16 mono throughout; no voice
activity detection is applied anywhere.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import AudioFormatError, TooShortError, UnsupportedAudioError


@dataclass(frozen=True)
class Waveform:
    """Mono signal with amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int


@dataclass(frozen=True)
class Spectrogram:
    """Log-power magnitude spectrum, [frequency bins x frames]."""

    bins: np.ndarray
    window_len: int
    frame_step: int


@dataclass(frozen=True)
class SpectrogramConfig:
    window_len: int = 256
    frame_step: int = 64
    fft_len: int = 512       # window is zero-padded; fft_len//2 + 1 frequency bins
    log_floor: float = 1e-10


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE PCM-16 mono file; amplitudes are scaled by 1/32768."""
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            sampwidth = fh.getsampwidth()
            comptype = fh.getcomptype()
            rate = fh.getframerate()
            n = fh.getnframes()
            raw = fh.readframes(n)
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise AudioFormatError(f"{path}: truncated WAV header") from exc
    if comptype != "NONE":
        raise UnsupportedAudioError(f"{path}: compression '{comptype}' not supported")
    if sampwidth != 2:
        raise UnsupportedAudioError(f"{path}: {8 * sampwidth}-bit samples, expected 16-bit PCM")
    if channels != 1:
        raise UnsupportedAudioError(f"{path}: {channels} channels, expected mono")
    if n == 0:
        raise AudioFormatError(f"{path}: empty WAV file")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples=samples, sample_rate=rate)


def write_wav(path, waveform: Waveform) -> None:
    """Write a mono PCM-16 WAV; values are clipped to the int16 range."""
    pcm = np.clip(np.round(waveform.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(waveform.sample_rate)
        fh.writeframes(pcm.tobytes())


def frame_count(num_samples: int, window_len: int, frame_step: int) -> int:
    if num_samples < window_len:
        return 0
    return (num_samples - window_len) // frame_step + 1


def _frame_signal(samples: np.ndarray, window_len: int, frame_step: int) -> np.ndarray:
    t = frame_count(len(samples), window_len, frame_step)
    offsets = np.arange(t) * frame_step
    idx = offsets[:, None] + np.arange(window_len)[None, :]
    return samples[idx]


def compute_spectrogram(w: Waveform, config: SpectrogramConfig = SpectrogramConfig()) -> Spectrogram:
    """Windowed log-power spectrum, standardized to zero mean / unit variance.

    Frames start at offsets 0, step, 2*step, ...; each frame is multiplied
    by a Blackman window, zero-padded to ``fft_len``, and transformed by a
    real DFT.  Cell values are log(|X|^2 + floor), then the whole image is
    standardized over all cells.
    """
    if len(w.samples) < config.window_len:
        raise TooShortError(
            f"signal of {len(w.samples)} samples is shorter than one "
            f"{config.window_len}-sample analysis window")
    frames = _frame_signal(w.samples, config.window_len, config.frame_step)
    windowed = frames * np.blackman(config.window_len)
    mags = np.abs(np.fft.rfft(windowed, n=config.fft_len, axis=1))
    logpow = np.log(mags ** 2 + config.log_floor).T  # [bins, frames]
    std = logpow.std()
    if std < 1e-12:
        std = 1.0
    normalized = (logpow - logpow.mean()) / std
    return Spectrogram(bins=normalized, window_len=config.window_len,
                       frame_step=config.frame_step)


def fit_length(bins: np.ndarray, width: int = 800) -> np.ndarray:
    """Normalize frame count to ``width``: crop at the left edge, or tile
    the image end-to-end with copies of itself until wide enough.

    Output column j always equals input column (j mod T).
    """
    t = bins.shape[1]
    if t >= width:
        return bins[:, :width].copy()
    reps = -(-width // t)  # ceil
    return np.tile(bins, (1, reps))[:, :width]
