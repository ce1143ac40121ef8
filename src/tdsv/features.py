"""Audio frontend: WAV ingestion and log-power spectrograms.

Everything here is a pure function of its inputs, so concurrent use is
safe.  Audio is SAMPLE_RATE (16 kHz) PCM-16 mono, held as a plain float64
sample array: ``read_wav`` rejects any other rate and ``write_wav`` always
writes SAMPLE_RATE.  No voice activity detection is applied anywhere.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AudioFormatError, TooShortError, UnsupportedAudioError

SAMPLE_RATE = 16000
WINDOW_LEN = 256
FRAME_STEP = 64
FFT_LEN = 512       # window is zero-padded; FFT_LEN//2 + 1 frequency bins
LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class Spectrogram:
    """Log-power magnitude spectrum, [frequency bins x frames]."""

    bins: np.ndarray


def read_wav(path) -> np.ndarray:
    """Samples of a RIFF/WAVE PCM-16 mono file, scaled by 1/32768."""
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
    if rate != SAMPLE_RATE:
        raise UnsupportedAudioError(f"{path}: {rate} Hz, expected {SAMPLE_RATE} Hz")
    if n == 0:
        raise AudioFormatError(f"{path}: empty WAV file")
    if len(raw) != n * sampwidth:
        raise AudioFormatError(f"{path}: truncated WAV data: header promises "
                               f"{n * sampwidth} bytes, file holds {len(raw)}")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def write_wav(path, samples: np.ndarray) -> None:
    """Write a mono PCM-16 WAV at SAMPLE_RATE, clipped to the int16 range."""
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def frame_count(num_samples: int) -> int:
    if num_samples < WINDOW_LEN:
        return 0
    return (num_samples - WINDOW_LEN) // FRAME_STEP + 1


def compute_spectrogram(samples: np.ndarray) -> Spectrogram:
    """Windowed log-power spectrum, standardized to zero mean / unit variance.

    Frames start at offsets 0, FRAME_STEP, 2*FRAME_STEP, ...; each frame is
    multiplied by a Blackman window, zero-padded to FFT_LEN, and transformed
    by a real DFT.  Cell values are log(|X|^2 + LOG_FLOOR), then the whole
    image is standardized over all cells.
    """
    if frame_count(len(samples)) == 0:
        raise TooShortError(
            f"signal of {len(samples)} samples is shorter than one "
            f"{WINDOW_LEN}-sample analysis window")
    frames = sliding_window_view(samples, WINDOW_LEN)[::FRAME_STEP]
    windowed = frames * np.blackman(WINDOW_LEN)
    mags = np.abs(np.fft.rfft(windowed, n=FFT_LEN, axis=1))
    logpow = np.log(mags ** 2 + LOG_FLOOR).T  # [bins, frames]
    std = logpow.std()
    if std < 1e-12:
        std = 1.0
    normalized = (logpow - logpow.mean()) / std
    return Spectrogram(bins=normalized)


def fit_length(bins: np.ndarray, width: int) -> np.ndarray:
    """Normalize frame count to ``width``: crop at the left edge, or tile
    the image end-to-end with copies of itself until wide enough.

    Output column j always equals input column (j mod T).
    """
    t = bins.shape[1]
    if t >= width:
        return bins[:, :width].copy()
    reps = -(-width // t)  # ceil
    return np.tile(bins, (1, reps))[:, :width]
