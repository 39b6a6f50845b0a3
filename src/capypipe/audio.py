"""WAV decoding, 16 kHz resampling, and log-mel features.

Feature parameters follow the common speech-encoder convention: 16 kHz input,
400-sample Hann window, 160-sample hop, 128 mel filters over 0-8000 Hz,
log10 floored 8 orders below the peak, then (x + 4) / 4 normalization.
"""

from __future__ import annotations

import math
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .tokens import audio_budget

TARGET_RATE = 16000
N_MELS = 128
N_FFT = 400
HOP = 160
LOG_DYNAMIC_RANGE = 8.0
_LOG_EPS = 1e-10


@dataclass(frozen=True)
class AudioProfile:
    source_rate: int
    duration: float
    resampled_len: int
    n_frames: int
    n_tokens: int
    rms: float

    def to_json(self) -> dict:
        return {
            "source_rate": self.source_rate,
            "duration": self.duration,
            "resampled_len": self.resampled_len,
            "n_frames": self.n_frames,
            "n_tokens": self.n_tokens,
            "rms": self.rms,
        }


@dataclass(frozen=True)
class MelSpectrogram:
    n_mels: int
    n_frames: int
    values: np.ndarray  # shape (n_mels, n_frames), float32


class AudioFormatError(Exception):
    """Raised for WAV files outside the supported PCM16 subset."""


def decode_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Decode a PCM16 RIFF/WAVE file to float samples in [-1, 1] and its rate.

    Stereo is downmixed by channel averaging.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            rate = wf.getframerate()
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: not a supported RIFF/WAVE file: {exc}") from exc
    if sampwidth != 2:
        raise AudioFormatError(
            f"{path}: only PCM 16-bit supported, fmt chunk reports {8 * sampwidth}-bit samples"
        )
    if n_channels not in (1, 2):
        raise AudioFormatError(f"{path}: expected mono or stereo, got {n_channels} channels")
    pcm = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    if n_channels == 2:
        pcm = pcm.reshape(-1, 2).mean(axis=1)
    return pcm / 32768.0, rate


def write_wav(samples: np.ndarray, rate: int, path: str | Path) -> None:
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


def resample_16k(samples: np.ndarray, rate: int) -> np.ndarray:
    """Band-limited resample to 16 kHz with a Kaiser-windowed sinc kernel."""
    if not 8000 <= rate <= 192000:
        raise ValueError(f"sample rate {rate} outside supported range [8000, 192000]")
    samples = np.asarray(samples, dtype=np.float64)
    if rate == TARGET_RATE:
        return samples.copy()
    n_out = round(len(samples) * TARGET_RATE / rate)
    if n_out == 0:
        return np.zeros(0)
    return _kernels.sinc_resample(samples, TARGET_RATE / rate, n_out)


def _frame_count(n_samples: int) -> int:
    return max(1, math.ceil(n_samples / HOP))


def log_mel(samples: np.ndarray) -> MelSpectrogram:
    """Log-mel spectrogram of a 16 kHz signal."""
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) == 0:
        raise ValueError("cannot compute features of an empty signal")
    n_frames = _frame_count(len(samples))
    pad = N_FFT // 2
    if len(samples) > pad:
        padded = np.pad(samples, pad, mode="reflect")
    else:
        padded = np.pad(samples, pad, mode="constant")
    # make sure every frame window fits
    need = (n_frames - 1) * HOP + N_FFT
    if len(padded) < need:
        padded = np.pad(padded, (0, need - len(padded)), mode="constant")
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT))
    idx = np.arange(N_FFT)[None, :] + HOP * np.arange(n_frames)[:, None]
    frames = padded[idx] * window[None, :]
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2  # (n_frames, N_FFT//2 + 1)
    mel = mel_filterbank() @ power.T  # (N_MELS, n_frames)
    log_spec = np.log10(np.maximum(mel, _LOG_EPS))
    log_spec = np.maximum(log_spec, log_spec.max() - LOG_DYNAMIC_RANGE)
    log_spec = (log_spec + 4.0) / 4.0
    return MelSpectrogram(N_MELS, n_frames, log_spec.astype(np.float32))


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    """Slaney-style mel scale: linear below 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    mel = f * 3.0 / 200.0
    log_region = f >= 1000.0
    step = math.log(6.4) / 27.0
    return np.where(log_region, 15.0 + np.log(np.maximum(f, 1000.0) / 1000.0) / step, mel)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    m = np.asarray(m, dtype=np.float64)
    step = math.log(6.4) / 27.0
    return np.where(m >= 15.0, 1000.0 * np.exp(step * (m - 15.0)), m * 200.0 / 3.0)


def mel_filter_centers() -> np.ndarray:
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), N_MELS + 2))
    return edges[1:-1]


def mel_filterbank() -> np.ndarray:
    """Triangular mel filters over the rfft bins, area-normalized."""
    fft_freqs = np.fft.rfftfreq(N_FFT, d=1.0 / TARGET_RATE)
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), N_MELS + 2))
    fb = np.zeros((N_MELS, len(fft_freqs)))
    for i in range(N_MELS):
        lo, ctr, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (fft_freqs - lo) / (ctr - lo)
        down = (hi - fft_freqs) / (hi - ctr)
        fb[i] = np.maximum(0.0, np.minimum(up, down)) * (2.0 / (hi - lo))
    return fb


def profile(path: str | Path) -> AudioProfile:
    """Decode, resample, and summarize one audio file."""
    samples, rate = decode_wav(path)
    duration = len(samples) / rate
    resampled = resample_16k(samples, rate)
    if len(resampled):
        n_frames = _frame_count(len(resampled))
        rms = float(np.sqrt(np.mean(resampled**2)))
    else:
        n_frames = 0
        rms = 0.0
    return AudioProfile(
        source_rate=rate,
        duration=duration,
        resampled_len=len(resampled),
        n_frames=n_frames,
        n_tokens=audio_budget(duration),
        rms=rms,
    )


# ---------------------------------------------------------------------------
# "MELS" container: magic, two u32 LE (n_mels, n_frames), float32 LE values


def write_mel(mel: MelSpectrogram, path: str | Path) -> None:
    with Path(path).open("wb") as fh:
        fh.write(b"MELS")
        fh.write(struct.pack("<II", mel.n_mels, mel.n_frames))
        fh.write(np.ascontiguousarray(mel.values, dtype="<f4").tobytes())


def read_mel(path: str | Path) -> MelSpectrogram:
    data = Path(path).read_bytes()
    if data[:4] != b"MELS":
        raise ValueError(f"bad magic {data[:4]!r}, expected b'MELS'")
    n_mels, n_frames = struct.unpack_from("<II", data, 4)
    values = np.frombuffer(data, dtype="<f4", count=n_mels * n_frames, offset=12)
    return MelSpectrogram(n_mels, n_frames, values.reshape(n_mels, n_frames).copy())
