"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and uses only its own
``numpy.random.Generator``, so the same seed gives byte-identical inputs.
The generators write plain JSON and WAV bytes and never import capypipe:
the program under test receives only the files.

Sizes are fixed per workload; the seed changes contents (words, image
sizes, durations, tone frequencies), not how many operations a round holds.
"""

from __future__ import annotations

import json
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))

# records per round of each manifest workload, and in its warm-up manifest
RECORDS = {"filter-mixed": 2000, "filter-neardup": 256, "budget-media": 2000}
WARM_RECORDS = 40


def _dumps(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_jsonl(rows: list[dict], path: Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(_dumps(row) + "\n")


def _word(rng: np.random.Generator, lo: int = 4, hi: int = 9) -> str:
    return "".join(rng.choice(LETTERS, size=int(rng.integers(lo, hi))))


# ---------------------------------------------------------------------------
# filter-mixed: the criterion-11 make-up (ASR/S2TT/QA, planted exact
# duplicates, clean/noisy/missing hypotheses)


@dataclass
class Manifest:
    rows: list[dict]
    planted_duplicates: set[str] = field(default_factory=set)


def _substitute(rng: np.random.Generator, words: list[str]) -> str:
    """Replace between one and all of the words with random words."""
    words = list(words)
    k = int(rng.integers(1, len(words) + 1))
    for pos in rng.choice(len(words), size=k, replace=False):
        words[int(pos)] = _word(rng)
    return " ".join(words)


def mixed_manifest(seed: int, n: int) -> Manifest:
    """Criterion 11's make-up: six in ten ASR (clean, noisy or missing
    hypothesis, every 17th a copy of an earlier ASR text), two in ten S2TT
    (same or word-reversed translation), two in ten QA. In criterion 11 every
    noisy hypothesis has WER 1 and every translation keeps a trigram cosine
    of 0.6 or more, so no verdict lands near a threshold; here half of the
    noisy hypotheses and half of the word-reversed translations instead have
    some of their words replaced, which spreads WER and cosine across 0.3 and
    0.5."""
    rng = np.random.default_rng([seed, 11])
    rows: list[dict] = []
    planted: set[str] = set()
    asr_texts: list[str] = []
    for i in range(n):
        words = [_word(rng) for _ in range(int(rng.integers(5, 11)))]
        text = " ".join(words)
        rid = f"r{i:05d}"
        roll = i % 10
        if roll < 6:
            if asr_texts and i % 17 == 0:
                text = asr_texts[int(rng.integers(0, len(asr_texts)))]
                planted.add(rid)
            asr_texts.append(text)
            row = {"id": rid, "scenario": "ASR", "language": "ENG", "media": [
                {"kind": "Audio", "path": f"clips/{i:05d}.wav",
                 "duration": float(rng.integers(1, 20)), "sample_rate": 16000}
            ], "text": text}
            if i % 13 == 0:
                pass  # missing hypothesis
            elif roll < 4:
                row["hypothesis"] = text
            elif roll == 4:
                row["hypothesis"] = " ".join(_word(rng) for _ in words)
            else:
                row["hypothesis"] = _substitute(rng, words)
        elif roll < 8:
            if roll == 6:
                translation = text
            elif i % 20 == 7:
                translation = " ".join(reversed(words))
            else:
                translation = _substitute(rng, words)
            row = {"id": rid, "scenario": "S2TT", "language": "ZH_ENG",
                   "text": text, "translation": translation}
        else:
            row = {"id": rid, "scenario": "QA", "language": "ENG", "text": text}
        rows.append(row)
    return Manifest(rows, planted)


# ---------------------------------------------------------------------------
# filter-neardup: QA/Caption records, half of them word-substituted copies


def neardup_manifest(seed: int, n: int) -> list[dict]:
    """n/2 base texts of 12-20 words and n/2 copies of a random base with
    between 1 and 60% of its words replaced, shuffled together. One
    substituted word in three puts a copy's trigram Jaccard near 0.5, so
    copy/base pairs fall on both sides of that threshold."""
    rng = np.random.default_rng([seed, 12])
    vocab = [_word(rng, 3, 9) for _ in range(4000)]
    n_base = n // 2
    bases = [
        [vocab[int(k)] for k in rng.integers(0, len(vocab), size=int(rng.integers(12, 21)))]
        for _ in range(n_base)
    ]
    texts = [" ".join(b) for b in bases]
    for _ in range(n - n_base):
        base = list(bases[int(rng.integers(0, n_base))])
        k = int(rng.integers(1, max(2, int(0.6 * len(base)) + 1)))
        for pos in rng.choice(len(base), size=k, replace=False):
            base[int(pos)] = vocab[int(rng.integers(0, len(vocab)))]
        texts.append(" ".join(base))
    order = rng.permutation(n)
    rows = []
    for i, src in enumerate(order):
        scenario = "QA" if i % 2 else "Caption"
        rows.append({"id": f"n{i:05d}", "scenario": scenario, "language": "ENG",
                     "text": texts[int(src)]})
    return rows


# ---------------------------------------------------------------------------
# budget-media: images 64-5000 px, videos 1 s - 1 h, audio refs, multi-ref


# Sizes that pin the tiling extremes: no split, tallest/widest strips and
# the largest canvas.
FIXED_IMAGES = ((64, 64), (448, 448), (5000, 5000), (5000, 64), (64, 5000), (896, 448))


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _image(rng: np.random.Generator, path: str) -> dict:
    return {"kind": "Image", "path": path,
            "width": int(round(_log_uniform(rng, 64, 5000))),
            "height": int(round(_log_uniform(rng, 64, 5000)))}


def _video(rng: np.random.Generator, path: str) -> dict:
    # durations in whole centiseconds, so the expected frame count is exact;
    # four in five videos run past the 128-frame cap at 1 fps
    if rng.random() < 0.8:
        cs = int(rng.integers(12_900, 360_001))
    else:
        cs = int(rng.integers(100, 12_900))
    return {"kind": "Video", "path": path, "duration": cs / 100}


def _audio(rng: np.random.Generator, path: str) -> dict:
    cs = int(rng.integers(50, 300_001))
    return {"kind": "Audio", "path": path, "duration": cs / 100,
            "sample_rate": int(rng.choice([16000, 44100, 48000]))}


def budget_manifest(seed: int, n: int) -> list[dict]:
    """Records cycle through image, video, audio and multi-ref (image,
    image, video, audio) layouts; text is 0-30 random words."""
    rng = np.random.default_rng([seed, 13])
    rows = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            if i // 4 < len(FIXED_IMAGES):
                w, h = FIXED_IMAGES[i // 4]
                media = [{"kind": "Image", "path": f"img/{i}.jpg", "width": w, "height": h}]
            else:
                media = [_image(rng, f"img/{i}.jpg")]
            scenario = "Caption"
        elif kind == 1:
            media = [_video(rng, f"vid/{i}.mp4")]
            scenario = "QA"
        elif kind == 2:
            media = [_audio(rng, f"aud/{i}.wav")]
            scenario = "QA"
        else:
            media = [_image(rng, f"img/{i}a.jpg"), _image(rng, f"img/{i}b.jpg"),
                     _video(rng, f"vid/{i}.mp4"), _audio(rng, f"aud/{i}.wav")]
            scenario = "CrossModal"
        text = " ".join(_word(rng, 2, 8) for _ in range(int(rng.integers(0, 31))))
        rows.append({"id": f"b{i:06d}", "scenario": scenario, "language": "ENG",
                     "media": media, "text": text})
    return rows


# ---------------------------------------------------------------------------
# media-decode: PCM16 WAV tones, images, a position-embedding grid


@dataclass(frozen=True)
class Tone:
    name: str
    rate: int
    channels: int
    seconds: float
    freq: float
    amplitude: float  # per-channel peak; both channels carry the same tone

    @property
    def n_samples(self) -> int:
        return round(self.rate * self.seconds)


# (rate, channels, seconds): mono and stereo at 44.1 kHz, 48 kHz and the
# 16 kHz pass-through. Resampled clips are 1 s each because today's
# resampler holds about 250 MB per input second (see README).
TONE_LAYOUT = (
    (44100, 1, 1), (44100, 2, 1), (48000, 1, 1), (48000, 2, 1),
    (16000, 1, 4), (16000, 2, 4),
)


def tones(seed: int) -> list[Tone]:
    rng = np.random.default_rng([seed, 14])
    out = []
    for rate, ch, sec in TONE_LAYOUT:
        freq = float(np.round(rng.uniform(200.0, 3000.0), 1))
        amp = float(np.round(rng.uniform(0.2, 0.8), 3))
        out.append(Tone(f"tone_{rate}_{ch}ch_{sec}s", rate, ch, sec, freq, amp))
    return out


def write_tone(tone: Tone, path: Path) -> None:
    t = np.arange(tone.n_samples) / tone.rate
    x = tone.amplitude * np.sin(2.0 * np.pi * tone.freq * t)
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    if tone.channels == 2:
        pcm = np.repeat(pcm, 2)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(tone.channels)
        wf.setsampwidth(2)
        wf.setframerate(tone.rate)
        wf.writeframes(pcm.tobytes())


# (width, height, pattern); "constant" must come out constant on the canvas
IMAGE_LAYOUT = ((800, 600, "constant"), (1920, 1080, "noise"), (4000, 3000, "gradient"))


def image(seed: int, width: int, height: int, pattern: str) -> np.ndarray:
    rng = np.random.default_rng([seed, 15, width, height])
    if pattern == "constant":
        return np.full((height, width, 3), rng.integers(0, 256, size=3), dtype=np.uint8)
    if pattern == "noise":
        return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    ramp = np.linspace(0, 255, width).astype(np.uint8)
    img = np.empty((height, width, 3), dtype=np.uint8)
    img[:] = ramp[None, :, None]
    img[:, :, 1] = rng.integers(0, 256)
    return img


def linear_grid(seed: int, rows: int = 32, cols: int = 32, dim: int = 1024) -> tuple:
    """A float32 grid value[r, c, d] = a[d]*r + b[d]*c + k[d] with small
    integer coefficients, so every source value is exact in float32."""
    rng = np.random.default_rng([seed, 16])
    a = rng.integers(-8, 9, size=dim).astype(np.float64)
    b = rng.integers(-8, 9, size=dim).astype(np.float64)
    k = rng.integers(-100, 101, size=dim).astype(np.float64)
    r = np.arange(rows, dtype=np.float64)[:, None, None]
    c = np.arange(cols, dtype=np.float64)[None, :, None]
    values = (a * r + b * c + k).astype(np.float32)
    return values, a, b, k


# ---------------------------------------------------------------------------


def write_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write every input file of one workload into workdir and return what
    the output checks need (the manifest rows, planted duplicates)."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "media-decode":
        for tone in tones(seed):
            write_tone(tone, workdir / f"{tone.name}.wav")
        write_tone(Tone("warm", 48000, 1, 0.1, 440.0, 0.5), workdir / "warm.wav")
        for w, h, pattern in IMAGE_LAYOUT:
            np.save(workdir / f"image_{w}x{h}.npy", image(seed, w, h, pattern))
        return {}
    make = {
        "filter-mixed": lambda n: mixed_manifest(seed, n),
        "filter-neardup": lambda n: Manifest(neardup_manifest(seed, n)),
        "budget-media": lambda n: Manifest(budget_manifest(seed, n)),
    }[workload]
    full = make(RECORDS[workload])
    write_jsonl(full.rows, workdir / "input.jsonl")
    write_jsonl(make(WARM_RECORDS).rows, workdir / "warm.jsonl")
    return {"rows": full.rows, "planted_duplicates": full.planted_duplicates}
