"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

The PASS/FAIL lines are printed after the pytest summary (see
pytest_terminal_summary in conftest.py). Every tolerance is stated inline
next to the assertion it guards.
"""

import functools
import math
import time

import numpy as np
import pytest

from capypipe import audio, video
from capypipe.cli import dispatch
from capypipe.manifest import (
    Language,
    MediaKind,
    MediaRef,
    SampleRecord,
    Scenario,
    write_manifest,
)
from capypipe.metrics import bleu, wer
from capypipe.pipeline import cluster_prune
from capypipe.tiler import EmbeddingGrid, plan_tiles
from capypipe.tokens import compress_tokens

import conftest
from conftest import make_record, write_pcm16_wav


def criterion(num, name):
    """Print exactly one PASS/FAIL line per criterion, then re-raise failures."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_RESULTS.append(f"[criterion {num:02d}] {name}: FAIL")
                raise
            conftest.ACCEPTANCE_RESULTS.append(f"[criterion {num:02d}] {name}: PASS")

        return wrapper

    return deco


def _sine_wav(path, freq, rate, seconds):
    t = np.arange(round(rate * seconds)) / rate
    samples = 0.5 * np.sin(2 * np.pi * freq * t)
    write_pcm16_wav(path, rate, samples=samples)
    return samples


@criterion(1, "audio token rate: 1 s -> 25 tokens, 10 s -> 250, profiled in < 1 s")
def test_audio_token_rate(tmp_path):
    one = tmp_path / "one.wav"
    ten = tmp_path / "ten.wav"
    _sine_wav(one, 440.0, 16000, 1.0)
    _sine_wav(ten, 440.0, 16000, 10.0)
    audio.profile(one)  # warm up once before timing
    start = time.perf_counter()
    prof_one = audio.profile(one)
    prof_ten = audio.profile(ten)
    elapsed = time.perf_counter() - start
    assert prof_one.n_tokens == 25  # exact
    assert prof_ten.n_tokens == 250  # exact
    assert elapsed < 1.0, f"profiling took {elapsed:.3f} s (limit 1 s)"


@criterion(2, "visual compression: 32x32xd -> 16x16xd for d in {1, 8, 64}")
def test_visual_compression_ratio(rng):
    for d in (1, 8, 64):
        values = rng.normal(size=(32, 32, d)).astype(np.float32)
        out = compress_tokens(EmbeddingGrid(32, 32, d, values))
        assert (out.rows, out.cols, out.dim) == (16, 16, d)  # 1024 -> 256 positions
        # spot-check one block mean so the shape is not vacuous
        np.testing.assert_allclose(
            out.values[0, 0], values[0:2, 0:2].mean(axis=(0, 1)), rtol=1e-6
        )


@criterion(3, "tiling: 3x3+thumbnail at 1344^2, no split <= 448^2, 1000-case brute force < 5 s")
def test_tiling_regimes(rng):
    plan = plan_tiles(1344, 1344, 9, 448)
    assert (plan.grid_rows, plan.grid_cols, plan.thumbnail) == (3, 3, True)
    for w, h in ((448, 448), (100, 448), (447, 449), (1, 1), (300, 600)):
        if w * h <= 448 * 448:
            small = plan_tiles(w, h, 9, 448)
            assert (small.grid_rows, small.grid_cols, small.thumbnail) == (1, 1, False)

    def brute(width, height, max_slices, cell):
        ideal = min(max(math.ceil(width * height / cell**2), 1), max_slices)
        if ideal == 1:
            return (1, 1)
        best = None
        for rows in range(1, max_slices + 1):
            for cols in range(1, max_slices + 1):
                cells = rows * cols
                if cells > max_slices or abs(cells - ideal) > 1:
                    continue
                key = (abs(math.log((width / height) * (rows / cols))), cells, rows)
                if best is None or key < best[:3]:
                    best = (*key, rows, cols)
        return best[3], best[4]

    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        w = int(rng.integers(1, 5000))
        h = int(rng.integers(1, 5000))
        max_slices = int(rng.choice([4, 9]))
        got = plan_tiles(w, h, max_slices, 448)
        if (got.grid_rows, got.grid_cols) != brute(w, h, max_slices, 448):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0  # 100% agreement required
    assert elapsed < 5.0, f"1000 cases took {elapsed:.3f} s (limit 5 s)"


@criterion(4, "filter boundary: error rate 0.30 kept, 0.301 dropped (exact)")
def test_filter_boundary(tmp_path):
    # 10 reference words, 3 substitutions -> rate exactly 0.30
    ref10 = " ".join(f"w{i}" for i in range(10))
    hyp_030 = " ".join(["x0", "x1", "x2"] + [f"w{i}" for i in range(3, 10)])
    # 1000 reference words, 301 substitutions -> rate exactly 0.301
    ref1000 = " ".join(f"w{i}" for i in range(1000))
    hyp_0301 = " ".join(
        [f"x{i}" for i in range(301)] + [f"w{i}" for i in range(301, 1000)]
    )
    recs = [
        make_record(id="keep", text=ref10, hypothesis=hyp_030),
        make_record(id="drop", text=ref1000, hypothesis=hyp_0301),
    ]
    manifest = tmp_path / "boundary.jsonl"
    write_manifest(recs, manifest)
    kept_path = tmp_path / "kept.jsonl"
    dropped_path = tmp_path / "dropped.jsonl"
    code = dispatch(
        [
            "filter",
            "--manifest", str(manifest),
            "--out", str(kept_path),
            "--dropped", str(dropped_path),
            "--jobs", "1",
        ]
    )
    assert code == 0
    assert '"id":"keep"' in kept_path.read_text(encoding="utf-8")
    assert '"id":"drop"' in dropped_path.read_text(encoding="utf-8")
    assert wer(ref10, hyp_030).rate == 0.3  # exact: 3/10
    assert wer(ref1000, hyp_0301).rate == 0.301  # exact: 301/1000


@criterion(5, "edit distance equals recursive oracle: 10,000 pairs, len <= 6, < 30 s")
def test_edit_distance_oracle(rng):
    def oracle(a, b, memo=None):
        # Independent recursive definition: minimum over every edit script.
        if memo is None:
            memo = {}
        key = (len(a), len(b))
        if key in memo:
            return memo[key]
        if not a:
            out = len(b)
        elif not b:
            out = len(a)
        else:
            out = min(
                oracle(a[1:], b[1:], memo) + (a[0] != b[0]),
                oracle(a[1:], b, memo) + 1,
                oracle(a, b[1:], memo) + 1,
            )
        memo[key] = out
        return out

    alphabet = ["a", "b", "c"]
    start = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        ref = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 7))]
        hyp = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        summary = wer(" ".join(ref), " ".join(hyp))
        dist = summary.substitutions + summary.insertions + summary.deletions
        if dist != oracle(tuple(ref), tuple(hyp)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0  # zero mismatches required
    assert elapsed < 30.0, f"10,000 pairs took {elapsed:.3f} s (limit 30 s)"


@criterion(6, "video cap: schedule(300 s, 1 fps, 128) keeps 128 stamps incl. endpoints")
def test_video_cap():
    sched = video.schedule(300.0, 1.0, 128)
    assert len(sched.timestamps) == 128  # exact
    assert sched.timestamps[0] == 0.5  # first raw midpoint (k=0)
    assert sched.timestamps[-1] == 299.5  # last raw midpoint (k=299)


@criterion(7, "resampler: 440 Hz at 48k -> 16k, peak within 2 Hz, RMS within 1%")
def test_resampler_fidelity():
    rate = 48000
    t = np.arange(rate * 2) / rate
    x = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    y = audio.resample_16k(x, rate)
    spectrum = np.abs(np.fft.rfft(y * np.hanning(len(y))))
    peak_hz = np.argmax(spectrum) * 16000 / len(y)
    assert abs(peak_hz - 440.0) <= 2.0  # tolerance: 2 Hz
    rms_in = np.sqrt(np.mean(x**2))
    rms_out = np.sqrt(np.mean(y**2))
    assert abs(rms_out - rms_in) / rms_in < 0.01  # tolerance: 1% relative


@criterion(8, "mel framing: 16,000 samples -> 100 frames; silence is uniform")
def test_mel_framing():
    mel = audio.log_mel(np.zeros(16000))
    assert mel.n_frames == 100  # exact frame count
    assert mel.values.shape == (128, 100)
    assert np.ptp(mel.values) == 0.0  # silence: every cell identical


@criterion(9, "clustering matches O(n^2) exact-Jaccard brute force: 100 fixtures")
def test_clustering_exactness(rng):
    def brute_kept(texts, threshold, n):
        def jac(a, b):
            if len(a) < n or len(b) < n:
                return 1.0 if a == b else 0.0
            sa = {a[i : i + n] for i in range(len(a) - n + 1)}
            sb = {b[i : i + n] for i in range(len(b) - n + 1)}
            return len(sa & sb) / len(sa | sb)

        parent = list(range(len(texts)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i in range(len(texts)):
            for j in range(i + 1, len(texts)):
                if jac(texts[i], texts[j]) >= threshold:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
        return [i for i in range(len(texts)) if find(i) == i]

    mismatches = 0
    for trial in range(100):
        threshold = float(rng.choice([0.5, 0.8]))
        texts = [
            "".join(rng.choice(list("abc"), size=rng.integers(4, 14)))
            for _ in range(50)
        ]
        recs = [make_record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
        kept, _, _ = cluster_prune(recs, threshold, 3)
        if [r.id for r in kept] != [f"r{i}" for i in brute_kept(texts, threshold, 3)]:
            mismatches += 1
    assert mismatches == 0  # zero mismatches required


@criterion(10, "BLEU sanity: identical -> 1.0, disjoint -> 0.0, hand value to 1e-9")
def test_bleu_sanity():
    corpus = [["the", "cat", "sat", "on", "the", "mat"], ["a", "b", "c", "d", "e"]]
    assert bleu(corpus, corpus) == pytest.approx(1.0, abs=1e-12)
    assert bleu([["a", "b", "c", "d"]], [["x", "y", "z", "w"]]) == 0.0  # exact
    ref = [["the", "cat", "sat", "on", "the", "mat"]]
    hyp = [["the", "cat", "sat", "on", "mat"]]
    # clipped precisions 5/5, 3/4, 2/3, 1/2; brevity penalty exp(1 - 6/5)
    expect = math.exp(1 - 6 / 5) * (1.0 * (3 / 4) * (2 / 3) * (1 / 2)) ** 0.25
    assert bleu(ref, hyp) == pytest.approx(expect, abs=1e-9)  # tolerance: 1e-9


def _synthetic_manifest(n):
    rng = np.random.default_rng(7)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))

    def rand_word():
        return "".join(rng.choice(letters, size=rng.integers(4, 9)))

    records = []
    asr_texts = []
    for i in range(n):
        words = [rand_word() for _ in range(rng.integers(5, 11))]
        text = " ".join(words)
        roll = i % 10
        if roll < 6:  # ASR: mix of clean, noisy, duplicate, and missing hypothesis
            if asr_texts and i % 17 == 0:
                text = asr_texts[int(rng.integers(0, len(asr_texts)))]
            asr_texts.append(text)
            if i % 13 == 0:
                hyp = None
            elif roll < 4:
                hyp = text
            else:
                hyp = " ".join(rand_word() for _ in words)
            records.append(
                SampleRecord(
                    id=f"r{i:05d}",
                    scenario=Scenario.ASR,
                    language=Language.ENG,
                    text=text,
                    hypothesis=hyp,
                    media=(
                        MediaRef(
                            kind=MediaKind.AUDIO,
                            path=f"clips/{i:05d}.wav",
                            duration=float(rng.integers(1, 20)),
                            sample_rate=16000,
                        ),
                    ),
                )
            )
        elif roll < 8:  # S2TT: half similar, half dissimilar translations
            translation = text if roll == 6 else " ".join(reversed(words))
            records.append(
                SampleRecord(
                    id=f"r{i:05d}",
                    scenario=Scenario.S2TT,
                    language=Language.ZH_ENG,
                    text=text,
                    translation=translation,
                    media=(),
                )
            )
        else:  # QA: passes the consistency stage untouched
            records.append(
                SampleRecord(
                    id=f"r{i:05d}",
                    scenario=Scenario.QA,
                    language=Language.ENG,
                    text=text,
                    media=(),
                )
            )
    return records


@criterion(11, "filter CLI deterministic: 10,000 records, jobs 1 vs 8, byte-identical")
def test_end_to_end_determinism(tmp_path):
    manifest = tmp_path / "synthetic.jsonl"
    write_manifest(_synthetic_manifest(10_000), manifest)
    outputs = {}
    for run, jobs in (("a1", 1), ("a8", 8), ("b1", 1), ("b8", 8)):
        out_dir = tmp_path / run
        out_dir.mkdir()
        code = dispatch(
            [
                "filter",
                "--manifest", str(manifest),
                "--out", str(out_dir / "kept.jsonl"),
                "--dropped", str(out_dir / "dropped.jsonl"),
                "--report", str(out_dir / "reports"),
                "--jobs", str(jobs),
            ]
        )
        assert code == 0
        files = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(out_dir))] = path.read_bytes()
        outputs[run] = files
    baseline = outputs["a1"]
    assert sorted(baseline) == [
        "dropped.jsonl",
        "kept.jsonl",
        "reports/consistency-filter.json",
        "reports/dedup.json",
        "reports/near-duplicate-cluster.json",
    ]
    for run in ("a8", "b1", "b8"):
        assert outputs[run] == baseline  # byte-identical across jobs and reruns
