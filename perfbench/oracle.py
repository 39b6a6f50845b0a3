"""Output checks, computed apart from the program.

Nothing here imports capypipe. Each check takes the generated inputs and the
program's outputs (parsed JSON or arrays) and returns a list of problems;
an empty list means the outputs are correct. The reference computations
follow the documented method (text normalization, Levenshtein distance,
boundary-padded trigram cosine, shingle Jaccard, the tiling rule, the token
closed forms) and are written out here from those definitions.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter

import numpy as np

WER_THRESHOLD = 0.3
S2TT_THRESHOLD = 0.5
SHINGLE_N = 3
MAX_SLICES = 9
CELL = 448
UNIT_TOKENS = 256
ROW_BREAKS = 16
FRAME_CAP = 128
PAD_GRAY = 128
TARGET_RATE = 16000
_PAD = "\x01"  # n-gram boundary marker used by the program's trigram cosine
_FOLD = str.maketrans("０１２３４５６７８９", "0123456789")

# ---------------------------------------------------------------------------
# text reference computations


def normalize(text: str) -> str:
    text = unicodedata.normalize("NFC", text).lower().translate(_FOLD)
    return " ".join(text.split())


def levenshtein(a: list, b: list) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def wer(ref: str, hyp: str) -> float:
    r, h = normalize(ref).split(), normalize(hyp).split()
    return levenshtein(r, h) / len(r)


def trigram_cosine(a: str, b: str, n: int = 3) -> float:
    def grams(s: str) -> Counter:
        s = _PAD * (n - 1) + s + _PAD * (n - 1)
        return Counter(s[i : i + n] for i in range(len(s) - n + 1))

    va, vb = grams(a), grams(b)
    dot = sum(c * vb[g] for g, c in va.items())
    return dot / (math.sqrt(sum(c * c for c in va.values())) * math.sqrt(sum(c * c for c in vb.values())))


def shingles(text: str, n: int = SHINGLE_N) -> set[str]:
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def jaccard(a: str, b: str, n: int = SHINGLE_N) -> float:
    if len(a) < n or len(b) < n:
        return 1.0 if a == b else 0.0
    sa, sb = shingles(a, n), shingles(b, n)
    return len(sa & sb) / len(sa | sb)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def _union(parent: list[int], i: int, j: int) -> None:
    """Merge two clusters under the lower root, so the lowest index
    represents each cluster."""
    ri, rj = _find(parent, i), _find(parent, j)
    if ri != rj:
        parent[max(ri, rj)] = min(ri, rj)


def _roots_to_kept(parent: list[int]) -> list[int]:
    return [i for i in range(len(parent)) if _find(parent, i) == i]


def brute_force_kept(texts: list[str], threshold: float, n: int = SHINGLE_N) -> list[int]:
    """O(n^2) exact-Jaccard clustering; the lowest index represents each
    cluster. Returns the kept (representative) indices."""
    parent = list(range(len(texts)))
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if jaccard(texts[i], texts[j], n) >= threshold:
                _union(parent, i, j)
    return _roots_to_kept(parent)


def overlap_kept(texts: list[str], threshold: float, n: int = SHINGLE_N) -> list[int]:
    """The same clustering as brute_force_kept, for inputs too large for the
    pair loop: an inverted index counts |A & B| for every pair that shares a
    shingle, and every other pair has Jaccard 0 < threshold. Texts shorter
    than n compare by equality, as in the brute force."""
    parent = list(range(len(texts)))
    sets = [shingles(t, n) if len(t) >= n else None for t in texts]
    short: dict[str, int] = {}
    postings: dict[str, list[int]] = {}
    for j, s in enumerate(sets):
        if s is None:
            if texts[j] in short:
                _union(parent, short[texts[j]], j)
            else:
                short[texts[j]] = j
            continue
        overlap: Counter = Counter()
        for g in s:
            bucket = postings.setdefault(g, [])
            overlap.update(bucket)
            bucket.append(j)
        for i, ov in overlap.items():
            if ov / (len(sets[i]) + len(s) - ov) >= threshold:
                _union(parent, i, j)
    return _roots_to_kept(parent)


# ---------------------------------------------------------------------------
# filter workloads


def expected_filter(rows: list[dict], cluster_threshold: float, cluster_fn) -> dict[str, tuple]:
    """Per record id: (kept, stage, metric_name, metric_value) as the staged
    method defines them. metric_value is None where no metric applies."""
    out: dict[str, tuple] = {}
    seen: set[str] = set()
    survivors = []
    for row in rows:
        key = normalize(row.get("text", ""))
        if key in seen:
            out[row["id"]] = (False, "dedup", "exact-duplicate", None)
        else:
            seen.add(key)
            survivors.append(row)
    texts = [normalize(r.get("text", "")) for r in survivors]
    reps = set(cluster_fn(texts, cluster_threshold))
    for idx, row in enumerate(survivors):
        if idx not in reps:
            out[row["id"]] = (False, "near-duplicate-cluster", "jaccard", None)
            continue
        if row["scenario"] == "ASR":
            if row.get("hypothesis") is None:
                out[row["id"]] = (False, "asr-filter", "no-hypothesis", None)
            else:
                rate = wer(row["text"], row["hypothesis"])
                out[row["id"]] = (rate <= WER_THRESHOLD, "asr-filter", "wer", rate)
        elif row["scenario"] == "S2TT":
            if row.get("translation") is None:
                out[row["id"]] = (False, "s2tt-filter", "no-translation", None)
            else:
                sim = trigram_cosine(normalize(row["text"]), normalize(row["translation"]))
                out[row["id"]] = (sim >= S2TT_THRESHOLD, "s2tt-filter", "ngram_cosine", sim)
        else:
            out[row["id"]] = (True, None, None, None)
    return out


def check_filter(
    rows: list[dict],
    kept: list[dict],
    dropped: list[dict],
    expected: dict[str, tuple],
    planted_duplicates: set[str] = frozenset(),
) -> list[str]:
    problems: list[str] = []
    order = {r["id"]: i for i, r in enumerate(rows)}
    kept_ids = [r["id"] for r in kept]
    dropped_ids = [r["id"] for r in dropped]
    if sorted(kept_ids + dropped_ids, key=lambda x: order.get(x, -1)) != [r["id"] for r in rows]:
        problems.append("kept and dropped do not partition the input")
    for name, ids in (("kept", kept_ids), ("dropped", dropped_ids)):
        pos = [order.get(x, -1) for x in ids]
        if pos != sorted(pos):
            problems.append(f"{name} records are not in input order")
    stage_of = {r["id"]: (r.get("verdict") or {}).get("stage") for r in dropped}
    for rid in sorted(planted_duplicates):
        if stage_of.get(rid) != "dedup":
            problems.append(f"planted duplicate {rid} not dropped by dedup")
    outputs = [(r, True) for r in kept] + [(r, False) for r in dropped]
    for rec, is_kept in outputs:
        want = expected.get(rec["id"])
        if want is None:
            problems.append(f"{rec['id']}: not an input record")
            continue
        w_kept, w_stage, w_metric, w_value = want
        verdict = rec.get("verdict") or {}
        if is_kept != w_kept:
            problems.append(f"{rec['id']}: kept={is_kept}, expected {w_kept} ({w_stage} {w_metric} {w_value})")
        if w_stage is not None and (verdict.get("stage"), verdict.get("metric_name")) != (w_stage, w_metric):
            problems.append(f"{rec['id']}: verdict {verdict}, expected {w_stage}/{w_metric}")
        if w_value is not None:
            got = verdict.get("metric_value")
            if got is None or abs(got - w_value) > 1e-9:
                problems.append(f"{rec['id']}: {w_metric} {got}, expected {w_value}")
    return problems[:20]


# ---------------------------------------------------------------------------
# budget-media


def grid_cells(width: int, height: int, max_slices: int = MAX_SLICES, cell: int = CELL) -> tuple[int, int]:
    """(rows, cols) of the tiling rule: the ideal cell count is the image
    area over the cell area, clamped to 1..max_slices; above 1, every grid
    with ideal-1..ideal+1 cells is scored by |log(image aspect / grid
    aspect)|, ties going to fewer cells, then fewer rows."""
    ideal = min(max(math.ceil(width * height / (cell * cell)), 1), max_slices)
    if ideal == 1:
        return 1, 1
    grids = [
        (abs(math.log((width / height) / (cols / rows))), rows * cols, rows, cols)
        for rows in range(1, max_slices + 1)
        for cols in range(1, max_slices + 1)
        if abs(rows * cols - ideal) <= 1 and rows * cols <= max_slices
    ]
    _, _, rows, cols = min(grids)
    return rows, cols


def image_units(width: int, height: int) -> int:
    rows, cols = grid_cells(width, height)
    return rows * cols + (1 if rows * cols > 1 else 0)


def video_frames(duration_cs: int, cap: int = FRAME_CAP) -> int:
    """Frames at 1 fps for a duration in whole centiseconds, at least one."""
    return max(min(duration_cs // 100, cap), 1)


def _centis(seconds: float) -> int:
    return round(seconds * 100)


def expected_budget(row: dict) -> tuple[int, list[int]]:
    """(total tokens, frames per video ref) by the closed forms: 272 per
    visual unit plus one separator between units, floor(100 d) // 4 for
    audio, the word count for text."""
    total = 0
    frames = []
    for ref in row.get("media", []):
        if ref["kind"] == "Image":
            units = image_units(ref["width"], ref["height"])
        elif ref["kind"] == "Video":
            units = video_frames(_centis(ref["duration"]))
            frames.append(units)
        else:
            total += _centis(ref["duration"]) // 4
            continue
        total += (UNIT_TOKENS + ROW_BREAKS) * units + units - 1
    return total + len(row.get("text", "").split()), frames


def check_budget(rows: list[dict], out: list[dict]) -> list[str]:
    problems: list[str] = []
    if [o.get("id") for o in out] != [r["id"] for r in rows]:
        return ["budget output ids differ from the input ids"]
    for row, got in zip(rows, out):
        total, frames = expected_budget(row)
        segments = got.get("segments", [])
        if got.get("total") != total:
            problems.append(f"{row['id']}: total {got.get('total')}, expected {total}")
        if got.get("total") != sum(s["count"] for s in segments):
            problems.append(f"{row['id']}: total is not the sum of its segments")
        n_frames = sum(1 for s in segments if s["kind"] == "VideoFrame")
        if n_frames != sum(frames) or any(f > FRAME_CAP for f in frames):
            problems.append(f"{row['id']}: {n_frames} video frames, expected {frames} (cap {FRAME_CAP})")
    return problems[:20]


# ---------------------------------------------------------------------------
# media-decode


def check_profile(tone, prof: dict, resampled: np.ndarray) -> list[str]:
    """tone: perfbench.gen.Tone; prof: AudioProfile JSON; resampled: the
    16 kHz signal the program produced for this clip."""
    problems = []
    n = tone.n_samples
    want_len = round(n * TARGET_RATE / tone.rate)
    if prof["resampled_len"] != want_len or len(resampled) != want_len:
        problems.append(f"{tone.name}: resampled_len {prof['resampled_len']}/{len(resampled)}, expected {want_len}")
    want_tokens = (100 * n // tone.rate) // 4
    if prof["n_tokens"] != want_tokens:
        problems.append(f"{tone.name}: n_tokens {prof['n_tokens']}, expected {want_tokens}")
    if len(resampled):
        spectrum = np.abs(np.fft.rfft(resampled * np.hanning(len(resampled))))
        peak = np.argmax(spectrum) * TARGET_RATE / len(resampled)
        if abs(peak - tone.freq) > 2.0:
            problems.append(f"{tone.name}: peak {peak:.2f} Hz, expected {tone.freq} Hz +- 2")
    want_rms = tone.amplitude / math.sqrt(2.0)
    if abs(prof["rms"] - want_rms) > 0.01 * want_rms:
        problems.append(f"{tone.name}: rms {prof['rms']:.6f}, expected {want_rms:.6f} +- 1%")
    return problems


def check_canvas(src: np.ndarray, canvas: np.ndarray, pattern: str, grid: tuple[int, int]) -> list[str]:
    """Canvas is the tiling grid size; outside the centred, aspect-fitted
    image it is mid-gray; a constant image stays constant; bilinear output
    never leaves the source value range."""
    h, w = src.shape[:2]
    rows, cols = grid_cells(w, h)
    problems = []
    if (rows, cols) != tuple(grid):
        problems.append(f"{w}x{h}: plan {grid}, expected {(rows, cols)}")
    want_shape = (rows * CELL, cols * CELL, 3)
    if canvas.shape != want_shape:
        return problems + [f"{w}x{h}: canvas {canvas.shape}, expected {want_shape}"]
    s = min(cols * CELL / w, rows * CELL / h)
    sw, sh = round(s * w), round(s * h)
    px, py = (cols * CELL - sw) // 2, (rows * CELL - sh) // 2
    inner = canvas[py : py + sh, px : px + sw]
    pad = np.ones(canvas.shape[:2], dtype=bool)
    pad[py : py + sh, px : px + sw] = False
    if not np.all(canvas[pad] == PAD_GRAY):
        problems.append(f"{w}x{h}: padding is not {PAD_GRAY}")
    if pattern == "constant" and not np.all(inner == src[0, 0]):
        problems.append(f"{w}x{h}: constant image did not stay constant")
    if inner.min() < src.min() or inner.max() > src.max():
        problems.append(f"{w}x{h}: resized values leave the source range")
    return problems


def check_pos_embed(out: np.ndarray, a: np.ndarray, b: np.ndarray, k: np.ndarray,
                    src_rows: int = 32, src_cols: int = 32) -> list[str]:
    """Align-corners interpolation of a grid linear in (row, col) is that
    same linear function at the scaled coordinates, exact up to one float32
    rounding step (taken at magnitude 1 for values near zero, where float64
    rounding in the weights leaves a residue of order 1e-13)."""
    out_r, out_c, _ = out.shape
    r = (np.arange(out_r) * ((src_rows - 1) / (out_r - 1)))[:, None, None]
    c = (np.arange(out_c) * ((src_cols - 1) / (out_c - 1)))[None, :, None]
    want = (a * r + b * c + k).astype(np.float32)
    err = np.abs(out.astype(np.float64) - want.astype(np.float64))
    ulp = np.spacing(np.maximum(np.abs(want), np.float32(1.0))).astype(np.float64)
    if out.dtype != np.float32 or not np.all(err <= ulp):
        return [f"pos-embed: max error {err.max():.3g} exceeds one float32 step"]
    return []
