"""Hot numeric kernels: one numpy/Python implementation of each."""

from __future__ import annotations

from typing import Sequence

import numpy as np

# kept for perfbench's environment stamp, which reads it on every run; there
# is no compiled path
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# array passes over many short texts, a span at a time

# the memory budget of one span of an array pass, in bytes
_BLOCK_BYTES = 1 << 20
# about the bytes held per element of a span: a posting entry, a token, a character, a tap
_CELL_BYTES = 32
# packed keys stay below this, to fit int64
_INT64_END = 2**63


def _int(bound: int) -> np.dtype:
    """int32 when every value below bound fits it, else int64."""
    return np.dtype(np.int32 if bound <= 2**31 else np.int64)


def _heads(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values begins, as a bool mask."""
    heads = np.empty(len(values), bool)
    heads[:1] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """range(starts[i], starts[i] + counts[i]) for each i, end to end."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    dtype = _int(max(total, int((starts + counts).max(initial=0))))
    shift = (starts - ends + counts).astype(dtype)
    return np.arange(total, dtype=dtype) + np.repeat(shift, counts)


def _spans(weights: np.ndarray):
    """Split range(len(weights)) into consecutive (start, stop) spans whose
    weights, in bytes, total at most _BLOCK_BYTES; a span of one item may
    exceed it."""
    ends = np.cumsum(weights)
    start = 0
    while start < len(ends):
        below = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, below + _BLOCK_BYTES, side="right")))
        yield start, stop
        start = stop


def _dense(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank keys in key order, equal keys alike: int32 ranks and their count."""
    order = np.argsort(keys)
    heads = _heads(keys[order])
    ranks = np.empty(len(keys), np.int32)
    ranks[order] = np.cumsum(heads, dtype=np.int32) - 1
    return ranks, int(np.count_nonzero(heads))


def text_ngrams(texts: list[str], n: int) -> np.ndarray:
    """Every n-gram occurrence of every text as one sorted integer key,
    gram * len(texts) + i for an n-gram of text i, where each text has n or
    more characters: keys // len(texts) order like the n-grams (code-point
    order), equal n-grams alike, and keys % len(texts) is the text. Hashing
    plays no part.

    By prefix doubling (Manber & Myers, SODA 1990): the (k + s)-gram at p,
    s <= k, is the pair of k-grams at p and p + s, so ceil(log2 n) steps
    reach n. Each step packs a pair of keys into one integer, in pair order;
    keys are ranked densely again only where packing them would overflow
    int64, here and for the (n-gram, text) key. The steps run over the texts
    end to end; n-grams that cross a boundary are ranked too, and then left
    out, since boundaries come from the text lengths (a text may hold any
    code point, NUL included).
    """
    m = len(texts)
    lens = np.fromiter(map(len, texts), np.int64, m)
    ranks = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), "<i4")
    bound = int(ranks.max(initial=0)) + 1
    k = 1
    while k < n:
        step = min(k, n - k)
        if bound * bound > _INT64_END:
            ranks, bound = _dense(ranks)
        pair = ranks[:-step].astype(_int(bound * bound))
        pair *= bound
        pair += ranks[step:]
        ranks, bound, k = pair, bound * bound, k + step
        del pair  # else the last level outlives `del ranks` below
    counts = lens - n + 1
    keys = ranks[_ranges(np.cumsum(lens) - lens, counts)]
    del ranks
    if bound * m > _INT64_END:
        keys, bound = _dense(keys)
    keys = keys.astype(_int(bound * m))
    keys *= m
    keys += np.repeat(np.arange(m, dtype=np.int32), counts)
    keys.sort()
    return keys


# ---------------------------------------------------------------------------
# bilinear blend, shared by image resize and position-embedding interpolation

def _bilinear(src: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Blend an (H, W, C) array at rows ys and columns xs, both within the source."""
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, src.shape[0] - 1)
    x1 = np.minimum(x0 + 1, src.shape[1] - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    # every source row horizontally, then vertically: a four-neighbour blend's float order
    rows = src[:, x0] * (1.0 - fx) + src[:, x1] * fx
    return rows[y0] * (1.0 - fy) + rows[y1] * fy


def bilinear_resize_u8(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Image resize: half-pixel centers, border clamp, rounded to uint8."""
    in_h, in_w, _ = src.shape
    sy = (np.arange(out_h, dtype=np.float64) + 0.5) * (in_h / out_h) - 0.5
    sx = (np.arange(out_w, dtype=np.float64) + 0.5) * (in_w / out_w) - 0.5
    val = _bilinear(src, np.clip(sy, 0.0, in_h - 1.0), np.clip(sx, 0.0, in_w - 1.0))
    return np.floor(val + 0.5).astype(np.uint8)


def grid_interp(src: np.ndarray, out_r: int, out_c: int) -> np.ndarray:
    """Position-embedding interpolation: align corners, cast to float32."""
    in_r, in_c, _ = src.shape
    sr = np.zeros(out_r) if out_r == 1 else np.arange(out_r) * ((in_r - 1) / (out_r - 1))
    sc = np.zeros(out_c) if out_c == 1 else np.arange(out_c) * ((in_c - 1) / (out_c - 1))
    return _bilinear(src, sr, sc).astype(np.float32)


# ---------------------------------------------------------------------------
# Kaiser-windowed sinc resampling
#
# Output sample n sits at t = n / ratio in input-sample units, ratio =
# out_rate / in_rate. Kernel: min(1, ratio) * sinc(min(1, ratio) * tau),
# Kaiser beta = 14, 32 zero crossings each side, weights renormalized per
# output sample so constants survive the signal edges.

_KAISER_BETA = 14.0
_ZERO_CROSSINGS = 32
_I0_TERMS = 40


def _i0_series(x):
    # fixed-term modified Bessel I0 instead of np.i0, so the window, and with
    # it every resampled output, does not move with numpy's I0 approximation
    acc = np.ones_like(x)
    term = np.ones_like(x)
    q = x * x / 4.0
    for k in range(1, _I0_TERMS):
        term = term * q / (k * k)
        acc = acc + term
    return acc


def sinc_resample(x: np.ndarray, ratio: float, n_out: int) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    cutoff = min(1.0, ratio)
    half = _ZERO_CROSSINGS / cutoff
    width = int(np.ceil(half))
    offs = np.arange(-width, width + 2, dtype=np.int64)
    i0_beta = _i0_series(np.array(_KAISER_BETA))
    out = np.empty(n_out, dtype=np.float64)
    block = max(1, _BLOCK_BYTES // (len(offs) * _CELL_BYTES))
    for start in range(0, n_out, block):
        stop = min(start + block, n_out)
        t = np.arange(start, stop, dtype=np.float64) / ratio
        base = np.floor(t).astype(np.int64)
        idx = base[:, None] + offs[None, :]
        tau = t[:, None] - idx
        u = tau / half
        win = _i0_series(_KAISER_BETA * np.sqrt(np.maximum(0.0, 1.0 - u * u))) / i0_beta
        w = cutoff * np.sinc(cutoff * tau) * win
        # taps past the window's edge or the signal's ends weigh nothing
        w = np.where((np.abs(u) <= 1.0) & (idx >= 0) & (idx < len(x)), w, 0.0)
        gathered = x[np.clip(idx, 0, len(x) - 1)]
        wsum = w.sum(axis=1)
        wsum = np.where(wsum == 0.0, 1.0, wsum)
        out[start:stop] = (w * gathered).sum(axis=1) / wsum
    return out


# ---------------------------------------------------------------------------
# Levenshtein alignment with deterministic tie-breaking

def edit_ops(ref: Sequence, hyp: Sequence) -> tuple[int, int, int]:
    """(substitutions, insertions, deletions) of a minimum-cost alignment.

    Ties go to match/substitute, then delete (ref only), then insert. Each
    cell of the two-row DP carries (dist, s, i, d) from the predecessor it
    chose, which totals the same as backtracing an op matrix.
    """
    prev = [(j, 0, j, 0) for j in range(len(hyp) + 1)]
    for row, r in enumerate(ref, start=1):
        left = (row, 0, 0, row)
        cur = [left]
        for j, h in enumerate(hyp):
            diag = prev[j]
            up = prev[j + 1]
            same = r == h
            sub = diag[0] if same else diag[0] + 1
            dele = up[0] + 1
            ins = left[0] + 1
            if sub <= dele and sub <= ins:
                left = diag if same else (sub, diag[1] + 1, diag[2], diag[3])
            elif dele <= ins:
                left = (dele, up[1], up[2], up[3] + 1)
            else:
                left = (ins, left[1], left[2] + 1, left[3])
            cur.append(left)
        prev = cur
    _, s, ins_n, dele_n = prev[-1]
    return s, ins_n, dele_n
