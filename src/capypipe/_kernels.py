"""Hot numeric kernels: one numpy/Python implementation of each."""

from __future__ import annotations

from typing import Sequence

import numpy as np

# kept for perfbench's environment stamp, which reads it on every run; there
# is no compiled path
HAVE_NUMBA = False


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
# output samples per weight block: memory is bounded by this, not by duration
_RESAMPLE_BLOCK = 4096


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
    for start in range(0, n_out, _RESAMPLE_BLOCK):
        stop = min(start + _RESAMPLE_BLOCK, n_out)
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
