"""Hot numeric kernels with optional numba acceleration.

Every kernel has a pure-numpy implementation; when numba is importable and
CAPYPIPE_NO_NUMBA is unset, the @njit version is used instead. Both paths
implement the same arithmetic so results agree to float rounding.
"""

from __future__ import annotations

import os

import numpy as np

_DISABLE = os.environ.get("CAPYPIPE_NO_NUMBA", "").lower() in ("1", "true", "yes")

if not _DISABLE:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# bilinear image resize (half-pixel centers, border clamp)

def _bilinear_resize_np(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w, ch = src.shape
    sy = (np.arange(out_h, dtype=np.float64) + 0.5) * (in_h / out_h) - 0.5
    sx = (np.arange(out_w, dtype=np.float64) + 0.5) * (in_w / out_w) - 0.5
    sy = np.clip(sy, 0.0, in_h - 1.0)
    sx = np.clip(sx, 0.0, in_w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (sy - y0)[:, None, None]
    fx = (sx - x0)[None, :, None]
    f = src.astype(np.float64)
    top = f[y0][:, x0] * (1.0 - fx) + f[y0][:, x1] * fx
    bot = f[y1][:, x0] * (1.0 - fx) + f[y1][:, x1] * fx
    val = top * (1.0 - fy) + bot * fy
    return np.floor(val + 0.5).astype(np.uint8)


if HAVE_NUMBA:

    @njit(cache=True)
    def _bilinear_resize_nb(src, out_h, out_w):  # pragma: no cover - jit
        in_h, in_w, ch = src.shape
        out = np.empty((out_h, out_w, ch), dtype=np.uint8)
        for y in range(out_h):
            sy = (y + 0.5) * (in_h / out_h) - 0.5
            if sy < 0.0:
                sy = 0.0
            if sy > in_h - 1.0:
                sy = in_h - 1.0
            y0 = int(np.floor(sy))
            y1 = min(y0 + 1, in_h - 1)
            fy = sy - y0
            for x in range(out_w):
                sx = (x + 0.5) * (in_w / out_w) - 0.5
                if sx < 0.0:
                    sx = 0.0
                if sx > in_w - 1.0:
                    sx = in_w - 1.0
                x0 = int(np.floor(sx))
                x1 = min(x0 + 1, in_w - 1)
                fx = sx - x0
                for c in range(ch):
                    top = src[y0, x0, c] * (1.0 - fx) + src[y0, x1, c] * fx
                    bot = src[y1, x0, c] * (1.0 - fx) + src[y1, x1, c] * fx
                    out[y, x, c] = np.uint8(np.floor(top * (1.0 - fy) + bot * fy + 0.5))
        return out

    def bilinear_resize_u8(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
        return _bilinear_resize_nb(src.astype(np.float64), out_h, out_w)

else:
    bilinear_resize_u8 = _bilinear_resize_np


# ---------------------------------------------------------------------------
# align-corners grid interpolation (position embeddings)

def _grid_interp_np(src: np.ndarray, out_r: int, out_c: int) -> np.ndarray:
    in_r, in_c, dim = src.shape
    sr = np.zeros(out_r) if out_r == 1 else np.arange(out_r) * ((in_r - 1) / (out_r - 1))
    sc = np.zeros(out_c) if out_c == 1 else np.arange(out_c) * ((in_c - 1) / (out_c - 1))
    r0 = np.minimum(np.floor(sr).astype(np.int64), in_r - 1)
    c0 = np.minimum(np.floor(sc).astype(np.int64), in_c - 1)
    r1 = np.minimum(r0 + 1, in_r - 1)
    c1 = np.minimum(c0 + 1, in_c - 1)
    fr = (sr - r0)[:, None, None]
    fc = (sc - c0)[None, :, None]
    f = src.astype(np.float64)
    top = f[r0][:, c0] * (1.0 - fc) + f[r0][:, c1] * fc
    bot = f[r1][:, c0] * (1.0 - fc) + f[r1][:, c1] * fc
    return (top * (1.0 - fr) + bot * fr).astype(np.float32)


if HAVE_NUMBA:

    @njit(cache=True)
    def _grid_interp_nb(src, out_r, out_c):  # pragma: no cover - jit
        in_r, in_c, dim = src.shape
        out = np.empty((out_r, out_c, dim), dtype=np.float32)
        for r in range(out_r):
            sr = 0.0 if out_r == 1 else r * ((in_r - 1) / (out_r - 1))
            r0 = min(int(np.floor(sr)), in_r - 1)
            r1 = min(r0 + 1, in_r - 1)
            fr = sr - r0
            for c in range(out_c):
                sc = 0.0 if out_c == 1 else c * ((in_c - 1) / (out_c - 1))
                c0 = min(int(np.floor(sc)), in_c - 1)
                c1 = min(c0 + 1, in_c - 1)
                fc = sc - c0
                for d in range(dim):
                    top = src[r0, c0, d] * (1.0 - fc) + src[r0, c1, d] * fc
                    bot = src[r1, c0, d] * (1.0 - fc) + src[r1, c1, d] * fc
                    out[r, c, d] = np.float32(top * (1.0 - fr) + bot * fr)
        return out

    def grid_interp(src: np.ndarray, out_r: int, out_c: int) -> np.ndarray:
        return _grid_interp_nb(src.astype(np.float64), out_r, out_c)

else:
    grid_interp = _grid_interp_np


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
    # fixed-term modified Bessel I0 so numpy and numba paths agree bitwise
    acc = np.ones_like(x)
    term = np.ones_like(x)
    q = x * x / 4.0
    for k in range(1, _I0_TERMS):
        term = term * q / (k * k)
        acc = acc + term
    return acc


def _resample_np(x: np.ndarray, ratio: float, n_out: int) -> np.ndarray:
    cutoff = min(1.0, ratio)
    half = _ZERO_CROSSINGS / cutoff
    width = int(np.ceil(half))
    t = np.arange(n_out, dtype=np.float64) / ratio
    base = np.floor(t).astype(np.int64)
    offs = np.arange(-width, width + 2, dtype=np.int64)
    idx = base[:, None] + offs[None, :]
    tau = t[:, None] - idx
    arg = cutoff * tau
    sinc = np.where(arg == 0.0, 1.0, np.sin(np.pi * arg) / np.where(arg == 0.0, 1.0, np.pi * arg))
    u = tau / half
    inside = np.abs(u) <= 1.0
    win = np.where(inside, _i0_series(_KAISER_BETA * np.sqrt(np.maximum(0.0, 1.0 - u * u))), 0.0)
    win = win / _i0_series(np.array(_KAISER_BETA))
    w = cutoff * sinc * win
    valid = (idx >= 0) & (idx < len(x))
    w = np.where(valid & inside, w, 0.0)
    gathered = x[np.clip(idx, 0, len(x) - 1)]
    wsum = w.sum(axis=1)
    wsum = np.where(wsum == 0.0, 1.0, wsum)
    return (w * gathered).sum(axis=1) / wsum


if HAVE_NUMBA:

    @njit(cache=True)
    def _i0_scalar(x):  # pragma: no cover - jit
        acc = 1.0
        term = 1.0
        q = x * x / 4.0
        for k in range(1, _I0_TERMS):
            term = term * q / (k * k)
            acc = acc + term
        return acc

    @njit(cache=True)
    def _resample_nb(x, ratio, n_out):  # pragma: no cover - jit
        cutoff = min(1.0, ratio)
        half = _ZERO_CROSSINGS / cutoff
        width = int(np.ceil(half))
        i0_beta = _i0_scalar(_KAISER_BETA)
        out = np.empty(n_out, dtype=np.float64)
        n_in = len(x)
        for n in range(n_out):
            t = n / ratio
            base = int(np.floor(t))
            acc = 0.0
            wsum = 0.0
            for k in range(base - width, base + width + 2):
                if k < 0 or k >= n_in:
                    continue
                tau = t - k
                u = tau / half
                if abs(u) > 1.0:
                    continue
                arg = cutoff * tau
                if arg == 0.0:
                    sinc = 1.0
                else:
                    sinc = np.sin(np.pi * arg) / (np.pi * arg)
                win = _i0_scalar(_KAISER_BETA * np.sqrt(max(0.0, 1.0 - u * u))) / i0_beta
                w = cutoff * sinc * win
                acc += w * x[k]
                wsum += w
            out[n] = acc / wsum if wsum != 0.0 else 0.0
        return out

    def sinc_resample(x: np.ndarray, ratio: float, n_out: int) -> np.ndarray:
        return _resample_nb(np.ascontiguousarray(x, dtype=np.float64), ratio, n_out)

else:

    def sinc_resample(x: np.ndarray, ratio: float, n_out: int) -> np.ndarray:
        return _resample_np(np.ascontiguousarray(x, dtype=np.float64), ratio, n_out)


# ---------------------------------------------------------------------------
# Levenshtein alignment with deterministic tie-breaking
# op codes in backtrace: 0 = match/substitute, 1 = delete (ref only), 2 = insert

def _edit_ops_py(ref: np.ndarray, hyp: np.ndarray) -> tuple[int, int, int]:
    nr, nh = len(ref), len(hyp)
    dist = np.empty((nr + 1, nh + 1), dtype=np.int32)
    op = np.empty((nr + 1, nh + 1), dtype=np.int8)
    dist[0, :] = np.arange(nh + 1)
    op[0, :] = 2
    dist[:, 0] = np.arange(nr + 1)
    op[:, 0] = 1
    for i in range(1, nr + 1):
        for j in range(1, nh + 1):
            sub = dist[i - 1, j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1)
            dele = dist[i - 1, j] + 1
            ins = dist[i, j - 1] + 1
            if sub <= dele and sub <= ins:
                dist[i, j] = sub
                op[i, j] = 0
            elif dele <= ins:
                dist[i, j] = dele
                op[i, j] = 1
            else:
                dist[i, j] = ins
                op[i, j] = 2
    s = ins_n = dele_n = 0
    i, j = nr, nh
    while i > 0 or j > 0:
        o = op[i, j]
        if o == 0:
            if ref[i - 1] != hyp[j - 1]:
                s += 1
            i -= 1
            j -= 1
        elif o == 1:
            dele_n += 1
            i -= 1
        else:
            ins_n += 1
            j -= 1
    return s, ins_n, dele_n


if HAVE_NUMBA:

    @njit(cache=True)
    def _edit_ops_nb(ref, hyp):  # pragma: no cover - jit
        nr, nh = len(ref), len(hyp)
        dist = np.empty((nr + 1, nh + 1), dtype=np.int32)
        op = np.empty((nr + 1, nh + 1), dtype=np.int8)
        for j in range(nh + 1):
            dist[0, j] = j
            op[0, j] = 2
        for i in range(nr + 1):
            dist[i, 0] = i
            op[i, 0] = 1
        for i in range(1, nr + 1):
            for j in range(1, nh + 1):
                sub = dist[i - 1, j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1)
                dele = dist[i - 1, j] + 1
                ins = dist[i, j - 1] + 1
                if sub <= dele and sub <= ins:
                    dist[i, j] = sub
                    op[i, j] = 0
                elif dele <= ins:
                    dist[i, j] = dele
                    op[i, j] = 1
                else:
                    dist[i, j] = ins
                    op[i, j] = 2
        s = 0
        ins_n = 0
        dele_n = 0
        i, j = nr, nh
        while i > 0 or j > 0:
            o = op[i, j]
            if o == 0:
                if ref[i - 1] != hyp[j - 1]:
                    s += 1
                i -= 1
                j -= 1
            elif o == 1:
                dele_n += 1
                i -= 1
            else:
                ins_n += 1
                j -= 1
        return s, ins_n, dele_n

    def edit_ops(ref: np.ndarray, hyp: np.ndarray) -> tuple[int, int, int]:
        s, i, d = _edit_ops_nb(
            np.ascontiguousarray(ref, dtype=np.int64),
            np.ascontiguousarray(hyp, dtype=np.int64),
        )
        return int(s), int(i), int(d)

else:

    def edit_ops(ref: np.ndarray, hyp: np.ndarray) -> tuple[int, int, int]:
        return _edit_ops_py(np.asarray(ref, dtype=np.int64), np.asarray(hyp, dtype=np.int64))
