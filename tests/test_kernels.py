"""Kernels against hand-computed values and independent reference code."""

import math
import tracemalloc

import numpy as np
import pytest

from capypipe import _kernels


def _edit_ops_backtrace(ref, hyp):
    """Full op-matrix DP, then a backtrace from the last cell; ties go to
    match/substitute, then delete, then insert."""
    nr, nh = len(ref), len(hyp)
    dist = [[0] * (nh + 1) for _ in range(nr + 1)]
    op = [[0] * (nh + 1) for _ in range(nr + 1)]
    for j in range(nh + 1):
        dist[0][j], op[0][j] = j, "ins"
    for i in range(nr + 1):
        dist[i][0], op[i][0] = i, "del"
    for i in range(1, nr + 1):
        for j in range(1, nh + 1):
            sub = dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = dist[i - 1][j] + 1
            ins = dist[i][j - 1] + 1
            if sub <= dele and sub <= ins:
                dist[i][j], op[i][j] = sub, "sub"
            elif dele <= ins:
                dist[i][j], op[i][j] = dele, "del"
            else:
                dist[i][j], op[i][j] = ins, "ins"
    s = ins_n = dele_n = 0
    i, j = nr, nh
    while i > 0 or j > 0:
        if op[i][j] == "sub":
            s += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif op[i][j] == "del":
            dele_n += 1
            i -= 1
        else:
            ins_n += 1
            j -= 1
    return s, ins_n, dele_n


def test_edit_ops_matches_backtrace_on_ints(rng):
    for _ in range(500):
        alphabet = int(rng.integers(1, 5))
        ref = rng.integers(0, alphabet, size=rng.integers(0, 12)).tolist()
        hyp = rng.integers(0, alphabet, size=rng.integers(0, 12)).tolist()
        assert _kernels.edit_ops(ref, hyp) == _edit_ops_backtrace(ref, hyp), (ref, hyp)


def test_edit_ops_matches_backtrace_on_strings(rng):
    words = ["the", "cat", "sat", "on", "a", "mat", "猫"]
    for _ in range(300):
        ref = [words[k] for k in rng.integers(0, len(words), size=rng.integers(0, 15))]
        hyp = [words[k] for k in rng.integers(0, len(words), size=rng.integers(0, 15))]
        assert _kernels.edit_ops(ref, hyp) == _edit_ops_backtrace(ref, hyp), (ref, hyp)


def _edit_ops_four_values(ref, hyp):
    """The two-row DP whose every cell carries (dist, s, i, d) of the path it
    chose, with `edit_ops`' tie order."""
    prev = [(j, 0, j, 0) for j in range(len(hyp) + 1)]
    for row, r in enumerate(ref, start=1):
        left = (row, 0, 0, row)
        cur = [left]
        for j, h in enumerate(hyp):
            diag, up = prev[j], prev[j + 1]
            same = r == h
            sub = diag[0] if same else diag[0] + 1
            dele, ins = up[0] + 1, left[0] + 1
            if sub <= dele and sub <= ins:
                left = diag if same else (sub, diag[1] + 1, diag[2], diag[3])
            elif dele <= ins:
                left = (dele, up[1], up[2], up[3] + 1)
            else:
                left = (ins, left[1], left[2] + 1, left[3])
            cur.append(left)
        prev = cur
    return prev[-1][1:]


@pytest.mark.parametrize("alphabet", [2, 3, 8, 26])
def test_edit_ops_matches_the_four_value_dp(alphabet):
    # lengths past the recursive oracle's 6, over alphabets from dense to sparse matches
    rng = np.random.default_rng([21, alphabet])
    for _ in range(300):
        ref = rng.integers(0, alphabet, size=rng.integers(0, 41)).tolist()
        hyp = rng.integers(0, alphabet, size=rng.integers(0, 41)).tolist()
        assert _kernels.edit_ops(ref, hyp) == _edit_ops_four_values(ref, hyp), (ref, hyp)


def test_edit_ops_accepts_strings_and_arrays():
    assert _kernels.edit_ops("kitten", "sitting") == (2, 1, 0)
    assert _kernels.edit_ops(np.array([1, 2, 3]), np.array([1, 3])) == (0, 0, 1)
    assert _kernels.edit_ops([], ["a", "b"]) == (0, 2, 0)


# NUL, a lone surrogate and U+10FFFF, whose packed 2-gram keys squared pass
# int64, so that keys are re-ranked densely from n = 3 on
_NGRAM_ALPHABET = ["a", "b", " ", "\x00", "\ud800", "\U0010ffff", "中"]


def _brute_ngram_keys(texts, n):
    """(code points of the n-gram, text) for each n-gram occurrence, sorted."""
    return sorted((tuple(map(ord, text[p : p + n])), i)
                  for i, text in enumerate(texts) for p in range(len(text) - n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 100])
# the int64 bound, and one so small that keys are re-ranked at every step,
# the (n-gram, text) key's included
@pytest.mark.parametrize("end", [2**63, 2**16])
def test_text_ngrams_keys_match_brute_force(rng, monkeypatch, n, end):
    monkeypatch.setattr(_kernels, "_INT64_END", end)
    sizes = rng.integers(n, n + 12, size=30)
    picks = [rng.integers(0, len(_NGRAM_ALPHABET), size=size) for size in sizes]
    texts = ["".join(_NGRAM_ALPHABET[j] for j in pick) for pick in picks]
    texts += texts[:3]  # equal texts share every n-gram
    keys = _kernels.text_ngrams(texts, n)
    expect = _brute_ngram_keys(texts, n)
    grams, owners = np.divmod(keys, len(texts))
    assert len(keys) == len(expect)
    assert np.all(keys[1:] >= keys[:-1])
    assert owners.tolist() == [i for _, i in expect]
    # a new n-gram exactly where the brute force's n-gram changes
    assert (np.diff(grams) > 0).tolist() == [x != y for (x, _), (y, _) in zip(expect, expect[1:])]


def test_bilinear_upscale_hand_computed():
    src = np.array([[0, 100], [200, 40]], dtype=np.uint8)[:, :, None]
    out = _kernels.bilinear_resize_u8(src, 4, 4)
    # source coordinates clamp to 0, 0.25, 0.75, 1 on both axes; .5 rounds up
    expected = [
        [0, 25, 75, 100],
        [50, 59, 76, 85],
        [150, 126, 79, 55],
        [200, 160, 80, 40],
    ]
    assert out.dtype == np.uint8
    assert out[:, :, 0].tolist() == expected


def test_bilinear_downscale_averages_blocks():
    src = np.arange(16, dtype=np.uint8).reshape(4, 4, 1)
    out = _kernels.bilinear_resize_u8(src, 2, 2)
    # half-pixel centers land between source pixels: 2x2 block means 2.5, 4.5, ...
    assert out[:, :, 0].tolist() == [[3, 5], [11, 13]]


def test_bilinear_same_size_is_identity(rng):
    src = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
    assert np.array_equal(_kernels.bilinear_resize_u8(src, 5, 7), src)


def test_grid_interp_hand_computed():
    src = np.array([[0.0, 2.0], [4.0, 6.0]])[:, :, None]
    out = _kernels.grid_interp(src, 3, 3)
    assert out.dtype == np.float32
    assert out[:, :, 0].tolist() == [[0, 1, 2], [2, 3, 4], [4, 5, 6]]


def test_grid_interp_keeps_corners(rng):
    src = rng.normal(size=(3, 4, 2))
    assert np.array_equal(
        _kernels.grid_interp(src, 2, 2), src[[0, -1]][:, [0, -1]].astype(np.float32)
    )
    assert np.array_equal(_kernels.grid_interp(src, 1, 1), src[:1, :1].astype(np.float32))


def _bilinear_reference(src, ys, xs):
    """Each output element on its own, in Python floats: its four neighbours
    blended along x, then the two results along y."""
    h, w, ch = src.shape
    out = np.empty((len(ys), len(xs), ch))
    for i, y in enumerate(ys):
        y0 = math.floor(y)
        y1, fy = min(y0 + 1, h - 1), y - y0
        for j, x in enumerate(xs):
            x0 = math.floor(x)
            x1, fx = min(x0 + 1, w - 1), x - x0
            for c in range(ch):
                top = float(src[y0, x0, c]) * (1.0 - fx) + float(src[y0, x1, c]) * fx
                bot = float(src[y1, x0, c]) * (1.0 - fx) + float(src[y1, x1, c]) * fx
                out[i, j, c] = top * (1.0 - fy) + bot * fy
    return out


def _half_pixel(n_in, n_out):
    return [min(max((i + 0.5) * (n_in / n_out) - 0.5, 0.0), n_in - 1.0) for i in range(n_out)]


def _align_corners(n_in, n_out):
    return [0.0 if n_out == 1 else i * ((n_in - 1) / (n_out - 1)) for i in range(n_out)]


def _blend_shapes(rng):
    """About 100 (in_h, in_w, out_h, out_w): every 1-row and 1-column case of
    sources and outputs, then random up- and down-scales."""
    shapes = [(a, b, c, d) for a in (1, 4) for b in (1, 5) for c in (1, 3) for d in (1, 7)]
    while len(shapes) < 100:
        shapes.append(tuple(int(v) for v in rng.integers(1, 13, size=4)))
    return shapes


def test_bilinear_resize_matches_scalar_reference(rng):
    for in_h, in_w, out_h, out_w in _blend_shapes(rng):
        src = rng.integers(0, 256, size=(in_h, in_w, int(rng.integers(1, 4))), dtype=np.uint8)
        val = _bilinear_reference(src, _half_pixel(in_h, out_h), _half_pixel(in_w, out_w))
        expect = np.floor(val + 0.5).astype(np.uint8)
        out = _kernels.bilinear_resize_u8(src, out_h, out_w)
        assert out.dtype == np.uint8
        assert out.tobytes() == expect.tobytes(), (in_h, in_w, out_h, out_w)


def test_grid_interp_matches_scalar_reference(rng):
    for in_r, in_c, out_r, out_c in _blend_shapes(rng):
        src = rng.normal(size=(in_r, in_c, int(rng.integers(1, 5)))).astype(np.float32)
        val = _bilinear_reference(src, _align_corners(in_r, out_r), _align_corners(in_c, out_c))
        out = _kernels.grid_interp(src, out_r, out_c)
        assert out.dtype == np.float32
        assert out.tobytes() == val.astype(np.float32).tobytes(), (in_r, in_c, out_r, out_c)


def test_bilinear_resize_memory_stays_near_output_size(rng):
    src = rng.integers(0, 256, size=(1080, 1920, 3), dtype=np.uint8)
    tracemalloc.start()
    try:
        _kernels.bilinear_resize_u8(src, 1344, 1344)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no float64 copy of the whole source: each pass holds a few float64
    # arrays of (source rows x output columns) or of the output's size
    assert peak < 200 * 2**20, peak


def test_resample_blocks_do_not_change_output(rng, monkeypatch):
    # 25 ms at each rate, so 400 outputs, in blocks of 1, 7 and more than 400
    for rate in (8000, 44100, 48000, 192000):
        x = rng.normal(size=rate // 40)
        ratio = 16000 / rate
        whole = _kernels.sinc_resample(x, ratio, 400)
        taps = 2 * math.ceil(32 / min(1.0, ratio)) + 2
        for block in (1, 7, 401):
            monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block * taps * _kernels._CELL_BYTES)
            assert np.array_equal(_kernels.sinc_resample(x, ratio, 400), whole), (rate, block)
        monkeypatch.undo()


def _resample_peak_bytes(seconds, rng, rate=48000):
    x = rng.normal(size=round(rate * seconds))
    tracemalloc.start()
    try:
        _kernels.sinc_resample(x, 16000 / rate, round(16000 * seconds))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resample_memory_does_not_grow_with_duration(rng):
    one = _resample_peak_bytes(1, rng)
    four = _resample_peak_bytes(4, rng)
    # the 4 s output is 0.4 MB larger; everything else is per block
    assert four <= one + 2**20, (one, four)


def test_resample_memory_does_not_grow_with_kernel_width(rng):
    # 770 taps per output at 192 kHz: the block shrinks as the kernel widens,
    # so each temporary stays near _BLOCK_BYTES
    peak = _resample_peak_bytes(0.5, rng, rate=192000)
    assert peak < 8 * 2**20, peak
