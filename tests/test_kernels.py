"""Kernels against hand-computed values and independent reference code."""

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


def test_edit_ops_accepts_strings_and_arrays():
    assert _kernels.edit_ops("kitten", "sitting") == (2, 1, 0)
    assert _kernels.edit_ops(np.array([1, 2, 3]), np.array([1, 3])) == (0, 0, 1)
    assert _kernels.edit_ops([], ["a", "b"]) == (0, 2, 0)


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


def test_resample_blocks_do_not_change_output(rng, monkeypatch):
    x = rng.normal(size=4800)
    whole = _kernels.sinc_resample(x, 1 / 3, 1600)
    monkeypatch.setattr(_kernels, "_RESAMPLE_BLOCK", 7)
    assert np.array_equal(_kernels.sinc_resample(x, 1 / 3, 1600), whole)


def _resample_peak_bytes(seconds, rng):
    x = rng.normal(size=48000 * seconds)
    tracemalloc.start()
    try:
        _kernels.sinc_resample(x, 1 / 3, 16000 * seconds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resample_memory_does_not_grow_with_duration(rng):
    one = _resample_peak_bytes(1, rng)
    four = _resample_peak_bytes(4, rng)
    # the 4 s output is 0.4 MB larger; everything else is per block
    assert four <= one + 2**20, (one, four)
