"""Both kernel paths (numba jit and pure numpy) must agree."""

import numpy as np
import pytest

from capypipe import _kernels


requires_numba = pytest.mark.skipif(
    not _kernels.HAVE_NUMBA, reason="numba disabled or unavailable"
)


@requires_numba
def test_bilinear_paths_agree(rng):
    src = rng.integers(0, 256, size=(37, 23, 3)).astype(np.float64)
    jit = _kernels._bilinear_resize_nb(src, 19, 41)
    ref = _kernels._bilinear_resize_np(src.astype(np.uint8), 19, 41)
    assert np.array_equal(jit, ref)


@requires_numba
def test_grid_interp_paths_agree(rng):
    src = rng.normal(size=(6, 9, 5))
    jit = _kernels._grid_interp_nb(src, 13, 4)
    ref = _kernels._grid_interp_np(src, 13, 4)
    np.testing.assert_allclose(jit, ref, rtol=1e-6)


@requires_numba
def test_resample_paths_agree(rng):
    x = rng.normal(size=4800)
    jit = _kernels._resample_nb(x, 1 / 3, 1600)
    ref = _kernels._resample_np(x, 1 / 3, 1600)
    np.testing.assert_allclose(jit, ref, rtol=1e-12, atol=1e-12)


@requires_numba
def test_edit_ops_paths_agree(rng):
    for _ in range(200):
        ref_seq = rng.integers(0, 3, size=rng.integers(0, 8)).astype(np.int64)
        hyp_seq = rng.integers(0, 3, size=rng.integers(0, 8)).astype(np.int64)
        assert _kernels._edit_ops_nb(ref_seq, hyp_seq) == _kernels._edit_ops_py(
            ref_seq, hyp_seq
        )


def test_env_flag_selects_numpy_path(monkeypatch):
    import importlib
    import sys

    monkeypatch.setenv("CAPYPIPE_NO_NUMBA", "1")
    saved = sys.modules.pop("capypipe._kernels")
    try:
        mod = importlib.import_module("capypipe._kernels")
        assert not mod.HAVE_NUMBA
        assert mod.bilinear_resize_u8 is mod._bilinear_resize_np
    finally:
        sys.modules["capypipe._kernels"] = saved
