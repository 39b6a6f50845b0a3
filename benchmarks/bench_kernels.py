#!/usr/bin/env python3
"""Benchmark the jit-compiled kernels against their pure-numpy twins.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--repeats N]

Each kernel is warmed up once (to trigger JIT compilation) and then timed
over several repeats; the best time per path is reported. If numba is not
installed or CAPYPIPE_NO_NUMBA is set, only the numpy path is timed.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from capypipe import _kernels


def best_of(fn, repeats):
    fn()  # warmup: first call pays JIT compilation / cache load
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def build_cases(rng):
    img = rng.integers(0, 256, size=(1080, 1920, 3), dtype=np.uint8)
    img_f = img.astype(np.float64)
    grid = rng.normal(size=(32, 32, 1024))
    signal = rng.normal(size=48000 * 4)
    ref = rng.integers(0, 50, size=400).astype(np.int64)
    hyp = rng.integers(0, 50, size=400).astype(np.int64)

    cases = [
        (
            "bilinear_resize 1920x1080 -> 1344x1344",
            lambda: _kernels._bilinear_resize_np(img, 1344, 1344),
            (lambda: _kernels._bilinear_resize_nb(img_f, 1344, 1344))
            if _kernels.HAVE_NUMBA
            else None,
        ),
        (
            "grid_interp 32x32x1024 -> 48x48",
            lambda: _kernels._grid_interp_np(grid, 48, 48),
            (lambda: _kernels._grid_interp_nb(grid, 48, 48))
            if _kernels.HAVE_NUMBA
            else None,
        ),
        (
            "sinc_resample 4 s 48 kHz -> 16 kHz",
            lambda: _kernels._resample_np(signal, 1 / 3, 64000),
            (lambda: _kernels._resample_nb(signal, 1 / 3, 64000))
            if _kernels.HAVE_NUMBA
            else None,
        ),
        (
            "edit_ops 400 x 400 tokens",
            lambda: _kernels._edit_ops_py(ref, hyp),
            (lambda: _kernels._edit_ops_nb(ref, hyp))
            if _kernels.HAVE_NUMBA
            else None,
        ),
    ]
    return cases


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats per path")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"numba path available: {_kernels.HAVE_NUMBA}")
    header = f"{'kernel':<42} {'numpy (ms)':>12} {'numba (ms)':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, np_fn, nb_fn in build_cases(rng):
        t_np = best_of(np_fn, args.repeats) * 1e3
        if nb_fn is None:
            print(f"{name:<42} {t_np:>12.3f} {'-':>12} {'-':>9}")
        else:
            t_nb = best_of(nb_fn, args.repeats) * 1e3
            print(f"{name:<42} {t_np:>12.3f} {t_nb:>12.3f} {t_np / t_nb:>8.1f}x")


if __name__ == "__main__":
    main()
