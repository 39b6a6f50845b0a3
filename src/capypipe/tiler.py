"""Adaptive sub-image split planning, resize geometry, and grid interpolation.

High-resolution images are split into a grid of fixed-size cells. The grid is
chosen by scoring every candidate whose cell count is within one of the ideal
count (image area / cell area), preferring grids whose aspect ratio matches
the image. Multi-cell plans get a whole-image thumbnail for global context.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .manifest import _FLOAT_MAX, MAX_SLICES, _count

PAD_GRAY = 128


@dataclass(frozen=True, slots=True)
class TilePlan:
    grid_rows: int
    grid_cols: int
    cell_size: int
    thumbnail: bool
    score: float

    @property
    def resized_width(self) -> int:
        return self.grid_cols * self.cell_size

    @property
    def resized_height(self) -> int:
        return self.grid_rows * self.cell_size

    @property
    def units(self) -> int:
        return self.grid_rows * self.grid_cols + (1 if self.thumbnail else 0)


@dataclass(frozen=True)
class EmbeddingGrid:
    rows: int
    cols: int
    dim: int
    values: np.ndarray  # shape (rows, cols, dim), float32

    def __post_init__(self) -> None:
        if self.values.shape != (self.rows, self.cols, self.dim):
            raise ValueError(
                f"values shape {self.values.shape} != ({self.rows},{self.cols},{self.dim})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("embedding values must be finite")


def grid_score(width: int, height: int, rows: int, cols: int) -> float:
    """Log-aspect mismatch score; 0 is a perfect aspect match, more negative is worse."""
    return -abs(math.log((width / height) / (cols / rows)))


def _image_size(width: float, height: float) -> None:
    """Refuse sides outside the float range (NaN too), then sides not positive:
    plan and fit divide them. The range comes first, so the message that quotes
    the sides never formats an int of thousands of digits."""
    if not (-_FLOAT_MAX <= width <= _FLOAT_MAX and -_FLOAT_MAX <= height <= _FLOAT_MAX):
        raise ValueError("image dimensions must lie in the float range")
    if width <= 0 or height <= 0:
        raise ValueError(f"image dimensions must be positive, got {width}x{height}")


# one entry per (ideal, max_slices), both in 1..MAX_SLICES
@functools.lru_cache(maxsize=MAX_SLICES * MAX_SLICES)
def _candidate_grids(ideal: int, max_slices: int) -> tuple[tuple[int, int, int], ...]:
    """Each (cells, rows, cols) grid of ideal - 1, ideal or ideal + 1 cells, at most max_slices."""
    return tuple(
        (n, r, n // r)
        for n in range(ideal - 1, min(ideal + 1, max_slices) + 1)
        for r in range(1, n + 1)
        if n % r == 0
    )


def plan_tiles(width: int, height: int, max_slices: int = 9, cell_size: int = 448) -> TilePlan:
    """Choose the sub-image grid for an image of the given pixel dimensions."""
    _image_size(width, height)
    _count("max_slices", max_slices, MAX_SLICES)
    _count("cell_size", cell_size)
    # the area is clamped before the division, so no finite area overflows
    cell_area = cell_size * cell_size
    ideal = max(math.ceil(min(width * height, max_slices * cell_area) / cell_area), 1)
    if ideal == 1:
        return TilePlan(1, 1, cell_size, False, grid_score(width, height, 1, 1))
    # each grid keyed by its mismatch, -grid_score with width / height taken
    # once, so that the higher score wins, then fewer cells, then fewer rows
    aspect = width / height
    mismatch, _, rows, cols = min(
        (abs(math.log(aspect / (c / r))), n, r, c) for n, r, c in _candidate_grids(ideal, max_slices)
    )
    return TilePlan(rows, cols, cell_size, rows * cols > 1, -mismatch)


def resize_geometry(width: int, height: int, plan: TilePlan) -> tuple[int, int, int, int]:
    """Aspect-preserving fit of the image into the plan's grid canvas.

    Returns (scaled_w, scaled_h, pad_x, pad_y) with padding centering the
    scaled image; at least one axis fills the canvas exactly.
    """
    _image_size(width, height)
    rw, rh = plan.resized_width, plan.resized_height
    s = min(rw / width, rh / height)
    # a side far shorter than the other would round away to nothing
    scaled_w = max(1, round(s * width))
    scaled_h = max(1, round(s * height))
    return scaled_w, scaled_h, (rw - scaled_w) // 2, (rh - scaled_h) // 2


def bilinear_resize(image: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Resize an (H, W, 3) uint8 image with half-pixel-center bilinear sampling."""
    _count("out_w", out_w)
    _count("out_h", out_h)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8 or 0 in image.shape:
        raise ValueError(f"expected a non-empty (H, W, 3) uint8 image, got {image.shape}")
    if (image.shape[0], image.shape[1]) == (out_h, out_w):
        return image.copy()
    return _kernels.bilinear_resize_u8(image, out_h, out_w)


def place_on_canvas(image: np.ndarray, plan: TilePlan) -> np.ndarray:
    """Resize into the grid canvas, mid-gray padding around the scaled image."""
    h, w = image.shape[:2]
    scaled_w, scaled_h, pad_x, pad_y = resize_geometry(w, h, plan)
    canvas = np.full((plan.resized_height, plan.resized_width, 3), PAD_GRAY, dtype=np.uint8)
    canvas[pad_y : pad_y + scaled_h, pad_x : pad_x + scaled_w] = bilinear_resize(
        image, scaled_w, scaled_h
    )
    return canvas


def interpolate_pos_embed(grid: EmbeddingGrid, out_rows: int, out_cols: int) -> EmbeddingGrid:
    """Resize a position-embedding grid with align-corners bilinear interpolation."""
    _count("out_rows", out_rows)
    _count("out_cols", out_cols)
    if (out_rows, out_cols) == (grid.rows, grid.cols):
        return EmbeddingGrid(grid.rows, grid.cols, grid.dim, grid.values.copy())
    if (grid.rows < 2 and out_rows != grid.rows) or (grid.cols < 2 and out_cols != grid.cols):
        raise ValueError(
            f"cannot interpolate a degenerate axis: source {grid.rows}x{grid.cols}, "
            f"target {out_rows}x{out_cols}"
        )
    values = _kernels.grid_interp(grid.values, out_rows, out_cols)
    return EmbeddingGrid(out_rows, out_cols, grid.dim, values)
