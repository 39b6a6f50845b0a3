"""Exact token budgeting for image, video, audio, and text segments.

Each encoded image cell yields a 32x32 feature grid (1024 tokens) that is
compressed 2x2 to 16x16 (256 tokens); a row-break marker follows each of the
16 rows, so one visual unit costs 272 tokens. Units are joined by a single
separator token.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import tiler, video
from .manifest import MediaKind, MediaRef, PipelineConfig, SampleRecord
from .tiler import EmbeddingGrid, TilePlan

VIT_TOKENS = 1024
COMPRESSED_GRID = (16, 16)
COMPRESSED_TOKENS = 256
ROW_BREAKS_PER_UNIT = 16
UNIT_TOKENS = COMPRESSED_TOKENS + ROW_BREAKS_PER_UNIT  # 272

# guards float noise when durations arrive as decimal literals (e.g. 2.37 * 100)
_EPS = 1e-6


class SegmentKind(str, Enum):
    TEXT = "Text"
    IMAGE_UNIT = "ImageUnit"
    VIDEO_FRAME = "VideoFrame"
    AUDIO = "Audio"
    ROW_BREAK = "RowBreak"
    SEPARATOR = "Separator"


@dataclass(frozen=True)
class TokenLayout:
    segments: tuple[tuple[SegmentKind, int], ...]

    def __post_init__(self) -> None:
        if any(count <= 0 for _, count in self.segments):
            raise ValueError("segment counts must be positive")

    @property
    def total(self) -> int:
        return sum(count for _, count in self.segments)

    def to_json(self) -> dict:
        return {
            "total": self.total,
            # a SegmentKind is a str, so json writes its value
            "segments": [{"kind": k, "count": c} for k, c in self.segments],
        }


def compress_tokens(grid: EmbeddingGrid) -> EmbeddingGrid:
    """2x2 block-mean downsample; 32x32 feature grids become 16x16."""
    if grid.rows % 2 or grid.cols % 2:
        raise ValueError(f"grid dims must be even, got {grid.rows}x{grid.cols}")
    v = grid.values.reshape(grid.rows // 2, 2, grid.cols // 2, 2, grid.dim)
    return EmbeddingGrid(
        grid.rows // 2, grid.cols // 2, grid.dim, v.mean(axis=(1, 3)).astype(np.float32)
    )


def flatten_with_row_breaks(grid_rows: int, grid_cols: int) -> list[SegmentKind]:
    """Row-major token order with a row-break marker closing every row."""
    if grid_rows < 1 or grid_cols < 1:
        raise ValueError(f"grid dims must be >= 1, got {grid_rows}x{grid_cols}")
    seq: list[SegmentKind] = []
    for _ in range(grid_rows):
        seq.extend([SegmentKind.IMAGE_UNIT] * grid_cols)
        seq.append(SegmentKind.ROW_BREAK)
    return seq


def _unit_segments(kind: SegmentKind, n_units: int) -> tuple[tuple[SegmentKind, int], ...]:
    """n_units visual units of `kind`, each closed by its row breaks, joined by separators."""
    if n_units < 1:
        return ()
    unit = ((kind, COMPRESSED_TOKENS), (SegmentKind.ROW_BREAK, ROW_BREAKS_PER_UNIT))
    return unit + ((SegmentKind.SEPARATOR, 1), *unit) * (n_units - 1)


def image_budget(plan: TilePlan) -> TokenLayout:
    """Token layout for one tiled image: all grid cells plus the thumbnail."""
    return TokenLayout(_unit_segments(SegmentKind.IMAGE_UNIT, plan.units))


def audio_budget(duration: float) -> int:
    """Token count for audio: 100 frames/s, conv stride 2, then pooling stride 2."""
    # counted in float arithmetic, so an int product too large for a float fails here
    if not (0 <= duration <= sys.float_info.max and float(duration) * 100 < math.inf):
        raise ValueError(f"duration must be >= 0 with a finite frame count, got {duration}")
    frames = math.floor(float(duration) * 100 + _EPS)
    return (frames // 2) // 2


def text_budget(text: str) -> int:
    """Whitespace-split word count; a budgeting estimate, not a tokenizer."""
    return len(text.split())


def _media_segments(ref: MediaRef, config: PipelineConfig) -> Sequence[tuple[SegmentKind, int]]:
    if ref.kind is MediaKind.IMAGE:
        if ref.width is None or ref.height is None:
            raise ValueError("lacks dimensions")
        plan = tiler.plan_tiles(ref.width, ref.height, config.max_slices, config.cell_size)
        return _unit_segments(SegmentKind.IMAGE_UNIT, plan.units)
    if ref.duration is None:
        raise ValueError("lacks duration")
    if ref.kind is MediaKind.VIDEO:
        sched = video.schedule(ref.duration, config.video_fps, config.video_frame_cap)
        return _unit_segments(SegmentKind.VIDEO_FRAME, len(sched.timestamps))
    count = audio_budget(ref.duration)
    return [(SegmentKind.AUDIO, count)] if count else []


def assemble_layout(record: SampleRecord, config: PipelineConfig) -> TokenLayout:
    """Price each media ref in manifest order, then the text estimate.

    A ref that lacks the field its kind is priced by, or whose value a budget
    function rejects, raises ValueError naming the record and the ref.
    """
    segments: list[tuple[SegmentKind, int]] = []
    for ref in record.media:
        try:
            segments.extend(_media_segments(ref, config))
        except ValueError as exc:
            raise ValueError(
                f"record {record.id!r}: {ref.kind.value.lower()} ref {ref.path!r}: {exc}"
            ) from exc
    words = text_budget(record.text)
    if words > 0:
        segments.append((SegmentKind.TEXT, words))
    return TokenLayout(tuple(segments))
