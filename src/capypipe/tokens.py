"""Exact token budgeting for image, video, audio, and text segments.

Each encoded image cell yields a 32x32 feature grid (1024 tokens) that is
compressed 2x2 to 16x16 (256 tokens); a row-break marker follows each of the
16 rows, so one visual unit costs 272 tokens. Units are joined by a single
separator token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .manifest import MediaKind, SampleRecord
from .tiler import EmbeddingGrid, TilePlan
from .video import schedule

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
    total: int

    def __post_init__(self) -> None:
        if any(count <= 0 for _, count in self.segments):
            raise ValueError("segment counts must be positive")
        if self.total != sum(count for _, count in self.segments):
            raise ValueError("total must equal the sum of segment counts")

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "segments": [{"kind": k.value, "count": c} for k, c in self.segments],
        }


def _layout(segments: list[tuple[SegmentKind, int]]) -> TokenLayout:
    return TokenLayout(tuple(segments), sum(c for _, c in segments))


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


def unflatten(seq: Sequence[SegmentKind]) -> tuple[int, int]:
    """Recover (rows, cols) from a flattened sequence with row breaks."""
    rows = sum(1 for k in seq if k is SegmentKind.ROW_BREAK)
    if rows == 0 or len(seq) % rows:
        raise ValueError("sequence is not a valid row-break flattening")
    cols = len(seq) // rows - 1
    if list(seq) != flatten_with_row_breaks(rows, cols):
        raise ValueError("sequence is not a valid row-break flattening")
    return rows, cols


def _unit_segments(kind: SegmentKind, n_units: int) -> list[tuple[SegmentKind, int]]:
    segments: list[tuple[SegmentKind, int]] = []
    for i in range(n_units):
        if i:
            segments.append((SegmentKind.SEPARATOR, 1))
        segments.append((kind, COMPRESSED_TOKENS))
        segments.append((SegmentKind.ROW_BREAK, ROW_BREAKS_PER_UNIT))
    return segments


def image_budget(plan: TilePlan) -> TokenLayout:
    """Token layout for one tiled image: all grid cells plus the thumbnail."""
    return _layout(_unit_segments(SegmentKind.IMAGE_UNIT, plan.units))


def video_budget(duration: float, fps: float = 1.0, cap: int = 128) -> TokenLayout:
    """Token layout for a video sampled at fps, capped; frames are unsplit units.

    The frame count is that of `video.schedule`, which also checks the arguments.
    """
    frames = len(schedule(duration, fps, cap).timestamps)
    return _layout(_unit_segments(SegmentKind.VIDEO_FRAME, frames))


def audio_budget(duration: float) -> int:
    """Token count for audio: 100 frames/s, conv stride 2, then pooling stride 2."""
    frames = math.floor(duration * 100 + _EPS)
    return (frames // 2) // 2


def text_budget(text: str) -> int:
    """Whitespace-split word count; a budgeting estimate, not a tokenizer."""
    return len(text.split())


def assemble_layout(record: SampleRecord, plans: Sequence[object]) -> TokenLayout:
    """Compose per-media budgets in manifest order, then the text estimate.

    `plans` holds one entry per `record.media` ref, at the same position: a
    TilePlan (image), a FrameSchedule (video) or the audio token count.
    """
    if len(plans) != len(record.media):
        raise ValueError(
            f"record {record.id!r} has {len(record.media)} media refs, got {len(plans)} plans"
        )
    segments: list[tuple[SegmentKind, int]] = []
    for ref, plan in zip(record.media, plans):
        if ref.kind is MediaKind.IMAGE:
            segments.extend(image_budget(plan).segments)
        elif ref.kind is MediaKind.VIDEO:
            segments.extend(_unit_segments(SegmentKind.VIDEO_FRAME, len(plan.timestamps)))
        elif plan > 0:
            segments.append((SegmentKind.AUDIO, plan))
    words = text_budget(record.text)
    if words > 0:
        segments.append((SegmentKind.TEXT, words))
    return _layout(segments)
