"""Exact token budgeting for image, video, audio, and text segments.

Each encoded image cell yields a 32x32 feature grid (1024 tokens) that is
compressed 2x2 to 16x16 (256 tokens); a row-break marker follows each of the
16 rows, so one visual unit costs 272 tokens. Units are joined by a single
separator token.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tiler, video
from .manifest import MediaKind, MediaRef, PipelineConfig, SampleRecord, _count
from .tiler import EmbeddingGrid, TilePlan

VIT_TOKENS = 1024
COMPRESSED_GRID = (16, 16)
COMPRESSED_TOKENS = 256
ROW_BREAKS_PER_UNIT = 16
UNIT_TOKENS = COMPRESSED_TOKENS + ROW_BREAKS_PER_UNIT  # 272


class SegmentKind(str, Enum):
    TEXT = "Text"
    IMAGE_UNIT = "ImageUnit"
    VIDEO_FRAME = "VideoFrame"
    AUDIO = "Audio"
    ROW_BREAK = "RowBreak"
    SEPARATOR = "Separator"


Segment = tuple[SegmentKind, int]
# a block of segments and how many times it repeats, in a row
Run = tuple[tuple[Segment, ...], int]


@dataclass(frozen=True)
class TokenLayout:
    """A sample's token segments in order, held as runs so that a layout of n
    visual units costs two runs, not 3n segments, to build, check and sum."""

    runs: tuple[Run, ...]

    def __post_init__(self) -> None:
        for block, repeat in self.runs:
            if not block or repeat < 1:
                raise ValueError("a run must repeat a non-empty block at least once")
            if any(count <= 0 for _, count in block):
                raise ValueError("segment counts must be positive")

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The runs expanded, one `(kind, count)` per segment."""
        return tuple(itertools.chain.from_iterable(block * repeat for block, repeat in self.runs))

    @property
    def total(self) -> int:
        return sum(count * repeat for block, repeat in self.runs for _, count in block)

    def to_json(self) -> dict:
        return {
            "total": self.total,
            # a SegmentKind is a str, so json writes its value
            "segments": [{"kind": k, "count": c} for k, c in self.segments],
        }

    def segments_json(self) -> str:
        """`to_json()["segments"]` as compact JSON text: each run's block, one
        cached fragment, repeated as the run says."""
        parts = [_block_json(block) * repeat for block, repeat in self.runs]
        if parts:
            parts[0] = parts[0][1:]  # every segment opens with its comma but the first
        return f"[{''.join(parts)}]"


# bounded, since audio and text blocks take one entry per distinct count; an
# entry is one block's text, not a repeated run's, so it stays ~100 B at any
# frame cap
@functools.lru_cache(maxsize=1024)
def _block_json(block: tuple[Segment, ...]) -> str:
    # kind values are plain ASCII names, and an int's JSON is its repr
    return "".join(f',{{"kind":"{kind.value}","count":{count}}}' for kind, count in block)


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
    _count("grid_rows", grid_rows)
    _count("grid_cols", grid_cols)
    seq: list[SegmentKind] = []
    for _ in range(grid_rows):
        seq.extend([SegmentKind.IMAGE_UNIT] * grid_cols)
        seq.append(SegmentKind.ROW_BREAK)
    return seq


def _unit_runs(kind: SegmentKind, n_units: int) -> tuple[Run, ...]:
    """n_units visual units of `kind`, each closed by its row breaks, joined by separators."""
    if n_units < 1:
        return ()
    unit = ((kind, COMPRESSED_TOKENS), (SegmentKind.ROW_BREAK, ROW_BREAKS_PER_UNIT))
    if n_units == 1:
        return ((unit, 1),)
    return ((unit, 1), (((SegmentKind.SEPARATOR, 1), *unit), n_units - 1))


def image_budget(plan: TilePlan) -> TokenLayout:
    """Token layout for one tiled image: all grid cells plus the thumbnail."""
    return TokenLayout(_unit_runs(SegmentKind.IMAGE_UNIT, plan.units))


def audio_budget(duration: float) -> int:
    """Token count for audio: 100 frames/s (counted by the video frame rule),
    conv stride 2, then pooling stride 2."""
    return video._frames(duration, 100) // 4


def text_budget(text: str) -> int:
    """Whitespace-split word count; a budgeting estimate, not a tokenizer."""
    return len(text.split())


def _media_runs(ref: MediaRef, config: PipelineConfig) -> tuple[Run, ...]:
    if ref.kind is MediaKind.IMAGE:
        if ref.width is None or ref.height is None:
            raise ValueError("lacks dimensions")
        plan = tiler.plan_tiles(ref.width, ref.height, config.max_slices, config.cell_size)
        return _unit_runs(SegmentKind.IMAGE_UNIT, plan.units)
    if ref.duration is None:
        raise ValueError("lacks duration")
    if ref.kind is MediaKind.VIDEO:
        frames = video.frame_count(ref.duration, config.video_fps, config.video_frame_cap)
        return _unit_runs(SegmentKind.VIDEO_FRAME, frames)
    count = audio_budget(ref.duration)
    return ((((SegmentKind.AUDIO, count),), 1),) if count else ()


def assemble_layout(record: SampleRecord, config: PipelineConfig) -> TokenLayout:
    """Price each media ref in manifest order, then the text estimate.

    A ref that lacks the field its kind is priced by, or whose value a budget
    function rejects, raises ValueError naming the record and the ref.
    """
    runs: list[Run] = []
    for ref in record.media:
        try:
            runs.extend(_media_runs(ref, config))
        except ValueError as exc:
            raise ValueError(
                f"record {record.id!r}: {ref.kind.value.lower()} ref {ref.path!r}: {exc}"
            ) from exc
    words = text_budget(record.text)
    if words > 0:
        runs.append((((SegmentKind.TEXT, words),), 1))
    return TokenLayout(tuple(runs))
