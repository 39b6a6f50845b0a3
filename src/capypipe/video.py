"""Deterministic frame-timestamp schedules under an fps and frame-cap policy."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

_EPS = 1e-6


@dataclass(frozen=True)
class FrameSchedule:
    timestamps: tuple[float, ...]
    fps: float
    cap: int
    truncated: bool

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.timestamps, self.timestamps[1:])):
            raise ValueError("timestamps must be strictly increasing")
        if len(self.timestamps) > self.cap:
            raise ValueError("schedule exceeds frame cap")


def schedule(duration: float, fps: float = 1.0, cap: int = 128) -> FrameSchedule:
    """Sample frames at interval midpoints, uniformly subsampling above the cap.

    Raw timestamps are (k + 0.5) / fps; when more than `cap` frames exist,
    `cap` of them are kept at uniformly spaced indices with both endpoints
    retained.
    """
    if not 0 < fps <= sys.float_info.max:
        raise ValueError(f"fps must be finite and > 0, got {fps}")
    # counted in float arithmetic, so an int product too large for a float fails here
    if not (0 <= duration <= sys.float_info.max and float(duration) * fps < math.inf):
        raise ValueError(
            f"duration must be >= 0 with a finite frame count at {fps} fps, got {duration}"
        )
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    raw_count = math.floor(float(duration) * fps + _EPS)
    if raw_count == 0:
        if duration == 0:
            return FrameSchedule((), fps, cap, truncated=False)
        return FrameSchedule((duration / 2.0,), fps, cap, truncated=False)
    if raw_count <= cap:
        idx = range(raw_count)
    elif cap == 1:
        idx = [0]
    else:
        idx = sorted({round(j * (raw_count - 1) / (cap - 1)) for j in range(cap)})
    # only the kept indices are turned into timestamps: O(cap) whatever the duration
    return FrameSchedule(
        tuple((k + 0.5) / fps for k in idx), fps, cap, truncated=raw_count > cap
    )
