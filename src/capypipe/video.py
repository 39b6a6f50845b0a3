"""Deterministic frame-timestamp schedules under an fps and frame-cap policy.

One rule counts timed media: `duration * rate` frames, floored. `frame_count`
applies it to video under the fps and cap, `tokens.audio_budget` to audio at
100 frames/s, and `schedule` spreads the counted frames over the clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .manifest import _FLOAT_MAX, _count, _rate

# guards float noise when durations arrive as decimal literals (e.g. 2.37 * 100)
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


def _frames(duration: float, rate: float) -> int:
    """Whole frames in `duration` seconds at `rate` frames per second."""
    # counted in float arithmetic, so an int product too large for a float fails here
    if not (0 <= duration <= _FLOAT_MAX and float(duration) * rate < math.inf):
        raise ValueError(f"duration must be >= 0 with a finite frame count, got {duration}")
    return math.floor(float(duration) * rate + _EPS)


def frame_count(duration: float, fps: float = 1.0, cap: int = 128) -> int:
    """Frames `schedule(duration, fps, cap)` keeps, in O(1): 0 for 0 s, 1 for a
    clip shorter than one frame, else the raw count capped at `cap`."""
    raw = _frames(duration, _rate("fps", fps))
    _count("cap", cap)
    return min(raw, cap) if raw else int(duration > 0)


def schedule(duration: float, fps: float = 1.0, cap: int = 128) -> FrameSchedule:
    """Sample frames at interval midpoints, uniformly subsampling above the cap.

    Raw timestamps are (k + 0.5) / fps; when more than `cap` frames exist,
    `cap` of them are kept at uniformly spaced indices with both endpoints
    retained.
    """
    n = frame_count(duration, fps, cap)
    raw = _frames(duration, fps)
    if raw == 0:
        # a clip shorter than one frame keeps its midpoint, and 0 s keeps nothing
        return FrameSchedule((duration / 2.0,) * n, fps, cap, truncated=False)
    # the step (raw - 1) / (n - 1) is at least 1, so the rounded indices come
    # distinct and increasing; at step 1 (raw == n) index j is j exactly, and
    # a single kept frame is the first
    idx = (round(j * (raw - 1) / max(n - 1, 1)) for j in range(n))
    # only the kept indices are turned into timestamps: O(cap) whatever the duration
    return FrameSchedule(
        tuple((k + 0.5) / fps for k in idx), fps, cap, truncated=raw > cap
    )
