import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capypipe.tokens import audio_budget
from capypipe.video import frame_count, schedule


def test_ten_seconds_closed_form():
    s = schedule(10.0, 1.0, 128)
    assert s.timestamps == tuple(k + 0.5 for k in range(10))
    assert not s.truncated


def test_cap_preserves_endpoints():
    s = schedule(300.0, 1.0, 128)
    assert len(s.timestamps) == 128
    assert s.timestamps[0] == 0.5
    assert s.timestamps[-1] == 299.5
    assert s.truncated


def test_minimum_one_frame():
    s = schedule(0.2, 1.0, 128)
    assert s.timestamps == (0.1,)


def test_long_duration_memory_is_bounded_by_cap():
    tracemalloc.start()
    try:
        s = schedule(1e6, 1.0, 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s.timestamps) == 128
    assert (s.timestamps[0], s.timestamps[-1]) == (0.5, 1e6 - 0.5)
    # a timestamp per raw frame would take tens of MB
    assert peak < 100_000


def test_zero_duration():
    assert schedule(0.0, 1.0, 128).timestamps == ()


def test_invalid_args():
    with pytest.raises(ValueError):
        schedule(-1.0, 1.0, 128)
    with pytest.raises(ValueError):
        schedule(1.0, 0.0, 128)
    with pytest.raises(ValueError):
        schedule(1.0, 1.0, 0)


# (duration, fps) pairs whose frame count is not a finite float
_UNCOUNTABLE = {
    "inf": (math.inf, 1.0), "nan": (math.nan, 1.0), "1e308x10": (1e308, 10.0),
    "fps-inf": (1.0, math.inf), "fps-nan": (1.0, math.nan),
    # ints whose exact product is finite, but not as a float
    "int-1e307x1e300": (10**307, 10**300), "int-1e400": (10**400, 1.0),
    "fps-int-1e400": (1.0, 10**400),
}


def _audio(duration, fps, cap):
    # audio is counted by the same rule, at a fixed 100 frames/s
    return audio_budget(duration)


@pytest.mark.parametrize(
    "count, duration, fps",
    [
        *(pytest.param(schedule, *pair, id=name) for name, pair in _UNCOUNTABLE.items()),
        *(
            pytest.param(frame_count, *pair, id=f"frame_count-{name}")
            for name, pair in _UNCOUNTABLE.items()
        ),
        *(
            pytest.param(_audio, duration, 100, id=f"audio_budget-{name}")
            for name, duration in [
                ("inf", math.inf), ("nan", math.nan), ("-1", -1.0), ("1e307", 1e307),
                ("int-1e307", 10**307), ("int-1e400", 10**400),
            ]
        ),
    ],
)
def test_rejects_uncountable_frames(count, duration, fps):
    with pytest.raises(ValueError, match="must be finite|finite frame count"):
        count(duration, fps, 128)


@settings(max_examples=200, deadline=None)
@given(
    duration=st.floats(0.01, 5000.0),
    fps=st.floats(0.1, 60.0),
    cap=st.integers(1, 256),
)
def test_length_formula(duration, fps, cap):
    s = schedule(duration, fps, cap)
    expected = min(max(1, math.floor(duration * fps + 1e-6)), cap)
    assert len(s.timestamps) == expected


@settings(max_examples=100, deadline=None)
@given(duration=st.floats(1.0, 2000.0), cap=st.integers(2, 64))
def test_subsample_is_subsequence_with_endpoints(duration, cap):
    full = schedule(duration, 1.0, 10**9)
    capped = schedule(duration, 1.0, cap)
    assert set(capped.timestamps) <= set(full.timestamps)
    if capped.truncated:
        assert capped.timestamps[0] == full.timestamps[0]
        assert capped.timestamps[-1] == full.timestamps[-1]


@settings(max_examples=300, deadline=None)
@given(
    duration=st.just(0.0) | st.floats(0.0, 2.0) | st.floats(0.0, 1e5),
    fps=st.floats(0.1, 60.0),
    cap=st.just(1) | st.integers(1, 300),
)
@example(duration=0.0, fps=1.0, cap=1)
@example(duration=0.2, fps=1.0, cap=1)
@example(duration=0.2, fps=1.0, cap=128)
@example(duration=2.37, fps=100.0, cap=1)
@example(duration=1e5, fps=60.0, cap=2)
@example(duration=1e5, fps=60.0, cap=300)
def test_frame_count_is_schedule_length(duration, fps, cap):
    assert frame_count(duration, fps, cap) == len(schedule(duration, fps, cap).timestamps)


def test_doubling_fps_doubles_minus_one():
    for duration in (3.7, 10.0, 99.9):
        n1 = len(schedule(duration, 1.0, 10**9).timestamps)
        n2 = len(schedule(duration, 2.0, 10**9).timestamps)
        assert n2 >= 2 * n1 - 1


def test_strictly_increasing():
    s = schedule(777.3, 2.5, 100)
    assert all(b > a for a, b in zip(s.timestamps, s.timestamps[1:]))
