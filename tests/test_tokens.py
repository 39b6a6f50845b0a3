import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capypipe.manifest import Language, MediaKind, MediaRef, Scenario
from capypipe.tiler import EmbeddingGrid, TilePlan, plan_tiles
from capypipe.tokens import (
    COMPRESSED_TOKENS,
    ROW_BREAKS_PER_UNIT,
    UNIT_TOKENS,
    SegmentKind,
    assemble_layout,
    audio_budget,
    compress_tokens,
    flatten_with_row_breaks,
    image_budget,
    text_budget,
    unflatten,
    video_budget,
)
from capypipe.video import schedule

from conftest import make_record


class TestCompressTokens:
    def test_constant(self):
        g = EmbeddingGrid(32, 32, 4, np.full((32, 32, 4), 7.0, dtype=np.float32))
        out = compress_tokens(g)
        assert (out.rows, out.cols, out.dim) == (16, 16, 4)
        assert np.all(out.values == 7.0)

    def test_checkerboard_cancels(self):
        r, c = np.mgrid[0:32, 0:32]
        board = np.where((r + c) % 2 == 0, 1.0, -1.0)[..., None].astype(np.float32)
        out = compress_tokens(EmbeddingGrid(32, 32, 1, board))
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("dim", [1, 8, 64])
    def test_1024_to_256(self, dim, rng):
        g = EmbeddingGrid(32, 32, dim, rng.normal(size=(32, 32, dim)).astype(np.float32))
        out = compress_tokens(g)
        assert out.rows * out.cols == 256
        assert g.rows * g.cols == 1024

    def test_block_mean_oracle(self, rng):
        vals = rng.normal(size=(8, 6, 2)).astype(np.float32)
        out = compress_tokens(EmbeddingGrid(8, 6, 2, vals))
        for i in range(4):
            for j in range(3):
                block = vals[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                np.testing.assert_allclose(
                    out.values[i, j], block.mean(axis=(0, 1)), rtol=1e-6
                )

    def test_nearest_upsample_preserves_block_means(self, rng):
        vals = rng.normal(size=(32, 32, 3)).astype(np.float32)
        out = compress_tokens(EmbeddingGrid(32, 32, 3, vals))
        up = np.repeat(np.repeat(out.values, 2, axis=0), 2, axis=1)
        blocks = vals.reshape(16, 2, 16, 2, 3).mean(axis=(1, 3))
        up_blocks = up.reshape(16, 2, 16, 2, 3).mean(axis=(1, 3))
        np.testing.assert_array_equal(blocks.astype(np.float32), up_blocks.astype(np.float32))

    def test_odd_dims_rejected(self):
        g = EmbeddingGrid(3, 4, 1, np.zeros((3, 4, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="even"):
            compress_tokens(g)


class TestFlatten:
    def test_16x16_length_and_positions(self):
        seq = flatten_with_row_breaks(16, 16)
        assert len(seq) == 272
        breaks = [i for i, k in enumerate(seq) if k is SegmentKind.ROW_BREAK]
        assert breaks == [17 * r + 16 for r in range(16)]

    def test_1x1(self):
        assert flatten_with_row_breaks(1, 1) == [
            SegmentKind.IMAGE_UNIT,
            SegmentKind.ROW_BREAK,
        ]

    def test_round_trip_exhaustive(self):
        for rows in range(1, 33):
            for cols in range(1, 33):
                assert unflatten(flatten_with_row_breaks(rows, cols)) == (rows, cols)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            flatten_with_row_breaks(0, 3)


def explicit_image_sequence(plan):
    """Oracle: build the full token sequence one symbol at a time."""
    seq = []
    for unit in range(plan.units):
        if unit:
            seq.append("sep")
        seq.extend(["tok"] * COMPRESSED_TOKENS + ["row"] * ROW_BREAKS_PER_UNIT)
    return seq


class TestImageBudget:
    def test_single_cell(self):
        plan = TilePlan(1, 1, 448, thumbnail=False, score=0.0)
        assert image_budget(plan).total == 272

    def test_3x3_with_thumbnail(self):
        plan = TilePlan(3, 3, 448, thumbnail=True, score=0.0)
        assert image_budget(plan).total == 10 * 272 + 9 == 2729

    def test_2x2_with_thumbnail(self):
        plan = TilePlan(2, 2, 448, thumbnail=True, score=0.0)
        assert image_budget(plan).total == 5 * 272 + 4 == 1364

    def test_total_matches_explicit_sequence_all_grids(self):
        for rows in range(1, 4):
            for cols in range(1, 4):
                plan = TilePlan(rows, cols, 448, thumbnail=rows * cols > 1, score=0.0)
                layout = image_budget(plan)
                assert layout.total == len(explicit_image_sequence(plan))
                assert layout.total == plan.units * UNIT_TOKENS + (plan.units - 1)


class TestVideoBudget:
    def test_10s(self):
        layout = video_budget(10.0, 1.0, 128)
        frames = sum(1 for k, _ in layout.segments if k is SegmentKind.VIDEO_FRAME)
        assert frames == 10
        visual = sum(
            c for k, c in layout.segments
            if k in (SegmentKind.VIDEO_FRAME, SegmentKind.ROW_BREAK)
        )
        assert visual == 2720
        assert layout.total == 2720 + 9

    def test_cap(self):
        layout = video_budget(500.0, 1.0, 128)
        frames = sum(1 for k, _ in layout.segments if k is SegmentKind.VIDEO_FRAME)
        assert frames == 128

    def test_minimum_one_frame(self):
        layout = video_budget(0.5, 1.0, 128)
        frames = sum(1 for k, _ in layout.segments if k is SegmentKind.VIDEO_FRAME)
        assert frames == 1

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            video_budget(-1.0)

    @pytest.mark.parametrize("fps, cap", [(0.0, 128), (-1.0, 128), (1.0, 0)])
    def test_invalid_fps_or_cap(self, fps, cap):
        with pytest.raises(ValueError, match="must be"):
            video_budget(10.0, fps, cap)

    def test_frames_follow_closed_form(self, rng):
        # floor(duration * fps), capped, at least one frame for any positive duration
        for _ in range(2000):
            duration = float(rng.choice([0.0, rng.uniform(0, 3), rng.uniform(0, 600)]))
            fps = float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.01, 10)]))
            cap = int(rng.integers(1, 200))
            expected = min(math.floor(duration * fps + 1e-6), cap)
            if duration > 0:
                expected = max(expected, 1)
            layout = video_budget(duration, fps, cap)
            frames = sum(1 for k, _ in layout.segments if k is SegmentKind.VIDEO_FRAME)
            assert frames == expected, (duration, fps, cap)


class TestAudioBudget:
    def test_one_second(self):
        assert audio_budget(1.0) == 25

    def test_zero(self):
        assert audio_budget(0.0) == 0

    def test_fractional(self):
        assert audio_budget(2.37) == 59

    def test_monotone(self):
        values = [audio_budget(t / 10) for t in range(0, 300)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("t", range(1, 20))
    def test_whole_second_band(self, t):
        assert 25 * t - 3 <= audio_budget(float(t)) <= 25 * t


class TestAssembleLayout:
    def test_text_only(self):
        rec = make_record(scenario=Scenario.QA, media=(), text="three word answer")
        layout = assemble_layout(rec, [])
        assert layout.segments == ((SegmentKind.TEXT, 3),)

    def test_image_plus_text(self):
        ref = MediaRef(kind=MediaKind.IMAGE, path="i.ppm", width=300, height=300)
        rec = make_record(scenario=Scenario.CAPTION, media=(ref,), text="a cat")
        plan = plan_tiles(300, 300, 9, 448)
        layout = assemble_layout(rec, [plan])
        assert layout.total == 272 + 2
        assert layout.segments[-1] == (SegmentKind.TEXT, 2)

    def test_audio_plus_text(self):
        rec = make_record(text="ok")
        layout = assemble_layout(rec, [audio_budget(1.0)])
        assert layout.segments[0] == (SegmentKind.AUDIO, 25)

    def test_video_ref(self):
        ref = MediaRef(kind=MediaKind.VIDEO, path="v.mp4", duration=10.0)
        rec = make_record(scenario=Scenario.QA, media=(ref,), text="what happens")
        layout = assemble_layout(rec, [schedule(10.0, 1.0, 128)])
        frames = sum(1 for k, _ in layout.segments if k is SegmentKind.VIDEO_FRAME)
        assert frames == 10

    def test_missing_plan_names_ref(self):
        rec = make_record()
        with pytest.raises(ValueError, match="'r1' has 1 media refs, got 0 plans"):
            assemble_layout(rec, [])

    def test_total_is_sum_of_budgets(self):
        ref = MediaRef(kind=MediaKind.IMAGE, path="i.ppm", width=1344, height=1344)
        rec = make_record(scenario=Scenario.CAPTION, media=(ref,), text="one two three")
        plan = plan_tiles(1344, 1344, 9, 448)
        layout = assemble_layout(rec, [plan])
        assert layout.total == image_budget(plan).total + text_budget(rec.text)
