import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capypipe.manifest import (
    _COMPACT_JSON,
    Language,
    MediaKind,
    MediaRef,
    PipelineConfig,
    Scenario,
)
from capypipe.tiler import EmbeddingGrid, TilePlan, plan_tiles
from capypipe.tokens import (
    COMPRESSED_TOKENS,
    ROW_BREAKS_PER_UNIT,
    UNIT_TOKENS,
    SegmentKind,
    TokenLayout,
    assemble_layout,
    audio_budget,
    compress_tokens,
    flatten_with_row_breaks,
    image_budget,
    text_budget,
)

from conftest import audio_ref, make_record


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

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            flatten_with_row_breaks(0, 3)

    @pytest.mark.parametrize("size", [2.5, True], ids=["fraction", "bool"])
    @pytest.mark.parametrize("axis", ["grid_rows", "grid_cols"])
    def test_rejects_non_integer_size(self, axis, size):
        dims = {"grid_rows": 2, "grid_cols": 2, axis: size}
        with pytest.raises(ValueError, match=rf"^{axis} must be an integer >= 1, got {size!r}$"):
            flatten_with_row_breaks(**dims)


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

    def test_segments_expand_to_explicit_sequence_all_grids(self):
        symbol = {SegmentKind.IMAGE_UNIT: "tok", SegmentKind.ROW_BREAK: "row",
                  SegmentKind.SEPARATOR: "sep"}
        for rows in range(1, 4):
            for cols in range(1, 4):
                plan = TilePlan(rows, cols, 448, thumbnail=rows * cols > 1, score=0.0)
                expanded = [symbol[k] for k, c in image_budget(plan).segments for _ in range(c)]
                assert expanded == explicit_image_sequence(plan)


class TestTokenLayout:
    def test_total_is_sum_of_counts(self):
        layout = TokenLayout(((((SegmentKind.AUDIO, 25), (SegmentKind.TEXT, 3)), 1),))
        assert layout.total == 28
        assert layout.to_json() == {
            "total": 28,
            "segments": [{"kind": "Audio", "count": 25}, {"kind": "Text", "count": 3}],
        }

    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_non_positive_count(self, count):
        with pytest.raises(ValueError, match="segment counts must be positive"):
            TokenLayout(((((SegmentKind.TEXT, 2),), 1), (((SegmentKind.AUDIO, count),), 3)))

    @pytest.mark.parametrize("repeat", [0, -1])
    def test_rejects_run_repeated_less_than_once(self, repeat):
        with pytest.raises(ValueError, match="a run must repeat a non-empty block at least once"):
            TokenLayout(((((SegmentKind.TEXT, 2),), 1), (((SegmentKind.AUDIO, 5),), repeat)))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="a run must repeat a non-empty block at least once"):
            TokenLayout((((), 2),))


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

    @pytest.mark.parametrize(
        "duration",
        [-3.0, -1e-9, float("nan"), float("inf"), 1e308, 10**307, 10**400],
        ids=["-3", "-1e-9", "nan", "inf", "1e308", "int-1e307", "int-1e400"],
    )
    def test_rejects_uncountable_duration(self, duration):
        with pytest.raises(ValueError, match="duration must be >= 0 with a finite frame count"):
            audio_budget(duration)


class TestAssembleLayout:
    def test_text_only(self):
        rec = make_record(scenario=Scenario.QA, media=(), text="three word answer")
        layout = assemble_layout(rec, PipelineConfig())
        assert layout.segments == ((SegmentKind.TEXT, 3),)

    def test_image_plus_text(self):
        ref = MediaRef(kind=MediaKind.IMAGE, path="i.ppm", width=300, height=300)
        rec = make_record(scenario=Scenario.CAPTION, media=(ref,), text="a cat")
        layout = assemble_layout(rec, PipelineConfig())
        assert layout.total == 272 + 2
        assert layout.segments[-1] == (SegmentKind.TEXT, 2)

    def test_audio_plus_text(self):
        rec = make_record(text="ok")
        layout = assemble_layout(rec, PipelineConfig())
        assert layout.segments[0] == (SegmentKind.AUDIO, 25)

    def test_video_ref(self):
        ref = MediaRef(kind=MediaKind.VIDEO, path="v.mp4", duration=10.0)
        rec = make_record(scenario=Scenario.QA, media=(ref,), text="what happens")
        layout = assemble_layout(rec, PipelineConfig(video_fps=1.0, video_frame_cap=128))
        frames = sum(1 for k, _ in layout.segments if k is SegmentKind.VIDEO_FRAME)
        assert frames == 10

    @staticmethod
    def _video_layout(duration):
        ref = MediaRef(kind=MediaKind.VIDEO, path="v.mp4", duration=duration)
        rec = make_record(scenario=Scenario.QA, media=(ref,), text="")
        return assemble_layout(rec, PipelineConfig(video_fps=1.0, video_frame_cap=128))

    def test_video_10s(self):
        layout = self._video_layout(10.0)
        frames = sum(1 for k, _ in layout.segments if k is SegmentKind.VIDEO_FRAME)
        assert frames == 10
        visual = sum(
            c for k, c in layout.segments
            if k in (SegmentKind.VIDEO_FRAME, SegmentKind.ROW_BREAK)
        )
        assert visual == 2720
        assert layout.total == 2720 + 9

    def test_video_capped_at_128_frames(self):
        layout = self._video_layout(500.0)
        frames = sum(1 for k, _ in layout.segments if k is SegmentKind.VIDEO_FRAME)
        assert frames == 128

    def test_video_minimum_one_frame(self):
        layout = self._video_layout(0.5)
        assert layout.segments == (
            (SegmentKind.VIDEO_FRAME, COMPRESSED_TOKENS),
            (SegmentKind.ROW_BREAK, ROW_BREAKS_PER_UNIT),
        )

    def test_zero_second_video_has_no_segments(self):
        assert self._video_layout(0.0).segments == ()

    def test_long_video_is_priced_without_its_frames(self):
        ref = MediaRef(kind=MediaKind.VIDEO, path="v.mp4", duration=4_000_000.0)
        rec = make_record(scenario=Scenario.QA, media=(ref,), text="")
        config = PipelineConfig(video_fps=1.0, video_frame_cap=10**8)
        tracemalloc.start()
        try:
            layout = assemble_layout(rec, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert layout.total == 4_000_000 * UNIT_TOKENS + 3_999_999
        # a timestamp per frame would take about 150 MiB
        assert peak < 100_000

    def test_unpriceable_ref_names_record_and_ref(self):
        rec = make_record(media=(audio_ref(duration=-3.0),))
        with pytest.raises(ValueError, match=r"^record 'r1': audio ref 'a.wav': duration must be"):
            assemble_layout(rec, PipelineConfig())

    def test_total_is_sum_of_budgets(self):
        ref = MediaRef(kind=MediaKind.IMAGE, path="i.ppm", width=1344, height=1344)
        rec = make_record(scenario=Scenario.CAPTION, media=(ref,), text="one two three")
        plan = plan_tiles(1344, 1344, 9, 448)
        layout = assemble_layout(rec, PipelineConfig(max_slices=9, cell_size=448))
        assert layout.total == image_budget(plan).total + text_budget(rec.text)


def _priced(*media, text="", **config):
    rec = make_record(scenario=Scenario.QA, media=media, text=text)
    return assemble_layout(rec, PipelineConfig(**config))


def _video(duration):
    return MediaRef(kind=MediaKind.VIDEO, path="v.mp4", duration=duration)


def _image(width, height):
    return MediaRef(kind=MediaKind.IMAGE, path="i.png", width=width, height=height)


LAYOUTS = {
    "no-segments": lambda: TokenLayout(()),
    "text": lambda: _priced(text="three word answer"),
    "audio-1-token": lambda: _priced(audio_ref(duration=0.04)),
    "image-1-unit": lambda: image_budget(TilePlan(1, 1, 448, thumbnail=False, score=0.0)),
    "image-2-units": lambda: image_budget(TilePlan(1, 2, 448, thumbnail=False, score=0.0)),
    "image-5-units": lambda: image_budget(TilePlan(2, 2, 448, thumbnail=True, score=0.0)),
    "image-10-units": lambda: image_budget(TilePlan(3, 3, 448, thumbnail=True, score=0.0)),
    "video-1-frame": lambda: _priced(_video(0.5)),
    "video-2-frames": lambda: _priced(_video(2.0)),
    "video-128-frames": lambda: _priced(_video(500.0)),
    "video-3600-frames": lambda: _priced(_video(3600.0), video_frame_cap=3600),
    "four-refs": lambda: _priced(_image(1344, 1344), _video(10.0), audio_ref(duration=3.0),
                                 _image(300, 300), text="one two three"),
}


# ids that JSON escapes, or writes as they are since `ensure_ascii` is off
SAMPLE_IDS = {"quote": 'a"b', "backslash": "a\\b", "control": "a\x01\nb", "u2028": "a\u2028b",
              "non-bmp": "a\U0001f600b", "cjk": "样本"}


@pytest.mark.parametrize("sample_id", SAMPLE_IDS.values(), ids=list(SAMPLE_IDS))
@pytest.mark.parametrize("layout", LAYOUTS, ids=list(LAYOUTS))
def test_json_line_is_the_compact_json_of_the_line_object(layout, sample_id):
    layout = LAYOUTS[layout]()
    assert layout.json_line(sample_id) == _COMPACT_JSON.encode({"id": sample_id,
                                                                **layout.to_json()})
