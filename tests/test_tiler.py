import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capypipe.tiler import (
    EmbeddingGrid,
    bilinear_resize,
    grid_score,
    interpolate_pos_embed,
    place_on_canvas,
    plan_tiles,
    resize_geometry,
)


def brute_force_plan(width, height, max_slices, cell_size):
    """Independent grid chooser: enumerate every (rows, cols) pair directly."""
    ideal = min(max(math.ceil(width * height / cell_size**2), 1), max_slices)
    if ideal == 1:
        return (1, 1)
    best = None
    for rows in range(1, max_slices + 1):
        for cols in range(1, max_slices + 1):
            cells = rows * cols
            if cells > max_slices or abs(cells - ideal) > 1:
                continue
            score = -abs(math.log((width / height) * (rows / cols)))
            key = (-score, cells, rows)
            if best is None or key < best[:3]:
                best = (*key, rows, cols)
    return best[3], best[4]


def enumerated_grids(width, height, max_slices, cell_size):
    """Every candidate grid, enumerated and scored on each call, as
    (-score, cells, rows, cols); empty when the image takes one cell."""
    cell_area = cell_size * cell_size
    ideal = max(math.ceil(min(width * height, max_slices * cell_area) / cell_area), 1)
    if ideal == 1:
        return []
    return [
        (-grid_score(width, height, r, n // r), n, r, n // r)
        for n in range(ideal - 1, min(ideal + 1, max_slices) + 1)
        for r in range(1, n + 1)
        if n % r == 0
    ]


def enumerated_plan(width, height, max_slices, cell_size):
    """plan_tiles from `enumerated_grids`: (rows, cols, thumbnail, repr(score))."""
    grids = enumerated_grids(width, height, max_slices, cell_size)
    if not grids:
        return 1, 1, False, repr(grid_score(width, height, 1, 1))
    *_, rows, cols = min(grids)
    return rows, cols, rows * cols > 1, repr(grid_score(width, height, rows, cols))


def _sweep_sides(cell_size):
    """Sides around each cell count: multiples of a cell and of its halves and
    thirds, so that many aspects equal a grid's ratio or sit midway (in log)
    between two, each as an int, one more, and a float a fraction off."""
    sides = set()
    for k in range(1, 13):
        for d in (1, 2, 3):
            side = max(cell_size * k // d, 1)
            sides |= {side, side + 1, side + 0.25, side * 1.5}
    return sorted(sides)


class TestPlanTiles:
    @pytest.mark.parametrize("cell_size", [1, 14, 448])
    def test_matches_the_enumerated_plan_on_a_sweep(self, cell_size):
        sides = _sweep_sides(cell_size)
        ties = 0
        for max_slices in range(1, 10):
            for width in sides:
                for height in sides:
                    plan = plan_tiles(width, height, max_slices, cell_size)
                    got = (plan.grid_rows, plan.grid_cols, plan.thumbnail, repr(plan.score))
                    assert got == enumerated_plan(width, height, max_slices, cell_size), (
                        width, height, max_slices)
                    mismatches = [g[0] for g in enumerated_grids(width, height, max_slices,
                                                                 cell_size)]
                    ties += mismatches.count(min(mismatches, default=None)) > 1
        assert ties > 0  # the sweep holds best scores that two grids share


    def test_1344_square_gives_3x3(self):
        plan = plan_tiles(1344, 1344, 9, 448)
        assert (plan.grid_rows, plan.grid_cols) == (3, 3)
        assert plan.thumbnail

    def test_small_image_whole(self):
        plan = plan_tiles(300, 300, 9, 448)
        assert (plan.grid_rows, plan.grid_cols) == (1, 1)
        assert not plan.thumbnail

    def test_wide_image_1x3(self):
        plan = plan_tiles(1344, 448, 4, 448)
        assert (plan.grid_rows, plan.grid_cols) == (1, 3)

    def test_matches_brute_force(self, rng):
        for _ in range(500):
            w = int(rng.integers(1, 4000))
            h = int(rng.integers(1, 4000))
            max_slices = int(rng.choice([4, 9]))
            plan = plan_tiles(w, h, max_slices, 448)
            assert (plan.grid_rows, plan.grid_cols) == brute_force_plan(w, h, max_slices, 448)

    def test_never_exceeds_max_slices(self, rng):
        for _ in range(200):
            w, h = int(rng.integers(1, 5000)), int(rng.integers(1, 5000))
            plan = plan_tiles(w, h, 4, 448)
            assert plan.grid_rows * plan.grid_cols <= 4

    def test_square_input_prefers_square_grid(self):
        # ideal count 9 for 1344px squares: candidate set holds 3x3
        for size in (1200, 1344):
            plan = plan_tiles(size, size, 9, 448)
            assert plan.grid_rows == plan.grid_cols

    def test_scale_invariance(self):
        base = plan_tiles(1000, 600, 9, 448)
        # doubling both dims changes the ideal count; result must still satisfy argmax
        scaled = plan_tiles(2000, 1200, 9, 448)
        assert (scaled.grid_rows, scaled.grid_cols) == brute_force_plan(2000, 1200, 9, 448)
        assert (base.grid_rows, base.grid_cols) == brute_force_plan(1000, 600, 9, 448)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            plan_tiles(0, 100)
        with pytest.raises(ValueError):
            plan_tiles(100, -1)

    @pytest.mark.parametrize("cell_size", [0, -448])
    def test_rejects_cell_size_below_one(self, cell_size):
        with pytest.raises(ValueError, match="cell_size"):
            plan_tiles(1344, 1344, 9, cell_size)

    @pytest.mark.parametrize(
        "width, height",
        [(10**400, 1500), (1500, 10**400), (float("inf"), 1500), (1e308, 10**309),
         (math.nan, 9), (9, math.nan), (-10**5000, 5), (0, 10**5000), (-math.inf, 5)],
        ids=["width-int-1e400", "height-int-1e400", "width-inf", "height-int-1e309",
             "width-nan", "height-nan", "width-int-minus-1e5000", "height-int-1e5000",
             "width-minus-inf"],
    )
    def test_rejects_side_past_float_range(self, width, height):
        with pytest.raises(ValueError, match="^image dimensions must lie in the float range$"):
            plan_tiles(width, height)

    @pytest.mark.parametrize("side", [1e308, 10**300])
    def test_area_past_float_range_plans_like_max_slices(self, side):
        plan = plan_tiles(side, side, 9, 448)
        assert plan == plan_tiles(5000, 5000, 9, 448)

    def test_plan_invariants(self):
        plan = plan_tiles(900, 900, 9, 448)
        assert plan.resized_width == plan.grid_cols * 448
        assert plan.resized_height == plan.grid_rows * 448
        assert plan.thumbnail == (plan.grid_rows * plan.grid_cols > 1)


class TestResizeGeometry:
    def test_exact_fit(self):
        plan = plan_tiles(1344, 1344, 9, 448)
        assert resize_geometry(1344, 1344, plan) == (1344, 1344, 0, 0)

    def test_wide_into_2x1(self):
        plan = plan_tiles(1000, 500, 2, 448)
        assert (plan.grid_rows, plan.grid_cols) == (1, 2)
        scaled_w, scaled_h, pad_x, pad_y = resize_geometry(1000, 500, plan)
        # s = min(896/1000, 448/500) = 0.896
        assert (scaled_w, scaled_h) == (896, 448)
        assert (pad_x, pad_y) == (0, 0)

    def test_tall_symmetric(self):
        plan = plan_tiles(500, 1000, 2, 448)
        assert (plan.grid_rows, plan.grid_cols) == (2, 1)
        scaled_w, scaled_h, _, _ = resize_geometry(500, 1000, plan)
        assert (scaled_w, scaled_h) == (448, 896)

    def test_one_axis_always_fills(self, rng):
        for _ in range(100):
            w, h = int(rng.integers(1, 3000)), int(rng.integers(1, 3000))
            plan = plan_tiles(w, h, 9, 448)
            sw, sh, px, py = resize_geometry(w, h, plan)
            assert sw <= plan.resized_width and sh <= plan.resized_height
            assert sw == plan.resized_width or sh == plan.resized_height
            assert px >= 0 and py >= 0

    @pytest.mark.parametrize("w, h", [(2, 3000), (3000, 2)])
    def test_thin_image_keeps_one_pixel_and_fills_long_axis(self, w, h):
        plan = plan_tiles(w, h, 9, 448)
        assert (plan.resized_width, plan.resized_height) == (448, 448)
        sw, sh, px, py = resize_geometry(w, h, plan)
        assert sorted((sw, sh)) == [1, 448]
        img = np.full((h, w, 3), 7, dtype=np.uint8)
        canvas = place_on_canvas(img, plan)
        assert canvas.shape == (448, 448, 3)
        assert np.all(canvas[py : py + sh, px : px + sw] == 7)
        assert np.count_nonzero(np.all(canvas == 7, axis=2)) == 448

    @pytest.mark.parametrize("w, h", [(0, 5), (5, 0), (-1, 5)])
    def test_rejects_non_positive_dimensions(self, w, h):
        with pytest.raises(ValueError, match="must be positive"):
            resize_geometry(w, h, plan_tiles(5, 5, 9, 448))

    @pytest.mark.parametrize(
        "w, h",
        [(math.inf, 5), (5, math.inf), (math.nan, 5), (5, math.nan), (10**400, 5),
         (-10**5000, 5), (5, -math.inf)],
        ids=["width-inf", "height-inf", "width-nan", "height-nan", "width-int-1e400",
             "width-int-minus-1e5000", "height-minus-inf"],
    )
    def test_rejects_side_past_float_range(self, w, h):
        with pytest.raises(ValueError, match="^image dimensions must lie in the float range$"):
            resize_geometry(w, h, plan_tiles(5, 5, 9, 448))

    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3)])
    def test_place_rejects_empty_image(self, shape):
        with pytest.raises(ValueError, match="must be positive"):
            place_on_canvas(np.zeros(shape, dtype=np.uint8), plan_tiles(5, 5, 9, 448))


class TestBilinearResize:
    def test_constant_image(self):
        img = np.full((7, 11, 3), 42, dtype=np.uint8)
        out = bilinear_resize(img, 23, 5)
        assert out.shape == (5, 23, 3)
        assert np.all(out == 42)

    def test_2x2_to_2x1_averages_columns(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        img[:, 1] = 255
        out = bilinear_resize(img, 1, 2)
        # sample point sits midway between the two columns
        assert np.all(np.abs(out.astype(int) - 128) <= 1)

    def test_identity_is_bit_exact(self, rng):
        img = rng.integers(0, 256, size=(13, 9, 3), dtype=np.uint8)
        assert np.array_equal(bilinear_resize(img, 9, 13), img)

    def test_linear_ramp_preserved(self):
        # bilinear on a bilinear-in-coordinates image stays within rounding
        y, x = np.mgrid[0:16, 0:16]
        img = np.repeat(((x * 8 + y * 4))[..., None], 3, axis=2).astype(np.uint8)
        out = bilinear_resize(img, 31, 31).astype(float)
        ys = np.clip((np.arange(31) + 0.5) * (16 / 31) - 0.5, 0, 15)
        xs = np.clip((np.arange(31) + 0.5) * (16 / 31) - 0.5, 0, 15)
        expect = xs[None, :] * 8 + ys[:, None] * 4
        assert np.max(np.abs(out[:, :, 0] - expect)) < 1.0

    def test_rejects_bad_output_dims(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            bilinear_resize(img, 0, 2)

    @pytest.mark.parametrize("size", [2.5, True], ids=["fraction", "bool"])
    @pytest.mark.parametrize("axis", ["out_w", "out_h"])
    def test_rejects_non_integer_output_dims(self, axis, size):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        dims = {"out_w": 3, "out_h": 3, axis: size}
        with pytest.raises(ValueError, match=rf"^{axis} must be an integer >= 1, got {size!r}$"):
            bilinear_resize(img, **dims)

    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3), (0, 0, 3)])
    def test_rejects_empty_image(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            bilinear_resize(np.zeros(shape, dtype=np.uint8), 3, 3)


class TestEmbeddingGrid:
    def test_rejects_values_of_another_shape(self):
        with pytest.raises(ValueError, match=r"^values shape \(2, 3, 1\) != \(2,2,1\)$"):
            EmbeddingGrid(2, 2, 1, np.zeros((2, 3, 1), dtype=np.float32))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_value(self, value):
        vals = np.zeros((2, 2, 1), dtype=np.float32)
        vals[1, 0, 0] = value
        with pytest.raises(ValueError, match="^embedding values must be finite$"):
            EmbeddingGrid(2, 2, 1, vals)


class TestInterpolatePosEmbed:
    def test_same_shape_identity(self, rng):
        g = EmbeddingGrid(4, 5, 3, rng.normal(size=(4, 5, 3)).astype(np.float32))
        out = interpolate_pos_embed(g, 4, 5)
        assert np.array_equal(out.values, g.values)

    def test_2x2_to_3x3_center(self):
        vals = np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32)[..., None]
        out = interpolate_pos_embed(EmbeddingGrid(2, 2, 1, vals), 3, 3)
        assert out.values[1, 1, 0] == pytest.approx(1.5)

    def test_corners_preserved(self, rng):
        vals = rng.normal(size=(5, 7, 4)).astype(np.float32)
        out = interpolate_pos_embed(EmbeddingGrid(5, 7, 4, vals), 11, 13)
        for r_in, r_out in ((0, 0), (4, 10)):
            for c_in, c_out in ((0, 0), (6, 12)):
                np.testing.assert_allclose(
                    out.values[r_out, c_out], vals[r_in, c_in], rtol=1e-6
                )

    def test_linear_ramp_exact(self):
        r, c = np.mgrid[0:4, 0:4]
        vals = (r + c)[..., None].astype(np.float32)
        out = interpolate_pos_embed(EmbeddingGrid(4, 4, 1, vals), 8, 8)
        rr = np.arange(8) * (3 / 7)
        cc = np.arange(8) * (3 / 7)
        expect = rr[:, None] + cc[None, :]
        np.testing.assert_allclose(out.values[:, :, 0], expect, atol=1e-5)

    def test_no_overshoot(self, rng):
        vals = rng.normal(size=(6, 6, 2)).astype(np.float32)
        out = interpolate_pos_embed(EmbeddingGrid(6, 6, 2, vals), 17, 9)
        for d in range(2):
            assert out.values[:, :, d].min() >= vals[:, :, d].min() - 1e-5
            assert out.values[:, :, d].max() <= vals[:, :, d].max() + 1e-5

    @pytest.mark.parametrize("size", [0, 2.5, True], ids=["zero", "fraction", "bool"])
    @pytest.mark.parametrize("axis", ["out_rows", "out_cols"])
    def test_rejects_non_integer_output_grid(self, axis, size):
        g = EmbeddingGrid(4, 4, 1, np.zeros((4, 4, 1), dtype=np.float32))
        dims = {"out_rows": 3, "out_cols": 3, axis: size}
        with pytest.raises(ValueError, match=rf"^{axis} must be an integer >= 1, got {size!r}$"):
            interpolate_pos_embed(g, **dims)

    def test_degenerate_axis_rejected(self):
        g = EmbeddingGrid(1, 4, 1, np.zeros((1, 4, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="degenerate"):
            interpolate_pos_embed(g, 3, 4)
