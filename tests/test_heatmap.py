"""Grid accumulation, mass-preserving smoothing, and portable renders."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from svaa.birdseye import BEV_POINT
from svaa.errors import EmptyInput
from svaa.heatmap import (
    GridGeometry,
    HeatGrid,
    SmoothingSpec,
    accumulate_grid,
    gaussian_smooth,
    peak_intensity,
    render_csv,
    render_pgm,
)

def pts(*coords):
    """BEV_POINT rows of one window at the given (bev_x, bev_y)."""
    points = np.zeros(len(coords), dtype=BEV_POINT)
    points["global_id"] = np.arange(1, len(coords) + 1)
    points["bev_x"], points["bev_y"] = np.array(coords, dtype=np.float64).reshape(-1, 2).T
    return points


def direct_smooth_oracle(cells: np.ndarray, sigma: float) -> np.ndarray:
    """Non-separable reference: spread each source cell with its renormalized
    truncated 2-D kernel."""
    radius = math.ceil(3 * sigma)
    offsets = np.arange(-radius, radius + 1)
    k1 = np.exp(-(offsets**2) / (2 * sigma**2))
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    n_rows, n_cols = cells.shape
    out = np.zeros_like(cells, dtype=np.float64)
    for r in range(n_rows):
        for c in range(n_cols):
            mass = cells[r, c]
            if mass == 0:
                continue
            r_lo, r_hi = max(0, r - radius), min(n_rows, r + radius + 1)
            c_lo, c_hi = max(0, c - radius), min(n_cols, c + radius + 1)
            patch = k2[r_lo - r + radius : r_hi - r + radius, c_lo - c + radius : c_hi - c + radius]
            out[r_lo:r_hi, c_lo:c_hi] += mass * patch / patch.sum()
    return out


class TestAccumulate:
    def test_three_points_one_cell(self):
        grid = accumulate_grid(pts((0.2, 3.1), (0.3, 3.2), (0.4, 3.3)), cell_size=1.0)
        assert grid.cells.shape == (1, 1)
        assert grid.cells[0, 0] == 3
        assert grid.total_mass == 3

    def test_extent_shape_is_max_index_plus_one(self):
        grid = accumulate_grid(pts((0.5, 0.5), (6.5, 3.5)), cell_size=1.0)
        assert grid.cells.shape == (4, 7)  # (max_y + 1, max_x + 1)

    def test_extent_origin_aligned_down(self):
        grid = accumulate_grid(pts((-2.3, 1.7)), cell_size=1.0)
        assert grid.x_min == -3.0
        assert grid.y_min == 1.0

    def test_extent_refuses_empty(self):
        with pytest.raises(EmptyInput):
            accumulate_grid(pts(), cell_size=1.0)

    def test_fixed_bounds_empty_ok(self):
        geometry = GridGeometry(-8, 8, 0, 8, 16, 16)
        grid = accumulate_grid(pts(), geometry)
        assert grid.total_mass == 0
        assert grid.cells.shape == (16, 16)

    def test_fixed_bounds_clamps_strays(self):
        geometry = GridGeometry(-1, 1, 0, 2, 2, 2)
        grid = accumulate_grid(pts((-50.0, 1.0), (50.0, 1.0), (0.5, 99.0)), geometry)
        assert grid.cells[1, 0] == 1  # clamped left
        assert grid.cells[1, 1] == 2  # clamped right and clamped top

    def test_counts_are_integers(self):
        rng = random.Random(5)
        points = pts(*[(rng.uniform(-4, 4), rng.uniform(0, 8)) for _ in range(123)])
        grid = accumulate_grid(points, GridGeometry(-5, 5, 0, 10, 8, 8))
        assert np.all(grid.cells == np.rint(grid.cells))
        assert grid.total_mass == 123

    def test_random_binning_matches_oracle(self):
        rng = random.Random(17)
        geometry = GridGeometry(-10, 10, 0, 20, 13, 9)
        for _ in range(30):
            coords = [(rng.uniform(-12, 12), rng.uniform(-1, 22)) for _ in range(rng.randrange(0, 200))]
            grid = accumulate_grid(pts(*coords), geometry)
            want = np.zeros((9, 13))
            for x, y in coords:
                col = min(max(math.floor((x - -10) / geometry.cell_w), 0), 12)
                row = min(max(math.floor((y - 0) / geometry.cell_h), 0), 8)
                want[row, col] += 1
            assert np.array_equal(grid.cells, want)


class TestSmoothing:
    def test_all_zero_stays_zero(self):
        grid = HeatGrid(np.zeros((9, 9)), 0, 0, 1, 1)
        out = gaussian_smooth(grid, SmoothingSpec(2.0))
        assert np.all(out.cells == 0)

    def test_center_delta_peaks_at_center_and_conserves(self):
        cells = np.zeros((31, 31))
        cells[15, 15] = 8.0
        out = gaussian_smooth(HeatGrid(cells, 0, 0, 1, 1), SmoothingSpec(2.0))
        assert out.cells.argmax() == 15 * 31 + 15
        assert out.total_mass == pytest.approx(8.0, abs=1e-6)

    def test_matches_direct_2d_oracle(self):
        rng = np.random.default_rng(3)
        for sigma in (0.8, 1.5, 2.0):
            cells = rng.poisson(2.0, size=(17, 23)).astype(np.float64)
            out = gaussian_smooth(HeatGrid(cells, 0, 0, 1, 1), SmoothingSpec(sigma))
            want = direct_smooth_oracle(cells, sigma)
            assert np.allclose(out.cells, want, atol=1e-9, rtol=1e-9)

    def test_mass_preserved_on_random_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            cells = rng.poisson(1.0, size=(12, 12)).astype(np.float64)
            grid = HeatGrid(cells, 0, 0, 1, 1)
            out = gaussian_smooth(grid, SmoothingSpec(2.0))
            assert out.total_mass == pytest.approx(grid.total_mass, rel=1e-6, abs=1e-9)
            assert np.all(out.cells >= 0)

    def test_kernel_larger_than_grid(self):
        cells = np.zeros((3, 3))
        cells[1, 1] = 5.0
        out = gaussian_smooth(HeatGrid(cells, 0, 0, 1, 1), SmoothingSpec(4.0))
        assert out.total_mass == pytest.approx(5.0, rel=1e-9)

    def test_translation_equivariance_interior(self):
        cells = np.zeros((41, 41))
        cells[18, 20] = 3.0
        shifted = np.zeros((41, 41))
        shifted[19, 21] = 3.0
        spec = SmoothingSpec(1.5)
        a = gaussian_smooth(HeatGrid(cells, 0, 0, 1, 1), spec).cells
        b = gaussian_smooth(HeatGrid(shifted, 0, 0, 1, 1), spec).cells
        assert np.allclose(a[10:30, 12:30], b[11:31, 13:31], atol=1e-12)

    def test_radius_is_three_sigma(self):
        assert SmoothingSpec(2.0).radius == 6
        assert SmoothingSpec(1.7).radius == 6
        assert SmoothingSpec(0.5).radius == 2

    def test_kernel_normalized(self):
        assert SmoothingSpec(2.2).kernel().sum() == pytest.approx(1.0, rel=1e-12)

    def test_geometry_carries_over(self):
        grid = HeatGrid(np.ones((4, 4)), -3.0, 1.0, 0.5, 0.25)
        out = gaussian_smooth(grid, SmoothingSpec(1.0))
        assert (out.x_min, out.y_min, out.cell_w, out.cell_h) == (-3.0, 1.0, 0.5, 0.25)


class TestPeakIntensity:
    def test_all_zero(self):
        assert peak_intensity(HeatGrid(np.zeros((4, 4)), 0, 0, 1, 1)) == 0.0

    def test_single_cell(self):
        cells = np.zeros((4, 4))
        cells[2, 1] = 8.0
        assert peak_intensity(HeatGrid(cells, 0, 0, 1, 1)) == 8.0


class TestRenderPgm:
    def test_single_cell(self):
        data = render_pgm(HeatGrid(np.array([[5.0]]), 0, 0, 1, 1), gamma=1.0)
        assert data == b"P2\n1 1\n255\n255\n"

    def test_all_zero_two_by_two(self):
        data = render_pgm(HeatGrid(np.zeros((2, 2)), 0, 0, 1, 1))
        assert data == b"P2\n2 2\n255\n0 0\n0 0\n"

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        grid = HeatGrid(rng.random((8, 8)), 0, 0, 1, 1)
        assert render_pgm(grid, 0.7) == render_pgm(grid, 0.7)

    def test_gamma_scaling(self):
        grid = HeatGrid(np.array([[1.0, 4.0]]), 0, 0, 1, 1)
        flat = render_pgm(grid, 1.0).decode().splitlines()[-1].split()
        boosted = render_pgm(grid, 0.5).decode().splitlines()[-1].split()
        assert flat == [str(round(255 * 0.25)), "255"]
        assert boosted == [str(round(255 * 0.5)), "255"]

    def test_values_within_255(self):
        rng = np.random.default_rng(2)
        grid = HeatGrid(rng.random((6, 6)) * 100, 0, 0, 1, 1)
        body = render_pgm(grid, 2.0).decode().splitlines()[3:]
        values = [int(v) for line in body for v in line.split()]
        assert all(0 <= v <= 255 for v in values)


class TestRenderCsv:
    def test_nine_significant_digits(self):
        grid = HeatGrid(np.array([[1 / 3, 2.0], [0.0, 123456789.123]]), 0, 0, 1, 1)
        text = render_csv(grid)
        assert text == "0.333333333,2\n0,123456789\n"

    def test_row_major_shape(self):
        grid = HeatGrid(np.arange(6, dtype=float).reshape(2, 3), 0, 0, 1, 1)
        lines = render_csv(grid).strip().splitlines()
        assert len(lines) == 2 and all(len(l.split(",")) == 3 for l in lines)
